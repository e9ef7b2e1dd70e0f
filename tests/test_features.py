import pytest

from tickpred.errors import DataError
from tickpred.features import build_feature_table, correlate_features, load_metadata


def _per_stock(code, acc_mc, acc_dk, pi, avgprice=10.0, vol=0.01, dropped=None):
    return {
        "stock_code": code,
        "avgprice": avgprice,
        "volatility": vol,
        "settings": {
            "T=0.05": {
                "dropped": dropped,
                "pi_max": pi,
                "models": {"mc": {"acc": acc_mc}, "dk": {"acc": acc_dk}},
            }
        },
    }


def test_load_metadata_validates_ranges(tmp_path):
    good = tmp_path / "meta.csv"
    good.write_text("stock_code,life,scale,category,region\nA,10,500,20,32\n")
    meta = load_metadata(good)
    assert meta["A"]["category"] == 20

    bad = tmp_path / "bad.csv"
    bad.write_text("stock_code,life,scale,category,region\nA,10,500,21,5\n")
    with pytest.raises(DataError, match="category"):
        load_metadata(bad)
    bad.write_text("stock_code,life,scale,category,region\nA,10,500,5,0\n")
    with pytest.raises(DataError, match="region"):
        load_metadata(bad)
    bad.write_text("stock_code,life,scale\nA,10,500\n")
    with pytest.raises(DataError, match="missing columns"):
        load_metadata(bad)


def test_build_feature_table_skips_dropped_and_joins_metadata():
    per_stock = {
        "A": _per_stock("A", 0.6, 0.65, 0.8),
        "B": _per_stock("B", 0.7, 0.72, 0.9, dropped="too short"),
        "C": _per_stock("C", 0.5, 0.55, 0.7),
    }
    rows = build_feature_table(per_stock, "T=0.05", {"A": {"life": 3, "scale": 100, "category": 1, "region": 2}})
    assert [r["stock_code"] for r in rows] == ["A", "C"]
    assert rows[0]["life"] == 3
    assert rows[1]["life"] == ""  # no metadata for C
    assert rows[0]["acc_dk"] == 0.65


def test_correlate_features_directions():
    rows = []
    for k in range(40):
        price = 2.0 + k
        acc = 0.95 - 0.01 * k
        rows.append(
            {
                "stock_code": f"{k:06d}",
                "avgprice": price,
                "volatility": 0.001 * (k + 1),
                "life": (k * 7) % 30 + 1,
                "scale": 100.0,
                "category": (k % 4) + 1,
                "region": (k % 3) + 1,
                "acc_mc": acc,
                "acc_dk": acc,
                "pi_max": acc + 0.03,
            }
        )
    result = correlate_features(rows, target="acc_dk")
    coef = {r["feature"]: r["coefficient"] for r in result["spearman"]}
    assert coef["avgprice"] == pytest.approx(-1.0)
    assert coef["volatility"] == pytest.approx(-1.0)
    assert "scale" not in coef  # constant feature: correlation undefined, skipped
    anova_features = {r["feature"] for r in result["anova"]}
    assert anova_features == {"category", "region"}
    binned = result["binned"]["avgprice"]
    means = [b["mean"] for b in binned]
    assert all(a >= b for a, b in zip(means, means[1:]))  # accuracy slides down the bins


def test_correlate_features_empty_rejected():
    with pytest.raises(DataError, match="empty"):
        correlate_features([])
