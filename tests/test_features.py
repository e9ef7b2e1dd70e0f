import codecs
import csv
import json

import pytest

from tickpred.cli import main
from tickpred.errors import DataError
from tickpred.features import correlate_features, load_metadata


def _per_stock(code, acc_mc, acc_dk, pi, avgprice=10.0, vol=0.01, dropped=None):
    return {
        "stock_code": code,
        "avgprice": avgprice,
        "volatility": vol,
        "settings": {
            "T=0.05": {
                "dropped": dropped,
                "n": 100,
                "n_distinct": 6,
                "s_est": 1.5,
                "pi_max": pi,
                "models": {"mc": {"acc": acc_mc}, "dk": {"acc": acc_dk}},
            }
        },
    }


def _write_per_stock(directory, **results):
    directory.mkdir()
    for code, result in results.items():
        (directory / f"{code}.json").write_text(json.dumps(result))


def test_load_metadata_validates_ranges(tmp_path):
    good = tmp_path / "meta.csv"
    good.write_text("stock_code,life,scale,category,region\nA,10,500,20,32\n")
    meta = load_metadata(good)
    assert meta["A"]["category"] == 20
    good.write_bytes(codecs.BOM_UTF8 + good.read_bytes())  # as Excel's "CSV UTF-8" saves it
    assert load_metadata(good) == meta

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


def test_features_command_skips_dropped_and_joins_metadata(tmp_path):
    _write_per_stock(
        tmp_path / "per_stock",
        A=_per_stock("A", 0.6, 0.65, 0.8),
        B=_per_stock("B", 0.7, 0.72, 0.9, dropped="too short"),
        C=_per_stock("C", 0.5, 0.55, 0.7),
    )
    (tmp_path / "meta.csv").write_text("stock_code,life,scale,category,region\nA,3,100,1,2\n")
    out = tmp_path / "features.csv"
    argv = ["features", "--per-stock", str(tmp_path / "per_stock"), "--setting", "T=0.05", "--out", str(out)]
    assert main([*argv, "--metadata", str(tmp_path / "meta.csv")]) == 0
    with open(out, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert [r["stock_code"] for r in rows] == ["A", "C"]
    assert (rows[0]["life"], rows[0]["category"], rows[0]["acc_dk"]) == ("3", "1", "0.65")
    assert [rows[1][k] for k in ("life", "scale", "category", "region")] == ["", "", "", ""]  # no metadata for C
    assert main(argv) == 0  # no metadata file: every company field blank
    assert out.read_text().splitlines()[1] == "A,10,0.01,,,,,0.6,0.65,0.8"


@pytest.mark.parametrize(
    "per_stock, metadata, needles",
    [
        ({"drops": [{"reason": "too short", "setting": "T=0.05", "stock_code": "A"}]}, None, ["drops.json"]),
        ({"A": '{"stock_code": "A", "settings": {'}, None, ["A.json", "Expecting"]),
        ({"A": {"stock_code": "A", "settings": {"T=0.05": {"dropped": None}}}}, None, ["A.json"]),
        ({"A": _per_stock("A", 0.6, 0.65, 0.8)}, "A,3,100,x,2", ["meta.csv", "A", "category"]),
        ({"A": _per_stock("A", 0.6, 0.65, 0.8)}, "A,3", ["meta.csv", "A"]),
    ],
    ids=["report-mirror", "truncated-json", "no-models", "category-not-a-number", "short-metadata-row"],
)
def test_features_data_errors_name_their_file(tmp_path, capsys, per_stock, metadata, needles):
    directory = tmp_path / "per_stock"
    directory.mkdir()
    for name, content in per_stock.items():
        (directory / f"{name}.json").write_text(content if isinstance(content, str) else json.dumps(content))
    argv = ["features", "--per-stock", str(directory), "--setting", "T=0.05"]
    if metadata is not None:
        (tmp_path / "meta.csv").write_text(f"stock_code,life,scale,category,region\n{metadata}\n")
        argv += ["--metadata", str(tmp_path / "meta.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and all(needle in err for needle in needles), err


def test_features_unknown_setting_lists_the_labels_found(tmp_path, capsys):
    _write_per_stock(tmp_path / "per_stock", A=_per_stock("A", 0.6, 0.65, 0.8))
    assert main(["features", "--per-stock", str(tmp_path / "per_stock"), "--setting", "T=0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "T=0.05" in err and "no stocks kept" not in err, err


def test_features_setting_with_every_stock_dropped_says_none_kept(tmp_path, capsys):
    _write_per_stock(tmp_path / "per_stock", A=_per_stock("A", 0.6, 0.65, 0.8, dropped="too short"))
    assert main(["features", "--per-stock", str(tmp_path / "per_stock"), "--setting", "T=0.05"]) == 2
    assert "no stocks kept under setting 'T=0.05'" in capsys.readouterr().err


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
