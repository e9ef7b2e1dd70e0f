"""Load the feature table's inputs and run the cross-stock analyses.

The feature table joins price-derived features (average price, volatility),
user-supplied company metadata (life, scale, category, region) and model
results (accuracy per predictor, the accuracy upper bound). Quantitative
features go to rank correlation against accuracy, categorical ones to one-way
ANOVA, and price/volatility get grouped error-bar summaries over the preset
distribution bins.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError, read_table
from .pipeline import read_result
from .stats import PRICE_BIN_EDGES, VOLATILITY_BIN_EDGES, anova_oneway, bin_feature, spearman

FEATURE_HEADER = [
    "stock_code",
    "avgprice",
    "volatility",
    "life",
    "scale",
    "category",
    "region",
    "acc_mc",
    "acc_dk",
    "pi_max",
]

QUANTITATIVE = ("avgprice", "volatility", "life", "scale")
CATEGORICAL = ("category", "region")
METADATA_TYPES = {"life": float, "scale": float, "category": int, "region": int}


def load_metadata(path) -> dict[str, dict[str, float]]:
    """Side CSV with stock_code,life,scale,category,region columns.

    Raises DataError naming the file and the stock when a value is not a number or out of range.
    """
    from .stats import N_CATEGORIES, N_REGIONS

    table = read_table(path, {"stock_code": str, **METADATA_TYPES})
    rows = [dict(zip(table, values)) for values in zip(*table.values())]
    for row in rows:
        for key, top in (("category", N_CATEGORIES), ("region", N_REGIONS)):
            if not 1 <= row[key] <= top:
                raise DataError(f"{path}: {key} {row[key]} outside 1..{top} for {row['stock_code']}")
    return {row["stock_code"]: {k: row[k] for k in METADATA_TYPES} for row in rows}


def correlate_features(rows: list[dict], target: str = "acc_dk") -> dict:
    """Spearman for quantitative features and ANOVA for categorical ones.

    A row whose feature or target is missing, empty or None is skipped for that feature.
    """
    if not rows:
        raise DataError("empty feature table")
    out: dict = {"target": target, "spearman": [], "anova": [], "binned": {}}

    def pairs(feature: str) -> list[tuple]:
        """(feature value, target) of each row that holds both."""
        return [
            (r[feature], float(r[target]))
            for r in rows
            if r.get(feature) not in ("", None) and r.get(target) not in ("", None)
        ]

    for feature in QUANTITATIVE:
        held = pairs(feature)
        if len(held) < 3:
            continue
        try:
            coef = spearman([float(x) for x, _ in held], [y for _, y in held])
        except ValueError:
            continue
        out["spearman"].append({"feature": feature, "coefficient": coef, "n": len(held)})

    for feature in CATEGORICAL:
        groups: dict[int, list[float]] = {}
        for x, y in pairs(feature):
            groups.setdefault(int(x), []).append(y)
        if len(groups) < 2 or sum(len(v) for v in groups.values()) <= len(groups):
            continue
        res = anova_oneway(groups)
        out["anova"].append(
            {
                "feature": feature,
                "F": res.F,
                "p": res.p,
                "SSB": res.ssb,
                "SST": res.sst,
                "eta2p": res.eta2p,
            }
        )

    for feature, edges in (("avgprice", PRICE_BIN_EDGES), ("volatility", VOLATILITY_BIN_EDGES)):
        held = pairs(feature)
        if not held:
            continue
        indices = bin_feature([float(x) for x, _ in held], edges)
        table = []
        for idx in sorted(set(indices)):
            values = np.asarray([y for (_, y), i in zip(held, indices) if i == idx])
            table.append(
                {
                    "index": idx,
                    "count": int(len(values)),
                    "mean": float(values.mean()),
                    "std": float(values.std(ddof=1)) if len(values) > 1 else 0.0,
                }
            )
        out["binned"][feature] = table
    return out


def load_per_stock_dir(path) -> dict[str, dict]:
    """Read back the pipeline's per_stock/*.json results.

    Raises DataError naming a file that is not JSON or not a per-stock result.
    """
    out = {p.stem: read_result(p) for p in sorted(Path(path).glob("*.json"))}
    if not out:
        raise DataError(f"{path}: no per-stock result files")
    return out
