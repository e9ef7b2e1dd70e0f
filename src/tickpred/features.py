"""Assemble the per-stock feature table and run the cross-stock analyses.

The feature table joins price-derived features (average price, volatility),
user-supplied company metadata (life, scale, category, region) and model
results (accuracy per predictor, the accuracy upper bound). Quantitative
features go to rank correlation against accuracy, categorical ones to one-way
ANOVA, and price/volatility get grouped error-bar summaries over the preset
distribution bins.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from .errors import DataError, read_text
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


def read_csv_dicts(path, required: tuple[str, ...] = ()) -> list[dict[str, str]]:
    """Rows of a UTF-8 CSV file with a header row, as dicts keyed by column name.

    Raises DataError naming the file when it cannot be read or lacks a
    ``required`` column.
    """
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    missing = [c for c in required if c not in (reader.fieldnames or [])]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
    return list(reader)


def load_metadata(path) -> dict[str, dict[str, float]]:
    """Side CSV with stock_code,life,scale,category,region columns."""
    from .stats import N_CATEGORIES, N_REGIONS

    rows = read_csv_dicts(path, required=("stock_code", "life", "scale", "category", "region"))
    if not rows:
        raise DataError(f"{path}: empty metadata file")
    out = {}
    for row in rows:
        category = int(row["category"])
        region = int(row["region"])
        if not 1 <= category <= N_CATEGORIES:
            raise DataError(f"{path}: category {category} outside 1..{N_CATEGORIES} for {row['stock_code']}")
        if not 1 <= region <= N_REGIONS:
            raise DataError(f"{path}: region {region} outside 1..{N_REGIONS} for {row['stock_code']}")
        out[row["stock_code"]] = {
            "life": float(row["life"]),
            "scale": float(row["scale"]),
            "category": category,
            "region": region,
        }
    return out


def build_feature_table(
    per_stock: dict[str, dict],
    setting_label: str,
    metadata: dict[str, dict[str, float]] | None = None,
) -> list[dict]:
    """One row per stock that was kept under ``setting_label``.

    ``per_stock`` holds the pipeline's per-stock result dicts. Stocks missing
    from the metadata (when given) keep blank company fields.
    """
    rows = []
    for code in sorted(per_stock):
        result = per_stock[code]
        entry = result["settings"].get(setting_label)
        if entry is None or entry.get("dropped"):
            continue
        meta = (metadata or {}).get(code, {})
        rows.append(
            {
                "stock_code": code,
                "avgprice": result["avgprice"],
                "volatility": result["volatility"],
                "life": meta.get("life", ""),
                "scale": meta.get("scale", ""),
                "category": meta.get("category", ""),
                "region": meta.get("region", ""),
                "acc_mc": entry["models"]["mc"]["acc"],
                "acc_dk": entry["models"]["dk"]["acc"],
                "pi_max": entry["pi_max"],
            }
        )
    return rows


def correlate_features(rows: list[dict], target: str = "acc_dk") -> dict:
    """Spearman for quantitative features and ANOVA for categorical ones.

    Rows lacking a feature are skipped per feature.
    """
    if not rows:
        raise DataError("empty feature table")
    out: dict = {"target": target, "spearman": [], "anova": [], "binned": {}}

    for feature in QUANTITATIVE:
        pairs = [
            (float(r[feature]), float(r[target]))
            for r in rows
            if r.get(feature) not in ("", None) and r.get(target) not in ("", None)
        ]
        if len(pairs) < 3:
            continue
        try:
            coef = spearman([p[0] for p in pairs], [p[1] for p in pairs])
        except ValueError:
            continue
        out["spearman"].append({"feature": feature, "coefficient": coef, "n": len(pairs)})

    for feature in CATEGORICAL:
        groups: dict[int, list[float]] = {}
        for r in rows:
            if r.get(feature) in ("", None) or r.get(target) in ("", None):
                continue
            groups.setdefault(int(r[feature]), []).append(float(r[target]))
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
        pairs = [
            (float(r[feature]), float(r[target]))
            for r in rows
            if r.get(feature) not in ("", None) and r.get(target) not in ("", None)
        ]
        if not pairs:
            continue
        indices = bin_feature([p[0] for p in pairs], edges)
        table = []
        for idx in sorted(set(indices)):
            values = np.asarray([p[1] for p, i in zip(pairs, indices) if i == idx])
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
    """Read back the pipeline's per_stock/*.json results."""
    out = {}
    for p in sorted(Path(path).glob("*.json")):
        out[p.stem] = json.loads(p.read_text(encoding="utf-8"))
    if not out:
        raise DataError(f"{path}: no per-stock result files")
    return out
