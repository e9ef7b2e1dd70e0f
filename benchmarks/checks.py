"""Output checks that hold whatever random stream the DK model draws from.

Pinned digests cover only outputs no random draw reaches: the
predictability and drop tables, the MC rows of the evaluation table, and on
the library path the estimates, bounds and MC traces. DK rows are checked
for shape and range only, so a deliberate change of the DK random stream
leaves every pin valid.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def tree_digests(directory: Path) -> dict[str, str]:
    """Digest of every file under a directory, keyed by relative path."""
    return {
        str(p.relative_to(directory)): digest(p.read_bytes())
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def pinned(workload: str, seed: int) -> dict | None:
    """Pinned digests for this workload and seed, or None when the seed has none."""
    return json.loads(PINS_PATH.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


# -- pipeline reports -----------------------------------------------------------


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def report_digests(out_dir: Path) -> dict[str, str]:
    """Digests of the RNG-free reports of one run_all output directory."""
    reports = out_dir / "reports"
    eval_lines = (reports / "evaluation.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    mc_lines = eval_lines[:1] + [ln for ln in eval_lines[1:] if ln.split(",")[2] == "mc"]
    return {
        "predictability": digest((reports / "predictability.csv").read_bytes()),
        "drops": digest((reports / "drops.csv").read_bytes()),
        "mc_eval": digest("".join(mc_lines).encode("utf-8")),
    }


def dk_row_failures(out_dir: Path) -> set[tuple[str, str]]:
    """(stock, setting) units whose DK row is missing, out of range or misaligned with MC."""
    header, rows = _read_rows(out_dir / "reports" / "evaluation.csv")
    col = {name: i for i, name in enumerate(header)}
    by_model: dict[str, dict[tuple[str, str], list[str]]] = {"mc": {}, "dk": {}}
    for row in rows:
        by_model.setdefault(row[col["model"]], {})[(row[col["stock_code"]], row[col["setting"]])] = row
    bad = set()
    for unit, mc in by_model["mc"].items():
        dk = by_model["dk"].get(unit)
        if dk is None:
            bad.add(unit)
            continue
        acc = float(dk[col["acc"]])
        if not 0.0 <= acc <= 1.0 or dk[col["n_test"]] != mc[col["n_test"]]:
            bad.add(unit)
    bad.update(set(by_model["dk"]) - set(by_model["mc"]))
    return bad


# -- library path ----------------------------------------------------------------


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def bound_ok(s_est: float, n_states: int, pi_max: float) -> bool:
    """pi_max lies in [1/N, 1] and solves the Fano relation to 1e-9 where S is in range."""
    if not 1.0 / n_states <= pi_max <= 1.0:
        return False
    if n_states < 2 or s_est <= 0.0:
        return pi_max == 1.0
    if s_est >= math.log2(n_states):
        return pi_max == 1.0 / n_states  # clamped to the lower end
    lhs = binary_entropy(pi_max) + (1.0 - pi_max) * math.log2(n_states - 1)
    return abs(lhs - s_est) <= 1e-9
