"""Per-stock volatility and cross-stock statistics.

Volatility is the sample standard deviation of log-returns. Cross-stock:
Spearman rank correlation for quantitative features, one-way ANOVA with
partial eta squared for categorical ones (its p-value by Lentz's continued
fraction, Numerical Recipes §6.4, so numpy is the only dependency), and the
preset distribution bins used to group stocks by price and volatility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# preset half-open bin edges for grouped accuracy summaries (last bin open above)
PRICE_BIN_EDGES = (0.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 13.0, 17.0, 25.0, 50.0)
VOLATILITY_BIN_EDGES = (0.0, 0.01, 0.016, 0.021, 0.027, 0.033, 0.04, 0.05, 0.07)

N_CATEGORIES = 20
N_REGIONS = 32


@dataclass(frozen=True)
class AnovaResult:
    F: float
    p: float
    ssb: float
    sst: float
    eta2p: float  # between-group share of total variance, SSB/SST


def volatility(prices, n_convention: str = "returns") -> float:
    """Sample standard deviation of log-returns.

    ``n_convention`` picks the denominator: "returns" uses (number of returns
    - 1), "sequence" uses (sequence length - 1), which equals the number of
    returns.
    """
    p = np.asarray(prices, dtype=np.float64)
    if len(p) < 3:
        raise ValueError(f"need at least 3 prices, got {len(p)}")
    if np.any(p <= 0):
        raise ValueError("prices must be positive for log-returns")
    x = np.log(p[1:] / p[:-1])
    m = len(x)
    if n_convention == "returns":
        denom = m - 1
    elif n_convention == "sequence":
        denom = m
    else:
        raise ValueError(f"unknown n_convention {n_convention!r}")
    xbar = x.mean()
    return float(np.sqrt(np.sum((x - xbar) ** 2) / denom))


def average_ranks(values) -> np.ndarray:
    """1-based ranks with ties assigned the mean of their rank range."""
    _, inverse, counts = np.unique(np.asarray(values, dtype=np.float64), return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # rank of the last copy of each distinct value
    return (last - 0.5 * (counts - 1))[inverse]


def spearman(x, y) -> float:
    """Rank correlation: Pearson correlation of average-ranked data."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if len(xa) != len(ya):
        raise ValueError(f"length mismatch: {len(xa)} vs {len(ya)}")
    if len(xa) < 3:
        raise ValueError("need at least 3 observations")
    rx = average_ranks(xa)
    ry = average_ranks(ya)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = np.sqrt(np.sum(dx * dx))
    sy = np.sqrt(np.sum(dy * dy))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined: zero rank variance")
    return float(np.sum(dx * dy) / (sx * sy))


def _stirling_error(z: float) -> float:
    """lgamma(z) less its Stirling form (z - 1/2) log z - z + log(2 pi) / 2."""
    if z < 30.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - 0.5 * math.log(2 * math.pi)
    w = 1.0 / (z * z)  # the series' next term, 1 / (1188 z^9), is below 1e-16
    return (1 / 12 - (1 / 360 - (1 / 1260 - w / 1680) * w) * w) / z


def _betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta I_x(a, b), a, b > 0, by Lentz's method (Numerical Recipes §6.4).

    The continued fraction converges fast for x < (a + 1) / (a + b + 2), and
    I_x(a, b) = 1 - I_{1-x}(b, a) covers larger x. The prefactor x^a (1-x)^b / B(a, b)
    uses Stirling's form of the gammas, whose large terms cancel exactly.
    """
    if not 0.0 < x < 1.0:
        return math.nan if math.isnan(x) else float(x >= 1.0)
    log_front = _stirling_error(a + b) - _stirling_error(a) - _stirling_error(b)
    log_front += 0.5 * math.log(a * b / (2 * math.pi * (a + b)))
    delta = b * x - a * (1.0 - x)  # x (a + b) / a = 1 + delta / a, (1 - x) (a + b) / b = 1 - delta / b
    for w, z, t in ((a, x, delta / a), (b, 1.0 - x, -delta / b)):  # adds w (log(1 + t) - t)
        log_front += w * ((math.log1p(t) if abs(t) < 0.5 else math.log(z * (a + b) / w)) - t)
    swap = x >= (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x = b, a, 1.0 - x
    c = 1.0  # Lentz: a denominator that is exactly zero is replaced by a tiny one
    f = d = 1.0 / ((1.0 - (a + b) * x / (a + 1.0)) or 1e-300)
    for m in range(1, 10_000):  # about sqrt(max(a, b)) / 6 steps are needed
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / ((1.0 + num * d) or 1e-300)
            c = (1.0 + num / c) or 1e-300
            f *= c * d
        if abs(c * d - 1.0) <= math.ulp(1.0):
            value = math.exp(log_front) * f / a
            return 1.0 - value if swap else value
    raise ArithmeticError(f"incomplete beta fraction did not converge for a={a}, b={b}, x={x}")


def anova_oneway(groups) -> AnovaResult:
    """One-way analysis of variance over a mapping of group id to values.

    The p-value is the F(d1, d2) upper tail, I_x(d2 / 2, d1 / 2) at x = d2 / (d2 + d1 F),
    from Lentz's continued fraction for the incomplete beta (Numerical Recipes §6.4).
    """
    arrays = [np.asarray(g, dtype=np.float64) for g in groups.values()]
    k = len(arrays)
    if k < 2:
        raise ValueError("need at least 2 groups")
    if any(len(a) == 0 for a in arrays):
        raise ValueError("groups must be non-empty")
    n = sum(len(a) for a in arrays)
    if n <= k:
        raise ValueError(f"need more observations ({n}) than groups ({k})")
    pooled = np.concatenate(arrays)
    grand = pooled.mean()
    ssb = float(sum(len(a) * (a.mean() - grand) ** 2 for a in arrays))
    ssw = float(sum(np.sum((a - a.mean()) ** 2) for a in arrays))
    sst = float(np.sum((pooled - grand) ** 2))
    d1, d2 = k - 1, n - k
    if ssb == 0.0:
        f_stat, p = 0.0, 1.0
    elif ssw == 0.0:
        f_stat, p = float("inf"), 0.0
    else:
        f_stat = (ssb / d1) / (ssw / d2)
        p = _betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f_stat))
    eta2p = ssb / sst if sst > 0 else 0.0
    return AnovaResult(F=f_stat, p=p, ssb=ssb, sst=sst, eta2p=eta2p)


def bin_feature(values, edges) -> list[int]:
    """1-based half-open binning [e_k, e_k+1); the last bin is open above.

    Values below the first edge clamp to bin 1, so every finite value maps to
    exactly one index.
    """
    e = np.asarray(edges, dtype=np.float64)
    if len(e) == 0:
        raise ValueError("empty bin edges")
    if np.any(np.diff(e) <= 0):
        raise ValueError("bin edges must be strictly increasing")
    idx = np.searchsorted(e, np.asarray(values, dtype=np.float64), side="right")
    return np.maximum(idx, 1).astype(int).tolist()
