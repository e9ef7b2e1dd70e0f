"""Upper bound on next-state prediction accuracy from entropy and state count.

Given an entropy rate S in bits over N observed states, the bound is the
unique root in [1/N, 1] of

    binary_entropy(p) + (1 - p) * log2(N - 1) = S

The left side is strictly decreasing on that interval, from log2(N) down to 0,
so bisection applies. The relation has a second root below 1/N; the bound is
the larger one.
"""

from __future__ import annotations

import math


def binary_entropy(p: float) -> float:
    """Entropy of a two-point distribution, with 0*log(0) = 0 at the endpoints."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def fano_objective(p: float, n_states: int) -> float:
    """Left side of the bound relation at success probability p."""
    if n_states < 2:
        return 0.0
    return binary_entropy(p) + (1.0 - p) * math.log2(n_states - 1)


def fano_solve(s_bits: float, n_states: int) -> float:
    """Solve the bound relation for the accuracy upper bound.

    Out-of-range entropies are clamped rather than rejected: estimator noise
    can push S slightly past log2(N). A NaN entropy is a ValueError.
    """
    if math.isnan(s_bits):
        raise ValueError("entropy is NaN")
    if n_states < 1:
        raise ValueError(f"state count must be >= 1, got {n_states}")
    if n_states == 1:
        return 1.0
    if s_bits <= 0.0:
        return 1.0
    if s_bits >= math.log2(n_states):
        return 1.0 / n_states
    lo = 1.0 / n_states  # objective = log2(N) here
    hi = 1.0  # objective = 0 here
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if fano_objective(mid, n_states) > s_bits:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

