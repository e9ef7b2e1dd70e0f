"""Map prices to discrete state ids and back.

Two modes: a fixed bucket width in CNY, or a fixed number of buckets spanning
the training range of each stock. All binning is done in integer hundredths of
CNY so that state boundaries fall exactly on price ticks.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError

MIN_INTERVAL_CNY = 0.01  # price precision of the tick feed

FIXED_INTERVAL = "fixed_interval"
FIXED_COUNT = "fixed_count"


@dataclass(frozen=True)
class QuantizationScheme:
    """How prices are bucketed into states.

    mode:             FIXED_INTERVAL or FIXED_COUNT
    t_hundredths:     bucket width in hundredths (FIXED_INTERVAL only)
    sp:               target state count (FIXED_COUNT only)
    origin_hundredths: lower edge of state 0
    span_hundredths:  training price range max-min (FIXED_COUNT only);
                      the derived width is span/sp, kept as an exact ratio
    """

    mode: str
    t_hundredths: int | None = None
    sp: int | None = None
    origin_hundredths: int = 0
    span_hundredths: int | None = None

    def _width(self) -> tuple[int, int]:
        """Bucket width as the exact ratio (k, w): w / k hundredths."""
        return (1, self.t_hundredths) if self.mode == FIXED_INTERVAL else (self.sp, self.span_hundredths)

    def states_of(self, prices_hundredths: np.ndarray) -> np.ndarray:
        """State ids of prices given in integer hundredths; below the origin clamps to 0."""
        k, w = self._width()
        p = np.asarray(prices_hundredths, dtype=np.int64)
        return np.maximum(p - self.origin_hundredths, 0) * k // w

    def prices_of(self, states: np.ndarray) -> np.ndarray:
        """Representative price of each state: the bucket midpoint, in CNY."""
        s = np.asarray(states, dtype=np.float64)
        if np.any(s < 0):
            raise ValueError("state ids are non-negative")
        k, w = self._width()
        return self.origin_hundredths / 100.0 + (s + 0.5) * (w / (100.0 * k))

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass(frozen=True)
class QuantizedSequence:
    """A state-id sequence plus the scheme that produced it."""

    states: np.ndarray
    scheme: QuantizationScheme
    n_distinct: int

    def __len__(self) -> int:
        return len(self.states)


def state_array(states) -> np.ndarray:
    """A state sequence, or an object with one in ``.states`` such as a ``QuantizedSequence``, as int64."""
    return np.asarray(getattr(states, "states", states), dtype=np.int64)


def fixed_interval_scheme(t_cny: float) -> QuantizationScheme:
    """Scheme with a fixed bucket width: a whole number of hundredths >= 0.01, else a ConfigError."""
    if t_cny < MIN_INTERVAL_CNY:
        raise ConfigError(f"interval {t_cny} below the {MIN_INTERVAL_CNY} CNY price precision; need >= {MIN_INTERVAL_CNY}")
    if not np.isfinite(t_cny) or abs(round(t_cny * 100) - t_cny * 100) > 1e-6:
        raise ConfigError(f"interval {t_cny} is not a multiple of 0.01 CNY")
    return QuantizationScheme(mode=FIXED_INTERVAL, t_hundredths=int(round(t_cny * 100)))


def fixed_count_scheme(train_prices_hundredths: Sequence[int], sp: int) -> QuantizationScheme:
    """Scheme anchored to a training slice: sp buckets spanning its price range."""
    if sp < 2:
        raise ValueError(f"state count must be >= 2, got {sp}")
    p = np.asarray(train_prices_hundredths, dtype=np.int64)
    if len(p) < 2:
        raise ValueError("training slice must contain at least 2 prices")
    lo, hi = int(p.min()), int(p.max())
    if hi <= lo:
        raise ValueError("training slice has a degenerate (constant) price range")
    return QuantizationScheme(mode=FIXED_COUNT, sp=int(sp), origin_hundredths=lo, span_hundredths=hi - lo)


def quantize_with(series, scheme: QuantizationScheme) -> QuantizedSequence:
    """Quantize a price series (or raw hundredths array) under an existing scheme."""
    states = scheme.states_of(getattr(series, "prices_hundredths", series))
    return QuantizedSequence(states=states, scheme=scheme, n_distinct=int(len(np.unique(states))))


def quantize_fixed(series, t_cny: float) -> QuantizedSequence:
    """Quantize with a fixed bucket width: state = floor(price / T)."""
    return quantize_with(series, fixed_interval_scheme(t_cny))


def quantize_fixed_count(series, sp: int, train_end: int) -> QuantizedSequence:
    """Quantize with sp buckets spanning the training slice ``[:train_end]``.

    Test prices above the training range keep extending the state space;
    prices below it clamp to state 0.
    """
    prices = getattr(series, "prices_hundredths", series)
    if train_end < 2:
        raise ValueError("train_end must be >= 2")
    scheme = fixed_count_scheme(prices[:train_end], sp)
    return quantize_with(prices, scheme)
