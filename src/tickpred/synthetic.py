"""Seeded synthetic data for tests, demos and benchmarks.

Everything here is deterministic given its seed: random-walk price series on
a tick grid, tick CSV fixtures for the pipeline, and order-2 Markov state
sources whose exact entropy rate is computable from the transition tensor.
"""

from __future__ import annotations

import numpy as np

from .ingest import PriceSeries, _boundaries_from_epochs

TICK_SECONDS = 3
DAY_START_EPOCH = 1_609_718_400  # 2021-01-04T00:00:00Z, a Monday


def random_walk_series(
    stock_code: str,
    days: int = 2,
    ticks_per_day: int = 1000,
    start_price_cny: float = 10.0,
    move_prob: float = 0.3,
    band_hundredths: int = 25,
    seed: int = 0,
) -> PriceSeries:
    """Range-bound random-walk prices in integer hundredths on a 3-second grid.

    Each tick moves one hundredth up or down with probability ``move_prob``
    per direction, tilted back toward the start price in proportion to the
    deviation over ``band_hundredths`` (tick prices are intraday range-bound,
    and an unconstrained walk would keep minting never-seen states).
    """
    rng = np.random.default_rng(seed)
    n = days * ticks_per_day
    anchor = int(round(start_price_cny * 100))
    u = rng.random(n)
    prices = np.empty(n, dtype=np.int64)
    price = anchor
    for i in range(n):
        tilt = max(-1.0, min(1.0, (price - anchor) / band_hundredths))
        p_up = move_prob * (1.0 - 0.5 * tilt)
        p_down = move_prob * (1.0 + 0.5 * tilt)
        if u[i] < p_up:
            price += 1
        elif u[i] < p_up + p_down:
            price -= 1
        prices[i] = max(price, 1)
    epoch = np.empty(n, dtype=np.int64)
    for d in range(days):
        base = DAY_START_EPOCH + d * 86400
        epoch[d * ticks_per_day : (d + 1) * ticks_per_day] = base + TICK_SECONDS * np.arange(ticks_per_day)
    return PriceSeries(
        stock_code=stock_code,
        epoch_seconds=epoch,
        prices_hundredths=prices,
        day_boundaries=_boundaries_from_epochs(epoch),
    )


def series_to_tick_rows(series: PriceSeries) -> list[str]:
    """Render a price series as code,time,price CSV rows."""
    from datetime import datetime, timezone

    rows = []
    for t, p in zip(series.epoch_seconds.tolist(), series.prices_hundredths.tolist()):
        stamp = datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S")
        rows.append(f"{series.stock_code},{stamp},{p // 100}.{p % 100:02d}")
    return rows


def write_tick_fixture(
    path,
    codes=("000001", "000002", "600000"),
    days: int = 2,
    ticks_per_day: int = 400,
    seed: int = 20210104,
) -> None:
    """Write the bundled multi-stock tick CSV used by pipeline tests and demos."""
    all_rows: list[tuple[str, str]] = []
    for i, code in enumerate(codes):
        series = random_walk_series(
            code,
            days=days,
            ticks_per_day=ticks_per_day,
            start_price_cny=8.0 + 4.0 * i,
            move_prob=0.3,
            seed=seed + i,
        )
        for row in series_to_tick_rows(series):
            all_rows.append((row.split(",")[1], row))
    all_rows.sort(key=lambda pair: pair[0])  # interleave stocks by timestamp
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("code,time,last_price\n")
        for _, row in all_rows:
            f.write(row + "\n")


def markov2_source(
    n_states: int = 5,
    length: int = 50_000,
    dominant: float = 0.8,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Order-2 Markov state sequence plus its transition tensor.

    Each pair context gets a random dominant continuation with probability
    ``dominant``; the remainder is split over the other states with random
    uneven weights. Returns (sequence, tensor P[a, b, c] = P(next=c | a, b)).
    """
    rng = np.random.default_rng(seed)
    tensor = np.empty((n_states, n_states, n_states), dtype=np.float64)
    for a in range(n_states):
        for b in range(n_states):
            top = int(rng.integers(0, n_states))
            # cubing skews the residual mass, keeping the source's entropy
            # well below the value that would saturate the accuracy bound
            rest = rng.random(n_states - 1) ** 3
            rest = (1.0 - dominant) * rest / rest.sum()
            row = np.empty(n_states)
            row[top] = dominant
            row[[c for c in range(n_states) if c != top]] = rest
            tensor[a, b] = row
    seq = np.empty(length, dtype=np.int64)
    seq[0] = rng.integers(0, n_states)
    seq[1] = rng.integers(0, n_states)
    cumulative = tensor.cumsum(axis=2)
    draws = rng.random(length)
    for t in range(2, length):
        seq[t] = np.searchsorted(cumulative[seq[t - 2], seq[t - 1]], draws[t])
    return seq, tensor


def markov2_entropy_rate(tensor: np.ndarray) -> float:
    """Exact entropy rate in bits of an order-2 Markov source.

    Treats pairs (a, b) as the state of a first-order chain, finds its
    stationary distribution by power iteration, and averages the conditional
    entropy of next states over it.
    """
    n = tensor.shape[0]
    pair_transition = np.zeros((n * n, n * n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                pair_transition[a * n + b, b * n + c] = tensor[a, b, c]
    pi = np.full(n * n, 1.0 / (n * n))
    for _ in range(10_000):
        nxt = pi @ pair_transition
        if np.abs(nxt - pi).max() < 1e-14:
            pi = nxt
            break
        pi = nxt
    pi = pi / pi.sum()
    logs = np.log2(tensor, out=np.zeros_like(tensor), where=tensor > 0)
    cond_entropy = -(tensor * logs).sum(axis=2).reshape(n * n)
    return float(pi @ cond_entropy)


def periodic_sequence(period: int = 4, length: int = 400) -> np.ndarray:
    """A fully periodic, highly compressible state sequence."""
    return np.arange(length, dtype=np.int64) % period
