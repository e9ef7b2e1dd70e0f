"""Seeded inputs for the benchmark workloads.

The generator is the benchmark's own, independent of ``tickpred.synthetic``,
so a change to the library cannot change the inputs it is measured on. The
seed moves prices and start levels only; every stock's size, its day files
and the filter outcome it is built for are fixed by the workload, so the
work per run stays the same from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SESSION_SECONDS = 4 * 3600  # a 4-hour trading session
SESSION_OPEN = 9 * 3600 + 30 * 60  # 09:30
TICK_SECONDS = 3
FIRST_DAY = np.datetime64("2021-01-04")
HEADER = "code,time,last_price\n"

# market_cold: a handful of liquid stocks whose ticks per day span 2.5x, so
# the slowest one sets the tail of the 2-worker pool
MARKET_TICKS_PER_DAY = (340, 440, 540, 640, 740, 850)
MARKET_DAYS = 3

# wide_market: a market's illiquid tail. Kept stocks sit at the smallest size
# that passes the default filter (1000 ticks, 10 states): a short first day
# keeps DK training small. The rest are dropped as too short or too flat.
WIDE_DAYS = 2
WIDE_KEPT = 3
WIDE_SHORT = 257
WIDE_FLAT = 40
WIDE_KEPT_TICKS = (60, 940)
WIDE_SHORT_TICKS = (100, 170)  # per day; two days stay below 1000
WIDE_FLAT_TICKS = (500, 560)  # per day; long enough, but at most 9 states
WIDE_FLAT_HALF_BAND = 4  # hundredths: at most 9 distinct prices

# long_series: a few stocks over many full sessions of 3-second snapshots
LONG_STOCKS = 3
LONG_DAYS = 8
LONG_TICKS_PER_DAY = SESSION_SECONDS // TICK_SECONDS


@dataclass(frozen=True)
class StockPlan:
    code: str
    ticks_per_day: tuple[int, ...]
    half_band: int  # hundredths either side of the start price
    swing: int  # amplitude of the intraday swing, hundredths

    @property
    def n_ticks(self) -> int:
        return sum(self.ticks_per_day)


def market_plan() -> list[StockPlan]:
    return [
        StockPlan(f"{600000 + i:06d}", (n,) * MARKET_DAYS, half_band=40, swing=30)
        for i, n in enumerate(MARKET_TICKS_PER_DAY)
    ]


def wide_plan() -> list[StockPlan]:
    plan = []
    # sizes step through their range by index, not by seed
    for i in range(WIDE_KEPT):
        plan.append(StockPlan(f"{i:06d}", WIDE_KEPT_TICKS, half_band=40, swing=30))
    lo, hi = WIDE_SHORT_TICKS
    for i in range(WIDE_SHORT):
        n = lo + (i * 37) % (hi - lo + 1)
        plan.append(StockPlan(f"{100000 + i:06d}", (n,) * WIDE_DAYS, half_band=40, swing=30))
    lo, hi = WIDE_FLAT_TICKS
    for i in range(WIDE_FLAT):
        n = lo + (i * 13) % (hi - lo + 1)
        plan.append(StockPlan(f"{300000 + i:06d}", (n,) * WIDE_DAYS, half_band=WIDE_FLAT_HALF_BAND, swing=0))
    return plan


def long_plan() -> list[StockPlan]:
    return [
        StockPlan(f"{i + 1:06d}", (LONG_TICKS_PER_DAY,) * LONG_DAYS, half_band=40, swing=30)
        for i in range(LONG_STOCKS)
    ]


def _reflect(walk: np.ndarray, half_band: int) -> np.ndarray:
    """Fold an unbounded walk into [-half_band, half_band] by reflection."""
    width = 2 * half_band
    folded = np.mod(walk + half_band, 2 * width)
    return np.where(folded > width, 2 * width - folded, folded) - half_band


def stock_prices(plan: StockPlan, rng: np.random.Generator) -> np.ndarray:
    """Prices in integer hundredths: a bounded random walk plus an intraday swing."""
    n = plan.n_ticks
    start = int(rng.integers(500, 3000))  # 5.00 to 30.00 CNY
    steps = rng.choice(np.array([-1, 0, 1], dtype=np.int64), size=n, p=[0.3, 0.4, 0.3])
    walk = _reflect(np.cumsum(steps), plan.half_band)
    swing = np.zeros(n, dtype=np.int64)
    if plan.swing:
        pos = 0
        for k in plan.ticks_per_day:
            phase = rng.uniform(0.0, 2.0 * np.pi)
            x = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
            swing[pos : pos + k] = np.rint(plan.swing * np.sin(x + phase)).astype(np.int64)
            pos += k
    return start + walk + swing


def _offsets(k: int) -> np.ndarray:
    """Seconds into the session of k evenly spread snapshots (every 3 s at k = 4800)."""
    return (np.arange(k, dtype=np.int64) * SESSION_SECONDS) // k


def _clock_strings() -> list[str]:
    return [
        f"{s // 3600:02d}:{s % 3600 // 60:02d}:{s % 60:02d}"
        for s in range(SESSION_OPEN, SESSION_OPEN + SESSION_SECONDS)
    ]


def write_tick_days(directory: Path, plan: list[StockPlan], seed: int) -> dict:
    """Write one tick CSV per trading day, stocks interleaved by time.

    Returns the fixture shape: rows, stocks, day files and ticks per day.
    """
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    prices = [stock_prices(p, rng) for p in plan]
    n_days = max(len(p.ticks_per_day) for p in plan)
    clock = _clock_strings()
    rows = 0
    files = []
    for day in range(n_days):
        date = str(FIRST_DAY + np.timedelta64(day, "D"))
        offs, codes, px = [], [], []
        for idx, (p, pr) in enumerate(zip(plan, prices)):
            if day >= len(p.ticks_per_day):
                continue
            k = p.ticks_per_day[day]
            first = sum(p.ticks_per_day[:day])
            offs.append(_offsets(k))
            codes.append(np.full(k, idx, dtype=np.int64))
            px.append(pr[first : first + k])
        off = np.concatenate(offs)
        code = np.concatenate(codes)
        price = np.concatenate(px)
        order = np.lexsort((code, off))
        names = [p.code for p in plan]
        lines = [
            f"{names[c]},{date} {clock[o]},{v // 100}.{v % 100:02d}\n"
            for c, o, v in zip(code[order].tolist(), off[order].tolist(), price[order].tolist())
        ]
        path = directory / f"ticks_{date.replace('-', '')}.csv"
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(HEADER)
            f.writelines(lines)
        rows += len(lines)
        files.append(path.name)
    per_day = [p.ticks_per_day for p in plan]
    return {
        "rows": rows,
        "stocks": len(plan),
        "day_files": len(files),
        "ticks_per_day_min": min(min(t) for t in per_day),
        "ticks_per_day_max": max(max(t) for t in per_day),
    }


def long_series(plan: list[StockPlan], seed: int):
    """In-memory price series for the library path (no tick files)."""
    from tickpred import PriceSeries

    rng = np.random.default_rng(seed)
    base = int((FIRST_DAY - np.datetime64("1970-01-01")) / np.timedelta64(1, "s"))
    out = []
    for p in plan:
        prices = stock_prices(p, rng)
        epoch, bounds, pos = [], [], 0
        for day, k in enumerate(p.ticks_per_day):
            bounds.append(pos)
            epoch.append(base + day * 86400 + SESSION_OPEN + _offsets(k))
            pos += k
        out.append(
            PriceSeries(
                stock_code=p.code,
                epoch_seconds=np.concatenate(epoch),
                prices_hundredths=prices,
                day_boundaries=bounds,
            )
        )
    return out
