"""Accuracy, price-space RMSE and the RMSE-to-average-price ratio."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .predict import PredictionTrace
from .quantize import QuantizationScheme


@dataclass(frozen=True)
class EvaluationReport:
    stock_code: str
    model: str
    acc: float
    rmse: float
    rmse_price_ratio: float | None  # permille of the average price
    n_test: int


def accuracy(trace: PredictionTrace) -> float:
    """Exact-match fraction over predicted states."""
    if len(trace) == 0:
        raise ValueError("empty prediction trace")
    return float(np.mean(trace.predicted == trace.actual))


def rmse(trace: PredictionTrace, scheme: QuantizationScheme, raw_prices=None) -> float:
    """Root mean squared price error in CNY.

    Predicted states are mapped to their bucket midpoints. Ground truth is the
    raw price when given (aligned with the trace), otherwise the midpoint of
    the actual state.
    """
    if len(trace) == 0:
        raise ValueError("empty prediction trace")
    predicted_prices = scheme.prices_of(trace.predicted)
    if raw_prices is not None:
        truth = np.asarray(raw_prices, dtype=np.float64)
        if len(truth) != len(trace):
            raise ValueError(f"raw_prices length {len(truth)} does not match trace length {len(trace)}")
    else:
        truth = scheme.prices_of(trace.actual)
    err = truth - predicted_prices
    return float(np.sqrt(np.mean(err * err)))


def rmse_ratio(report: EvaluationReport, avgprice: float) -> float:
    """RMSE as a permille of the average price."""
    return _permille(report.rmse, avgprice)


def _permille(rmse_cny: float, avgprice: float) -> float:
    if avgprice <= 0:
        raise ValueError(f"average price must be positive, got {avgprice}")
    return 1000.0 * rmse_cny / avgprice


def evaluate_trace(
    trace: PredictionTrace,
    scheme: QuantizationScheme,
    raw_prices=None,
    avgprice: float | None = None,
) -> EvaluationReport:
    """One-pass report row for a trace: acc, rmse and optionally the price ratio."""
    acc = accuracy(trace)
    rmse_cny = rmse(trace, scheme, raw_prices)
    return EvaluationReport(
        stock_code=trace.stock_code,
        model=trace.model,
        acc=acc,
        rmse=rmse_cny,
        rmse_price_ratio=None if avgprice is None else _permille(rmse_cny, avgprice),
        n_test=len(trace),
    )
