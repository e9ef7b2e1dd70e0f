"""Toolkit for measuring and exploiting the predictability of tick-level price series.

Pipeline: raw tick files -> per-stock price series -> discrete state sequences
-> entropy rate estimate -> theoretical accuracy upper bound -> online
next-state predictors (second-order Markov chain, diffusion-kernel embedding)
-> accuracy / RMSE / feature-correlation reports.
"""

__version__ = "0.1.0"

from .entropy import EntropyEstimate, estimate_entropy, match_lengths, match_lengths_fast
from .errors import ConfigError, DataError, EmptyInputError, SchemaError
from .evaluate import EvaluationReport, accuracy, evaluate_trace, rmse, rmse_ratio
from .ingest import ColumnSchema, FilterDecision, PriceSeries, build_series, filter_series, parse_ticks
from .predict import DiffusionKernelModel, PredictionTrace, run_protocol
from .predictability import fano_solve
from .quantize import (
    QuantizationScheme,
    QuantizedSequence,
    fixed_count_scheme,
    fixed_interval_scheme,
    quantize_fixed,
    quantize_fixed_count,
)
from .stats import AnovaResult, StockFeatures, anova_oneway, bin_feature, normalize_minmax, spearman, volatility

__all__ = [
    "AnovaResult",
    "ColumnSchema",
    "ConfigError",
    "DataError",
    "DiffusionKernelModel",
    "EmptyInputError",
    "EntropyEstimate",
    "EvaluationReport",
    "FilterDecision",
    "PredictionTrace",
    "PriceSeries",
    "QuantizationScheme",
    "QuantizedSequence",
    "SchemaError",
    "StockFeatures",
    "accuracy",
    "anova_oneway",
    "bin_feature",
    "build_series",
    "estimate_entropy",
    "evaluate_trace",
    "fano_solve",
    "filter_series",
    "fixed_count_scheme",
    "fixed_interval_scheme",
    "match_lengths",
    "match_lengths_fast",
    "normalize_minmax",
    "parse_ticks",
    "quantize_fixed",
    "quantize_fixed_count",
    "rmse",
    "rmse_ratio",
    "run_protocol",
    "spearman",
    "volatility",
]
