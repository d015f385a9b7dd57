"""Statistics used by the evaluation figures and tables."""

from repro.analysis.cdf import ECDF
from repro.analysis.compare import ComparisonCounts, PipelineComparison, compare_results
from repro.analysis.concurrency import ConcurrencyStats, concurrent_outbreaks
from repro.analysis.emergence import EmergenceStats, emergence_rates
from repro.analysis.pathlen import PathLengthStats, path_length_analysis

__all__ = [
    "ECDF",
    "ComparisonCounts",
    "PipelineComparison",
    "compare_results",
    "ConcurrencyStats",
    "concurrent_outbreaks",
    "EmergenceStats",
    "emergence_rates",
    "PathLengthStats",
    "path_length_analysis",
]
