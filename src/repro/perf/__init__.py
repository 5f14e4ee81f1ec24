"""Performance harness: measured, regression-gated benchmarks.

``repro bench`` drives :func:`run_suite` over the stack's hot paths
(traffic replay, compiled plans, masked forward, im2col, local
backward, telemetry and flight-recorder overhead, serving, city-scale
topologies), writes the schema-versioned ``BENCH_perf.json``, and — with
``--against`` — gates the run on a previous report so speed never
silently regresses.
"""

from repro.perf.timing import (
    BenchProtocol,
    CounterRegistry,
    TimingStats,
    input_digest,
    measure,
)
from repro.perf.schema import (
    SCHEMA_VERSION,
    SUITE_NAME,
    Comparison,
    compare_reports,
    regressions,
    validate_report,
)
from repro.perf.suite import FULL_PROTOCOL, QUICK_PROTOCOL, run_suite

__all__ = [
    "BenchProtocol",
    "CounterRegistry",
    "TimingStats",
    "input_digest",
    "measure",
    "SCHEMA_VERSION",
    "SUITE_NAME",
    "Comparison",
    "compare_reports",
    "regressions",
    "validate_report",
    "FULL_PROTOCOL",
    "QUICK_PROTOCOL",
    "run_suite",
]
