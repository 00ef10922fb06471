"""``repro.bench``: the standard benchmark subsystem.

One RFC2544-style harness (:mod:`repro.bench.harness`), a scenario
matrix over it (:mod:`repro.bench.scenarios`), a single versioned
results schema every benchmark document carries
(:mod:`repro.bench.schema`), and the per-PR trend file the regression
gate checks (``BENCH_TRENDS.jsonl``; ``scripts/bench_gate.py``).

Run the whole matrix, or regenerate one committed artifact::

    python -m repro.bench --matrix quick
    python -m repro.bench --family paper      # writes BENCH_paper.json

The six workload families live in :mod:`repro.bench.workloads`; the
``paper`` family holds every figure and claim of the paper itself.
"""

from repro.bench.harness import (
    ChainLoadRunner,
    OfferedPoint,
    Rfc2544Harness,
    SearchResult,
)
from repro.bench.schema import (
    SCHEMA_VERSION,
    make_trend_line,
    run_meta,
    validate_document,
    validate_trend_line,
)
from repro.bench.scenarios import SCENARIOS, get_scenario, run_scenario

__all__ = [
    "ChainLoadRunner",
    "OfferedPoint",
    "Rfc2544Harness",
    "SCENARIOS",
    "SCHEMA_VERSION",
    "SearchResult",
    "get_scenario",
    "make_trend_line",
    "run_meta",
    "run_scenario",
    "validate_document",
    "validate_trend_line",
]
