"""Benchmark workload modules.

Each module owns one benchmark family — its measurement code and the
committed ``BENCH_<family>.json`` — behind a uniform interface the
driver (:mod:`repro.bench.cli`, ``--family``) and the scenario matrix
(:mod:`repro.bench.scenarios`) consume:

``FAMILY``/``SCHEMA``/``GENERATOR``/``DEFAULT_OUT``
    identity: family tag, schema string, producing command, output path;
``run_bench(quick, seed=None) -> doc``
    run the measurements and return a schema-v1 document;
``HONORS`` (optional)
    tier ablations ``run_bench`` also takes as keywords, like
    ``Scenario.honors`` (``state``: ``("xfsm",)``, the ``--no-xfsm`` run);
``run_checks(doc)``
    the family's pass/fail invariants;
``validate(doc)``
    base schema validation plus the family payload shape;
``trend_metrics(doc) -> {name: number}``
    the headline numbers one ``BENCH_TRENDS.jsonl`` line carries.
"""

import importlib
import os
from typing import Any, Dict, List, Optional

from repro.bench.schema import SCHEMA_VERSION, run_meta

FAMILIES = ("fastpath", "sched", "overload", "chaos", "state", "paper")


def get(family: str):
    """The workload module for one family."""
    if family not in FAMILIES:
        raise KeyError("unknown benchmark family %r (know: %s)"
                       % (family, ", ".join(FAMILIES)))
    return importlib.import_module("repro.bench.workloads.%s" % family)


def by_schema_tag(tag: Any):
    """Resolve ``repro-bench-<family>/<v>`` to its workload module, or
    ``None`` for an unknown/foreign tag."""
    if not isinstance(tag, str) or "/" not in tag:
        return None
    family = tag.split("/", 1)[0]
    if not family.startswith("repro-bench-"):
        return None
    family = family[len("repro-bench-"):]
    return get(family) if family in FAMILIES else None


def resolve_seed(seed: Optional[int],
                 default: Optional[int] = None) -> Optional[int]:
    """The fault seed to stamp: explicit wins, then the CI sweep's
    ``REPRO_FAULT_SEED``, then the family default."""
    if seed is not None:
        return seed
    env = os.environ.get("REPRO_FAULT_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                "REPRO_FAULT_SEED=%r is not an integer" % env) from None
    return default


def new_doc(family: str, generator: str, quick: bool,
            seed: Optional[int],
            config: Dict[str, Any]) -> Dict[str, Any]:
    """The schema-v1 skeleton every workload document starts from."""
    return {
        "schema": "repro-bench-%s/%d" % (family, SCHEMA_VERSION),
        "schema_version": SCHEMA_VERSION,
        "meta": run_meta(generator, seed=seed, quick=quick),
        "config": config,
    }


def attach_checks(doc: Dict[str, Any], checks) -> Dict[str, Any]:
    doc["checks"] = [
        {"name": name, "passed": passed, "detail": detail}
        for name, passed, detail in checks
    ]
    return doc


def missing_keys(mapping: Any, required) -> List[str]:
    if not isinstance(mapping, dict):
        return sorted(required)
    return sorted(set(required) - set(mapping))
