"""Shared helpers for the experiment benchmarks.

Each ``bench_eNN_*.py`` module reproduces one paper claim, which its
docstring names.  The convention:

* ``run_experiment()`` computes the reproduction table and returns
  ``(title, table_string, findings_dict)``; assertions inside it encode
  the *shape* claims (bounds hold, who wins, how things scale).
* ``bench_*`` functions time the core computation under
  pytest-benchmark and re-assert the claims.

``python benchmarks/generate_report.py`` collects every experiment's
table into EXPERIMENTS.md.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import format_table

ExperimentResult = Tuple[str, str, Dict[str, object]]


def experiment_header(exp_id: str, claim: str) -> str:
    """One-line banner naming the experiment and the claim it checks."""
    return f"[{exp_id}] {claim}"


def table(headers: Sequence[str], rows: List[Sequence[object]]) -> str:
    """Alias for the analysis table formatter."""
    return format_table(headers, rows)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-percentile of *values* (sorts internally).

    The one shared definition -- E18/E19/E22 used to carry private
    copies; keeping a single nearest-rank rule means their reported
    p50/p99 columns are comparable across experiments.  ``nan`` on
    empty input.
    """
    if not values:
        return float("nan")
    ordered = sorted(values)
    idx = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[idx]


def percentiles(
    values: Sequence[float], qs: Sequence[float] = (0.50, 0.99)
) -> Dict[str, float]:
    """``{"p50": ..., "p99": ...}`` of *values* via :func:`percentile`.

    Keys are ``p<100q>`` with any decimal point as ``_`` (``p99_9``),
    matching the findings-dict naming the report generator scrapes.
    """
    ordered = sorted(values)
    return {
        f"p{100 * q:g}".replace(".", "_"): percentile(ordered, q) for q in qs
    }


def histogram_percentiles(
    snapshot: Dict[str, object],
    name: str,
    qs: Sequence[float] = (0.50, 0.99),
    **labels: str,
) -> Dict[str, float]:
    """Percentiles estimated from a telemetry snapshot's histograms.

    *snapshot* is a jsonable registry snapshot (from
    ``MetricsRegistry.snapshot()`` or a ``{"op": "metrics"}`` answer);
    series of *name* whose labels contain *labels* merge bucket-wise
    first, so the answer covers e.g. one problem family across every
    status.  Values are ``nan`` when nothing matches.
    """
    from repro.obs import snapshot_quantile

    return {
        f"p{100 * q:g}".replace(".", "_"): snapshot_quantile(
            snapshot, name, q, **labels
        )
        for q in qs
    }


def parse_bench_args(argv: Sequence[str], prog: str) -> Tuple[bool, Optional[str]]:
    """Parse the shared benchmark CLI: ``[--quick] [--json OUT]``.

    Returns ``(quick, json_path)``; exits with a usage message on
    anything else.  Kept deliberately tiny (no argparse) so every
    ``bench_eNN`` script stays runnable as a plain file.
    """
    quick = False
    json_path: Optional[str] = None
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--quick":
            quick = True
        elif arg == "--json":
            if not args:
                sys.exit(f"usage: {prog} [--quick] [--json OUT]")
            json_path = args.pop(0)
        else:
            sys.exit(f"usage: {prog} [--quick] [--json OUT]")
    return quick, json_path


def emit_json(
    json_path: Optional[str],
    exp_id: str,
    title: str,
    findings: Dict[str, object],
) -> None:
    """Write a machine-readable ``BENCH_*.json`` record of one run.

    No-op when *json_path* is ``None``, so callers can pass the parsed
    ``--json`` value through unconditionally.  The record deliberately
    carries the findings dict verbatim -- every ``run_experiment``
    already returns its headline numbers there -- so perf trajectories
    can be scraped without parsing tables.
    """
    if json_path is None:
        return
    record = {"experiment": exp_id, "title": title, "findings": findings}
    Path(json_path).write_text(json.dumps(record, indent=2, default=str) + "\n")
    print(f"wrote {json_path}")
