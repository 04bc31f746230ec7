"""The interchangeable first-phase engines.

``reference`` is the executable specification (the literal Figure 7
loop) and the only engine that builds the global conflict graph.
``incremental`` is the dirty-set production engine, run on per-epoch
:class:`~repro.core.plan.EpochPlan` slices.  ``vectorized`` is the
numpy-columnar kernel (:mod:`repro.core.engines.columnar`).  All three
engines are serial and produce bit-identical semantic artifacts for
the bundled raise rules and MIS oracles; :mod:`repro.core.framework` is
the stable facade that selects between them.  No engine warm-starts: a
delta solve is a plain solve (:mod:`repro.service.delta`).

The second phase (:mod:`repro.core.engines.admission`) is the
reversed-stack reference pop on every path.
"""
from repro.core.engines.admission import run_second_phase
from repro.core.engines.artifacts import (
    FirstPhaseArtifacts,
    InstanceLayout,
    PhaseCounters,
    group_members,
    stall_error,
)
from repro.core.engines.columnar import (
    ColumnarLayout,
    run_epoch_columnar,
    run_first_phase_vectorized,
)
from repro.core.engines.incremental import (
    run_epoch_incremental,
    run_first_phase_incremental,
)
from repro.core.engines.reference import run_first_phase_reference

__all__ = [
    "ColumnarLayout",
    "FirstPhaseArtifacts",
    "InstanceLayout",
    "PhaseCounters",
    "group_members",
    "run_epoch_columnar",
    "run_epoch_incremental",
    "run_first_phase_incremental",
    "run_first_phase_reference",
    "run_first_phase_vectorized",
    "run_second_phase",
    "stall_error",
]
