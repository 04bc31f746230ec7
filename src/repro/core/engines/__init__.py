"""The interchangeable first-phase engines.

``reference`` is the executable specification (the literal Figure 7
loop) and the only engine that builds the global conflict graph.
``incremental`` is the dirty-set production engine, run serially on
per-epoch :class:`~repro.core.plan.EpochPlan` slices, with an optional
journal that replays certified epochs.  ``parallel`` runs the same
epoch kernel on the same slices as waves on a pluggable *execution
backend* (thread pool, process pool, or inline serial, see
:mod:`repro.core.engines.backends`); it is the only engine that takes
``workers=`` / ``backend=``.  ``vectorized`` is the serial
numpy-columnar kernel (:mod:`repro.core.engines.columnar`).  All four
engines produce bit-identical semantic artifacts for the bundled raise
rules and MIS oracles; :mod:`repro.core.framework` is the stable facade
that selects between them.

The second phase (:mod:`repro.core.engines.admission`) is the
reversed-stack reference pop on every path, delta solves included.
"""
from repro.core.engines.admission import run_second_phase
from repro.core.engines.artifacts import (
    FirstPhaseArtifacts,
    InstanceLayout,
    PhaseCounters,
    group_members,
    stall_error,
)
from repro.core.engines.backends import (
    BACKEND_ENV_VAR,
    BACKENDS,
    EpochExecutorBackend,
    EpochJob,
    EpochOutcome,
    default_workers,
    make_backend,
    resolve_backend,
    run_epoch_job,
    usable_cpu_count,
    validate_backend,
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
from repro.core.engines.journal import (
    EpochRecord,
    FirstPhaseJournal,
    PhaseLog,
    SolveJournal,
    active_journal,
    epoch_signature,
    journal_context,
    phase_config,
    predict_dirty_epochs,
)
from repro.core.engines.parallel import (
    ParallelEpochExecutor,
    run_first_phase_parallel,
)
from repro.core.engines.reference import run_first_phase_reference

__all__ = [
    "BACKEND_ENV_VAR",
    "BACKENDS",
    "ColumnarLayout",
    "EpochExecutorBackend",
    "EpochJob",
    "EpochOutcome",
    "EpochRecord",
    "FirstPhaseArtifacts",
    "FirstPhaseJournal",
    "InstanceLayout",
    "ParallelEpochExecutor",
    "PhaseCounters",
    "PhaseLog",
    "SolveJournal",
    "active_journal",
    "default_workers",
    "epoch_signature",
    "group_members",
    "journal_context",
    "make_backend",
    "phase_config",
    "predict_dirty_epochs",
    "resolve_backend",
    "run_epoch_columnar",
    "run_epoch_incremental",
    "run_epoch_job",
    "run_first_phase_incremental",
    "run_first_phase_parallel",
    "run_first_phase_reference",
    "run_first_phase_vectorized",
    "run_second_phase",
    "stall_error",
    "usable_cpu_count",
    "validate_backend",
]
