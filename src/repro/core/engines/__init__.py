"""The interchangeable first-phase engines.

``reference`` is the executable specification (the literal Figure 7
loop) and the only engine that builds the global conflict graph.
``incremental`` is the dirty-set production engine, run on per-epoch
:class:`~repro.core.plan.EpochPlan` slices, with an optional journal
that replays certified epochs.  ``vectorized`` is the numpy-columnar
kernel (:mod:`repro.core.engines.columnar`).  All three engines are
serial and produce bit-identical semantic artifacts for the bundled
raise rules and MIS oracles; :mod:`repro.core.framework` is the stable
facade that selects between them.

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
from repro.core.engines.reference import run_first_phase_reference

__all__ = [
    "ColumnarLayout",
    "EpochRecord",
    "FirstPhaseArtifacts",
    "FirstPhaseJournal",
    "InstanceLayout",
    "PhaseCounters",
    "PhaseLog",
    "SolveJournal",
    "active_journal",
    "epoch_signature",
    "group_members",
    "journal_context",
    "phase_config",
    "predict_dirty_epochs",
    "run_epoch_columnar",
    "run_epoch_incremental",
    "run_first_phase_incremental",
    "run_first_phase_reference",
    "run_first_phase_vectorized",
    "run_second_phase",
    "stall_error",
]
