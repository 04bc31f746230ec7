"""The vectorized (columnar) first-phase engine.

``engine="vectorized"`` runs the exact epoch computation of
:func:`~repro.core.engines.incremental.run_epoch_incremental` over a
numpy-columnar encoding of the epoch's members instead of python dicts:

* :class:`ColumnarLayout` -- one epoch's members re-encoded as float64
  value arrays (profits, height coefficients, raise denominators) and
  CSR ``intp`` index arrays (path-edge columns, critical-edge columns,
  and the *conflict buckets* described below), with stable id<->row maps
  (rows are members in ascending instance id, so "sorted ids" and
  "ascending rows" coincide everywhere).
* :func:`run_epoch_columnar` -- the epoch/stage/step loop with the LHS
  cache as one float64 array, tau-satisfaction as one vectorized
  compare, MIS as segmented reductions over the buckets, dual raises as
  gather/scatter along critical-edge columns, and the dirty-set
  recomputation as a masked re-reduction -- all scratch buffers
  preallocated per epoch and reused across stages and steps.
* At epoch exit the raise events are decoded back into
  :class:`~repro.core.dual.RaiseEvent` / stack batches and the touched
  dual keys committed to the master
  :class:`~repro.core.dual.DualState` in first-write order with their
  final array values (bitwise the values applying each event in turn would
  produce -- see :func:`commit_epoch`), so ``TwoPhaseResult`` and every
  downstream consumer (second phase, service digests) see
  artifacts indistinguishable from the serial engines'.

Conflict buckets instead of adjacency
-------------------------------------

The conflict graph over one epoch's members is a union of cliques: all
instances whose path contains edge ``e`` conflict pairwise, and all
instances of demand ``a`` conflict pairwise.  The kernel therefore
never materializes pairwise adjacency (the incremental engine builds
it per stage, over the stage's unsatisfied members, because its MIS
oracles take a dict adjacency): it keeps one CSR *bucket*
per edge column and per demand, and every per-step graph operation --
MIS local minima, blocking chosen rows' neighbors, collecting the dirty
set after a raise -- becomes a segmented ``np.minimum.reduceat`` /
``np.logical_or.reduceat`` over the bucket rows plus a
``np.repeat``-scatter back.

Bit-identity
------------

The kernel is bit-identical to ``engine="incremental"`` for the bundled
raise rules (:class:`~repro.core.dual.UnitRaise`,
:class:`~repro.core.dual.HeightRaise`) and MIS oracles (``greedy``,
``luby``, ``hash``) -- events, stacks, dual dicts *including insertion
order*, and the semantic counters all match, which
``tests/test_engine_equivalence.py`` pins across the whole workload
registry.  Three properties make that possible:

* LHS sums are evaluated with a guaranteed-sequential padded position
  loop (one fused add per path position, padded with a sentinel edge
  column whose beta is identically ``+0.0``), reproducing
  :meth:`DualState.lhs`'s left-to-right float accumulation exactly --
  ``np.add.reduceat`` would use pairwise summation and is deliberately
  *not* used.
* MIS members are pairwise non-conflicting, so one step's raises touch
  pairwise-disjoint dual keys: raising from the cached LHS array is
  bitwise identical to the incremental engine's fresh
  ``dual.slack(d)`` reads.
* The columnar Luby iteration draws priorities for the active rows in
  ascending row order -- the dict engine's ``sorted(active)`` draw
  order -- from the same per-epoch substream, and resolves exactly the
  same ``(priority, id)`` lexicographic local minima.

A *custom* raise rule or MIS oracle falls outside those guarantees
(arbitrary write patterns; possibly non-independent "MIS" sets), so the
kernel drops to a shadow mode that applies the rule sequentially on a
real :class:`DualState` -- same results as incremental, just without
the vectorized raise fast path.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.demand import DemandInstance
from repro.core.dual import DualState, HeightRaise, RaiseEvent, RaiseRule, UnitRaise
from repro.core.engines.artifacts import (
    FirstPhaseArtifacts,
    InstanceLayout,
    PhaseCounters,
    stall_error,
)
from repro.core.types import EPS, EdgeKey
from repro.distributed.mis import (
    ROUNDS_PER_LUBY_ITERATION,
    HashLubyOracle,
    LubyOracle,
    MISOracle,
    greedy_mis,
    hashed_priority,
    instance_key,
)

__all__ = [
    "ColumnarLayout",
    "build_columnar_epochs",
    "commit_epoch",
    "run_epoch_columnar",
    "run_first_phase_vectorized",
]


@dataclass
class ColumnarLayout:
    """One epoch's members in columnar (struct-of-arrays) form.

    Rows are the members in ascending instance id.  Edge and demand
    columns index vocabularies shared by every block of the phase, with
    edge column 0 reserved as an always-zero sentinel (the padding
    target of ``path_pad``).  Conflict buckets live in one id space:
    bucket ``c`` for edge column ``c`` (bucket 0 always empty), then
    ``n_edges + a`` for demand column ``a``.  Blocks are built once per
    phase, by :func:`build_columnar_epochs`, and never leave the
    process that runs the phase.
    """

    epoch: int
    #: Members in ascending instance id (row order).
    instances: List[DemandInstance]
    ids: np.ndarray  # (m,) intp -- instance id per row, ascending
    profit: np.ndarray  # (m,) float64
    coeff: np.ndarray  # (m,) float64 -- LHS beta coefficient (height or 1.0)
    #: Edge-key vocabulary; index 0 is the ``None`` padding sentinel.
    edge_keys: List[Optional[EdgeKey]]
    #: Demand-id vocabulary (first appearance order) and per-row column.
    demand_ids: List[int]
    dcol: np.ndarray  # (m,) intp
    # Path edges (the LHS support), CSR + padded-position form.
    path_indptr: np.ndarray  # (m+1,) intp
    path_cols: np.ndarray  # (nnz,) intp -- frozenset iteration order per row
    path_len: np.ndarray  # (m,) intp
    path_pad: np.ndarray  # (Lmax, m) intp -- column 0 where padded
    # Critical edges (the raise support), CSR + original tuples.
    pi_indptr: np.ndarray  # (m+1,) intp
    pi_cols: np.ndarray  # (pi_nnz,) intp
    pi_tuples: List[Tuple[EdgeKey, ...]]
    # Conflict buckets (cliques): rows sorted by bucket id plus the
    # compacted non-empty segments (ids ascending, offsets, sizes) --
    # only non-empty buckets are ever represented, so a vocabulary
    # shared across epochs, most of whose buckets are empty in any one
    # block, costs the per-step reductions and gathers nothing.
    bucket_rows: np.ndarray  # (bnnz,) intp -- ascending rows per bucket
    red_buckets: np.ndarray  # (k,) intp -- non-empty bucket ids
    red_indptr: np.ndarray  # (k+1,) intp -- segment offsets into bucket_rows
    red_sizes: np.ndarray  # (k,) intp
    nb_of_row: np.ndarray  # (m,) intp -- path_len + 1 (the demand bucket)
    #: Raise-rule encoding: "unit" / "height" vectorize; "custom" shadows.
    rule_kind: str
    use_alpha: bool
    denom: np.ndarray  # (m,) float64 -- delta = slack / denom
    incfac: np.ndarray  # (m,) float64 -- beta increment = incfac * delta
    #: False when some row's critical edges leak outside its own path
    #: columns (never true for the bundled layouts); forces shadow mode
    #: because the cached-LHS raise argument above would not hold.
    pi_within_path: bool = True
    #: Hash-oracle identities, built lazily on first use.
    _ikeys: Optional[List[Tuple[int, int, int, int]]] = field(
        default=None, repr=False
    )

    @property
    def n_rows(self) -> int:
        return len(self.instances)

    @property
    def n_edges(self) -> int:
        return len(self.edge_keys)

    def ikeys(self) -> List[Tuple[int, int, int, int]]:
        if self._ikeys is None:
            self._ikeys = [instance_key(d) for d in self.instances]
        return self._ikeys


def _rule_kind(raise_rule: RaiseRule) -> str:
    """Exact-type detection: a subclass may override anything, so only
    the bundled classes themselves get the vectorized raise arithmetic."""
    if type(raise_rule) is UnitRaise:
        return "unit"
    if type(raise_rule) is HeightRaise:
        return "height"
    return "custom"


def _flatten_rows(
    instances: Sequence[DemandInstance], layout: InstanceLayout
) -> Tuple[List[EdgeKey], List[int], List[Tuple[EdgeKey, ...]], List[int]]:
    """One python pass over the rows: the flat edge-key stream (every
    row's path edges in iteration order, then every row's critical
    edges) plus the per-row lengths.

    Path keys are appended in each instance's ``path_edges`` iteration
    order -- the order :meth:`DualState.lhs` accumulates beta in, which
    the padded-position LHS loop must reproduce exactly -- via one
    C-speed ``chain.from_iterable`` pass; no per-edge python work
    happens here.
    """
    paths = list(map(attrgetter("path_edges"), instances))
    plen = list(map(len, paths))
    pi_tuples = list(
        map(layout.pi.__getitem__, map(attrgetter("instance_id"), instances))
    )
    pilen = list(map(len, pi_tuples))
    flat = list(chain.from_iterable(chain(paths, pi_tuples)))
    return flat, plen, pi_tuples, pilen


def _edge_vocab(
    flat: List[EdgeKey],
) -> Tuple[List[Optional[EdgeKey]], np.ndarray]:
    """Vocabulary of the flat key stream: the ``edge_keys`` list (index 0
    the ``None`` padding sentinel) and one column per stream position.

    Column *numbering* is an internal choice -- nothing semantic depends
    on vocabulary order (commit and priming translate through
    ``edge_keys``) -- so the keys are packed into an ``(nnz, 3)`` int64
    array and deduplicated with one ``np.unique`` instead of a per-edge
    dict probe.  Keys that are not integer triples (possible only for
    hand-rolled exotic problems) fall back to the dict loop.
    """
    if not flat:
        return [None], np.empty(0, np.intp)
    try:
        arr = np.fromiter(
            chain.from_iterable(flat), np.int64, 3 * len(flat)
        ).reshape(-1, 3)
    except (TypeError, ValueError, OverflowError):
        ecol: Dict[EdgeKey, int] = {}
        keys: List[Optional[EdgeKey]] = [None]
        out = np.empty(len(flat), np.intp)
        for i, e in enumerate(flat):
            c = ecol.get(e)
            if c is None:
                c = ecol[e] = len(keys)
                keys.append(e)
            out[i] = c
        return keys, out
    lo = arr.min(axis=0)
    span = (arr.max(axis=0) - lo + 1).tolist()
    if span[0] * span[1] * span[2] < 1 << 62:
        # The triples fit one int64 each: dedup on the packed scalars
        # (a plain sort) instead of the much slower axis-0 unique.
        packed = (
            (arr[:, 0] - lo[0]) * (span[1] * span[2])
            + (arr[:, 1] - lo[1]) * span[2]
            + (arr[:, 2] - lo[2])
        )
        _, first, inv = np.unique(packed, return_index=True, return_inverse=True)
    else:
        _, first, inv = np.unique(
            arr, axis=0, return_index=True, return_inverse=True
        )
    edge_keys: List[Optional[EdgeKey]] = [None]
    edge_keys.extend(map(flat.__getitem__, first.tolist()))
    return edge_keys, np.asarray(inv, np.intp).reshape(-1) + 1


def _segment_csr(
    sorted_buckets: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compacted CSR of a bucket-sorted membership list: the distinct
    bucket ids plus their segment offsets and sizes."""
    if not sorted_buckets.size:
        z = np.empty(0, np.intp)
        return z, np.zeros(1, np.intp), z
    is_start = np.empty(sorted_buckets.size, np.bool_)
    is_start[0] = True
    np.not_equal(sorted_buckets[1:], sorted_buckets[:-1], out=is_start[1:])
    seg_starts = np.flatnonzero(is_start)
    red_buckets = sorted_buckets[seg_starts]
    red_indptr = np.append(seg_starts, sorted_buckets.size)
    return red_buckets, red_indptr, np.diff(red_indptr)


def _assemble(
    epoch: int,
    instances: List[DemandInstance],
    raise_rule: RaiseRule,
    edge_keys: List[Optional[EdgeKey]],
    demand_ids: List[int],
    dcol: np.ndarray,
    path_len: np.ndarray,
    path_cols: np.ndarray,
    pilen: np.ndarray,
    pi_cols: np.ndarray,
    pi_tuples: List[Tuple[EdgeKey, ...]],
) -> ColumnarLayout:
    """Assemble one epoch's :class:`ColumnarLayout` from encoded rows.

    ``edge_keys`` / ``demand_ids`` are the vocabularies every epoch's
    block shares (see :func:`build_columnar_epochs`); everything
    row-shaped is this epoch's slice.
    """
    m = len(instances)
    ids = np.fromiter(map(attrgetter("instance_id"), instances), np.intp, m)
    profit = np.fromiter(map(attrgetter("profit"), instances), np.float64, m)
    rule_kind = _rule_kind(raise_rule)
    use_height = raise_rule.use_height_rule
    heights = (
        np.fromiter(map(attrgetter("height"), instances), np.float64, m)
        if use_height or rule_kind == "height"
        else None
    )
    coeff = heights if use_height else np.ones(m, np.float64)
    path_indptr = np.zeros(m + 1, np.intp)
    np.cumsum(path_len, out=path_indptr[1:])
    pi_indptr = np.zeros(m + 1, np.intp)
    np.cumsum(pilen, out=pi_indptr[1:])
    n_edges = len(edge_keys)
    rows_rep = np.repeat(np.arange(m, dtype=np.intp), path_len)

    # Padded-position form of the path columns: pad[k, r] is row r's k-th
    # path column, or the zero sentinel past the row's length.
    l_max = int(path_len.max()) if m else 0
    path_pad = np.zeros((l_max, m), np.intp)
    if path_cols.size:
        pos = np.arange(path_cols.size, dtype=np.intp) - np.repeat(
            path_indptr[:-1], path_len
        )
        path_pad[pos, rows_rep] = path_cols

    # Critical edges must stay inside their own row's path columns (and
    # be within-row distinct) for the cached-LHS raise argument to hold;
    # checked vectorized on packed (row, column) pairs.
    pi_within_path = True
    if pi_cols.size:
        rows_pi = np.repeat(np.arange(m, dtype=np.intp), pilen)
        pairs_p = rows_rep * n_edges + path_cols
        pairs_pi = rows_pi * n_edges + pi_cols
        pi_within_path = bool(
            np.unique(pairs_pi).size == pairs_pi.size
            and np.isin(pairs_pi, pairs_p).all()
        )

    # Conflict buckets: edge bucket c (rows whose path contains column c)
    # then demand bucket n_edges + a.  Stable sort of the row-major
    # membership list keeps rows ascending within every bucket; segment
    # boundaries of the sorted ids give the compacted CSR directly (no
    # vocabulary-wide histogram).
    mem_buckets = np.concatenate([path_cols, n_edges + dcol])
    mem_rows = np.concatenate([rows_rep, np.arange(m, dtype=np.intp)])
    order = np.argsort(mem_buckets, kind="stable")
    bucket_rows = mem_rows[order]
    sorted_buckets = mem_buckets[order]
    red_buckets, red_indptr, red_sizes = _segment_csr(sorted_buckets)
    nb_of_row = path_len + 1

    npi = pilen.astype(np.float64)
    if rule_kind == "unit":
        denom = npi + 1.0 if raise_rule.use_alpha else npi.copy()
        incfac = np.ones(m, np.float64)
    elif rule_kind == "height":
        # Same association order as HeightRaise.delta / beta_increment.
        denom = 1.0 + 2.0 * heights * npi * npi
        incfac = 2.0 * npi
    else:
        denom = np.ones(m, np.float64)
        incfac = np.ones(m, np.float64)

    return ColumnarLayout(
        epoch=epoch,
        instances=instances,
        ids=ids,
        profit=profit,
        coeff=coeff,
        edge_keys=edge_keys,
        demand_ids=demand_ids,
        dcol=dcol,
        path_indptr=path_indptr,
        path_cols=path_cols,
        path_len=path_len,
        path_pad=path_pad,
        pi_indptr=pi_indptr,
        pi_cols=pi_cols,
        pi_tuples=pi_tuples,
        bucket_rows=bucket_rows,
        red_buckets=red_buckets,
        red_indptr=red_indptr,
        red_sizes=red_sizes,
        nb_of_row=nb_of_row,
        rule_kind=rule_kind,
        use_alpha=raise_rule.use_alpha,
        denom=denom,
        incfac=incfac,
        pi_within_path=pi_within_path,
    )


def build_columnar_epochs(
    instances: Sequence[DemandInstance],
    layout: InstanceLayout,
    raise_rule: RaiseRule,
) -> Tuple[Dict[int, ColumnarLayout], int, int]:
    """Encode every non-empty epoch over one *shared* vocabulary.

    Returns ``(blocks, n_edges, n_demands)``.  All blocks index the same
    global edge-column and demand-column spaces, so a single pair of
    float64 dual arrays can carry the numeric state across the whole
    phase -- the runner's trick for skipping the per-epoch
    dict-to-array priming entirely -- and the flattening + vocabulary
    work is paid once for the phase instead of once per epoch.  (The
    per-block segmented reductions are immune to the wider bucket id
    space because they iterate the compacted non-empty segments.)

    Grouping happens here too, as one ``np.lexsort`` by ``(epoch,
    instance_id)`` -- the same (epoch ascending, id ascending within the
    epoch) row order :func:`group_members` + a per-epoch sort would
    produce, without the per-instance ``setdefault`` loop.
    """
    n = len(instances)
    gof = layout.group_of
    ids_list = list(map(attrgetter("instance_id"), instances))
    garr = np.fromiter(map(gof.__getitem__, ids_list), np.intp, n)
    iarr = np.asarray(ids_list, np.intp)
    row_order = np.lexsort((iarr, garr))
    all_rows = list(map(instances.__getitem__, row_order.tolist()))
    sg = garr[row_order]
    if n:
        seg = np.flatnonzero(sg[1:] != sg[:-1]) + 1
        bounds = np.concatenate([[0], seg, [n]])
    else:
        bounds = np.zeros(1, np.intp)
    epochs = sg[bounds[:-1]].tolist()
    flat, plen, pi_tuples, pilen = _flatten_rows(all_rows, layout)
    edge_keys, cols = _edge_vocab(flat)
    path_len = np.asarray(plen, np.intp)
    pilen_arr = np.asarray(pilen, np.intp)
    pcum = np.zeros(n + 1, np.intp)
    np.cumsum(path_len, out=pcum[1:])
    qcum = np.zeros(n + 1, np.intp)
    np.cumsum(pilen_arr, out=qcum[1:])
    nnz_p = int(pcum[-1])
    path_cols = cols[:nnz_p]
    pi_cols = cols[nnz_p:]
    darr = np.fromiter(map(attrgetter("demand_id"), all_rows), np.intp, n)
    dvals, dinv = np.unique(darr, return_inverse=True)
    demand_ids = dvals.tolist()
    dcol = np.asarray(dinv, np.intp).reshape(-1)
    blocks: Dict[int, ColumnarLayout] = {}
    for e, r0, r1 in zip(epochs, bounds[:-1].tolist(), bounds[1:].tolist()):
        blocks[e] = _assemble(
            e,
            all_rows[r0:r1],
            raise_rule,
            edge_keys,
            demand_ids,
            dcol[r0:r1],
            path_len[r0:r1],
            path_cols[pcum[r0] : pcum[r1]],
            pilen_arr[r0:r1],
            pi_cols[qcum[r0] : qcum[r1]],
            pi_tuples[r0:r1],
        )
    return blocks, len(edge_keys), len(demand_ids)


def _oracle_kind(mis_oracle: MISOracle) -> str:
    if mis_oracle is greedy_mis:
        return "greedy"
    if isinstance(mis_oracle, LubyOracle):
        return "luby"
    if isinstance(mis_oracle, HashLubyOracle):
        return "hash"
    return "custom"


def _bucket_gather(block: ColumnarLayout, buckets: np.ndarray) -> np.ndarray:
    """All rows of the given bucket ids, concatenated (with duplicates).

    Bucket ids resolve through the compacted segments via binary search;
    ids absent from the block (possible only for hand-rolled inputs --
    every bucket this engine asks for contains at least the asking row)
    contribute nothing.
    """
    red_buckets = block.red_buckets
    if not buckets.size or not red_buckets.size:
        return np.empty(0, np.intp)
    pos = np.searchsorted(red_buckets, buckets)
    np.minimum(pos, red_buckets.size - 1, out=pos)
    valid = red_buckets[pos] == buckets
    counts = np.where(valid, block.red_sizes[pos], 0)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.intp)
    starts = block.red_indptr[pos]
    shift = np.cumsum(counts) - counts
    idx = np.repeat(starts - shift, counts) + np.arange(total, dtype=np.intp)
    return block.bucket_rows[idx]


def _step_subcsr(
    block: ColumnarLayout, urows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bucket CSR restricted to the step's unsat rows.

    Exact for MIS purposes: the conflict graph handed to an oracle is
    restricted to the candidates anyway, so bucket mates that are not
    unsat never matter.  Used when few rows are unsat, where rebuilding
    this small structure is far cheaper than reducing over the whole
    block's membership every Luby iteration.
    """
    plen = block.path_len[urows]
    mem_buckets = np.concatenate(
        [
            _csr_gather(block.path_cols, block.path_indptr, urows, plen),
            block.n_edges + block.dcol[urows],
        ]
    )
    # Path part then demand part: bucket id ranges are disjoint and each
    # part lists rows ascending, so the stable argsort keeps rows
    # ascending within every bucket.
    mem_rows = np.concatenate([np.repeat(urows, plen), urows])
    order = np.argsort(mem_buckets, kind="stable")
    _, indptr, sizes = _segment_csr(mem_buckets[order])
    return mem_rows[order], indptr, sizes


#: Below this active fraction a step's MIS runs on the unsat-restricted
#: sub-CSR instead of the block-wide segments.
_SUBCSR_FRACTION = 4


def _columnar_greedy(
    m: int,
    nb_of_row: np.ndarray,
    br: np.ndarray,
    indptr: np.ndarray,
    sizes: np.ndarray,
    unsat: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """Lowest-id MIS over the unsat rows; equals :func:`greedy_mis`.

    Round-based local-minima peeling computes the lexicographically
    first MIS -- the same set the sequential lowest-id sweep picks --
    without materializing adjacency: a row joins when it is the minimum
    active row of *every* bucket it belongs to, then joined rows retire
    together with all their bucket mates.  The value buffers are one
    element longer than the membership list and hold a neutral trailing
    pad (the last segment's ``reduceat`` slice runs to the buffer end).
    """
    bnnz = br.size
    indices = indptr[:-1]
    gmin = np.full(bnnz + 1, m, np.intp)
    gbool = np.zeros(bnnz + 1, np.bool_)
    active = unsat.copy()
    chosen = np.zeros(m, np.bool_)
    while active.any():
        gmin[:-1] = np.where(active[br], br, m)
        bmin = np.minimum.reduceat(gmin, indices)
        counts = np.bincount(bmin[bmin < m], minlength=m)
        joined = active & (counts == nb_of_row)
        gbool[:-1] = joined[br]
        bj = np.logical_or.reduceat(gbool, indices)
        hit = np.repeat(bj, sizes)
        active[br[hit]] = False
        chosen |= joined
    return chosen, 1


def _columnar_luby(
    m: int,
    nb_of_row: np.ndarray,
    br: np.ndarray,
    indptr: np.ndarray,
    sizes: np.ndarray,
    unsat: np.ndarray,
    draw,
) -> Tuple[np.ndarray, int]:
    """Luby's MIS over the unsat rows; equals the dict ``_luby_rounds``.

    *draw(active_rows, iteration)* returns one priority per active row,
    in ascending row order -- the dict engine's ``sorted(active)`` draw
    order.  Per iteration a row joins when its ``(priority, id)`` key is
    the strict lexicographic minimum among the active rows of every one
    of its buckets (keys are distinct because ids are), which is exactly
    the all-active-neighbors comparison of the dict loop; joined rows
    retire with their active bucket mates.
    """
    bnnz = br.size
    indices = indptr[:-1]
    gmin = np.full(bnnz + 1, m, np.intp)
    gpri = np.full(bnnz + 1, np.inf, np.float64)
    gbool = np.zeros(bnnz + 1, np.bool_)
    pri = np.full(m, np.inf, np.float64)
    active = unsat.copy()
    chosen = np.zeros(m, np.bool_)
    iterations = 0
    while active.any():
        iterations += 1
        act_rows = np.flatnonzero(active)
        pri[act_rows] = draw(act_rows, iterations)
        mask = active[br]
        gpri[:-1] = np.where(mask, pri[br], np.inf)
        bpri = np.minimum.reduceat(gpri, indices)
        tied = mask & (pri[br] == np.repeat(bpri, sizes))
        gmin[:-1] = np.where(tied, br, m)
        brmin = np.minimum.reduceat(gmin, indices)
        counts = np.bincount(brmin[brmin < m], minlength=m)
        joined = active & (counts == nb_of_row)
        gbool[:-1] = joined[br]
        bj = np.logical_or.reduceat(gbool, indices)
        hit = np.repeat(bj, sizes)
        active[br[hit]] = False
        chosen |= joined
    return chosen, iterations * ROUNDS_PER_LUBY_ITERATION


def _custom_oracle_step(
    block: ColumnarLayout,
    unsat: np.ndarray,
    mis_oracle: MISOracle,
    context: Tuple[int, int, int],
) -> Tuple[np.ndarray, int]:
    """Compatibility path for third-party oracles: rebuild the dict view.

    The active-restricted adjacency handed over is content-identical to
    the incremental engine's shrunk ``active_adj`` at the same step
    (neighbors-of-unsat intersected with unsat), so a deterministic
    custom oracle sees exactly the inputs it would see there.
    """
    unsat_rows = np.flatnonzero(unsat)
    row_of = {int(block.ids[r]): int(r) for r in unsat_rows}
    candidates = [block.instances[r] for r in unsat_rows]
    adjacency = {}
    for r in unsat_rows:
        buckets = np.concatenate(
            [
                block.path_cols[block.path_indptr[r] : block.path_indptr[r + 1]],
                [block.n_edges + block.dcol[r]],
            ]
        )
        mates = _bucket_gather(block, buckets)
        nbrs = {
            int(block.ids[u]) for u in mates[unsat[mates]]
        }
        nbrs.discard(int(block.ids[r]))
        adjacency[int(block.ids[r])] = nbrs
    mis_ids, rounds = mis_oracle(candidates, adjacency, context)
    chosen = np.zeros(block.n_rows, np.bool_)
    for i in mis_ids:
        chosen[row_of[i]] = True
    return chosen, rounds


def _lhs_all(block: ColumnarLayout, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """LHS of every row, with :meth:`DualState.lhs`'s exact float order.

    A sequential position loop over the padded path columns: position k
    adds each row's k-th path-edge beta (or the sentinel's +0.0, which
    is bitwise harmless on the non-negative partial sums).  Pairwise
    reductions (``np.add.reduceat``) would change the summation tree.
    """
    bsum = np.zeros(block.n_rows, np.float64)
    for k in range(block.path_pad.shape[0]):
        bsum += beta[block.path_pad[k]]
    return alpha[block.dcol] + block.coeff * bsum


def _lhs_dirty(
    block: ColumnarLayout,
    dirty: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    lhs: np.ndarray,
) -> None:
    """Recompute ``lhs[dirty]`` in place (same sequential order)."""
    k_max = int(block.path_len[dirty].max())
    bsum = np.zeros(dirty.size, np.float64)
    for k in range(k_max):
        bsum += beta[block.path_pad[k, dirty]]
    lhs[dirty] = alpha[block.dcol[dirty]] + block.coeff[dirty] * bsum


def run_epoch_columnar(
    block: ColumnarLayout,
    raise_rule: RaiseRule,
    thresholds: Sequence[float],
    mis_oracle: MISOracle,
    events: List[RaiseEvent],
    stack: List[List[DemandInstance]],
    counters: PhaseCounters,
    order: int,
    primed_alpha: Mapping,
    primed_beta: Mapping,
    alpha_arr: Optional[np.ndarray] = None,
    beta_arr: Optional[np.ndarray] = None,
) -> Tuple[int, Optional[DualState], Optional[tuple]]:
    """Run one epoch on the columnar block.

    Returns ``(next order, shadow, commit)``: exactly one of *shadow*
    (custom rules/oracles ran sequentially on a real
    :class:`DualState`) and *commit* (the fast path's
    ``(alpha_cols, beta_cols, alpha_arr, beta_arr)`` -- the touched
    columns in first-write order plus the final value arrays) is not
    ``None``; either is consumed by :func:`commit_epoch`.

    ``primed_alpha`` / ``primed_beta`` are the dual values visible to
    the epoch: the runner passes the master dicts themselves.  When the
    caller already holds the primed values as arrays over the block's
    column spaces -- the runner's persistent phase-wide arrays -- it
    passes them as ``alpha_arr`` / ``beta_arr`` and the dict-to-array
    priming is skipped outright; the arrays are updated in place.  The
    dicts are primed from only after a shadow epoch, which leaves the
    arrays stale.  Nothing is ever written back to the dicts here.
    """
    epoch = block.epoch
    m = block.n_rows
    instances = block.instances
    oracle_kind = _oracle_kind(mis_oracle)
    use_shadow = (
        block.rule_kind == "custom"
        or oracle_kind == "custom"
        or not block.pi_within_path
    )

    shadow: Optional[DualState] = None
    alpha = beta = None
    if use_shadow:
        shadow = DualState(use_height_rule=raise_rule.use_height_rule)
        shadow.alpha.update(primed_alpha)
        shadow.beta.update(primed_beta)
        lhs = np.fromiter(
            (shadow.lhs(d) for d in instances), np.float64, m
        )
    else:
        if alpha_arr is None:
            n_dem = len(block.demand_ids)
            if primed_alpha:
                alpha = np.fromiter(
                    (primed_alpha.get(a, 0.0) for a in block.demand_ids),
                    np.float64,
                    n_dem,
                )
            else:
                alpha = np.zeros(n_dem, np.float64)
            beta = np.zeros(block.n_edges, np.float64)
            if primed_beta:
                edge_keys = block.edge_keys
                get = primed_beta.get
                for c in range(1, block.n_edges):
                    v = get(edge_keys[c])
                    if v is not None:
                        beta[c] = v
        else:
            alpha, beta = alpha_arr, beta_arr
        lhs = _lhs_all(block, alpha, beta)
        alpha_touched = np.zeros(len(block.demand_ids), np.bool_)
        beta_touched = np.zeros(block.n_edges, np.bool_)
        alpha_touch: List[np.ndarray] = []
        beta_touch: List[np.ndarray] = []
    counters.satisfaction_checks += m

    if oracle_kind == "luby":
        rng = mis_oracle.substream(epoch)

        def draw(act_rows, iteration):
            # iter(rng.random, 2.0) is an endless C-level call iterator
            # (random() never returns the 2.0 sentinel); fromiter's count
            # stops it after exactly one draw per active row.
            return np.fromiter(iter(rng.random, 2.0), np.float64, act_rows.size)

    profit = block.profit
    for stage_no, tau in enumerate(thresholds, start=1):
        counters.stages += 1
        counters.stages_entered += 1
        unsat = lhs < tau * profit - EPS
        if not unsat.any():
            continue
        counters.adjacency_touches += int(np.count_nonzero(unsat))
        step = 0
        while unsat.any():
            step += 1
            if step > m:
                raise stall_error(epoch, stage_no, m)
            context = (epoch, stage_no, step)
            if oracle_kind == "custom":
                chosen_mask, rounds = _custom_oracle_step(
                    block, unsat, mis_oracle, context
                )
            else:
                n_unsat = int(np.count_nonzero(unsat))
                if n_unsat * _SUBCSR_FRACTION < m:
                    br, indptr, sizes = _step_subcsr(
                        block, np.flatnonzero(unsat)
                    )
                else:
                    br = block.bucket_rows
                    indptr = block.red_indptr
                    sizes = block.red_sizes
                if oracle_kind == "greedy":
                    chosen_mask, rounds = _columnar_greedy(
                        m, block.nb_of_row, br, indptr, sizes, unsat
                    )
                elif oracle_kind == "luby":
                    chosen_mask, rounds = _columnar_luby(
                        m, block.nb_of_row, br, indptr, sizes, unsat, draw
                    )
                else:  # hash
                    seed = mis_oracle.seed
                    ikeys = block.ikeys()

                    def hdraw(act_rows, iteration, _ctx=context):
                        return np.fromiter(
                            (
                                hashed_priority(seed, ikeys[r], _ctx, iteration)
                                for r in act_rows.tolist()
                            ),
                            np.float64,
                            act_rows.size,
                        )

                    chosen_mask, rounds = _columnar_luby(
                        m, block.nb_of_row, br, indptr, sizes, unsat, hdraw
                    )
            counters.mis_rounds += rounds
            chosen_rows = np.flatnonzero(chosen_mask)
            chosen_list = chosen_rows.tolist()

            if use_shadow:
                for r in chosen_list:
                    d = instances[r]
                    delta = raise_rule.apply(shadow, d, block.pi_tuples[r])
                    events.append(
                        RaiseEvent(
                            order=order,
                            instance=d,
                            delta=delta,
                            critical_edges=block.pi_tuples[r],
                            step_tuple=context,
                        )
                    )
                    order += 1
                    counters.raises += 1
            else:
                slack = profit[chosen_rows] - lhs[chosen_rows]
                pos = slack > EPS
                denom = block.denom[chosen_rows]
                if np.any(pos & (denom == 0.0)):
                    raise ValueError(
                        "cannot raise with no alpha and no critical edges"
                    )
                delta_arr = np.zeros(chosen_rows.size, np.float64)
                np.divide(slack, denom, out=delta_arr, where=pos)
                pos_rows = chosen_rows[pos]
                if pos_rows.size:
                    pos_delta = delta_arr[pos]
                    if block.use_alpha:
                        # MIS members have pairwise-distinct demands, so
                        # the fancy-index add hits each alpha column once;
                        # pos_rows ascending = the incremental engine's
                        # ascending-id write order (first-touch tracking
                        # below relies on it).
                        acols = block.dcol[pos_rows]
                        fresh = ~alpha_touched[acols]
                        if fresh.any():
                            new_a = acols[fresh]
                            alpha_touched[new_a] = True
                            alpha_touch.append(new_a)
                        alpha[acols] += pos_delta
                    inc = block.incfac[pos_rows] * pos_delta
                    pi_counts = (
                        block.pi_indptr[pos_rows + 1] - block.pi_indptr[pos_rows]
                    )
                    cols = _csr_gather(
                        block.pi_cols, block.pi_indptr, pos_rows, pi_counts
                    )
                    fresh = ~beta_touched[cols]
                    if fresh.any():
                        new_b = cols[fresh]
                        beta_touched[new_b] = True
                        beta_touch.append(new_b)
                    # Disjoint paths + within-row-distinct pi columns
                    # (checked at build) make every scatter target unique.
                    beta[cols] += np.repeat(inc, pi_counts)
                k = len(chosen_list)
                getrow = instances.__getitem__
                events.extend(
                    map(
                        RaiseEvent,
                        range(order, order + k),
                        map(getrow, chosen_list),
                        delta_arr.tolist(),
                        map(block.pi_tuples.__getitem__, chosen_list),
                        repeat(context),
                    )
                )
                order += k
                counters.raises += k
            stack.append(list(map(instances.__getitem__, chosen_list)))
            counters.steps += 1

            # Dirty set: rows sharing a demand with a chosen row, or whose
            # path contains one of its critical edges -- the bucket form
            # of InstanceIndex.affected_by, intersected with members.
            pi_counts = block.pi_indptr[chosen_rows + 1] - block.pi_indptr[chosen_rows]
            dirty_buckets = np.concatenate(
                [
                    _csr_gather(block.pi_cols, block.pi_indptr, chosen_rows, pi_counts),
                    block.n_edges + block.dcol[chosen_rows],
                ]
            )
            dirty = np.unique(_bucket_gather(block, dirty_buckets))
            counters.satisfaction_checks += int(dirty.size)
            if dirty.size:
                if use_shadow:
                    for r in dirty:
                        lhs[r] = shadow.lhs(instances[r])
                else:
                    _lhs_dirty(block, dirty, alpha, beta, lhs)
                sat = lhs[dirty] >= tau * profit[dirty] - EPS
                retire = dirty[sat & unsat[dirty]]
                counters.adjacency_touches += int(retire.size)
                unsat[retire] = False
        counters.max_steps_per_stage = max(counters.max_steps_per_stage, step)
    if use_shadow:
        return order, shadow, None
    acols = (
        np.concatenate(alpha_touch) if alpha_touch else np.empty(0, np.intp)
    )
    bcols = np.concatenate(beta_touch) if beta_touch else np.empty(0, np.intp)
    return order, None, (acols, bcols, alpha, beta)


def _csr_gather(
    data: np.ndarray, indptr: np.ndarray, rows: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Concatenate ``data[indptr[r]:indptr[r+1]]`` for each row in *rows*."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.intp)
    starts = indptr[rows]
    shift = np.cumsum(counts) - counts
    idx = np.repeat(starts - shift, counts) + np.arange(total, dtype=np.intp)
    return data[idx]


def commit_epoch(
    dual: DualState,
    block: ColumnarLayout,
    shadow: Optional[DualState],
    commit: Optional[tuple],
    raise_rule: RaiseRule,
) -> None:
    """Write one columnar epoch's dual effects into *dual*.

    The fast path assigns each touched key its final array value, in
    first-write chronological order.  That reproduces the incremental
    engine's dicts bit-for-bit: the arrays accumulated the epoch's
    raises with the exact float schedule :meth:`RaiseRule.apply` would
    have used on the dicts (same adds, same order), so the final values
    are bitwise identical, and python dicts keep existing keys in place
    on assignment while appending new keys -- first-write order is
    therefore the whole insertion order.  Shadow epochs (custom rules
    or oracles) instead copy the shadow state's writes over, in shadow
    insertion order -- again the chronological write order -- skipping
    unchanged primed keys.
    """
    if shadow is not None:
        for k, v in shadow.alpha.items():
            if k not in dual.alpha or dual.alpha[k] != v:
                dual.alpha[k] = v
        for k, v in shadow.beta.items():
            if k not in dual.beta or dual.beta[k] != v:
                dual.beta[k] = v
        return
    acols, bcols, alpha_arr, beta_arr = commit
    if raise_rule.use_alpha and acols.size:
        dual.alpha.update(
            zip(
                map(block.demand_ids.__getitem__, acols.tolist()),
                alpha_arr[acols].tolist(),
            )
        )
    if bcols.size:
        dual.beta.update(
            zip(
                map(block.edge_keys.__getitem__, bcols.tolist()),
                beta_arr[bcols].tolist(),
            )
        )


def run_first_phase_vectorized(
    instances: Sequence[DemandInstance],
    layout: InstanceLayout,
    raise_rule: RaiseRule,
    thresholds: Sequence[float],
    mis_oracle: MISOracle,
) -> FirstPhaseArtifacts:
    """Engine entry point for ``engine="vectorized"``.

    Members -> per-epoch columnar block -> epoch kernel -> commit, run
    serially in epoch order, with *no* epoch plan and *no* pairwise
    conflict graph ever built: the blocks' bucket structure replaces
    both.
    """
    dual = DualState(use_height_rule=raise_rule.use_height_rule)
    blocks, n_edges, n_demands = build_columnar_epochs(instances, layout, raise_rule)
    # Phase-wide dual arrays over the shared column spaces: every
    # non-shadow epoch reads and raises them in place, so no epoch ever
    # re-primes arrays from the master dicts.  A shadow epoch (custom
    # rule/oracle) bypasses them, leaving them stale -- subsequent
    # epochs then fall back to dict priming.
    alpha_arr = np.zeros(n_demands, np.float64)
    beta_arr = np.zeros(n_edges, np.float64)
    arrays_live = True
    events: List[RaiseEvent] = []
    stack: List[List[DemandInstance]] = []
    counters = PhaseCounters()
    order = 0
    for epoch in range(1, layout.n_epochs + 1):
        counters.epochs += 1
        block = blocks.get(epoch)
        if block is None:
            continue
        order, shadow, commit = run_epoch_columnar(
            block, raise_rule, thresholds, mis_oracle,
            events, stack, counters, order, dual.alpha, dual.beta,
            alpha_arr=alpha_arr if arrays_live else None,
            beta_arr=beta_arr if arrays_live else None,
        )
        commit_epoch(dual, block, shadow, commit, raise_rule)
        if shadow is not None:
            arrays_live = False
    return dual, stack, events, counters
