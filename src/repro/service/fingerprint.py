"""Canonical fingerprints of problems and solve configurations.

The scheduling service keys its result cache by a content hash of the
:class:`~repro.core.problem.Problem` plus the solve knobs, so that a
re-submitted workload -- or the *same* workload arriving under freshly
minted ids -- hits the cache instead of re-running a solve.  Two design
requirements shape the canonicalization:

**Invariance.**  The fingerprint must not change under

* insertion-order shuffles: the order of the ``networks`` dict, the
  ``demands`` list, the ``access`` dict and its per-demand network
  tuples (every consumer of those containers iterates them sorted);
* isomorphic relabelings of *network ids* and *demand ids*: a control
  plane that mints fresh ids per submission still describes the same
  instance.

Vertex labels are **not** abstracted away: they are the paper's
structural coordinates (on a line-network, vertex = timeslot), so two
problems that differ only by a vertex relabeling are genuinely
different requests.

**Soundness.**  A false hash equality would hand a caller the cached
result of a *different* problem, so the fingerprint never hashes a
lossy summary: it hashes a complete serialization of the problem under
a canonically chosen relabeling.  Network ids are canonicalized by
color refinement on the bipartite demand-access structure (initial
color = the network's shape payload, refined by the multiset of
accessing demand signatures until stable); demand ids by sorting the
id-free demand records.  Equal fingerprints therefore certify an
isomorphism between the two problems.  The converse direction is
best-effort: refinement-tied networks are ordered by their original
ids, which is exact when the tie is a true symmetry (any assignment
among interchangeable networks serializes identically) and at worst
costs a cache *miss* on exotic non-symmetric ties -- never a wrong
hit.

A cache hit on a relabeled-but-isomorphic problem returns the stored
result of the canonical representative: identical profits, schedule
shape and certificates, with ids drawn from the representative
submission.  Hits on a byte-identical resubmission (the overwhelmingly
common traffic pattern) are bit-identical outright.

:class:`SolveKnobs` folds the solve configuration -- epsilon, MIS
oracle, seed, engine, decomposition -- into the key, since each of
those can change the semantic artifact.  The key tuple also keeps a
backend, a plan-granularity and an admission-engine slot, each fixed
at the constant every serial-engine key has always carried (``None``,
``None``, the reference pop), so keys minted before those knobs were
retired stay valid.  The seed and ``capacity_epoch`` are keyed as the
exact integers :meth:`SolveKnobs.validate` requires.

``capacity_epoch`` is the one knob that is *not* about the solve at
all: it is a monotonically bumped generation counter for mutable
serving state (link capacities re-planned, tenant quotas changed).
Folding it into the key means a bumped epoch simply *misses* -- the
new-epoch request solves fresh while old-epoch entries age out of the
LRU or are bulk-dropped via
:meth:`repro.service.cache.ResultCache.invalidate`\\ ``(epoch_below=)``
-- the ROADMAP's "TTL/invalidation hooks for mutable capacity".

**Component memo.**  :func:`problem_canonical_form` is the spec of the
encoding, but no digest builds it: rebuilding and re-walking the whole
nested tuple per request would re-encode every network on every cache
read.  Instead each :class:`~repro.trees.tree.TreeNetwork` and each
:class:`~repro.core.demand.Demand` / ``WindowDemand`` carries, from its
first fingerprint on, one memo entry: its id-free payload tuple and
that payload's canonical bytes, formatted directly (a demand whose
integer fields are not exact ints takes
:func:`~repro.core.canonical.canonical_bytes` instead).  The color
refinement (:func:`_canonical_layout`) runs over those entries, and
both the spec tuple and the digested bytes are assembled from its
result, so every digest -- here and the sketch / delta key of
:mod:`repro.service.delta` -- is byte-for-byte the SHA-256 of
``canonical_bytes`` of the spec.  A churn snapshot that shares its
networks and all but one demand with the previous one encodes one
demand.

**Problem memo.**  A :class:`~repro.core.problem.Problem` is an
immutable value too, so the refinement, the record sort and the hash
run once per problem object.  Its first :func:`solve_fingerprint`
stores on it the SHA-256 state after the solve tuple's opening and the
problem's canonical bytes, and, from the same shape ranks, its sketch
digest; :func:`repro.service.delta.problem_sketch` fills the sketch
alone when it comes first.  Every later fingerprint of that object
copies the state and folds in the knob bytes, so one problem serves
every knob set.  Only the hash state is kept, not the bytes, so a
problem a caller keeps around does not keep its encoding alive.  The
knob bytes are memoized the same way on the (frozen)
:class:`SolveKnobs` object, so a client that reuses its knobs pays
their encoding once.  A request that rebuilds its problem -- every
wire request -- pays one full fingerprint; resubmitting the same
object pays a hash-state copy.  :func:`problem_fingerprint` is not on
the serving path and stays unmemoized.

The contract: networks, demands and problems are immutable values --
the same assumption the identity fast paths of
:func:`~repro.service.delta.diff_problems` make, and the network's own
memo of paths and layouts (:class:`~repro.trees.tree.NetworkMemo`,
which ``Problem.instances`` and the layout builders read).  Each entry
is an attribute of the object itself, so it lives exactly as long as
the object: nothing global keeps one alive, there is no size to tune,
and threads racing on a cold object merely compute the same entry
twice (problem and knob entries go in through ``dict.setdefault`` on
the object's ``__dict__``, so the racers share the first).  A
problem's entries hold no reference to its networks or demands.
"""
from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.auto import validate_retired_knobs
from repro.core.canonical import canonical_bytes
from repro.core.demand import WindowDemand
from repro.core.framework import validate_engine
from repro.core.problem import Problem
from repro.distributed.mis import validate_seed
from repro.trees.tree import TreeNetwork

__all__ = [
    "Fingerprint",
    "SolveKnobs",
    "problem_canonical_form",
    "problem_fingerprint",
    "solve_fingerprint",
]

#: Version tags baked into every digest, so a change to the canonical
#: form can never collide with fingerprints minted by an older layout.
_PROBLEM_TAG = "problem/v1"
_KNOBS_TAG = "knobs/v3"  # v2: + capacity_epoch; v3: + phase2_engine
_SOLVE_TAG = "solve/v1"
_SKETCH_TAG = "sketch/v1"

#: The constant openings of the encoded problem, solve and sketch tuples.
_PROBLEM_HEAD = b"t(" + canonical_bytes(_PROBLEM_TAG) + b"t("
_SOLVE_HEAD = b"t(" + canonical_bytes(_SOLVE_TAG)
_SKETCH_HEAD = b"t(" + canonical_bytes(_SKETCH_TAG) + b"t("

#: Attributes of a problem holding its memo entries (see the module
#: docstring): the SHA-256 state after ``_SOLVE_HEAD`` and the
#: problem's canonical bytes, and its sketch digest.
_SOLVE_MEMO = "_solve_prefix"
_SKETCH_MEMO = "_sketch_digest"
#: Attribute of a :class:`SolveKnobs` holding the solve tuple's tail:
#: the knobs' canonical bytes and the closing ``)``.
_KNOBS_MEMO = "_solve_suffix"


@dataclass(frozen=True)
class Fingerprint:
    """A stable content hash, printable in short form for messages."""

    digest: str

    @property
    def short(self) -> str:
        """First 12 hex chars -- the form used in logs and errors."""
        return self.digest[:12]

    def __str__(self) -> str:
        return self.short


def _network_payload(net: TreeNetwork) -> Tuple:
    """The id-free shape of a network: vertices + undirected edges."""
    edges = tuple(sorted((u, v) for (_nid, u, v) in net.edges()))
    return ("net", net.vertices, edges)


def _demand_payload(demand) -> Tuple:
    """The id-free content of a demand (kind, endpoints/window, p, h)."""
    if isinstance(demand, WindowDemand):
        return (
            "window", demand.release, demand.deadline, demand.processing,
            float(demand.profit), float(demand.height),
        )
    return ("p2p", demand.u, demand.v, float(demand.profit), float(demand.height))


# ----------------------------------------------------------------------
# Component memo: (payload, canonical bytes) once per network / demand
# ----------------------------------------------------------------------
#: Attribute holding an object's memo entry (see the module docstring).
_MEMO = "_canonical_memo"


def _network_bytes(payload: Tuple) -> bytes:
    """``canonical_bytes(payload)`` of a network payload.

    Vertices and edge endpoints are exact ints for every
    :class:`TreeNetwork` (its constructor coerces them), so the whole
    encoding is two ``%d`` formats.
    """
    _kind, vertices, edges = payload
    return b"t(s3:nett(%b)t(%b))" % (
        b"i%d;" * len(vertices) % vertices,
        b"t(i%d;i%d;)" * len(edges) % tuple(chain.from_iterable(edges)),
    )


def _demand_bytes(payload: Tuple) -> bytes:
    """``canonical_bytes(payload)`` of a demand payload, formatted
    directly when its integer fields are exact ints (the float fields
    always are: :func:`_demand_payload` converts them)."""
    if payload[0] == "p2p":
        _kind, u, v, profit, height = payload
        if type(u) is int and type(v) is int:
            return b"t(s3:p2pi%d;i%d;f%b;f%b;)" % (
                u, v, profit.hex().encode(), height.hex().encode(),
            )
    else:
        _kind, release, deadline, processing, profit, height = payload
        if type(release) is type(deadline) is type(processing) is int:
            return b"t(s6:windowi%d;i%d;i%d;f%b;f%b;)" % (
                release, deadline, processing,
                profit.hex().encode(), height.hex().encode(),
            )
    return canonical_bytes(payload)


def _network_entry(net: TreeNetwork) -> Tuple[Tuple, bytes]:
    """``(payload, canonical bytes)`` of *net*, memoized on the object."""
    entry = getattr(net, _MEMO, None)
    if entry is None:
        payload = _network_payload(net)
        entry = (payload, _network_bytes(payload))
        object.__setattr__(net, _MEMO, entry)
    return entry


def _demand_entry(demand) -> Tuple[Tuple, bytes]:
    """``(payload, canonical bytes)`` of *demand*, memoized on the
    object (``object.__setattr__``: demands are frozen dataclasses)."""
    entry = getattr(demand, _MEMO, None)
    if entry is None:
        payload = _demand_payload(demand)
        entry = (payload, _demand_bytes(payload))
        object.__setattr__(demand, _MEMO, entry)
    return entry


def _shape_ranks(entries: Sequence[Tuple[Tuple, bytes]]) -> Dict[bytes, int]:
    """Each distinct network shape's rank in payload order, keyed by
    its canonical bytes.

    Network payloads hold exact ints only, so equal bytes means equal
    payloads: the bytes (whose hash Python caches) stand in for the
    nested tuples as the dedup key, and only the distinct shapes are
    compared as tuples.
    """
    shapes: Dict[bytes, Tuple] = {}
    for payload, data in entries:
        shapes.setdefault(data, payload)
    order = sorted(shapes, key=shapes.__getitem__)
    return {data: rank for rank, data in enumerate(order)}


def _ranks(values: List[Tuple]) -> List[int]:
    """Each value's rank among the distinct values.

    Payload tuples are homogeneous per position (kind tag first, then
    ints/floats), so Python's native tuple ordering is a total,
    content-determined order.
    """
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return [rank[v] for v in values]


def _refine(
    color: List[int], demand_rank: List[int], access: List[List[int]]
) -> List[int]:
    """Color refinement on the demand-access bipartite structure.

    *color* holds each network's initial color (its shape rank),
    *access* each demand's network positions.  Each round folds the
    accessing demands' signatures into the network colors.  Payloads
    enter only through their ranks, so per-round signatures are small
    integer tuples.  Refinement only ever *splits* classes (the old
    color is part of the signature), so the class count is strictly
    increasing until the fixpoint: an unchanged count means an
    unchanged partition, and the loop runs at most n_networks rounds.
    A partition into singletons is already the fixpoint.
    """
    n = len(color)
    n_classes = len(set(color))
    for _ in range(n):
        if n_classes == n:
            break
        accessors: List[List] = [[] for _ in range(n)]
        for rank, reach in zip(demand_rank, access):
            sig = (rank, tuple(sorted(map(color.__getitem__, reach))))
            for i in reach:
                accessors[i].append(sig)
        for sigs in accessors:
            sigs.sort()
        network_sig = [(c, tuple(sigs)) for c, sigs in zip(color, accessors)]
        order = sorted(set(network_sig))
        rank_of = {sig: i for i, sig in enumerate(order)}
        color = [rank_of[sig] for sig in network_sig]
        if len(order) == n_classes:
            break
        n_classes = len(order)
    return color


def _canonical_layout(problem: Problem) -> Tuple[List, List, Dict[bytes, int]]:
    """The canonical network order and records, built from memo entries.

    Returns the network entries in canonical order, the sorted records
    as ``(demand entry, canonical access tuple)`` pairs, and each
    network shape's rank (:func:`_shape_ranks`).  Both
    :func:`problem_canonical_form` and the digests are assembled from
    this one result, so the spec and the byte path cannot drift apart.
    """
    nids = sorted(problem.networks)
    position = {nid: i for i, nid in enumerate(nids)}
    nets = [_network_entry(problem.networks[nid]) for nid in nids]
    demands = [_demand_entry(a) for a in problem.demands]
    access = [
        [position[n] for n in problem.access[a.demand_id]]
        for a in problem.demands
    ]
    shape_rank = _shape_ranks(nets)
    demand_rank = _ranks([payload for payload, _data in demands])
    color = _refine(
        [shape_rank[data] for _payload, data in nets], demand_rank, access
    )
    # Canonical network order: by final color; ties (interchangeable
    # networks) keep original-id order -- the stable sort over sorted
    # ids -- which serializes identically for true symmetries.
    canon_order = sorted(range(len(nids)), key=color.__getitem__)
    canon_id = [0] * len(nids)
    for canon, i in enumerate(canon_order):
        canon_id[i] = canon
    # Records sort by (payload, canonical access); the payload's rank
    # orders exactly like the payload, and the stable sort keeps full
    # ties in input order, as sorting the tuples themselves would.
    keys = [
        (rank, tuple(sorted([canon_id[i] for i in reach])))
        for rank, reach in zip(demand_rank, access)
    ]
    records = [
        (demands[j], keys[j][1])
        for j in sorted(range(len(keys)), key=keys.__getitem__)
    ]
    return [nets[i] for i in canon_order], records, shape_rank


def problem_canonical_form(problem: Problem) -> Tuple:
    """The problem as a nested tuple, invariant under id relabelings.

    Network ids are replaced by canonical indices found through color
    refinement (see the module docstring); demand records are id-free
    and sorted.  This is the spec of the encoding: the fingerprints are
    SHA-256 over ``canonical_bytes`` of this tuple
    (:func:`problem_fingerprint`) or of a tuple nesting it
    (:func:`solve_fingerprint`), assembled from the memoized component
    bytes instead of from the tuple itself.
    """
    nets, records, _shape_rank = _canonical_layout(problem)
    return (
        _PROBLEM_TAG,
        tuple(payload for payload, _data in nets),
        tuple((demand[0], canon) for demand, canon in records),
    )


def _problem_bytes(nets: List, records: List) -> bytes:
    """``canonical_bytes(problem_canonical_form(problem))`` from the
    network entries and records of :func:`_canonical_layout`."""
    parts = [_PROBLEM_HEAD]
    parts += [data for _payload, data in nets]
    parts.append(b")t(")
    parts += [
        b"t(%bt(%b))" % (demand[1], b"i%d;" * len(canon) % canon)
        for demand, canon in records
    ]
    parts.append(b"))")
    return b"".join(parts)


def _sketch_hex(nets: List, shape_rank: Dict[bytes, int]) -> str:
    """SHA-256 hex of ``canonical_bytes((_SKETCH_TAG,
    tuple(sorted(payloads))))`` over the network entries *nets*, in any
    order: equal ranks mean equal bytes, so sorting the bytes by rank
    gives one sequence."""
    shapes = sorted([data for _payload, data in nets], key=shape_rank.__getitem__)
    return sha256(b"".join([_SKETCH_HEAD, *shapes, b"))"])).hexdigest()


def _solve_prefix(problem: Problem):
    """The SHA-256 state after ``_SOLVE_HEAD`` and the problem's
    canonical bytes, memoized on the problem.  Filling it stores the
    sketch digest as well, from the layout's shape ranks."""
    state = problem.__dict__.get(_SOLVE_MEMO)
    if state is None:
        nets, records, shape_rank = _canonical_layout(problem)
        state = sha256(_SOLVE_HEAD)
        state.update(_problem_bytes(nets, records))
        problem.__dict__.setdefault(_SKETCH_MEMO, _sketch_hex(nets, shape_rank))
        state = problem.__dict__.setdefault(_SOLVE_MEMO, state)
    return state


def _sketch_digest(problem: Problem) -> str:
    """The digest behind :func:`repro.service.delta.problem_sketch`,
    memoized on the problem."""
    sketch = problem.__dict__.get(_SKETCH_MEMO)
    if sketch is None:
        nets = [_network_entry(net) for net in problem.networks.values()]
        sketch = problem.__dict__.setdefault(
            _SKETCH_MEMO, _sketch_hex(nets, _shape_ranks(nets))
        )
    return sketch


def problem_fingerprint(problem: Problem) -> Fingerprint:
    """Fingerprint of the problem alone (no solve knobs)."""
    nets, records, _shape_rank = _canonical_layout(problem)
    return Fingerprint(sha256(_problem_bytes(nets, records)).hexdigest())


@dataclass(frozen=True)
class SolveKnobs:
    """The solve configuration folded into a cache key.

    Defaults mirror the service's solve path: the incremental engine,
    Luby's oracle, the ideal tree decomposition.  ``workers``,
    ``backend``, ``plan_granularity`` and ``phase2_engine`` are retired
    knobs that accept only their one surviving value (see
    :func:`~repro.algorithms.auto.validate_retired_knobs`); they are not
    keyed.
    """

    epsilon: float = 0.1
    mis: str = "luby"
    seed: int = 0
    engine: str = "incremental"
    workers: Optional[int] = None
    backend: Optional[str] = None
    plan_granularity: Optional[str] = None
    decomposition: str = "ideal"
    #: Capacity-generation tag (see module docstring): identical
    #: requests under different epochs key differently, so serving
    #: state that mutated in bulk can never be answered from a
    #: previous generation's cache entry.
    capacity_epoch: int = 0
    phase2_engine: str = "reference"

    def validate(self) -> "SolveKnobs":
        """Reject invalid knobs early.

        The service runs this before any cache interaction, so an
        invalid request errors deterministically instead of being
        answered whenever some valid request that keys the same happens
        to be cached.  The seed and ``capacity_epoch`` must be exact
        integers (:func:`~repro.distributed.mis.validate_seed`): a
        float or bool seed would otherwise key like an integer one yet
        draw differently.
        """
        validate_engine(self.engine)
        validate_retired_knobs(
            self.workers, self.backend, self.plan_granularity,
            self.phase2_engine,
        )
        validate_seed(self.seed)
        if validate_seed(self.capacity_epoch, "capacity_epoch") < 0:
            raise ValueError(
                f"capacity_epoch must be >= 0, got {self.capacity_epoch}"
            )
        return self

    def canonical_form(self) -> Tuple:
        """The key-relevant knobs as a tuple.

        Assumes :meth:`validate` passed.  The backend, granularity and
        admission-engine slots hold the constants every serial-engine
        key has carried since those knobs existed.
        """
        return (
            _KNOBS_TAG,
            float(self.epsilon),
            self.mis,
            self.seed,
            self.engine,
            None,
            None,
            self.decomposition,
            self.capacity_epoch,
            "reference",
        )


def solve_fingerprint(problem: Problem, knobs: SolveKnobs) -> Fingerprint:
    """Fingerprint of (problem, solve configuration) -- the cache key.

    The SHA-256 of ``canonical_bytes((_SOLVE_TAG,
    problem_canonical_form(problem), knobs.canonical_form()))``; the
    problem's part is memoized on the problem and the knobs' part on
    the knobs (see the module docstring).
    """
    digest = _solve_prefix(problem).copy()
    digest.update(_solve_suffix(knobs))
    return Fingerprint(digest.hexdigest())


def _solve_suffix(knobs: SolveKnobs) -> bytes:
    """``canonical_bytes(knobs.canonical_form()) + b")"``, memoized on
    the knobs object."""
    suffix = knobs.__dict__.get(_KNOBS_MEMO)
    if suffix is None:
        suffix = knobs.__dict__.setdefault(
            _KNOBS_MEMO, canonical_bytes(knobs.canonical_form()) + b")"
        )
    return suffix
