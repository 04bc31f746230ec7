"""Exact fingerprints of problems and solve configurations.

The scheduling service keys its result cache by a content hash of the
:class:`~repro.core.problem.Problem` plus the solve knobs, so that a
re-submitted problem hits the cache instead of re-running a solve.

**Exact key.**  The key holds the problem exactly as the solver reads
it:

* the networks in id order, each by its typed id and its ordered
  adjacency -- vertices ascending, each neighbour list in stored order,
  which is what :meth:`~repro.trees.tree.TreeNetwork.adopt_memo`
  compares;
* the demands in list order, each by its id and its content (kind,
  endpoints or window, profit, height);
* each demand's access as a sorted tuple of network positions in id
  order.

Left out is only what no consumer reads: the insertion order of the
``networks`` and ``access`` mappings and the order inside an access
tuple, since every consumer iterates them sorted.  Profits and heights
are keyed as the floats the solver computes with.  So a relabeled or
reordered resubmission keys differently and is solved as itself, and
a hit's semantic digest is that of a direct
:func:`~repro.algorithms.auto.solve_auto` of the request.

**Grounding.**  In arXiv 1205.1924 the input is a set of labelled
processors and networks (Section 2), and the first phase's MIS
(Figure 7, Luby's algorithm) breaks ties by label: the output is a
function of the labelled input, not of its isomorphism class.  Here
``Problem.instances`` numbers instances in demand-list order, the MIS
oracles and the second phase break ties by those ids, every dual edge
key carries its network id, and a tree decomposition's balancer starts
from the adjacency order.  Demand order, ids and adjacency order can
each change the answer, so each is keyed.  Vertex labels are the
paper's coordinates (on a line-network, vertex = timeslot) and are
keyed as they are.

**Soundness.**  A false hash equality would hand a caller the cached
result of a *different* problem, so the key never hashes a lossy
summary: it is the SHA-256 of ``canonical_bytes`` of
:func:`problem_canonical_form`, a complete serialization, and equal
keys mean equal inputs.

:class:`SolveKnobs` folds the solve configuration -- epsilon, MIS
oracle, seed, decomposition -- into the key, since each of those can
change the semantic artifact.  The engine is not keyed: the two
engines are bit-identical, so a request for one engine is served the
other's cached answer.  Such a hit carries the other engine's
engine-work counters (``satisfaction_checks``, ``stages_entered``,
``adjacency_touches``), which the semantic digest excludes.  The seed
and ``capacity_epoch`` are keyed as the exact integers
:meth:`SolveKnobs.validate` requires.

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
first fingerprint on, one memo entry: the canonical bytes of its part
of the spec, formatted directly (a part whose integer fields are not
exact ints takes :func:`~repro.core.canonical.canonical_bytes`
instead).  The problem's bytes are those entries joined in key order,
so every digest -- here and the delta key of :mod:`repro.service.delta`
-- is byte-for-byte the SHA-256 of ``canonical_bytes`` of its spec.  A
churn snapshot that shares its networks and all but one demand with
the previous one encodes one demand.  The same network bytes key the
service's network table, so equal keys mean equal ordered adjacency
and ``adopt_memo`` accepts every twin the table finds.

**Problem memo.**  A :class:`~repro.core.problem.Problem` is an
immutable value too, so the layout and the hash run once per problem
object.  Its first :func:`solve_fingerprint` stores on it the SHA-256
state after the solve tuple's opening and the problem's canonical
bytes.  Every later fingerprint of that object copies the state and
folds in the knob bytes, so one problem serves every knob set.  Only
the hash state is kept, not the bytes, so a problem a caller keeps
around does not keep its encoding alive.  The knob bytes are memoized
the same way on the (frozen) :class:`SolveKnobs` object, so a client
that reuses its knobs pays their encoding once.  A request that
rebuilds its problem -- every wire request -- pays one full
fingerprint; resubmitting the same object pays a hash-state copy.
:func:`problem_fingerprint` is not on the serving path and stays
unmemoized.

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
from typing import Optional, Tuple

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

#: Version tags baked into every digest, so a change to the encoding can
#: never collide with fingerprints minted by an older layout.
#: ``problem/v2`` keys ids, demand order and adjacency order; v1 keyed an
#: id-free form under color refinement, so a relabeled or reordered
#: resubmission was served the first submission's answer.
_PROBLEM_TAG = "problem/v2"
#: v2: + capacity_epoch; v3: + phase2_engine; v4: - engine, whose two
#: values are bit-identical, and - the backend, granularity and
#: admission-engine slots, constants kept only for keys minted before
#: those knobs were retired.
_KNOBS_TAG = "knobs/v4"
_SOLVE_TAG = "solve/v1"

#: The constant openings of the encoded problem and solve tuples.
_PROBLEM_HEAD = b"t(" + canonical_bytes(_PROBLEM_TAG) + b"t("
_SOLVE_HEAD = b"t(" + canonical_bytes(_SOLVE_TAG)

#: Attribute of a problem holding its memo entry (see the module
#: docstring): the SHA-256 state after ``_SOLVE_HEAD`` and the
#: problem's canonical bytes.
_SOLVE_MEMO = "_solve_prefix"
#: Attribute of a :class:`SolveKnobs` holding the solve tuple's tail:
#: the knobs' canonical bytes and the closing ``)``.
_KNOBS_MEMO = "_solve_suffix"
#: Attribute of a network or demand holding its canonical bytes.
_MEMO = "_key_bytes"


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
    """The network as the solver reads it: its id and its ordered
    adjacency, ``(vertex, neighbours)`` for each vertex ascending."""
    return (
        "net",
        net.network_id,
        tuple((v, net.neighbors(v)) for v in net.vertices),
    )


def _demand_payload(demand) -> Tuple:
    """The demand's id and content (kind, endpoints/window, p, h)."""
    if isinstance(demand, WindowDemand):
        return (
            "window", demand.demand_id, demand.release, demand.deadline,
            demand.processing, float(demand.profit), float(demand.height),
        )
    return (
        "p2p", demand.demand_id, demand.u, demand.v,
        float(demand.profit), float(demand.height),
    )


# ----------------------------------------------------------------------
# Component memo: canonical bytes once per network / demand
# ----------------------------------------------------------------------
def _network_bytes(net: TreeNetwork) -> bytes:
    """``canonical_bytes(_network_payload(net))``.

    Vertices are exact ints for every :class:`TreeNetwork` (its
    constructor coerces them), so only a network id that is not an
    exact int takes the generic encoder.
    """
    nid = net.network_id
    parts = [
        b"t(s3:net",
        b"i%d;" % nid if type(nid) is int else canonical_bytes(nid),
        b"t(",
    ]
    for v in net.vertices:
        nbrs = net.neighbors(v)
        parts.append(b"t(i%d;t(%b))" % (v, b"i%d;" * len(nbrs) % nbrs))
    parts.append(b"))")
    return b"".join(parts)


def _demand_bytes(demand) -> bytes:
    """``canonical_bytes(_demand_payload(demand))``, formatted directly
    when its id and integer fields are exact ints (the float fields
    always are: :func:`_demand_payload` converts them)."""
    payload = _demand_payload(demand)
    if payload[0] == "p2p":
        _kind, did, u, v, profit, height = payload
        if type(did) is type(u) is type(v) is int:
            return b"t(s3:p2pi%d;i%d;i%d;f%b;f%b;)" % (
                did, u, v, profit.hex().encode(), height.hex().encode(),
            )
    else:
        _kind, did, release, deadline, processing, profit, height = payload
        if (
            type(did) is type(release) is type(deadline)
            is type(processing) is int
        ):
            return b"t(s6:windowi%d;i%d;i%d;i%d;f%b;f%b;)" % (
                did, release, deadline, processing,
                profit.hex().encode(), height.hex().encode(),
            )
    return canonical_bytes(payload)


def _network_entry(net: TreeNetwork) -> bytes:
    """*net*'s canonical bytes, memoized on the object."""
    data = getattr(net, _MEMO, None)
    if data is None:
        data = _network_bytes(net)
        object.__setattr__(net, _MEMO, data)
    return data


def _demand_entry(demand) -> bytes:
    """*demand*'s canonical bytes, memoized on the object
    (``object.__setattr__``: demands are frozen dataclasses)."""
    data = getattr(demand, _MEMO, None)
    if data is None:
        data = _demand_bytes(demand)
        object.__setattr__(demand, _MEMO, data)
    return data


def problem_canonical_form(problem: Problem) -> Tuple:
    """The problem as a nested tuple, exactly as the solver reads it.

    Networks in id order, demands in list order, each demand's access
    as sorted positions in that id order (see the module docstring).
    This is the spec of the encoding: the fingerprints are SHA-256 over
    ``canonical_bytes`` of this tuple (:func:`problem_fingerprint`) or
    of a tuple nesting it (:func:`solve_fingerprint`), assembled from
    the memoized component bytes instead of from the tuple itself.
    """
    nids = sorted(problem.networks)
    position = {nid: i for i, nid in enumerate(nids)}
    access = problem.access
    return (
        _PROBLEM_TAG,
        tuple(_network_payload(problem.networks[nid]) for nid in nids),
        tuple(
            (
                _demand_payload(a),
                tuple(sorted(position[n] for n in access[a.demand_id])),
            )
            for a in problem.demands
        ),
    )


def _problem_bytes(problem: Problem) -> bytes:
    """``canonical_bytes(problem_canonical_form(problem))``, joined from
    the memoized bytes of each network, in id order, and of each demand
    with its sorted access positions, in list order."""
    networks = problem.networks
    nids = sorted(networks)
    position = {nid: i for i, nid in enumerate(nids)}
    access = problem.access
    parts = [_PROBLEM_HEAD]
    parts += [_network_entry(networks[nid]) for nid in nids]
    parts.append(b")t(")
    for a in problem.demands:
        reach = sorted([position[n] for n in access[a.demand_id]])
        parts.append(
            b"t(%bt(%b))"
            % (_demand_entry(a), b"i%d;" * len(reach) % tuple(reach))
        )
    parts.append(b"))")
    return b"".join(parts)


def _solve_prefix(problem: Problem):
    """The SHA-256 state after ``_SOLVE_HEAD`` and the problem's
    canonical bytes, memoized on the problem."""
    state = problem.__dict__.get(_SOLVE_MEMO)
    if state is None:
        state = sha256(_SOLVE_HEAD)
        state.update(_problem_bytes(problem))
        state = problem.__dict__.setdefault(_SOLVE_MEMO, state)
    return state


def problem_fingerprint(problem: Problem) -> Fingerprint:
    """Fingerprint of the problem alone (no solve knobs)."""
    return Fingerprint(sha256(_problem_bytes(problem)).hexdigest())


@dataclass(frozen=True)
class SolveKnobs:
    """The solve configuration folded into a cache key.

    Defaults mirror the service's solve path: the incremental engine,
    Luby's oracle, the ideal tree decomposition.  ``engine`` picks the
    engine a miss runs on but is not keyed: both engines give
    bit-identical answers (see the module docstring).  ``workers``,
    ``backend``, ``plan_granularity`` and ``phase2_engine`` are retired
    knobs that accept only their one surviving value (see
    :func:`~repro.algorithms.auto.validate_retired_knobs`); they are not
    keyed either.
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
        to be cached -- an unknown engine name included, although the
        engine is not keyed.  The seed and ``capacity_epoch`` must be
        exact integers (:func:`~repro.distributed.mis.validate_seed`): a
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
        """The key-relevant knobs as a tuple.  Assumes :meth:`validate`
        passed."""
        return (
            _KNOBS_TAG,
            float(self.epsilon),
            self.mis,
            self.seed,
            self.decomposition,
            self.capacity_epoch,
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
