"""Maximal independent set computation (the ``Time(MIS)`` primitive).

The paper's first phase repeatedly computes an MIS on the conflict graph
of unsatisfied demand instances.  It allows either Luby's randomized
algorithm [14] (``O(log N)`` rounds w.h.p.) or the deterministic
network-decomposition procedure of Panconesi-Srinivasan [17]
(``O(2^sqrt(log N))`` rounds).

Oracles share the signature ``oracle(candidates, adjacency, context) ->
(mis_ids, rounds)`` where *candidates* are :class:`DemandInstance`
objects, *adjacency* is the conflict graph restricted to them (by
instance id), and *context* is the framework's ``(epoch, stage, step)``
coordinate.  Three oracles are provided:

* :func:`luby_mis` -- Luby's permutation variant with a seeded RNG
  stream.  One iteration = two communication rounds (exchange
  priorities; announce membership).  The factory-made oracle
  (``make_mis_oracle('luby', seed)``) keeps one independent substream
  per *epoch*, derived from ``(seed, epoch)``: processors working in
  different epochs share no randomness, which mirrors the distributed
  reality and makes epoch executions order-independent: an epoch's
  draws depend on ``(seed, epoch)`` alone, so every engine -- the
  columnar kernel draws from :meth:`LubyOracle.substream` directly --
  sees the same priorities in each epoch, bit for bit.
* hash-Luby (``make_mis_oracle('hash', seed)``) -- identical process,
  but each priority is a cryptographic hash of (seed, instance key,
  context, iteration).  Any processor can recompute any priority
  locally, which is exactly what the message-passing implementation in
  :mod:`repro.distributed.scheduler_node` does -- so the logical and
  distributed executors produce *identical* runs.
* :func:`greedy_mis` -- deterministic lowest-id sweep, a sequential
  stand-in for the deterministic distributed option.

Seeds must be exact ``int`` values (:func:`validate_seed`).
"""
from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from repro.core.demand import DemandInstance
from repro.core.types import InstanceId
from repro.distributed.conflict import ConflictAdjacency

#: Communication rounds consumed by one Luby iteration (exchange + announce).
ROUNDS_PER_LUBY_ITERATION = 2

#: Context coordinate of a framework step: (epoch, stage, step).
StepContext = Tuple[int, int, int]

#: Oracle signature.
MISOracle = Callable[
    [Sequence[DemandInstance], ConflictAdjacency, Optional[StepContext]],
    Tuple[Set[InstanceId], int],
]


def instance_key(d: DemandInstance) -> Tuple[int, int, int, int]:
    """Globally meaningful identity of an instance, computable by any
    processor from a demand descriptor: (demand, network, endpoints)."""
    return (d.demand_id, d.network_id, d.u, d.v)


def hashed_priority(
    seed: int, key: Tuple[int, int, int, int], context: StepContext, iteration: int
) -> float:
    """Deterministic pseudo-random priority in ``[0, 1)``.

    A SHA-256 hash of (seed, instance key, step context, iteration);
    every processor computes the same value with no communication.
    """
    digest = hashlib.sha256(
        repr((seed, key, context, iteration)).encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def greedy_mis(
    candidates: Sequence[DemandInstance],
    adjacency: ConflictAdjacency,
    context: Optional[StepContext] = None,
) -> Tuple[Set[InstanceId], int]:
    """Deterministic MIS: sweep candidates in increasing id order."""
    chosen: Set[InstanceId] = set()
    blocked: Set[InstanceId] = set()
    for d in sorted(candidates, key=lambda x: x.instance_id):
        v = d.instance_id
        if v in blocked:
            continue
        chosen.add(v)
        blocked.add(v)
        blocked |= adjacency.get(v, set())
    return chosen, 1


def _luby_rounds(
    candidates: Sequence[DemandInstance],
    adjacency: ConflictAdjacency,
    priority_fn: Callable[[DemandInstance, int], float],
) -> Tuple[Set[InstanceId], int]:
    """Shared Luby loop: *priority_fn(instance, iteration)* supplies draws."""
    active: Set[InstanceId] = {d.instance_id for d in candidates}
    by_id = {d.instance_id: d for d in candidates}
    chosen: Set[InstanceId] = set()
    iterations = 0
    while active:
        iterations += 1
        priority: Dict[InstanceId, float] = {
            v: priority_fn(by_id[v], iterations) for v in sorted(active)
        }
        joined: Set[InstanceId] = set()
        for v in active:
            key_v = (priority[v], v)
            if all(
                key_v < (priority[u], u)
                for u in adjacency.get(v, set())
                if u in active
            ):
                joined.add(v)
        chosen |= joined
        retire = set(joined)
        for v in joined:
            retire |= adjacency.get(v, set()) & active
        active -= retire
    return chosen, iterations * ROUNDS_PER_LUBY_ITERATION


def luby_mis(
    candidates: Sequence[DemandInstance],
    adjacency: ConflictAdjacency,
    rng: random.Random,
) -> Tuple[Set[InstanceId], int]:
    """Luby's randomized MIS with priorities drawn from *rng*."""
    return _luby_rounds(candidates, adjacency, lambda d, it: rng.random())


def hash_luby_mis(
    candidates: Sequence[DemandInstance],
    adjacency: ConflictAdjacency,
    context: StepContext,
    seed: int,
) -> Tuple[Set[InstanceId], int]:
    """Luby's MIS with hash-derived priorities (distributed-equivalent)."""
    return _luby_rounds(
        candidates,
        adjacency,
        lambda d, it: hashed_priority(seed, instance_key(d), context, it),
    )


def validate_seed(seed: int, name: str = "seed") -> int:
    """Return *seed* if it is an exact ``int``; raise ``ValueError`` if not.

    Cache keys encode a seed as an integer, while the oracles consume
    the raw value: Luby multiplies it into each substream seed and
    hash-Luby hashes its ``repr``.  A float, bool or string seed would
    key like an integer yet draw differently, so the oracle factory and
    :meth:`~repro.service.fingerprint.SolveKnobs.validate` both run this
    check.  *name* labels the error for other integer key fields.
    """
    if type(seed) is not int:
        raise ValueError(f"{name} must be an int, got {seed!r}")
    return seed


def luby_substream_seed(seed: int, epoch: int) -> int:
    """The derived integer seed of epoch *epoch*'s Luby RNG substream."""
    return seed * 0x9E3779B1 + epoch


class LubyOracle:
    """Luby's MIS with one independent RNG substream per epoch.

    An epoch's draws depend only on ``(seed, epoch)``, never on which
    other epochs ran before it, so every engine draws exactly the
    priorities the reference loop would, however it reaches the
    epoch's substream.  A module-level class (not a closure), so the
    oracle pickles; an unpickled copy starts epoch substreams from the
    same derived seeds.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rngs: Dict[int, random.Random] = {}

    def substream(self, epoch: int) -> random.Random:
        """The (lazily created) RNG substream of *epoch*.

        Public so the columnar engine can draw the identical priority
        sequence for an epoch without going through the dict-based
        ``__call__`` path.
        """
        rng = self._rngs.get(epoch)
        if rng is None:
            rng = self._rngs.setdefault(
                epoch, random.Random(luby_substream_seed(self.seed, epoch))
            )
        return rng

    def __call__(
        self,
        candidates: Sequence[DemandInstance],
        adjacency: ConflictAdjacency,
        context: Optional[StepContext] = None,
    ) -> Tuple[Set[InstanceId], int]:
        epoch = context[0] if context is not None else 0
        return luby_mis(candidates, adjacency, self.substream(epoch))


class HashLubyOracle:
    """Hash-priority Luby: stateless, shareable, trivially picklable."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def __call__(
        self,
        candidates: Sequence[DemandInstance],
        adjacency: ConflictAdjacency,
        context: Optional[StepContext] = None,
    ) -> Tuple[Set[InstanceId], int]:
        if context is None:
            raise ValueError("hash MIS oracle needs a step context")
        return hash_luby_mis(candidates, adjacency, context, self.seed)


def make_mis_oracle(kind: str, seed: int) -> MISOracle:
    """Build an MIS oracle.

    ``kind`` is ``'luby'`` (per-epoch seeded RNG substreams), ``'hash'``
    (hash-based priorities; bit-identical to the message-passing
    protocol) or ``'greedy'`` (deterministic sweep).  *seed* must be an
    exact ``int`` (:func:`validate_seed`).

    ``greedy`` and ``hash`` are stateless; ``'luby'`` keys its mutable
    RNG state by the context's epoch, so each epoch consumes only its
    own substream regardless of which epochs ran before it.  All three
    pickle (``tests/test_picklability.py``).
    """
    validate_seed(seed)
    if kind == "greedy":
        return greedy_mis
    if kind == "luby":
        return LubyOracle(seed)
    if kind == "hash":
        return HashLubyOracle(seed)
    raise ValueError(f"unknown MIS oracle kind: {kind!r}")
