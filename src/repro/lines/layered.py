"""Length-class layered decomposition for line-networks (Section 7).

Partition the demand instances of a line into groups by length:
group ``i`` holds the instances with ``2^(i-1) * Lmin <= len(d) <
2^i * Lmin`` (shortest first).  The critical edges of ``d`` are the
timeslots ``{s(d), mid(d), e(d)}``, so ``Delta = 3`` and the number of
groups is ``ceil(log2(Lmax/Lmin)) + 1 = O(log(Lmax/Lmin))``.

Why the layered property holds: take overlapping ``d1 in Gi``,
``d2 in Gj`` with ``i <= j``.  If ``d2`` avoided all three critical
slots of ``d1``, its slot interval would fit strictly inside
``(s, mid)`` or ``(mid, e)``, forcing ``len(d2) < len(d1)/2``; but
``len(d1) < 2^i Lmin <= 2^j Lmin <= 2 len(d2)`` -- a contradiction.
This decomposition is implicit in Panconesi and Sozio [16].
"""
from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.core.demand import DemandInstance
from repro.core.types import EdgeKey, InstanceId
from repro.lines.line import instance_mid_slot, instance_slots, slot_to_edge
from repro.trees.layered import LayeredDecomposition


def layered_by_length(
    network_id: int, instances: Sequence[DemandInstance]
) -> LayeredDecomposition:
    """Build the length-class layered decomposition of one line-network."""
    mine = [d for d in instances if d.network_id == network_id]
    if not mine:
        return LayeredDecomposition(network_id=network_id, group_of={}, pi={}, length=0)
    l_min = min(d.length for d in mine)
    group_of: Dict[InstanceId, int] = {}
    pi: Dict[InstanceId, Tuple[EdgeKey, ...]] = {}
    for d in mine:
        group_of[d.instance_id] = length_class(d.length, l_min)
        pi[d.instance_id] = critical_slots(network_id, d)
    return LayeredDecomposition(
        network_id=network_id,
        group_of=group_of,
        pi=pi,
        length=max(group_of.values()),
    )


def length_class(length: int, l_min: int) -> int:
    """The group ``k`` with ``2^(k-1) Lmin <= length < 2^k Lmin``."""
    k = 1
    bound = 2 * l_min
    while length >= bound:
        bound *= 2
        k += 1
    return k


def critical_slots(network_id: int, d: DemandInstance) -> Tuple[EdgeKey, ...]:
    """``pi(d)``: the edges of the timeslots ``s(d)``, ``mid(d)`` and
    ``e(d)``, sorted.

    A function of ``d``'s endpoints alone, which is what lets
    :func:`repro.algorithms.base.line_layouts` memoize it on the
    network.
    """
    s, e = instance_slots(d)
    mid = instance_mid_slot(d)
    return tuple(
        sorted(
            {
                slot_to_edge(network_id, s),
                slot_to_edge(network_id, mid),
                slot_to_edge(network_id, e),
            }
        )
    )
