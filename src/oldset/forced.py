"""Vertices forced into every OLD set, and what their absence would break.

A vertex can be forced two ways.  If some w has N(w) = {v}, only v can
dominate w, so v is domination-forced.  If some pair x, y has symmetric
difference N(x) xor N(y) = {v}, only v can tell x from y, so v is
location-forced.  These are necessity certificates, and they are also
jointly exhaustive in the complement: a vertex forced neither way can be
dropped, because V - {v} still open-dominates everything (no N(w) shrank
to nothing) and still separates every pair (no symmetric difference
shrank to nothing).
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph, NotLocatableError, VertexSet, is_locatable, mask_of

__all__ = [
    "ForcedClassification",
    "domination_forced",
    "location_forced",
    "classify_forced",
    "bondy_check",
]


class ForcedClassification(NamedTuple):
    """Partition of V into forced and unforced vertices.

    The two forced masks may overlap; unforced is their joint
    complement.  The functions domination_forced and location_forced
    give a witness for each forced vertex.
    """

    domination_forced: VertexSet
    location_forced: VertexSet
    unforced: VertexSet

    @property
    def forced(self) -> VertexSet:
        return self.domination_forced | self.location_forced


def domination_forced(g: Graph) -> dict[int, int]:
    """Map each domination-forced vertex to its least witness w."""
    witness: dict[int, int] = {}
    for w in range(g.n):
        row = g.adj[w]
        if row and row & (row - 1) == 0:
            v = row.bit_length() - 1
            witness.setdefault(v, w)
    return witness


def location_forced(g: Graph) -> dict[int, tuple[int, int]]:
    """Map each location-forced vertex to its least witness pair (x, y)."""
    witness: dict[int, tuple[int, int]] = {}
    for x in range(g.n):
        for y in range(x + 1, g.n):
            diff = g.adj[x] ^ g.adj[y]
            if diff and diff & (diff - 1) == 0:
                v = diff.bit_length() - 1
                witness.setdefault(v, (x, y))
    return witness


def classify_forced(g: Graph) -> ForcedClassification:
    """Classify every vertex of g; masks cover V exactly once over."""
    dom_mask = mask_of(domination_forced(g))
    loc_mask = mask_of(location_forced(g))
    unforced = (1 << g.n) - 1 & ~(dom_mask | loc_mask)
    return ForcedClassification(dom_mask, loc_mask, unforced)


def bondy_check(g: Graph) -> int:
    """Number of location-forced vertices; always at most max(n - 1, 0).

    Bondy's theorem on induced subsets bounds the distinct-singleton
    symmetric differences a family of n sets can realise, so n vertices
    can never all be location-forced.
    """
    if not is_locatable(g):
        raise NotLocatableError(g)
    return len(location_forced(g))
