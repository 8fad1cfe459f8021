"""Half-graphs: construction, recognition, peeling.

The half-graph H_k is bipartite on v_1..v_k against w_1..w_k with v_i
adjacent to w_j exactly when i <= j.  Neighbourhoods on each side form
a strict chain, every vertex ends up forced, and gamma_OL(H_k) = 2k =
n: half-graphs are precisely the connected locatable graphs whose OLD
number is as large as it can get.

Recognition needs no search.  In H_k a vertex of top degree (v_1 or
w_k) is adjacent to the whole other side, so its neighbourhood splits
the graph into the two sides.  The degree of v_i is k - i + 1 and the
degree of w_j is j, so each side carries every degree 1..k exactly
once; sorting each side by degree pins the only possible labeling, and
one pass over the rows of the v side checks the i <= j edge law.  The
degrees alone, two vertices of each degree 1..k per component, turn
away most graphs before any structural pass.  A component is tested in
place, on its vertex mask, without a copy of the subgraph.

Peeling inverts the growth step H_{k-1} -> H_k.  A peel step removes a
pendant vertex y together with its unique neighbour x, provided some
other vertex z has N(x) = N(z) + {y}; in H_k the pair (x, y) =
(w_k, v_k) with z = w_{k-1} qualifies, and k - 2 further steps reach
H_1, a single edge.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import (
    Graph,
    NotLocatableError,
    VertexSet,
    component_masks,
    from_edges,
    induced_subgraph,
    is_connected,
    is_locatable,
    iter_bits,
    mask_of,
)

__all__ = [
    "HalfGraphLabeling",
    "PeelStep",
    "half_graph",
    "is_half_graph",
    "peel",
    "is_union_of_half_graphs",
]


class HalfGraphLabeling(NamedTuple):
    """Witness that a graph is H_k.

    v_order[i] and w_order[j] are the vertices playing v_{i+1} and
    w_{j+1}; the graph's edges are exactly v_order[i] ~ w_order[j] for
    i <= j.
    """

    k: int
    v_order: tuple[int, ...]
    w_order: tuple[int, ...]


class PeelStep(NamedTuple):
    """One peel: the smaller graph plus the removed pair (x, y)."""

    graph: Graph
    removed: tuple[int, int]


def half_graph(k: int) -> Graph:
    """H_k with v_i at index i-1 and w_j at index k+j-1."""
    if k < 1:
        raise ValueError("half-graphs need k >= 1")
    return from_edges(
        2 * k,
        [(i, k + j) for i in range(k) for j in range(i, k)],
    )


def _half_graph_count(g: Graph) -> int:
    """How many half-graph components the degrees of g allow, or -1.

    H_k has two vertices of each degree 1..k, so a union of H_{k_1},
    ..., H_{k_m} has an even number 2 * #{i : k_i >= d} of vertices of
    each degree d >= 1, a number that never grows with d, and no vertex
    of degree 0; m is half the number of degree 1.  Degrees that break
    this rule give -1.
    """
    degrees = sorted(map(int.bit_count, g.adj))
    if degrees[::2] != degrees[1::2]:
        return -1
    counts = [0] * (g.n + 1)
    for d in degrees[::2]:
        counts[d] += 1
    if counts[0] or any(a < b for a, b in zip(counts[1:], counts[2:])):
        return -1
    return counts[1] if g.n else 0


def _labeling_for(g: Graph, side_a: VertexSet, side_b: VertexSet) -> HalfGraphLabeling | None:
    """Try side_a as the v side and side_b as the w side.

    The w degrees must read 1..k and each v_i's row must be exactly
    {w_i, ..., w_k}; the degree sums then leave the w side no other edge.
    """
    v_order = sorted(iter_bits(side_a), key=g.degree, reverse=True)
    w_order = sorted(iter_bits(side_b), key=g.degree)
    k = len(v_order)
    if [g.degree(w) for w in w_order] != list(range(1, k + 1)):
        return None
    suffix = 0
    for i in range(k - 1, -1, -1):
        suffix |= 1 << w_order[i]
        if g.adj[v_order[i]] != suffix:
            return None
    return HalfGraphLabeling(k, tuple(v_order), tuple(w_order))


def _labeling_within(g: Graph, comp: VertexSet) -> HalfGraphLabeling | None:
    """The labeling of the subgraph on comp as a half-graph, or None.

    comp must hold every neighbour of its vertices, as a component does.
    The neighbourhood of a vertex of top degree is one side, the rest of
    comp the other; the side of comp's least vertex is tried as v first.
    """
    top = max(iter_bits(comp), key=g.degree)
    w_side = g.adj[top]
    v_side = comp & ~w_side
    if not v_side & comp & -comp:
        v_side, w_side = w_side, v_side
    return _labeling_for(g, v_side, w_side) or _labeling_for(g, w_side, v_side)


def is_half_graph(g: Graph) -> HalfGraphLabeling | None:
    """The labeling of g as a half-graph, or None.

    The sorted degrees must read 1, 1, 2, 2, ..., k, k, as those of H_k
    do, before g is tested in place on all its vertices.  Both side
    assignments are tried, the side of vertex 0 as the v side first, so
    the verdict is independent of labeling.
    """
    if _half_graph_count(g) != 1:
        return None
    return _labeling_within(g, (1 << g.n) - 1)


def peel(g: Graph) -> PeelStep | None:
    """Remove one (x, y) peel pair, or report that none exists.

    y must be pendant with unique neighbour x, and some z must satisfy
    N(x) = N(z) + {y}.  Candidates are scanned by ascending y, then
    ascending z.  Only connected locatable graphs of order >= 4 are
    accepted, matching the induction range where half-graphs live.
    """
    if g.n < 4:
        raise ValueError("peel needs order at least 4")
    if not is_connected(g):
        raise ValueError("peel needs a connected graph")
    if not is_locatable(g):
        raise NotLocatableError(g)
    for y in range(g.n):
        row = g.adj[y]
        if row == 0 or row & (row - 1):
            continue
        x = row.bit_length() - 1
        want = g.adj[x] ^ 1 << y  # N(x) with y removed; y in N(x) always
        for z in range(g.n):
            if z != x and z != y and g.adj[z] == want:
                keep = (1 << g.n) - 1 & ~mask_of((x, y))
                sub, _ = induced_subgraph(g, keep)
                return PeelStep(sub, (x, y))
    return None


def is_union_of_half_graphs(g: Graph) -> bool:
    """True iff every connected component of g is a half-graph.

    These are exactly the locatable graphs with gamma_OL equal to the
    order; the order-0 graph qualifies vacuously.  Degree counts that no
    union of half-graphs has (a vertex of degree 0, an odd number of
    vertices of some degree, more vertices of degree d + 1 than of
    degree d) give False before the components are found; every union
    of half-graphs passes that gate, so it changes no verdict.  Each
    component is then tested in place, on its vertex mask.
    """
    if _half_graph_count(g) < 0:
        return False
    return all(_labeling_within(g, m) is not None for m in component_masks(g))
