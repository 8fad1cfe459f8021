"""Half-graphs: construction, recognition, peeling.

The half-graph H_k is bipartite on v_1..v_k against w_1..w_k with v_i
adjacent to w_j exactly when i <= j.  Neighbourhoods on each side form
a strict chain, every vertex ends up forced, and gamma_OL(H_k) = 2k =
n: half-graphs are precisely the connected locatable graphs whose OLD
number is as large as it can get.

Recognition needs no search.  In H_k the degree of v_i is k - i + 1 and
the degree of w_j is j, so each side carries every degree 1..k exactly
once; sorting each side by degree pins the only possible labeling, and
one pass checks the i <= j edge law.  The degrees alone, two vertices of
each degree 1..k per component, turn away most graphs before any
structural pass.

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


def _labeling_for(g: Graph, side_a: list[int], side_b: list[int]) -> HalfGraphLabeling | None:
    """Try side_a as the v side and side_b as the w side."""
    k = len(side_a)
    if sorted(g.degree(v) for v in side_a) != list(range(1, k + 1)):
        return None
    if sorted(g.degree(w) for w in side_b) != list(range(1, k + 1)):
        return None
    v_order = sorted(side_a, key=g.degree, reverse=True)
    w_order = sorted(side_b, key=g.degree)
    suffix = 0
    suffixes = [0] * k
    for i in range(k - 1, -1, -1):
        suffix |= 1 << w_order[i]
        suffixes[i] = suffix
    for i in range(k):
        if g.adj[v_order[i]] != suffixes[i]:
            return None
    return HalfGraphLabeling(k, tuple(v_order), tuple(w_order))


def is_half_graph(g: Graph) -> HalfGraphLabeling | None:
    """The labeling of g as a half-graph, or None.

    The graph must be connected with 2k vertices split by a proper
    2-colouring into two sides of size k whose degrees are each 1..k;
    both side assignments are tried, so the result is independent of
    labeling.  Before the connectivity and colouring passes, the sorted
    degrees must read 1, 1, 2, 2, ..., k, k.  H_k has exactly these
    degrees, so the gate turns away no half-graph.
    """
    n = g.n
    if _half_graph_count(g) != 1 or not is_connected(g):
        return None
    colour = [-1] * n
    colour[0] = 0
    stack = [0]
    while stack:
        v = stack.pop()
        for u in iter_bits(g.adj[v]):
            if colour[u] < 0:
                colour[u] = 1 - colour[v]
                stack.append(u)
            elif colour[u] == colour[v]:
                return None
    side_a = [v for v in range(n) if colour[v] == 0]
    side_b = [v for v in range(n) if colour[v] == 1]
    if len(side_a) != len(side_b):
        return None
    return _labeling_for(g, side_a, side_b) or _labeling_for(g, side_b, side_a)


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
    of half-graphs passes that gate, so it changes no verdict.  A
    connected graph is tested as it stands, without a component copy.
    """
    if _half_graph_count(g) < 0:
        return False
    masks = component_masks(g)
    if len(masks) == 1:
        return is_half_graph(g) is not None
    return all(is_half_graph(induced_subgraph(g, m)[0]) is not None for m in masks)
