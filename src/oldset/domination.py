"""Exact OLD numbers by exhaustive search and by branch and bound.

S is an OLD set when every vertex sees S (total domination) and no two
vertices see the same part of S (location): the traces N(v) & S must be
nonempty and pairwise distinct.  gamma_OL is the least |S|.  Only
locatable graphs (no isolated vertices, no open twins) admit any OLD
set, and for those V itself always works.

Both solvers return the same gamma and the same witness: the OLD set of
minimum size whose mask is numerically least.  The brute-force solver
guarantees this by scanning each cardinality in ascending mask order.
The branch-and-bound solver settles it in its one search.  Its
incumbent is the least OLD set seen so far, by size and then by mask,
and a node whose chosen set is as large as the incumbent is a leaf: the
set is tested if its mask is smaller and cut otherwise.  This tie rule
is sound because no node on the path to the least optimum W is cut.
There the chosen set lies inside W, so it ties the incumbent only by
being W, and chosen plus undecided contains W, so the feasibility cut
never fires (supersets of OLD sets are OLD sets).
"""

from __future__ import annotations

from typing import NamedTuple

from .forced import classify_forced
from .graphs import (
    Graph,
    NotLocatableError,
    VertexSet,
    is_locatable,
    is_old_set,
    iter_bits,
)

__all__ = [
    "NotLocatableError",
    "SolveResult",
    "is_old_set",
    "old_number_bruteforce",
    "old_number",
    "BRUTEFORCE",
    "BRANCH_AND_BOUND",
]

BRUTEFORCE = "bruteforce"
BRANCH_AND_BOUND = "branch-and-bound"


class SolveResult(NamedTuple):
    """Outcome of one exact solve.

    witness is the optimal OLD set as a mask.  nodes_explored counts the
    candidate sets examined (brute force) or the nodes of the one
    branch-and-bound search, which finds gamma and the witness together.
    """

    gamma: int
    witness: VertexSet
    nodes_explored: int
    method: str


def _require_locatable(g: Graph) -> None:
    if not is_locatable(g):
        raise NotLocatableError(g)


def _next_same_popcount(s: int) -> int:
    # Gosper's hack: least integer above s with the same bit count
    low = s & -s
    ripple = s + low
    return (((s ^ ripple) >> 2) // low) | ripple


def old_number_bruteforce(g: Graph) -> SolveResult:
    """gamma_OL by scanning all vertex subsets in size-then-value order.

    The first OLD set encountered is therefore the lexicographically
    least optimal witness.  Exponential in n; fine through n around 10.
    """
    _require_locatable(g)
    n = g.n
    if n == 0:
        return SolveResult(0, 0, 0, BRUTEFORCE)
    nodes = 0
    limit = 1 << n
    for size in range(1, n + 1):
        s = (1 << size) - 1
        while s < limit:
            nodes += 1
            if is_old_set(g, s):
                return SolveResult(size, s, nodes, BRUTEFORCE)
            s = _next_same_popcount(s)
    raise AssertionError("V(G) is an OLD set of every locatable graph")


def old_number(g: Graph) -> SolveResult:
    """gamma_OL by branch and bound over the non-forced vertices.

    Forced vertices are committed up front and the incumbent starts at
    the whole vertex set.  Branching follows a static order, most
    separating vertex first.  A node is a leaf when its chosen set is
    OLD, is at least as large as the incumbent, or when even the chosen
    set plus all undecided vertices fails domination or location.  When
    every vertex is forced the root is immediately optimal (one node
    explored).
    """
    _require_locatable(g)
    n = g.n
    if n == 0:
        return SolveResult(0, 0, 0, BRANCH_AND_BOUND)
    adj = g.adj
    forced = classify_forced(g).forced

    # how many separating pairs each vertex settles, for the branch order
    weight = [0] * n
    for x in range(n):
        for y in range(x + 1, n):
            for v in iter_bits(adj[x] ^ adj[y]):
                weight[v] += 1
    order = sorted(
        (v for v in range(n) if not forced >> v & 1),
        key=lambda v: (-weight[v], v),
    )
    # undecided[i] = free vertices still open at depth i
    undecided = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        undecided[i] = undecided[i + 1] | 1 << order[i]

    best = (1 << n) - 1
    best_size = n
    nodes = 0

    def descend(chosen: VertexSet, depth: int) -> None:
        nonlocal best, best_size, nodes
        nodes += 1
        size = chosen.bit_count()
        if size > best_size or size == best_size and chosen >= best:
            return
        if is_old_set(g, chosen):
            best, best_size = chosen, size
            return
        if (
            size == best_size
            or depth == len(order)
            or not is_old_set(g, chosen | undecided[depth])
        ):
            return
        v = order[depth]
        descend(chosen | 1 << v, depth + 1)
        descend(chosen, depth + 1)

    descend(forced, 0)
    return SolveResult(best_size, best, nodes, BRANCH_AND_BOUND)

