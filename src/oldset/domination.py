"""Exact OLD numbers, and the vertices forced into every OLD set.

S is an OLD set when every vertex sees S (total domination) and no two
vertices see the same part of S (location): the traces N(v) & S must be
nonempty and pairwise distinct.  Equivalently, S meets every member of
the family E(G) of all N(v) and all N(x) xor N(y), x < y.  gamma_OL is
the least |S|.  Only locatable graphs (no isolated vertices, no open
twins) admit any OLD set, and for those V itself always works.

A vertex v is forced into every OLD set exactly when {v} is a member of
E(G).  It is domination-forced when some N(w) = {v}, since only v can
dominate w, and location-forced when some N(x) xor N(y) = {v}, since
only v can tell x from y.  An unforced v is removable: no member of
E(G) is {v}, so V - v still meets them all.

Only rows whose degrees differ by exactly one can differ in one vertex.
For sets A and B, |A xor B| is at least ||A| - |B|| and has the parity
of |A| + |B|, since |A xor B| = |A| + |B| - 2|A & B|.  So |A xor B| = 1
forces ||A| - |B|| = 1.  The forced-vertex analysis therefore groups
the vertices by degree and compares only rows of adjacent degrees, and
the domination-forced witnesses are the rows of degree one.

Both solvers return the same gamma and the same witness: the OLD set of
minimum size whose mask is numerically least.  The brute-force solver
guarantees this by scanning each cardinality in ascending mask order.
The branch-and-bound solver settles it in its one search, over every
member of E(G): filtering out the members that contain another would
change nothing (see old_number).  Its incumbent is the least OLD set
seen so far, by size and then by mask.  The children of a node split
the sets below it by the least allowed vertex they take from the
branched member, so every set below a node lies below exactly one
child.  A node is cut when its chosen size plus its packing bound
exceeds the incumbent's size, or equals it while the chosen mask is at
least the incumbent's.  This tie rule is sound: while a member is
unmet, every set below the node strictly contains the chosen set, so
its mask is larger, and with none unmet the chosen set is the only one
below.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import (
    Graph,
    NotLocatableError,
    VertexSet,
    _degree_classes,
    is_locatable,
    is_old_set,
    vertices_of,
)

__all__ = [
    "SolveResult",
    "old_number_bruteforce",
    "old_number",
    "BRUTEFORCE",
    "BRANCH_AND_BOUND",
    "ForcedClassification",
    "domination_forced",
    "location_forced",
    "classify_forced",
    "bondy_check",
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
    for w in _degree_classes(g).get(1, ()):
        witness.setdefault(g.adj[w].bit_length() - 1, w)
    return witness


def location_forced(g: Graph) -> dict[int, tuple[int, int]]:
    """Map each location-forced vertex to its least witness pair (x, y),
    x < y, in increasing order of the pairs."""
    adj = g.adj
    classes = _degree_classes(g)
    found = []
    # rows that differ in one vertex have adjacent degrees
    for degree, low in classes.items():
        high = classes.get(degree + 1)
        if high:
            for x in low:
                row = adj[x]
                for y in high:
                    diff = row ^ adj[y]
                    if diff & (diff - 1) == 0:
                        found.append(((min(x, y), max(x, y)), diff))
    witness: dict[int, tuple[int, int]] = {}
    for pair, diff in sorted(found):
        witness.setdefault(diff.bit_length() - 1, pair)
    return witness


def classify_forced(
    g: Graph, classes: dict[int, list[int]] | None = None
) -> ForcedClassification:
    """Classify every vertex of g; masks cover V exactly once over.

    classes maps each degree of g to its vertices in increasing order;
    a caller that has them already passes them, else they are found
    here.
    """
    adj = g.adj
    if classes is None:
        classes = _degree_classes(g)
    dom_mask = 0
    for w in classes.get(1, ()):
        dom_mask |= adj[w]
    # location_forced's loop, ORed in place: the masks need no witness
    loc_mask = 0
    for degree, low in classes.items():
        high = classes.get(degree + 1)
        if high:
            for x in low:
                row = adj[x]
                for y in high:
                    diff = row ^ adj[y]
                    if diff & (diff - 1) == 0:
                        loc_mask |= diff
    unforced = (1 << g.n) - 1 & ~(dom_mask | loc_mask)
    return ForcedClassification(dom_mask, loc_mask, unforced)


def bondy_check(g: Graph) -> int:
    """Number of location-forced vertices; always at most max(n - 1, 0).

    Bondy's theorem on induced subsets bounds the distinct-singleton
    symmetric differences a family of n sets can realise, so n vertices
    can never all be location-forced.
    """
    _require_locatable(g)
    return len(location_forced(g))


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
    """gamma_OL as the least set meeting every member of E(G).

    E(G) holds every N(v) and every N(x) xor N(y), x < y.  Its
    singleton members name the forced vertices, which are committed up
    front, and the incumbent starts at the whole vertex set.  The
    search keeps the members the chosen set does not meet yet, in
    ascending (size, mask) order, cut to the vertices it allows, and
    branches on the one with the fewest allowed vertices
    u_1 < ... < u_k, ties to the largest mask, in disjoint children:
    take u_1; or ban u_1 and take u_2; and so on.
    A greedy packing of pairwise disjoint unmet members, in that order,
    bounds how many vertices are still to come.  When every vertex is
    forced the root is immediately optimal (one node explored).

    A member e that contains another member f changes no node, bound or
    witness, so E(G) is searched as built.  f comes before e, and every
    ban keeps both the order and f inside e.  The packing never takes
    e: if f was packed, e meets it, and if not, f met an earlier packed
    member, and so does e.  The branch rule takes e only when it has no
    more allowed vertices than f, that is when the two are cut to the
    same mask.
    """
    _require_locatable(g)
    n = g.n
    if n == 0:
        return SolveResult(0, 0, 0, BRANCH_AND_BOUND)
    adj = g.adj

    # x and y with no common neighbour differ by N(x) | N(y), a superset
    # of N(x) and never a singleton, which would leave x or y isolated
    members = set(adj)
    members.update(
        adj[x] ^ adj[y]
        for x in range(n)
        for y in range(x + 1, n)
        if adj[x] & adj[y]
    )
    forced = 0
    for e in members:
        if e & (e - 1) == 0:  # {v}: v is forced
            forced |= e

    best = (1 << n) - 1
    best_size = n
    nodes = 0
    # a node is its chosen set, the vertices it bans on top of its
    # parent's, and the parent's unmet members cut to what it allows
    stack = [(forced, 0, sorted(members, key=lambda e: (e.bit_count(), e)))]
    while stack:
        chosen, ban, unmet = stack.pop()
        nodes += 1
        unmet = [f & ~ban for f in unmet if not f & chosen]
        if 0 in unmet:  # a member with every vertex banned
            continue
        bound = 0
        packed = 0
        for f in unmet:
            if not f & packed:
                packed |= f
                bound += 1
        lower = chosen.bit_count() + bound
        if lower > best_size or lower == best_size and chosen >= best:
            continue
        if not unmet:
            best, best_size = chosen, lower
            continue
        e = max(unmet, key=lambda f: (-f.bit_count(), f))
        for u in reversed(vertices_of(e)):
            bit = 1 << u
            stack.append((chosen | bit, e & bit - 1, unmet))
    return SolveResult(best_size, best, nodes, BRANCH_AND_BOUND)
