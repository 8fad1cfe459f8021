"""Isomorph-free enumeration of small connected graphs.

Connected classes of order n come from connected classes of order n - 1
by adding one vertex x joined to any nonempty set of the parent's
vertices; such a child is connected because the parent is.  Every
connected graph of order n >= 2 arises this way: it has a vertex whose
deletion leaves it connected (a leaf of any spanning tree), and that
vertex has a neighbour.

Each class is generated exactly once by canonical augmentation (McKay
1998, *Isomorph-free exhaustive generation*, J. Algorithms 26, §3).
The canonical deletion v* of a connected graph G of order >= 2 is its
non-cut vertex that is greatest on (degree, sum of its neighbours'
degrees, triangles through it), compared in that order, ties broken by
the largest canonical label.  An isomorphism G -> H carries v*(G) into
the orbit of v*(H): it preserves the three invariants, each a count
that relabeling cannot change, and cut-ness, and it is G's canonical
labeling followed by an automorphism and by the inverse of H's.  So any
isomorphism-invariant key, the triangle count among them, keeps the
argument below.  A parent P is extended once per orbit of neighbourhood
masks under its automorphisms: masks m and p(m) for an automorphism p
give children that p, extended by fixing x, maps onto each other.  The
child P + x is kept only when x lies in the orbit of v*.

Each class G arises: G - v* is connected, so it is isomorphic to a
parent P, and the orbit representative of the image of v*'s
neighbourhood gives a child isomorphic to G by a map that takes x to
v*, so the child is kept.  It arises once: an isomorphism between two
kept children carries x into the orbit of the other's v*, which holds
the other's x, so followed by an automorphism it takes x to x.  What is
left maps one parent onto the other, so they are the same class, hence
the same representative, and it is an automorphism of that parent
taking one mask to the other, so the two masks are the same orbit's
one representative.  That last step needs
the full automorphism group of every parent: the orbits of a subgroup
split the full ones, and two masks of one split orbit would both be
kept.  The labeling search yields the whole group (see
graphs.canonical_form).

Most children are decided without a labeling.  A child is rejected when
a non-cut vertex u beats x on the first two invariants, and the test is
decided on parent data, before the child exists.  With mask the
neighbourhood of x, u's degree in the child is deg_P(u) plus one when u
is in mask, and x's is |mask|; u's neighbour-degree sum grows by
|N_P(u) & mask| and, when u is in mask, by |mask|, and x's is the sum
of deg_P(w) + 1 over mask.  P + x - u is P - u with x joined to the
components that mask meets, so u is a non-cut vertex of the child
exactly when every component of P - u meets mask; the components are
computed once per parent.  x itself is never a cut vertex, because the
parent is connected.  The test is invariant under the parent's
automorphisms, so the passing masks are a union of orbits and are
reduced to orbit representatives after it.  A tied rival u that is a
twin of x (N(u) - x = N(x) - u, so swapping u and x is an automorphism)
lies in x's orbit.  Triangles are compared on the child once it is
built, before any labeling, and only with the other tied rivals: one
with more triangles than x rejects the child, and one with fewer is no
tie.  A child left with no tied rival but twins of x has v* in x's
orbit and is kept unlabeled.  At the order asked for, a child with
other tied rivals is first searched for an automorphism that takes x to
each of them; when every one is found, all the tied vertices, v* among
them, lie in x's orbit, and the child is kept unlabeled too.  The search
only ever keeps, and only children that the rule keeps, so the kept
children and their order are the same as with a labeling.  Below that
order a kept child is labeled for its generators anyway, so the search
is not tried there, nor above order 9 (_SEARCH_ORDER), where most
searches fail.  Only the rest are labeled, to find v* and the orbit of
x.

The classes are walked depth first from K_1, so memory holds one path
of parents, not whole orders: each kept child below the order asked
for is labeled once, canonically, for its generators (a child labeled
for the orbit rule keeps that labeling), and walked before its next
sibling.  The order asked for is yielded unlabeled, in a deterministic
generation order: canonical_form labels a class on demand.

A census can be split as geng splits one into res/mod parts (McKay and
Piperno 2014, *Practical graph isomorphism, II*, J. Symbolic Comput.
60): walk to a split order once, then deal out the classes there, each
the root of a subtree that is walked on its own.  The subtrees are
disjoint and cover the order asked for, so a worker that walks the
subtrees of its share finds exactly its share of the classes.

Counts through MAX_BUILTIN_ORDER match the standard tables (OEIS
A001349): 1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571 connected
classes for n = 1..10.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graphs import Graph, _canonical_labeling, _graph, component_masks, iter_bits

__all__ = ["MAX_BUILTIN_ORDER", "enumerate_connected_graphs"]

MAX_BUILTIN_ORDER = 10

# automorphism group generators, each a tuple of vertex images
_Gens = tuple[tuple[int, ...], ...]
# what graphs._canonical_labeling returns: the relabeled graph, its
# generators and the canonical label of each input vertex
_Labeling = tuple[Graph, _Gens, tuple[int, ...]]


def _extend(parent: Graph, mask: int) -> Graph:
    # new vertex parent.n, adjacent to the bits of mask
    n = parent.n + 1
    rows = [row | (mask >> v & 1) << (n - 1) for v, row in enumerate(parent.adj)]
    rows.append(mask)
    return _graph(n, tuple(rows))


def _accepted_masks(parent: Graph) -> dict[int, int]:
    """The nonempty masks whose child passes the test, in increasing
    order, each mapped to the non-cut rivals that tie its new vertex.

    The test is the one in the module docstring, decided on the parent:
    the child P + x for mask is rejected when some non-cut vertex u of
    it beats x on (degree, neighbour-degree sum), and u is a tied rival
    when it equals x on both.  A non-cut vertex of P stays non-cut in
    P + x unless mask is that vertex alone, so a mask of at least two
    vertices but fewer than the largest degree of a non-cut vertex of P
    is rejected before the rival loop.
    """
    m = parent.n
    adj = parent.adj
    full = (1 << m) - 1
    deg = [row.bit_count() for row in adj]
    deg_sums = [sum(deg[w] for w in iter_bits(row)) for row in adj]
    # components of P - u, for each u
    parts = [component_masks(parent, full ^ 1 << u) for u in range(m)]
    top = max(deg[u] for u in range(m) if len(parts[u]) <= 1)
    # largest degree first, so that a rejection tends to come early;
    # rivals[dx] stops at the first u that cannot reach degree dx, since
    # every u after it has no larger degree
    order = sorted(range(m), key=lambda u: (-deg[u], -deg_sums[u]))
    rivals = [[u for u in order if deg[u] + 1 >= dx] for dx in range(m + 1)]
    # mask_deg[mask]: the parent degrees summed over mask
    mask_deg = [0] * (1 << m)
    accepted = {}
    for mask in range(1, 1 << m):
        low = mask & -mask
        mask_deg[mask] = mask_deg[mask ^ low] + deg[low.bit_length() - 1]
        dx = mask.bit_count()
        if 1 < dx < top:
            continue
        sx = mask_deg[mask] + dx
        ties = 0
        for u in rivals[dx]:
            inside = mask >> u & 1
            du = deg[u] + inside
            if du < dx:
                continue
            tie = False
            if du == dx:
                su = deg_sums[u] + (adj[u] & mask).bit_count() + inside * dx
                if su < sx:
                    continue
                tie = su == sx
            for part in parts[u]:
                if not part & mask:
                    break  # u is a cut vertex of the child
            else:
                if not tie:
                    break  # a non-cut u beats x: the mask is rejected
                ties |= 1 << u
        else:
            accepted[mask] = ties
    return accepted


def _triangles(adj: tuple[int, ...], nbhd: int) -> int:
    """The edges inside nbhd; for nbhd = N(v), the triangles through v."""
    return sum((adj[w] & nbhd).bit_count() for w in iter_bits(nbhd)) // 2


def _orbit_representatives(masks: Iterable[int], gens: _Gens) -> Iterator[int]:
    """The first mask of each orbit under the group gens generate, among
    masks.

    The order of masks decides which member of an orbit stands for it.
    A union of orbits holds every member, so masks may be all nonempty
    masks or only those an invariant test accepts; the accepted masks
    get the representatives they had among all masks, in the same
    order.  Two singletons give one representative exactly when their
    vertices share an orbit.
    """
    seen: set[int] = set()
    for mask in masks:
        if mask in seen:
            continue
        yield mask
        seen.add(mask)
        stack = [mask]
        while stack:
            current = stack.pop()
            for p in gens:
                # bit by bit, as iter_bits does but inline: this loop is
                # the walk's most frequent
                image = 0
                rest = current
                while rest:
                    low = rest & -rest
                    image |= 1 << p[low.bit_length() - 1]
                    rest ^= low
                if image not in seen:
                    seen.add(image)
                    stack.append(image)


def _automorphism(adj: tuple[int, ...], a: int, b: int) -> list[int] | None:
    """An automorphism of the connected graph with rows adj that takes a
    to b, as the image of each vertex, or None when there is none.

    The other vertices are mapped in BFS order from a.  Each one's image
    is an unused neighbour of its BFS parent's image, of equal degree,
    whose edges to the images placed so far are the images of its own
    edges to the vertices placed so far; so a completed map is an
    automorphism by construction.  Bits are taken inline, low bit first
    as iter_bits takes them: the search runs for each tied rival of a
    leaf.
    """
    deg = [row.bit_count() for row in adj]
    order, tree = [a], [a]  # BFS order from a, and each vertex's BFS parent
    seen = 1 << a
    for v in order:
        rest = adj[v] & ~seen
        seen |= rest
        while rest:
            low = rest & -rest
            order.append(low.bit_length() - 1)
            tree.append(v)
            rest ^= low
    image = [0] * len(adj)
    image[a] = b

    def extend(i: int, placed: int, used: int) -> bool:
        if i == len(order):
            return True
        c = order[i]
        want = 0  # the images of c's neighbours placed so far
        rest = adj[c] & placed
        while rest:
            low = rest & -rest
            want |= 1 << image[low.bit_length() - 1]
            rest ^= low
        rest = adj[image[tree[i]]] & ~used
        while rest:
            low = rest & -rest
            rest ^= low
            d = low.bit_length() - 1
            if deg[d] == deg[c] and adj[d] & used == want:
                image[c] = d
                if extend(i + 1, placed | 1 << c, used | low):
                    return True
        return False

    found = deg[a] == deg[b] and extend(1, 1 << a, 1 << b)
    del extend  # its closure cell refers to it: one reference cycle a call
    return image if found else None


def _children(
    parent: Graph, gens: _Gens, search: bool
) -> Iterator[tuple[Graph, _Labeling | None]]:
    """The children of parent that the orbit rule keeps, in mask order.

    gens must generate the parent's full automorphism group.  The
    triangle tie-break is decided on the built child, and each child
    comes with its labeling when the rule needed one, else None.  With
    search, a child is also kept unlabeled when automorphisms take x to
    each tied rival; _walk asks for that only for leaves it yields
    unlabeled.
    """
    x = parent.n
    accepted = _accepted_masks(parent)
    for mask in _orbit_representatives(accepted, gens):
        child = _extend(parent, mask)
        ties = accepted[mask]
        # tied rivals that are not twins of x: a twin u has N(u) - x =
        # N(x) - u, so swapping u and x is an automorphism
        rivals = [u for u in iter_bits(ties) if parent.adj[u] != mask & ~(1 << u)]
        rows = child.adj
        if rivals:
            # the third invariant, on the built child: a rival with more
            # triangles than x rejects the child, one with fewer is no tie
            tri_x = _triangles(rows, mask)
            tri = [_triangles(rows, rows[u]) for u in rivals]
            if max(tri) > tri_x:
                continue
            ties &= ~sum(1 << u for u, t in zip(rivals, tri) if t < tri_x)
            rivals = [u for u, t in zip(rivals, tri) if t == tri_x]
        if not rivals or search and all(_automorphism(rows, x, u) for u in rivals):
            # every tie, twins of x among them, shares x's orbit
            yield child, None
            continue
        labeling = _canonical_labeling(child)
        _, child_gens, label = labeling
        # v*: of x and its tied rivals, the largest canonical label
        v_star = max(label[u] for u in iter_bits(ties | 1 << x))
        pair = (1 << label[x], 1 << v_star)
        if len(list(_orbit_representatives(pair, child_gens))) == 1:
            yield child, labeling


# the largest order whose leaves are searched for automorphisms before
# they are labeled.  Fewer searches succeed as the order grows, since
# fewer graphs have symmetries: 63% at order 8, 32% at order 9 and 14%
# at order 10, where on a seeded slice of the walk the searches took
# more time than the labelings they saved (0.85 s against 0.6 s)
_SEARCH_ORDER = 9


def _walk(parent: Graph, gens: _Gens, n: int, labeled: bool = False) -> Iterator:
    """Each connected class of order n that descends from parent, in
    generation order; gens must generate parent's full automorphism
    group.  A kept child below order n is labeled and walked in turn.
    With labeled, each class comes canonically labeled, with the
    generators of its group, ready to be walked itself."""
    search = parent.n + 1 == n <= _SEARCH_ORDER and not labeled
    for child, labeling in _children(parent, gens, search):
        if child.n == n and not labeled:
            yield child
            continue
        canon, child_gens, _ = labeling or _canonical_labeling(child)
        if child.n == n:
            yield canon, child_gens
        else:
            # child_gens name canon's vertices, and canon fixes the walk order
            yield from _walk(canon, child_gens, n, labeled)


_K1 = _graph(1, (0,))

# a census above this order is split into one unit of work per class of
# this order: the subtree of the walk below it.  The walk to order 7
# takes about 30 ms and yields 853 units, so a sweep of order 8 or more
# deals them out to its workers, and one of order 7 or less is one unit
_SPLIT_ORDER = 7


class _Census:
    """The stream enumerate_connected_graphs returns, which a sweep can
    also take apart.

    Iterated, it walks the classes in generation order.  Its units, the
    subtrees below the classes of order _SPLIT_ORDER, yield the same
    classes in the same order one after the other, so workers that deal
    the units out between them walk the census once between them and no
    graph has to pass from one process to another.  A census that has
    started to yield, or whose order is at most _SPLIT_ORDER, is one unit.
    """

    def __init__(self, n: int):
        self.n = n
        self._graphs: Iterator[Graph] | None = None

    def __iter__(self) -> _Census:
        return self

    def __next__(self) -> Graph:
        if self._graphs is None:
            self._graphs = _walk(_K1, (), self.n) if self.n > 1 else iter((_K1,))
        return next(self._graphs)

    def _units(self) -> list[Iterator[Graph]]:
        if self._graphs is not None or self.n <= _SPLIT_ORDER:
            return [self]
        roots = _walk(_K1, (), _SPLIT_ORDER, labeled=True)
        return [_walk(canon, gens, self.n) for canon, gens in roots]


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """Yield each connected isomorphism class of order n exactly once.

    The stream is in a deterministic generation order.  Its graphs are
    not canonically labeled: canonical_form computes a certificate on
    demand.  Only 1 <= n <= MAX_BUILTIN_ORDER is built in; larger
    orders are out of scope for the exhaustive machinery.
    The order is checked on the call; the walk starts on the first
    next().  Handed to run_harness as it is, the census is split
    between the sweep's workers.
    """
    if not 1 <= n <= MAX_BUILTIN_ORDER:
        raise ValueError(
            f"built-in enumeration covers 1 <= n <= {MAX_BUILTIN_ORDER}, got {n}"
        )
    return _Census(n)
