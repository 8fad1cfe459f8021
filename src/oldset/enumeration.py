"""Isomorph-free enumeration of small connected graphs.

Connected classes of order n come from connected classes of order n - 1
by adding one vertex joined to any nonempty set of the parent's
vertices; such a child is connected because the parent is.  Every
connected graph of order n >= 2 arises this way: it has a vertex whose
deletion leaves it connected (a leaf of any spanning tree), and that
vertex has a neighbour.  Duplicates are discarded through the canonical
certificate, and representatives are returned canonically labeled, with
that certificate cached, sorted by certificate, so the stream is
deterministic.

Each parent is extended once per orbit of neighbourhood masks under its
automorphisms (McKay 1998, *Isomorph-free exhaustive generation*, J.
Algorithms 26): masks m and p(m) for an automorphism p give children
that p, extended by fixing the new vertex, maps onto each other.  The
generators come from the search that labeled the parent as a child one
order down, kept with its class, so no parent is searched twice.  A
subgroup of the automorphism group would be enough for soundness,
because its orbits only split the full ones and the certificate dict
still drops every duplicate child; the search in fact yields the whole
group, so each orbit is tried once.

A child P + x is labeled only when no non-cut vertex u of it beats x
on (degree, sum of its neighbours' degrees), compared in that order:
the invariant test of the same canonical augmentation.  The test is
decided on parent data, before the child exists.  With mask the
neighbourhood of x, u's degree in the child is deg_P(u) plus one when
u is in mask, and x's is |mask|; u's neighbour-degree sum grows by
|N_P(u) & mask| and, when u is in mask, by |mask|, and x's is the sum
of deg_P(w) + 1 over mask.  P + x - u is P - u with x joined to the
components that mask meets, so u is a non-cut vertex of the child
exactly when every component of P - u meets mask; the components are
computed once per parent.  x itself is never a cut vertex, because the
parent is connected.  Most children fail the test and are never built.

No class is lost.  A connected graph G of order >= 2 has a non-cut
vertex; let v be one that is greatest on (degree, neighbour-degree sum)
among them.  G - v is connected, so it is a parent class, and the orbit
representative of v's neighbourhood gives a child isomorphic to G whose
new vertex maps to v.  Both invariants and cut-ness are preserved by
isomorphism, so no non-cut vertex of that child beats its new vertex,
and the child passes.  The children that pass can still be isomorphic,
and the certificate dict drops those.  The test is invariant under the
parent's automorphisms, which carry the child of a mask onto the child
of its image with x fixed, so the accepted masks are a union of orbits
and are reduced to orbit representatives after the test.

Counts through MAX_BUILTIN_ORDER match the standard tables: 1, 1, 2, 6,
21, 112, 853, 11117 connected classes for n = 1..8.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from .graphs import Graph, _canonical_labeling, _graph, component_masks, iter_bits

__all__ = ["MAX_BUILTIN_ORDER", "enumerate_connected_graphs"]

MAX_BUILTIN_ORDER = 8

# automorphism group generators, each a tuple of vertex images
_Gens = tuple[tuple[int, ...], ...]


def _extend(parent: Graph, mask: int) -> Graph:
    # new vertex parent.n, adjacent to the bits of mask
    n = parent.n + 1
    rows = [row | (mask >> v & 1) << (n - 1) for v, row in enumerate(parent.adj)]
    rows.append(mask)
    return _graph(n, tuple(rows))


def _accepted_masks(parent: Graph) -> list[int]:
    """The nonempty masks, in increasing order, whose child passes the test.

    The test is the one in the module docstring, decided on the parent:
    the child P + x for mask is rejected when some non-cut vertex u of
    it beats x on (degree, neighbour-degree sum).
    """
    m = parent.n
    adj = parent.adj
    full = (1 << m) - 1
    deg = [row.bit_count() for row in adj]
    deg_sums = [sum(deg[w] for w in iter_bits(row)) for row in adj]
    # components of P - u, for each u
    parts = [component_masks(parent, full ^ 1 << u) for u in range(m)]
    # largest degree first, so that a rejection tends to come early
    order = sorted(range(m), key=lambda u: (-deg[u], -deg_sums[u]))
    # mask_deg[mask]: the parent degrees summed over mask
    mask_deg = [0] * (1 << m)
    accepted = []
    for mask in range(1, 1 << m):
        low = mask & -mask
        mask_deg[mask] = mask_deg[mask ^ low] + deg[low.bit_length() - 1]
        dx = mask.bit_count()
        sx = mask_deg[mask] + dx
        for u in order:
            inside = mask >> u & 1
            du = deg[u] + inside
            if du < dx or du == dx and (
                deg_sums[u] + (adj[u] & mask).bit_count() + inside * dx <= sx
            ):
                continue
            if all(part & mask for part in parts[u]):
                break
        else:
            accepted.append(mask)
    return accepted


def _orbit_representatives(masks: Iterable[int], gens: _Gens) -> Iterator[int]:
    """The first mask of each orbit under the group gens generate.

    masks must be closed under the group, and their order decides which
    member of an orbit stands for it.  A union of orbits is closed, so
    masks may be all nonempty masks or only those an invariant test
    accepts; the accepted masks get the representatives they had among
    all masks, in the same order.
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
                image = 0
                for v in iter_bits(current):
                    image |= 1 << p[v]
                if image not in seen:
                    seen.add(image)
                    stack.append(image)


@lru_cache(maxsize=None)
def _connected_classes(n: int) -> tuple[tuple[Graph, _Gens], ...]:
    """One canonical representative per connected class of order n, each
    with its automorphism generators from the search that labeled it."""
    if n == 1:
        return (_canonical_labeling(_graph(1, (0,))),)
    seen: dict[bytes, tuple[Graph, _Gens]] = {}
    for parent, gens in _connected_classes(n - 1):
        for mask in _orbit_representatives(_accepted_masks(parent), gens):
            labeling = _canonical_labeling(_extend(parent, mask))
            seen.setdefault(labeling[0]._canon, labeling)
    return tuple(seen[cert] for cert in sorted(seen))


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """Yield each connected isomorphism class of order n exactly once.

    Representatives are canonically labeled, carry their certificate so
    canonical_form on them is free, and stream in certificate order.
    Only 1 <= n <= MAX_BUILTIN_ORDER is built in; larger orders are out
    of scope for the exhaustive machinery.  The order is checked on the
    call; the classes are built on the first next().
    """
    if not 1 <= n <= MAX_BUILTIN_ORDER:
        raise ValueError(
            f"built-in enumeration covers 1 <= n <= {MAX_BUILTIN_ORDER}, got {n}"
        )
    return _classes(n)


def _classes(n: int) -> Iterator[Graph]:
    yield from (g for g, _ in _connected_classes(n))
