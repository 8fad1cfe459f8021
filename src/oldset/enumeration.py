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
generators come from a canonical labeling search of the parent.  A
subgroup of the automorphism group would be enough for soundness,
because its orbits only split the full ones and the certificate dict
still drops every duplicate child; the search in fact yields the whole
group, so each orbit is tried once.

A child is labeled only when no non-cut vertex of it has a larger
degree than its new vertex x, the invariant test of the same canonical
augmentation; most children fail it and never reach the labeling
search.  No class is lost.  A connected graph G of order >= 2 has a
non-cut vertex; let v be one of maximum degree among them.  G - v is
connected, so it is a parent class, and the orbit representative of
v's neighbourhood gives a child isomorphic to G whose new vertex maps
to v.  Degree and cut-ness are invariant under isomorphism, so that
child passes.  x itself is never a cut vertex, because the parent is
connected, so only vertices of larger degree need the cut test.  The
children that pass can still be isomorphic, and the certificate dict
drops those.

Counts through MAX_BUILTIN_ORDER match the standard tables: 1, 1, 2, 6,
21, 112, 853, 11117 connected classes for n = 1..8.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from .graphs import Graph, _canonical_labeling, _closure, _graph, iter_bits

__all__ = ["MAX_BUILTIN_ORDER", "enumerate_connected_graphs"]

MAX_BUILTIN_ORDER = 8


def _extend(parent: Graph, mask: int) -> Graph:
    # new vertex parent.n, adjacent to the bits of mask
    n = parent.n + 1
    rows = [row | (mask >> v & 1) << (n - 1) for v, row in enumerate(parent.adj)]
    rows.append(mask)
    return _graph(n, tuple(rows))


def _is_cut_vertex(g: Graph, u: int) -> bool:
    """Whether deleting u disconnects the connected graph g."""
    rest = (1 << g.n) - 1 & ~(1 << u)
    return _closure(g, rest & -rest, rest) != rest


def _orbit_representatives(
    masks: Iterable[int], gens: tuple[tuple[int, ...], ...]
) -> Iterator[int]:
    """The first mask of each orbit under the group gens generate.

    masks must be closed under the group, and their order decides which
    member of an orbit stands for it.
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
def _connected_classes(n: int) -> tuple[Graph, ...]:
    """One canonical representative per connected class of order n."""
    if n == 1:
        return (_canonical_labeling(_graph(1, (0,)))[0],)
    seen: dict[bytes, Graph] = {}
    for parent in _connected_classes(n - 1):
        # parents are canonically labeled, so the generators act on them
        gens = _canonical_labeling(parent)[1]
        for mask in _orbit_representatives(range(1, 1 << parent.n), gens):
            child = _extend(parent, mask)
            degree = mask.bit_count()
            if any(
                row.bit_count() > degree and not _is_cut_vertex(child, u)
                for u, row in enumerate(child.adj)
            ):
                continue
            child = _canonical_labeling(child)[0]
            seen.setdefault(child._canon, child)
    return tuple(seen[cert] for cert in sorted(seen))


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """Yield each connected isomorphism class of order n exactly once.

    Representatives are canonically labeled, carry their certificate so
    canonical_form on them is free, and stream in certificate order.
    Only 1 <= n <= MAX_BUILTIN_ORDER is built in; larger orders are out
    of scope for the exhaustive machinery.
    """
    if not 1 <= n <= MAX_BUILTIN_ORDER:
        raise ValueError(
            f"built-in enumeration covers 1 <= n <= {MAX_BUILTIN_ORDER}, got {n}"
        )
    yield from _connected_classes(n)
