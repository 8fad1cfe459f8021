"""Isomorph-free enumeration against independent counting oracles."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations, permutations

import pytest

from oldset import (
    Graph,
    canonical_form,
    enumerate_connected_graphs,
    from_edges,
    is_connected,
    iter_bits,
    to_graph6,
)
import oldset.enumeration
from oldset.enumeration import (
    _accepted_masks,
    _children,
    _extend,
    _orbit_representatives,
    _triangles,
)
from oldset.graphs import _canonical_labeling, component_masks

# connected classes per order; 1..6 re-derived by the Burnside oracle
# below, 7 and 8 from the standard enumeration tables
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def _edge_slots(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def _connected_from_mask(n: int, mask: int, slots: list[tuple[int, int]]) -> bool:
    nb = {v: set() for v in range(n)}
    for index, (u, v) in enumerate(slots):
        if mask >> index & 1:
            nb[u].add(v)
            nb[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for u in nb[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def _burnside_connected_count(n: int) -> int:
    """Connected classes by orbit counting, no canonical forms involved.

    Connectivity is isomorphism-invariant, so Burnside applies to the
    restricted action: classes = average number of connected graphs
    fixed by each permutation.  Fixed graphs are unions of edge-orbits.
    """
    slots = _edge_slots(n)
    index_of = {pair: i for i, pair in enumerate(slots)}
    total = 0
    for perm in permutations(range(n)):
        # orbits of the induced action on edge slots
        orbit_of = {}
        orbits = []
        for i, (u, v) in enumerate(slots):
            if i in orbit_of:
                continue
            orbit = []
            j = i
            while j not in orbit_of:
                orbit_of[j] = len(orbits)
                orbit.append(j)
                a, b = slots[j]
                j = index_of[tuple(sorted((perm[a], perm[b])))]
            orbits.append(orbit)
        for pick in range(1 << len(orbits)):
            mask = 0
            for o, orbit in enumerate(orbits):
                if pick >> o & 1:
                    for j in orbit:
                        mask |= 1 << j
            if _connected_from_mask(n, mask, slots):
                total += 1
    count, remainder = divmod(total, _factorial(n))
    assert remainder == 0
    return count


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _isomorphic_bruteforce(n: int, e1: frozenset, e2: frozenset) -> bool:
    if len(e1) != len(e2):
        return False
    for perm in permutations(range(n)):
        if {tuple(sorted((perm[u], perm[v]))) for u, v in e1} == set(e2):
            return True
    return False


def test_smallest_orders_by_hand():
    (k2,) = enumerate_connected_graphs(2)
    assert k2.edges() == [(0, 1)]
    three = list(enumerate_connected_graphs(3))
    assert sorted(g.edge_count() for g in three) == [2, 3]  # P_3 and K_3


def test_counts_match_reference_table():
    for n, expected in CONNECTED_COUNTS.items():
        assert sum(1 for _ in enumerate_connected_graphs(n)) == expected


def test_counts_match_burnside_oracle():
    for n in range(1, 7):
        assert _burnside_connected_count(n) == CONNECTED_COUNTS[n]


def _walked_parents(n: int) -> dict[int, list[tuple[Graph, tuple]]]:
    """The parents that the walk to order n extends, by order, each with
    the generators it is extended by, in the order the walk reaches them."""
    parents: dict[int, list[tuple[Graph, tuple]]] = {}

    def recorded(parent, gens):
        parents.setdefault(parent.n, []).append((parent, gens))
        return _children(parent, gens)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oldset.enumeration, "_children", recorded)
        for _ in enumerate_connected_graphs(n):
            pass
    return parents


def test_representatives_are_connected_distinct_and_canonical():
    walked = _walked_parents(8)
    for n in range(1, 8):
        certs = set()
        for g in enumerate_connected_graphs(n):
            assert g.n == n
            assert is_connected(g)
            certs.add(canonical_form(g))
        assert len(certs) == CONNECTED_COUNTS[n]
        # every parent is canonically labeled, with generators that are
        # automorphisms, one per class
        parents = walked[n]
        assert len(parents) == CONNECTED_COUNTS[n]
        for parent, gens in parents:
            cert = canonical_form(parent)
            assert to_graph6(parent).encode("ascii") == cert
            # a fresh copy of the parent gets the same certificate
            assert canonical_form(Graph(n, parent.adj)) == cert
            for perm in gens:
                assert sorted(perm) == list(range(n))
                assert _is_automorphism(parent, perm)
        assert {canonical_form(parent) for parent, _ in parents} == certs


def test_canonical_form_separates_all_small_classes():
    # group every labeled graph on 5 vertices by canonical form, then
    # confirm the grouping with a permutation-search isomorphism oracle
    n = 5
    slots = _edge_slots(n)
    by_cert: dict[bytes, list[frozenset]] = {}
    for mask in range(1 << len(slots)):
        edges = frozenset(
            slots[i] for i in range(len(slots)) if mask >> i & 1
        )
        cert = canonical_form(from_edges(n, list(edges)))
        by_cert.setdefault(cert, []).append(edges)
    # 34 classes of graphs on 5 vertices, connected or not
    assert len(by_cert) == 34
    reps = []
    for cert, members in by_cert.items():
        for other in members[1:]:
            assert _isomorphic_bruteforce(n, members[0], other)
        reps.append(members[0])
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            assert not _isomorphic_bruteforce(n, a, b)


def test_rejects_out_of_range_orders():
    # the call itself raises, before anything iterates it
    for bad in (0, 11, -1):
        with pytest.raises(ValueError, match="built-in enumeration covers"):
            enumerate_connected_graphs(bad)


def _image(mask: int, perm) -> int:
    out = 0
    for v in iter_bits(mask):
        out |= 1 << perm[v]
    return out


def _is_automorphism(g: Graph, perm) -> bool:
    return all(_image(g.adj[v], perm) == g.adj[perm[v]] for v in range(g.n))


def _all_small_classes(n: int) -> list[Graph]:
    """One graph per isomorphism class of order n, connected or not.

    A graph or its complement is connected, so the connected classes and
    their complements cover every class.
    """
    if n == 0:
        return [Graph(0, ())]
    full = (1 << n) - 1
    by_cert: dict[bytes, Graph] = {}
    for g in enumerate_connected_graphs(n):
        complement = Graph(n, [full ^ row ^ 1 << v for v, row in enumerate(g.adj)])
        for h in (g, complement):
            by_cert.setdefault(canonical_form(h), h)
    return [by_cert[cert] for cert in sorted(by_cert)]


def test_all_small_classes_match_reference_table():
    # graphs of order 0..7, connected or not
    counts = [1, 1, 2, 4, 11, 34, 156, 1044]
    assert [len(_all_small_classes(n)) for n in range(8)] == counts


def _scrambled_small_graphs():
    # every class of order <= 6, each also under a random relabeling
    rng = random.Random(98)
    for n in range(7):
        for g in _all_small_classes(n):
            perm = list(range(n))
            rng.shuffle(perm)
            yield g
            yield from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_labeling_generators_are_automorphisms():
    graphs = list(_scrambled_small_graphs())
    graphs += _all_small_classes(7)
    for g in graphs:
        canon, gens, label = _canonical_labeling(g)
        # vertex v of g is vertex label[v] of canon
        assert sorted(label) == list(range(g.n))
        for v in range(g.n):
            assert canon.adj[label[v]] == _image(g.adj[v], label)
        for perm in gens:
            assert sorted(perm) == list(range(g.n))
            assert _is_automorphism(canon, perm)


def test_mask_orbits_match_brute_force_automorphisms():
    for g in _scrambled_small_graphs():
        canon, gens, _ = _canonical_labeling(g)
        n = canon.n
        group = [p for p in permutations(range(n)) if _is_automorphism(canon, p)]
        orbits = {frozenset(_image(m, p) for p in group) for m in range(1 << n)}
        reps = list(_orbit_representatives(range(1 << n), gens))
        assert len(reps) == len(orbits)
        assert {frozenset(_image(m, p) for p in group) for m in reps} == orbits
        # the first mask of each orbit stands for it
        assert reps == sorted(min(orbit) for orbit in orbits)


def test_twin_classes_give_one_generator_per_consecutive_pair():
    # K_n and its complement: one twin class, whose n - 1 consecutive
    # swaps generate the symmetric group
    for n in range(2, 11):
        complete = from_edges(n, combinations(range(n), 2))
        for g in (complete, Graph(n, [0] * n)):
            assert len(_canonical_labeling(g)[1]) == n - 1


def test_classes_through_order_8_are_pinned():
    # every representative with its labels and certificate, in
    # generation order; filtering children must not change which one
    # stands for a class, or where it comes in the stream
    digest = hashlib.sha256()
    for n in range(1, 9):
        for g in enumerate_connected_graphs(n):
            digest.update(repr((g.n, g.adj, canonical_form(g))).encode())
    assert digest.hexdigest() == (
        "13f2bd1dc43d57f7000b3317b32248fe14d1081c5fa2e350ce4cde2cb0787a5b"
    )


def test_certificates_through_order_8_are_pinned():
    # the classes alone, free of labels and stream order: the sorted
    # certificates of each order
    digest = hashlib.sha256()
    for n in range(1, 9):
        for cert in sorted(canonical_form(g) for g in enumerate_connected_graphs(n)):
            digest.update(cert + b"\n")
    assert digest.hexdigest() == (
        "47b587cc91301367ac2c835c31273c04b0caa8594982a7be3254b2e95008172e"
    )


def test_only_max_degree_non_cut_children_are_labeled(monkeypatch):
    # building and labeling every orbit representative child would take
    # 4,159 builds and 4,303 labelings, and the degree-only filter on
    # built children labeled 1,468; dropping duplicates by certificate
    # labeled all 1,049 built children.  The orbit rule labels only the
    # 142 parents of order 2..6 (the walk starts from K_1 as it is) and
    # the children whose new vertex ties a rival that is not its twin on
    # all three invariants (358 labelings, 214 at order 7, before
    # triangles broke ties), and a labeled child that is kept keeps its
    # labeling as a parent
    built = []
    labeled = []

    def counted_extend(parent, mask):
        built.append(mask)
        return _extend(parent, mask)

    def counted_labeling(g):
        labeled.append(g.n)
        return _canonical_labeling(g)

    monkeypatch.setattr(oldset.enumeration, "_extend", counted_extend)
    monkeypatch.setattr(oldset.enumeration, "_canonical_labeling", counted_labeling)
    assert len(list(enumerate_connected_graphs(7))) == 853
    assert len(built) == 1049
    assert len(labeled) == 299
    assert labeled.count(1) == 0
    # the swept order is labeled only where the rule needs it
    assert labeled.count(7) == 157


def test_parent_side_filter_matches_the_rule_on_built_children():
    # the rule evaluated on each child: reject when some non-cut vertex
    # beats the new vertex on (degree, neighbour-degree sum)
    nx = pytest.importorskip("networkx")
    checked = 0
    for m in range(1, 7):
        for parent in enumerate_connected_graphs(m):
            accepted = set(_accepted_masks(parent))
            for mask in range(1, 1 << m):
                # connected of order >= 2, so its edges name every vertex
                h = nx.Graph(_extend(parent, mask).edges())
                cut = set(nx.articulation_points(h))

                def rank(v):
                    return h.degree(v), sum(h.degree(w) for w in h[v])

                passes = all(rank(u) <= rank(m) for u in h if u not in cut)
                assert (mask in accepted) == passes
                checked += 1
    # every nonempty mask of every parent of order 1..6
    assert checked == sum(CONNECTED_COUNTS[m] * ((1 << m) - 1) for m in range(1, 7))


def _orbit_rule(child: Graph) -> bool:
    """The orbit rule on a built child, from its own labeling.

    v* is the non-cut vertex greatest on (degree, neighbour-degree sum,
    triangles through it), ties broken by the largest canonical label;
    the rule keeps the child when its new vertex lies in v*'s orbit.
    """
    n = child.n
    full = (1 << n) - 1
    _, gens, label = _canonical_labeling(child)
    deg = [row.bit_count() for row in child.adj]

    def rank(v):
        nbrs = list(iter_bits(child.adj[v]))
        triangles = sum(child.adj[a] >> b & 1 for a, b in combinations(nbrs, 2))
        return deg[v], sum(deg[w] for w in nbrs), triangles

    non_cut = [v for v in range(n) if len(component_masks(child, full ^ 1 << v)) <= 1]
    best = max(rank(v) for v in non_cut)
    v_star = max((v for v in non_cut if rank(v) == best), key=lambda v: label[v])
    orbit = {label[n - 1]}
    frontier = list(orbit)
    while frontier:
        v = frontier.pop()
        for perm in gens:
            if perm[v] not in orbit:
                orbit.add(perm[v])
                frontier.append(perm[v])
    return label[v_star] in orbit


def test_unlabeled_verdicts_match_the_orbit_rule():
    # every orbit representative child of every parent of order 1..6,
    # kept or not, against the rule on the labeled child
    walked = _walked_parents(7)
    for m in range(1, 7):
        certs = []
        unlabeled = 0
        for parent, gens in walked[m]:
            kept = set()
            for child, labeling in _children(parent, gens):
                kept.add(child.adj)
                unlabeled += labeling is None
                certs.append(canonical_form(child))
            for mask in _orbit_representatives(range(1, 1 << m), gens):
                child = _extend(parent, mask)
                assert (child.adj in kept) == _orbit_rule(child)
        assert len(set(certs)) == len(certs) == CONNECTED_COUNTS[m + 1]
    # most kept children need no labeling: at order 7, 717 of 853
    assert unlabeled == 717


def test_cut_vertices_match_networkx_articulation_points():
    # the filter's cut test reads the components of g - u
    nx = pytest.importorskip("networkx")
    checked = 0
    for h in nx.graph_atlas_g():
        if len(h) == 0 or not nx.is_connected(h):
            continue
        g = Graph(len(h), [sum(1 << u for u in h[v]) for v in range(len(h))])
        full = (1 << g.n) - 1
        cut = set()
        for u in range(g.n):
            parts = component_masks(g, full ^ 1 << u)
            rest = h.subgraph(set(h) - {u})
            assert sorted(parts) == sorted(
                sum(1 << v for v in c) for c in nx.connected_components(rest)
            )
            if len(parts) > 1:
                cut.add(u)
        assert cut == set(nx.articulation_points(h))
        checked += 1
    # connected graphs of order 1..7
    assert checked == sum(CONNECTED_COUNTS[n] for n in range(1, 8))


def test_triangle_counts_match_networkx():
    # the third invariant of the canonical deletion
    nx = pytest.importorskip("networkx")
    for h in nx.graph_atlas_g():
        g = Graph(len(h), [sum(1 << u for u in h[v]) for v in range(len(h))])
        counts = nx.triangles(h)
        assert [_triangles(g.adj, row) for row in g.adj] == [counts[v] for v in h]


def test_labelings_of_every_class_through_order_7_are_pinned():
    # the whole output of the labeling search (relabeled rows, generators,
    # labels) on every graph of order <= 7, connected or not, as the
    # networkx atlas labels it and under a seeded relabeling, so a faster
    # search is shown to return what the slower one did
    nx = pytest.importorskip("networkx")
    rng = random.Random(7)
    digest = hashlib.sha256()
    for h in nx.graph_atlas_g():
        n = len(h)
        g = Graph(n, [sum(1 << u for u in h[v]) for v in range(n)])
        perm = list(range(n))
        rng.shuffle(perm)
        for graph in (g, from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])):
            canon, gens, label = _canonical_labeling(graph)
            digest.update(repr((canon.adj, gens, label)).encode())
    assert digest.hexdigest() == (
        "3d0e3dfe85df6658d13ff48012f8fb9732474c60c2e82c2ef31cd4ecc2231bbd"
    )
