"""Half-graph construction, recognition, and the peel step."""

from __future__ import annotations

import functools
import random

from oldset import (
    Graph,
    NotLocatableError,
    canonical_form,
    connected_components,
    disjoint_union,
    enumerate_connected_graphs,
    from_edges,
    half_graph,
    is_connected,
    is_half_graph,
    is_union_of_half_graphs,
    peel,
)


def _k(n: int) -> Graph:
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _cycle(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _relabel(g: Graph, perm: list[int]) -> Graph:
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_half_graph_h1_is_k2():
    assert half_graph(1) == from_edges(2, [(0, 1)])


def test_half_graph_h3_edge_set():
    # the six edges of the drawing: v1w1 v1w2 v1w3 v2w2 v2w3 v3w3
    assert half_graph(3).edges() == [
        (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 5),
    ]


def test_half_graph_rejects_k_below_one():
    for bad in (0, -2):
        try:
            half_graph(bad)
        except ValueError:
            continue
        raise AssertionError("accepted k < 1")


def test_half_graph_degree_law():
    # deg(v_i) = k-i+1, deg(w_j) = j, straight from the i <= j edge law
    for k in range(1, 13):
        g = half_graph(k)
        assert g.edge_count() == k * (k + 1) // 2
        for i in range(1, k + 1):
            assert g.degree(i - 1) == k - i + 1
        for j in range(1, k + 1):
            assert g.degree(k + j - 1) == j


def test_half_graph_consecutive_neighbourhood_law():
    for k in range(2, 9):
        g = half_graph(k)
        for i in range(k - 1):
            assert (g.adj[i] ^ g.adj[i + 1]).bit_count() == 1
        for j in range(k - 1):
            assert (g.adj[k + j] ^ g.adj[k + j + 1]).bit_count() == 1


def test_half_graph_symmetry_automorphism():
    # v_i <-> w_{k+1-i} preserves the edge set
    for k in range(1, 9):
        g = half_graph(k)
        swap = {i: 2 * k - 1 - i for i in range(2 * k)}
        mapped = sorted(
            tuple(sorted((swap[u], swap[v]))) for u, v in g.edges()
        )
        assert mapped == g.edges()


def test_recognition_accepts_constructions_up_to_k12():
    rng = random.Random(41)
    for k in range(1, 13):
        g = half_graph(k)
        perm = list(range(2 * k))
        rng.shuffle(perm)
        shuffled = _relabel(g, perm)
        labeling = is_half_graph(shuffled)
        # the v side is the colour class of vertex 0; if vertex 0 plays
        # some w_j, the side swap v_i <-> w_{k+1-i} gives the labeling
        if perm.index(0) < k:
            v_order, w_order = perm[:k], perm[k:]
        else:
            v_order, w_order = perm[k:][::-1], perm[:k][::-1]
        assert labeling == (k, tuple(v_order), tuple(w_order))
        # the labeling re-verifies the edge law over all k^2 pairs
        for i in range(k):
            for j in range(k):
                v, w = labeling.v_order[i], labeling.w_order[j]
                assert bool(shuffled.adj[v] >> w & 1) == (i <= j)
        assert sorted(labeling.v_order + labeling.w_order) == list(range(2 * k))


def test_recognition_rejects_non_half_graphs():
    assert is_half_graph(_k(3)) is None          # odd order
    assert is_half_graph(_cycle(6)) is None      # degrees not distinct
    assert is_half_graph(_cycle(4)) is None
    assert is_half_graph(_k(4)) is None          # odd cycles inside
    assert is_half_graph(disjoint_union(half_graph(1), half_graph(1))) is None
    assert is_half_graph(Graph(0, ())) is None


def test_recognition_completeness_small_orders():
    # recognition agrees with canonical-form comparison on every
    # connected graph of even order up to 8
    for n in (2, 4, 6, 8):
        target = canonical_form(half_graph(n // 2))
        hits = []
        for g in enumerate_connected_graphs(n):
            if is_half_graph(g) is not None:
                hits.append(canonical_form(g))
            else:
                assert canonical_form(g) != target
        assert hits == [target]


def test_peel_reduces_half_graphs():
    for k in range(2, 9):
        step = peel(half_graph(k))
        assert step is not None
        assert canonical_form(step.graph, max_order=16) == canonical_form(
            half_graph(k - 1), max_order=16
        )


def test_peel_pair_is_deterministic():
    # in construction labels the first qualifying pendant is v_k, whose
    # unique neighbour is w_k
    step = peel(half_graph(4))
    assert step.removed == (7, 3)


def test_peel_conditions_hold_on_result():
    g = half_graph(5)
    step = peel(g)
    x, y = step.removed
    assert g.adj[y] == 1 << x
    assert any(
        g.adj[z] == g.adj[x] ^ 1 << y for z in range(g.n) if z not in (x, y)
    )


def test_peel_rejects_bad_inputs():
    try:
        peel(_k(3))
    except ValueError:
        pass
    else:
        raise AssertionError("order 3 accepted")
    try:
        peel(disjoint_union(half_graph(1), half_graph(1)))
    except ValueError:
        pass
    else:
        raise AssertionError("disconnected accepted")
    try:
        peel(from_edges(4, [(0, 1), (0, 2), (0, 3)]))  # star: open twins
    except NotLocatableError:
        pass
    else:
        raise AssertionError("non-locatable accepted")


def test_peel_returns_none_without_a_pair():
    # P_6 is locatable and connected but no vertex has the z-profile
    p6 = from_edges(6, [(i, i + 1) for i in range(5)])
    assert peel(p6) is None


def test_union_of_half_graphs():
    assert is_union_of_half_graphs(disjoint_union(half_graph(2), half_graph(5)))
    assert not is_union_of_half_graphs(disjoint_union(half_graph(2), _k(3)))
    assert is_union_of_half_graphs(Graph(0, ()))
    assert is_union_of_half_graphs(half_graph(3))


def _union_oracle(g: Graph) -> bool:
    """Every component C has the canonical form of H_{|C|/2}."""
    # a connected graph is its own component, and an enumerated class
    # keeps its cached certificate that way
    components = [g] if is_connected(g) else [c for c, _ in connected_components(g)]
    return all(
        c.n % 2 == 0 and canonical_form(c, max_order=16) == _half_graph_cert(c.n // 2)
        for c in components
    )


@functools.cache
def _half_graph_cert(k: int) -> bytes:
    return canonical_form(half_graph(k), max_order=16)


def _toggles(h: Graph):
    """Every graph one edge toggle away from h, disconnected ones too."""
    for u in range(h.n):
        for v in range(u + 1, h.n):
            adj = list(h.adj)
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            yield Graph(h.n, tuple(adj))


def _interleaved(g1: Graph, g2: Graph) -> Graph:
    """g1 + g2 with labels alternating between the parts, g1's first."""
    n1 = g1.n
    order = sorted(range(n1 + g2.n), key=lambda u: (u, 0) if u < n1 else (u - n1, 1))
    perm = [0] * len(order)
    for label, u in enumerate(order):
        perm[u] = label
    return _relabel(disjoint_union(g1, g2), perm)


def test_union_test_agrees_with_canonical_forms():
    small = [g for n in range(1, 6) for g in enumerate_connected_graphs(n)]
    cases = [g for n in range(1, 9) for g in enumerate_connected_graphs(n)]
    for join in (disjoint_union, _interleaved):
        cases += [
            join(half_graph(j), half_graph(k))
            for j in range(1, 5)
            for k in range(1, 5)
        ]
        cases += [join(half_graph(j), g) for j in range(1, 5) for g in small]
    cases += [t for k in range(1, 7) for t in _toggles(half_graph(k))]
    verdicts = [is_union_of_half_graphs(g) for g in cases]
    assert verdicts == [_union_oracle(g) for g in cases]
    # H_1..H_4; for each way of joining, the 16 unions of two and H_j + H_1
    # and H_j + H_2 again from the small classes; and H_1 + H_1 from
    # cutting the middle of H_2 = P_4
    assert sum(verdicts) == 4 + 2 * (16 + 8) + 1

