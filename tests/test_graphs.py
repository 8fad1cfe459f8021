"""Core graph representation, structure queries, canonical forms."""

from __future__ import annotations

import functools
import gc
import operator
import pickle
import random

from oldset import (
    CANONICAL_ORDER_LIMIT,
    Graph,
    canonical_form,
    disjoint_union,
    enumerate_connected_graphs,
    from_edges,
    half_graph,
    induced_subgraph,
    is_connected,
    is_locatable,
    iter_bits,
    mask_of,
    open_twins,
    vertices_of,
)
from oldset.graphs import _canonical_labeling, component_masks


def _k(n: int) -> Graph:
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return from_edges(n, edges)


def _relabel(g: Graph, perm: list[int]) -> Graph:
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _rejects(fn, *args) -> None:
    try:
        fn(*args)
    except ValueError:
        return
    raise AssertionError(f"{fn.__name__}{args} should have raised")


def test_mask_helpers_round_trip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert vertices_of(0b101001) == [0, 3, 5]
    assert list(iter_bits(0)) == []
    assert mask_of([]) == 0


def test_from_edges_builds_k2():
    g = from_edges(2, [(0, 1)])
    assert g.n == 2
    assert g.adj == (0b10, 0b01)
    assert g == half_graph(1)


def test_from_edges_empty_graph():
    g = from_edges(3, [])
    assert g.adj == (0, 0, 0)


def test_from_edges_c4():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert g.edge_count() == 4


def test_from_edges_collapses_duplicates():
    g = from_edges(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_from_edges_rejects_bad_input():
    _rejects(from_edges, 3, [(1, 1)])
    _rejects(from_edges, 3, [(0, 3)])
    _rejects(from_edges, 2, [(-1, 0)])


def test_graph_constructor_validates():
    _rejects(Graph, 2, (0b10,))          # wrong length
    _rejects(Graph, 2, (0b10, 0b00))     # asymmetric
    _rejects(Graph, 1, (0b01,))          # self-loop
    _rejects(Graph, 1, (0b10,))          # out of range
    _rejects(Graph, -1, ())              # negative order
    assert Graph(0, ()).n == 0


def test_graph_equality_and_repr():
    g = from_edges(3, [(1, 2), (0, 1)])
    # a graph is equal to no other type, and says so by NotImplemented
    assert g.__eq__(5) is NotImplemented
    assert (g == 5) is False and g != 5
    assert repr(g) == "Graph(n=3, edges=[(0, 1), (1, 2)])"


def test_graph_is_immutable_and_hashable():
    g = from_edges(2, [(0, 1)])
    try:
        g.n = 5
    except AttributeError:
        pass
    else:
        raise AssertionError("mutation allowed")
    assert hash(g) == hash(from_edges(2, [(0, 1)]))
    assert g != from_edges(2, [])


def test_graph_pickles():
    g = half_graph(4)
    clone = pickle.loads(pickle.dumps(g))
    assert clone == g
    assert canonical_form(clone) == canonical_form(g)
    # unpickling rebuilds through the validating constructor, so bytes
    # that encode bad rows are rejected
    rebuild, args = g.__reduce__()
    assert args == (g.n, g.adj)
    _rejects(rebuild, 2, (0b10, 0b00))


def test_open_neighbourhood_half_graph():
    # v_1 of H_3 sees all of w_1..w_3
    g = half_graph(3)
    assert g.adj[0] == mask_of([3, 4, 5])
    assert from_edges(2, []).adj[0] == 0
    k3 = _k(3)
    for v in range(3):
        assert k3.adj[v] == 0b111 & ~(1 << v)


def test_open_twins_c4():
    assert open_twins(_cycle(4)) == [(0, 2), (1, 3)]


def test_open_twins_half_graphs_empty():
    for k in range(1, 9):
        assert open_twins(half_graph(k)) == []


def test_open_twins_empty_graph_all_pairs():
    assert open_twins(from_edges(3, [])) == [(0, 1), (0, 2), (1, 2)]


def test_is_locatable():
    assert is_locatable(from_edges(2, [(0, 1)]))
    assert not is_locatable(from_edges(1, []))
    assert not is_locatable(_cycle(4))
    assert is_locatable(Graph(0, ()))


def test_is_connected():
    assert is_connected(half_graph(4))
    assert not is_connected(disjoint_union(half_graph(1), half_graph(1)))
    assert is_connected(from_edges(1, []))
    assert is_connected(Graph(0, ()))


def _components(g: Graph) -> list[tuple[Graph, tuple[int, ...]]]:
    return [induced_subgraph(g, mask) for mask in component_masks(g)]


def test_connected_components_union():
    g = disjoint_union(half_graph(2), half_graph(3))
    assert component_masks(g) == [0b1111, 0b1111110000]
    parts = _components(g)
    assert [sub.n for sub, _ in parts] == [4, 6]
    assert canonical_form(parts[0][0]) == canonical_form(half_graph(2))
    assert canonical_form(parts[1][0]) == canonical_form(half_graph(3))


def test_connected_components_maps_compose_to_identity():
    rng = random.Random(11)
    for _ in range(25):
        g = _random_graph(rng, rng.randint(0, 8), 0.25)
        masks = component_masks(g)
        # disjoint, covering, each connected, ordered by least vertex
        assert sum(masks) == mask_of(range(g.n)) == functools.reduce(
            operator.or_, masks, 0
        )
        assert masks == sorted(masks, key=lambda m: m & -m)
        parts = _components(g)
        assert all(is_connected(sub) for sub, _ in parts)
        assert sum(sub.n for sub, _ in parts) == g.n
        mapped = []
        for sub, kept in parts:
            mapped.extend(
                tuple(sorted((kept[u], kept[v]))) for u, v in sub.edges()
            )
        assert sorted(mapped) == g.edges()


def test_connected_components_trivial_cases():
    g = _k(3)
    (sub, kept), = _components(g)
    assert sub == g and kept == (0, 1, 2)
    empty3 = from_edges(3, [])
    assert component_masks(empty3) == [1, 2, 4]
    assert [sub.n for sub, _ in _components(empty3)] == [1, 1, 1]
    assert component_masks(Graph(0, ())) == []


def test_induced_subgraph_rejects_a_mask_beyond_the_order():
    _rejects(induced_subgraph, _k(3), 0b1000)


def test_disjoint_union_shifts_second_graph():
    g = disjoint_union(half_graph(1), _k(3))
    assert g.n == 5
    assert g.edges() == [(0, 1), (2, 3), (2, 4), (3, 4)]
    assert is_locatable(g) and not is_connected(g)


def test_disjoint_union_with_empty_is_identity():
    g = _path(4)
    assert disjoint_union(g, Graph(0, ())) == g
    assert disjoint_union(Graph(0, ()), g) == g


def test_canonical_form_permutation_invariant():
    # 100 random graphs, 10 random relabelings each
    rng = random.Random(2026)
    for _ in range(100):
        n = rng.randint(1, 7)
        g = _random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        cert = canonical_form(g)
        for _ in range(10):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(_relabel(g, perm)) == cert


def test_canonical_form_known_coincidences():
    assert canonical_form(_path(4)) == canonical_form(half_graph(2))
    assert canonical_form(_k(3)) != canonical_form(_path(3))
    perm = [3, 0, 5, 1, 4, 2]
    assert canonical_form(_relabel(half_graph(3), perm)) == canonical_form(
        half_graph(3)
    )


def test_canonical_form_respects_order_limit():
    big = half_graph(6)  # order 12
    assert big.n > CANONICAL_ORDER_LIMIT
    _rejects(canonical_form, big)
    cert = canonical_form(big, max_order=12)
    assert cert == canonical_form(_relabel(big, list(reversed(range(12)))), max_order=12)


def test_canonical_form_of_order_zero_and_one():
    assert canonical_form(Graph(0, ())) == b"?"
    assert canonical_form(from_edges(1, [])) == b"@"


def test_labeling_leaves_no_cyclic_garbage():
    # with the collector off, what gc.collect() finds is exactly what
    # the labelings left in reference cycles
    graphs = list(enumerate_connected_graphs(7))
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            _canonical_labeling(g)
        assert gc.collect() == 0
    finally:
        gc.enable()
