"""Forced-vertex classification, removability, the Bondy bound."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from oldset import (
    Graph,
    NotLocatableError,
    bondy_check,
    classify_forced,
    domination_forced,
    from_edges,
    half_graph,
    is_locatable,
    is_old_set,
    iter_bits,
    location_forced,
    mask_of,
)
from oldset.graphs import _degree_classes


def _k(n: int) -> Graph:
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _random_graph(rng: random.Random, n: int) -> Graph:
    p = rng.choice([0.2, 0.4, 0.6, 0.8])
    return from_edges(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
    )


def test_domination_forced_half_graphs():
    # exactly v_1 and w_k, the unique neighbours of w_1 and v_k
    for k in range(2, 7):
        wit = domination_forced(half_graph(k))
        assert sorted(wit) == [0, 2 * k - 1]
        assert wit[0] == k          # w_1
        assert wit[2 * k - 1] == k - 1  # v_k


def test_domination_forced_trivia():
    assert domination_forced(_k(3)) == {}
    assert sorted(domination_forced(half_graph(1))) == [0, 1]


def test_location_forced_half_graphs():
    for k in range(2, 7):
        found = sorted(location_forced(half_graph(k)))
        assert found == list(range(1, 2 * k - 1))


def test_location_forced_trivia():
    assert location_forced(half_graph(1)) == {}
    assert location_forced(_k(3)) == {}


def test_witnesses_re_verify():
    rng = random.Random(3)
    graphs = [half_graph(k) for k in range(1, 6)]
    graphs += [_random_graph(rng, rng.randint(1, 8)) for _ in range(60)]
    for g in graphs:
        for v, w in domination_forced(g).items():
            assert g.adj[w] == 1 << v
        for v, (x, y) in location_forced(g).items():
            assert x < y
            assert g.adj[x] ^ g.adj[y] == 1 << v
            # old_number builds N(x) xor N(y) only for pairs with a
            # common neighbour, and must still see every forced vertex
            if is_locatable(g):
                assert g.adj[x] & g.adj[y]


def test_classify_forced_partitions_vertex_set():
    rng = random.Random(9)
    for _ in range(60):
        g = _random_graph(rng, rng.randint(0, 8))
        parts = classify_forced(g)
        full = (1 << g.n) - 1
        assert parts.domination_forced | parts.location_forced | parts.unforced == full
        assert parts.unforced & parts.forced == 0


def test_classify_forced_h3_all_forced():
    assert classify_forced(half_graph(3)).unforced == 0


def test_classify_forced_k3_none_forced():
    assert classify_forced(_k(3)).unforced == 0b111


def test_classify_forced_p5_fixed_by_scan():
    # frozen from an independent set-based scan of the path's
    # neighbourhood symmetric differences
    parts = classify_forced(_path(5))
    assert parts.domination_forced == mask_of([1, 3])
    assert parts.location_forced == mask_of([1, 3])
    assert parts.unforced == mask_of([0, 2, 4])
    assert domination_forced(_path(5)) == {1: 0, 3: 4}
    assert location_forced(_path(5)) == {3: (0, 2), 1: (2, 4)}


def test_removable_vertex():
    # no vertex of H_k can be dropped, and every vertex of K_n can
    for k in range(1, 7):
        assert classify_forced(half_graph(k)).unforced == 0
    for n in range(3, 7):
        assert classify_forced(_k(n)).unforced == (1 << n) - 1


def test_removable_vertex_leaves_old_set():
    rng = random.Random(13)
    seen = 0
    while seen < 30:
        g = _random_graph(rng, rng.randint(2, 8))
        if not is_locatable(g):
            continue
        seen += 1
        for v in iter_bits(classify_forced(g).unforced):
            assert is_old_set(g, (1 << g.n) - 1 & ~(1 << v))


def test_bondy_check_values():
    assert bondy_check(half_graph(5)) == 8  # 2(k-1) for k=5
    assert bondy_check(half_graph(1)) == 0
    for k in range(2, 7):
        assert bondy_check(half_graph(k)) == 2 * (k - 1)
    try:
        bondy_check(from_edges(3, []))
    except NotLocatableError:
        pass
    else:
        raise AssertionError("non-locatable accepted")


def test_forced_vertices_lie_in_every_old_set():
    # exhaustive over the subsets of random small locatable graphs
    rng = random.Random(29)
    seen = 0
    while seen < 25:
        g = _random_graph(rng, rng.randint(2, 6))
        if not is_locatable(g):
            continue
        seen += 1
        forced = classify_forced(g).forced
        for s in range(1 << g.n):
            if is_old_set(g, s):
                assert forced & ~s == 0


def test_both_forced_kinds_may_overlap():
    parts = classify_forced(_path(5))
    assert parts.domination_forced & parts.location_forced == mask_of([1, 3])
    for v in iter_bits(parts.domination_forced & parts.location_forced):
        assert v in domination_forced(_path(5)) and v in location_forced(_path(5))


def _full_pair_reference(
    g: Graph,
) -> tuple[dict[int, int], dict[int, tuple[int, int]]]:
    # every row and every pair of rows, in increasing order, so the first
    # witness found for a vertex is its least
    dom: dict[int, int] = {}
    loc: dict[int, tuple[int, int]] = {}
    for w in range(g.n):
        if g.adj[w].bit_count() == 1:
            dom.setdefault(g.adj[w].bit_length() - 1, w)
    for x, y in combinations(range(g.n), 2):
        diff = g.adj[x] ^ g.adj[y]
        if diff.bit_count() == 1:
            loc.setdefault(diff.bit_length() - 1, (x, y))
    return dom, loc


def _assert_matches_reference(g: Graph) -> None:
    dom, loc = _full_pair_reference(g)
    assert domination_forced(g) == dom
    assert location_forced(g) == loc
    parts = classify_forced(g)
    assert parts.domination_forced == mask_of(dom)
    assert parts.location_forced == mask_of(loc)
    assert parts.unforced == (1 << g.n) - 1 & ~(mask_of(dom) | mask_of(loc))
    # the degree classes a caller passes in, as the harness does
    assert classify_forced(g, _degree_classes(g)) == parts
    # the row-set locatability test against the OLD-set test on V
    assert is_locatable(g) == is_old_set(g, (1 << g.n) - 1)


@pytest.mark.parametrize("n", range(7))
def test_forced_analysis_matches_full_pair_scan_on_every_labeled_graph(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        _assert_matches_reference(
            from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
        )


def test_forced_analysis_matches_full_pair_scan_on_random_graphs():
    # isolated vertices and open twins too: the witnesses are defined on
    # every graph, locatable or not
    rng = random.Random(23)
    kinds = {"isolated": 0, "twins": 0, "locatable": 0}
    for _ in range(3000):
        n = rng.randint(1, 12)
        edges = [
            (u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.45
        ]
        if n < 12 and rng.random() < 0.3:
            # vertex n copies the neighbourhood of v: open twins
            v = rng.randrange(n)
            edges += [(a + b - v, n) for a, b in edges if v in (a, b)]
            n += 1
        g = from_edges(n, edges)
        kinds["isolated"] += 0 in g.adj
        kinds["twins"] += len(set(g.adj)) < n
        kinds["locatable"] += is_old_set(g, (1 << n) - 1)
        _assert_matches_reference(g)
    assert min(kinds.values()) > 300
