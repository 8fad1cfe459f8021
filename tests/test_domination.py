"""OLD-set verification and the two exact solvers."""

from __future__ import annotations

import random

import pytest

from oldset import (
    BRANCH_AND_BOUND,
    BRUTEFORCE,
    ForcedClassification,
    Graph,
    NotLocatableError,
    classify_forced,
    disjoint_union,
    enumerate_connected_graphs,
    from_edges,
    half_graph,
    is_locatable,
    is_old_set,
    mask_of,
    old_number,
    old_number_bruteforce,
    parse_graph6,
)


def _k(n: int) -> Graph:
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _random_locatable(rng: random.Random, n: int) -> Graph:
    while True:
        p = rng.choice([0.3, 0.5, 0.7])
        g = from_edges(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < p
            ],
        )
        if is_locatable(g):
            return g


def _not_locatable(fn, g) -> None:
    try:
        fn(g)
    except NotLocatableError:
        return
    raise AssertionError("expected NotLocatableError")


def test_is_old_set_whole_vertex_set_of_half_graphs():
    for k in range(1, 7):
        g = half_graph(k)
        assert is_old_set(g, (1 << g.n) - 1)


def test_is_old_set_k3_pair():
    assert is_old_set(_k(3), 0b011)  # traces {b}, {a}, {a,b}


def test_is_old_set_detects_merged_traces():
    # dropping w_1 from H_2 leaves v_1 and v_2 with the same trace
    h2 = half_graph(2)
    w1 = 2
    assert not is_old_set(h2, 0b1111 & ~(1 << w1))


def test_is_old_set_monotone_under_superset():
    rng = random.Random(5)
    for _ in range(50):
        g = _random_locatable(rng, rng.randint(2, 7))
        full = (1 << g.n) - 1
        s = rng.randint(0, full)
        if not is_old_set(g, s):
            continue
        extra = rng.randint(0, full)
        assert is_old_set(g, s | extra)


def test_gamma_is_n_exactly_when_no_vertex_can_be_dropped():
    # the lemma the harness decides extremality by
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            if not is_locatable(g):
                continue
            full = (1 << n) - 1
            stuck = not any(is_old_set(g, full & ~(1 << v)) for v in range(n))
            assert stuck == (old_number(g).gamma == n)
            if n <= 6:
                assert stuck == (old_number_bruteforce(g).gamma == n)


def test_bruteforce_known_values():
    assert old_number_bruteforce(_k(3)).gamma == 2
    assert old_number_bruteforce(half_graph(4)).gamma == 8
    # frozen by an independent subset-enumeration oracle
    c7 = old_number_bruteforce(_cycle(7))
    assert c7.gamma == 5
    assert c7.witness == mask_of([0, 1, 2, 3, 4])
    assert c7.method == BRUTEFORCE


def test_bruteforce_witness_is_least_mask():
    rng = random.Random(23)
    for _ in range(20):
        g = _random_locatable(rng, rng.randint(2, 6))
        res = old_number_bruteforce(g)
        # every optimal OLD set, by full scan
        best = [
            s
            for s in range(1 << g.n)
            if s.bit_count() == res.gamma and is_old_set(g, s)
        ]
        assert res.witness == min(best)


@pytest.mark.parametrize(
    "g",
    [pytest.param(half_graph(k), id=f"H{k}") for k in range(1, 9)]
    + [pytest.param(disjoint_union(half_graph(2), half_graph(3)), id="H2+H3")],
)
def test_branch_and_bound_all_forced_fast_path(g):
    res = old_number(g)
    assert res.gamma == g.n
    assert res.nodes_explored == 1
    assert res.method == BRANCH_AND_BOUND


@pytest.mark.parametrize(
    "record, gamma, witness, nodes",
    [
        pytest.param("DhC", 4, [0, 1, 2, 3], 5, id="P5"),
        pytest.param("KhCGGC@?G?o@", 8, [0, 1, 2, 3, 6, 7, 8, 9], 37, id="C12"),
        pytest.param("IheA@GUAo", 5, [0, 1, 2, 3, 4], 44, id="Petersen"),
        pytest.param("DBg", 4, [0, 1, 3, 4], 5, id="DBg"),
        # the search meets {3, 4, 5} first; the tie rule must replace it.
        # 3 members of its E(G) contain another member
        pytest.param("E`]w", 3, [2, 4, 5], 19, id="tie"),
        # G(32, 0.3), seed 8: 28 members of its E(G) contain another
        # member, and the search keeps them all
        pytest.param(
            "_cNvoE`O_Y@k?Ck?j[Dg?_CB??D?EI@`g?RdNOC[WO[Q?@?IKGmsFI?kAO??Co@GA"
            "_qOp?RC@?c_QH@OKBKG",
            8,
            [0, 1, 2, 5, 8, 9, 13, 19],
            13483,
            id="G32",
        ),
    ],
)
def test_branch_and_bound_search_tree_is_pinned(record, gamma, witness, nodes):
    res = old_number(parse_graph6(record))
    assert res.gamma == gamma
    assert res.witness == mask_of(witness)
    assert res.nodes_explored == nodes


def test_branch_and_bound_reads_forced_vertices_from_its_own_members(
    monkeypatch,
):
    # a classification that calls every vertex forced would make the
    # root the answer; the solver must not consult it
    def all_forced(g):
        return ForcedClassification((1 << g.n) - 1, 0, 0)

    monkeypatch.setattr("oldset.domination.classify_forced", all_forced)
    res = old_number(parse_graph6("DhC"))
    assert res.gamma == 4
    assert res.witness == mask_of([0, 1, 2, 3])
    assert res.nodes_explored == 5


def test_branch_and_bound_matches_bruteforce_small():
    rng = random.Random(31)
    for _ in range(60):
        g = _random_locatable(rng, rng.randint(2, 7))
        fast = old_number(g)
        slow = old_number_bruteforce(g)
        assert fast.gamma == slow.gamma
        assert fast.witness == slow.witness


def test_solve_results_re_verify():
    rng = random.Random(47)
    for _ in range(40):
        g = _random_locatable(rng, rng.randint(2, 7))
        res = old_number(g)
        assert is_old_set(g, res.witness)
        assert res.witness.bit_count() == res.gamma
        assert 1 <= res.gamma <= g.n
        # forced vertices sit inside every optimal witness
        assert classify_forced(g).forced & ~res.witness == 0


def test_solvers_reject_non_locatable():
    for g in (_cycle(4), from_edges(1, []), from_edges(3, [])):
        _not_locatable(old_number, g)
        _not_locatable(old_number_bruteforce, g)


def test_not_locatable_error_carries_obstructions():
    try:
        old_number(_cycle(4))
    except NotLocatableError as exc:
        assert exc.twins == [(0, 2), (1, 3)]
        assert exc.isolated == []
    try:
        old_number(from_edges(2, []))
    except NotLocatableError as exc:
        assert exc.isolated == [0, 1]


def test_disconnected_additivity_fixed_cases():
    # gamma values per component are Prop.-3 / base-case values
    assert old_number(disjoint_union(half_graph(1), half_graph(2))).gamma == 6
    assert old_number(disjoint_union(half_graph(1), _k(3))).gamma == 4
    assert old_number(disjoint_union(half_graph(1), half_graph(1))).gamma == 4


def test_disconnected_witness_maps_back():
    # the least witness of a union is the union of the least witnesses
    a, b = _path(4), _k(3)
    g = disjoint_union(a, b)
    res = old_number(g)
    assert is_old_set(g, res.witness)
    assert res.witness.bit_count() == res.gamma
    assert res.gamma == old_number(a).gamma + old_number(b).gamma
    assert res.witness == old_number(a).witness | old_number(b).witness << a.n


def test_order_zero_graph_solves_to_zero():
    empty = Graph(0, ())
    assert is_locatable(empty)
    for solver in (old_number, old_number_bruteforce):
        res = solver(empty)
        assert res.gamma == 0 and res.witness == 0
