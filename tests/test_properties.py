"""Hypothesis properties: the graph6 codec, relabeling, unions, solvers."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oldset import (  # noqa: E402
    GraphFormatError,
    classify_forced,
    disjoint_union,
    from_edges,
    is_locatable,
    is_old_set,
    old_number,
    old_number_bruteforce,
    parse_graph6,
    to_graph6,
)
from oldset.harness import _unremovable  # noqa: E402

# bounded so the whole module adds a few seconds to the suite
_FEW = settings(max_examples=60, deadline=None)


@st.composite
def graphs(draw, max_order):
    n = draw(st.integers(0, max_order))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edges(n, [pair for pair, kept in zip(pairs, keep) if kept])


def locatable(max_order):
    return graphs(max_order).filter(is_locatable)


@st.composite
def records(draw):
    """graph6 records built from the format's definition, not from to_graph6."""
    n = draw(st.sampled_from([0, 1, 2, 5, 11, 62, 63, 64, 70]))
    nbits = n * (n - 1) // 2
    bits = draw(st.integers(0, (1 << nbits) - 1)) if nbits else 0
    size = [n] if n <= 62 else [63, n >> 12, n >> 6 & 63, n & 63]
    pad = -nbits % 6
    data = bits << pad
    body = [data >> 6 * i & 63 for i in reversed(range((nbits + pad) // 6))]
    return "".join(chr(63 + value) for value in size + body)


@_FEW
@given(graphs(max_order=12))
def test_graph6_round_trips_a_graph(g):
    assert parse_graph6(to_graph6(g)) == g


@_FEW
@given(records())
def test_graph6_round_trips_a_record(record):
    assert to_graph6(parse_graph6(record)) == record


@_FEW
@given(records(), st.data())
def test_a_truncated_or_extended_record_is_rejected(record, data):
    with pytest.raises(GraphFormatError):
        parse_graph6(record + data.draw(st.sampled_from("?@_~")))
    assume(len(record) > 1)
    cut = data.draw(st.integers(0, len(record) - 1))
    with pytest.raises(GraphFormatError):
        parse_graph6(record[:cut])


def _relabel(g, perm):
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _forced_counts(g):
    parts = classify_forced(g)
    return (
        parts.domination_forced.bit_count(),
        parts.location_forced.bit_count(),
        parts.unforced.bit_count(),
    )


@st.composite
def relabeled(draw):
    g = draw(locatable(10))
    perm = draw(st.permutations(range(g.n)))
    return g, _relabel(g, perm)


@_FEW
@given(relabeled())
def test_gamma_witness_size_and_forced_counts_survive_relabeling(pair):
    g, h = pair
    solved, resolved = old_number(g), old_number(h)
    assert solved.gamma == resolved.gamma
    assert solved.witness.bit_count() == resolved.witness.bit_count() == solved.gamma
    assert _forced_counts(g) == _forced_counts(h)


@_FEW
@given(locatable(6), locatable(6))
def test_gamma_adds_over_a_disjoint_union(a, b):
    union = old_number(disjoint_union(a, b)).gamma
    assert union == old_number(a).gamma + old_number(b).gamma


@_FEW
@given(locatable(8))
def test_branch_and_bound_equals_brute_force(g):
    fast, slow = old_number(g), old_number_bruteforce(g)
    assert fast.gamma == slow.gamma
    assert fast.witness == slow.witness


@_FEW
@given(st.one_of(locatable(12), st.builds(disjoint_union, locatable(6), locatable(6))))
def test_the_removability_pass_equals_the_old_set_test(g):
    full = (1 << g.n) - 1
    bad = _unremovable(g, full, set(g.adj))
    for v in range(g.n):
        assert bool(bad >> v & 1) == (not is_old_set(g, full & ~(1 << v)))
    assert bad == classify_forced(g).forced
