"""Enumeration and canonical forms against networkx as an outside oracle.

networkx is a test-only dependency; without it these tests are skipped.
"""

from __future__ import annotations

import random

import pytest

from oldset import Graph, canonical_form, enumerate_connected_graphs, from_edges

nx = pytest.importorskip("networkx")


def _from_nx(h) -> Graph:
    index = {v: i for i, v in enumerate(h.nodes)}
    return from_edges(len(index), [(index[u], index[v]) for u, v in h.edges])


def _to_nx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _swap_edges(g: Graph, rng: random.Random) -> Graph:
    """One degree-preserving switch ab, cd -> ad, cb, when one exists."""
    edges = g.edges()
    for _ in range(20):
        if len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4 or g.adj[a] >> d & 1 or g.adj[c] >> b & 1:
            continue
        kept = [e for e in edges if e not in ((a, b), (b, a), (c, d), (d, c))]
        return from_edges(g.n, kept + [(a, d), (c, b)])
    return g


def test_enumeration_equals_the_atlas_connected_graphs():
    # the atlas lists every graph through order 7 once per class
    atlas: dict[int, list[bytes]] = {}
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() and nx.is_connected(h):
            atlas.setdefault(h.number_of_nodes(), []).append(
                canonical_form(_from_nx(h))
            )
    for n in range(1, 8):
        certs = [canonical_form(g) for g in enumerate_connected_graphs(n)]
        assert len(set(atlas[n])) == len(atlas[n])
        assert sorted(certs) == sorted(atlas[n])


def test_canonical_form_agrees_with_networkx_isomorphism():
    rng = random.Random(2101)
    seen = {True: 0, False: 0}
    for trial in range(400):
        n = rng.randint(2, 10)
        if trial % 4 == 0 and n >= 4:
            # regular graphs: the degree filter cannot tell vertices apart
            d = rng.choice([k for k in (2, 3, 4) if k < n and n * k % 2 == 0])
            a = _from_nx(nx.random_regular_graph(d, n, seed=rng.randrange(1 << 30)))
            b = _from_nx(nx.random_regular_graph(d, n, seed=rng.randrange(1 << 30)))
        else:
            p = rng.choice([0.2, 0.4, 0.6])
            a = from_edges(
                n,
                [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
            )
            b = _relabel(a, rng)
            if trial % 2:
                b = _swap_edges(b, rng)
        same = nx.is_isomorphic(_to_nx(a), _to_nx(b))
        assert (canonical_form(a) == canonical_form(b)) == same, (a, b)
        seen[same] += 1
    # both sides of the equivalence are exercised
    assert min(seen.values()) >= 50
