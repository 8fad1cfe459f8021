"""The census weighed by its automorphism groups: the labeled-count identity.

Every labeled connected graph on n vertices is a relabeling of exactly
one class G of the census, and G has n!/|Aut(G)| distinct labelings.
So the sum of n!/|Aut(G)| over the classes of order n is the number of
labeled connected graphs of order n (OEIS A001187).  A missing class, a
doubled class or generators of a proper subgroup move the sum, so this
checks the enumeration and the automorphism groups its labeling search
yields, the groups of the swept order included.  The group orders come
from a Schreier-Sims written here, checked against brute force.

Order 9 takes about 45 s, so tier-1 stops at order 8, and CI runs

    PYTHONPATH=src python tests/test_labeled_counts.py 9
"""

from __future__ import annotations

import sys
from itertools import chain, permutations
from math import comb, factorial, prod

import pytest

from oldset import Graph, enumerate_connected_graphs
from oldset.graphs import _canonical_labeling


def _labeled_connected(n: int) -> int:
    """A001187(n), from c(n) = 2^C(n,2) - sum over k < n of
    C(n-1, k-1) c(k) 2^C(n-k,2): a graph minus the ones whose vertex 1
    lies in a component of k < n vertices."""
    c = [0, 1]
    for m in range(2, n + 1):
        c.append(
            2 ** comb(m, 2)
            - sum(comb(m - 1, k - 1) * c[k] * 2 ** comb(m - k, 2) for k in range(1, m))
        )
    return c[n]


def _group_order(gens, n: int) -> int:
    """The order of the group that the permutations gens of 0..n-1
    generate, by Schreier-Sims with base 0, 1, ..., n-1.

    levels[i] holds the strong generators that fix 0..i-1, and
    orbits[i] maps each point of the orbit of i under them to a member
    taking i there.  Levels are completed from the last up: a Schreier
    generator of level i that does not sift through the levels below it
    joins them, and checking resumes at the level where it stopped.
    """
    identity = tuple(range(n))

    def mul(p, q):  # q, then p
        return tuple(p[x] for x in q)

    def inverse(p):
        out = [0] * n
        for x, y in enumerate(p):
            out[y] = x
        return tuple(out)

    def orbit(i):
        reps = {i: identity}
        stack = [i]
        while stack:
            x = stack.pop()
            for g in levels[i]:
                if g[x] not in reps:
                    reps[g[x]] = mul(g, reps[x])
                    stack.append(g[x])
        return reps

    def sift(h, start):
        for i in range(start, n):
            if h[i] not in orbits[i]:
                return h, i
            h = mul(inverse(orbits[i][h[i]]), h)
        return h, n

    def unsifted(i):
        """A Schreier generator of level i that does not sift through
        the levels below, with the level where it stopped, or None."""
        for x, u in orbits[i].items():
            for s in levels[i]:
                h, j = sift(mul(inverse(orbits[i][s[x]]), mul(s, u)), i + 1)
                if h != identity:
                    return h, j
        return None

    levels = [[] for _ in range(n)]
    for g in map(tuple, gens):
        if g != identity:
            first = next(x for x in range(n) if g[x] != x)
            for i in range(first + 1):
                levels[i].append(g)
    orbits = [orbit(i) for i in range(n)]
    i = n - 1
    while i >= 0:
        found = unsifted(i)
        if found is None:
            i -= 1
            continue
        h, j = found
        for k in range(i + 1, j + 1):
            levels[k].append(h)
            orbits[k] = orbit(k)
        i = j
    return prod(map(len, orbits))


def _labelings(graphs) -> int:
    """The sum of n!/|Aut(G)| over graphs, all of order n."""
    total = 0
    for g in graphs:
        gens = _canonical_labeling(g)[1]
        total += factorial(g.n) // _group_order(gens, g.n)
    return total


def test_the_recurrence_gives_the_table():
    assert [_labeled_connected(n) for n in range(1, 11)] == [
        1, 1, 4, 38, 728, 26704, 1866256, 251548592, 66296291072, 34496488594816,
    ]


def _brute_force_order(g: Graph) -> int:
    return sum(
        all(g.adj[p[v]] == sum(1 << p[u] for u in range(g.n) if g.adj[v] >> u & 1)
            for v in range(g.n))
        for p in permutations(range(g.n))
    )


def test_schreier_sims_matches_brute_force_on_the_atlas():
    nx = pytest.importorskip("networkx")
    checked = 0
    for h in nx.graph_atlas_g():
        n = len(h)
        if n > 6:
            break
        g = Graph(n, [sum(1 << u for u in h[v]) for v in range(n)])
        assert _group_order(_canonical_labeling(g)[1], n) == _brute_force_order(g)
        checked += 1
    assert checked == 1 + 1 + 2 + 4 + 11 + 34 + 156  # graphs of order 0..6


def test_schreier_sims_on_known_groups():
    n = 8
    cycle = tuple((x + 1) % n for x in range(n))
    flip = tuple((-x) % n for x in range(n))
    swap = (1, 0) + tuple(range(2, n))
    assert _group_order([], n) == 1
    assert _group_order([cycle], n) == n
    assert _group_order([cycle, flip], n) == 2 * n  # dihedral
    assert _group_order([cycle, swap], n) == factorial(n)  # symmetric


@pytest.mark.parametrize("n", range(1, 9))
def test_the_census_weighs_as_the_labeled_graphs(n):
    assert _labelings(enumerate_connected_graphs(n)) == _labeled_connected(n)


def test_the_shares_of_a_split_census_weigh_as_the_whole():
    # order 8 is the first one split into units; dealt out among three
    # workers, the shares lose no class and double none
    units = enumerate_connected_graphs(8)._units()
    assert len(units) == 853
    shares = [_labelings(chain.from_iterable(units[r::3])) for r in range(3)]
    assert all(shares)
    assert sum(shares) == _labeled_connected(8)


def main(n: int) -> int:
    """Check the identity at order n, whole and over three shares."""
    units = enumerate_connected_graphs(n)._units()
    shares = [_labelings(chain.from_iterable(units[r::3])) for r in range(3)]
    expected = _labeled_connected(n)
    print(f"order {n}: {len(units)} units, shares {shares}, sum {sum(shares)}, "
          f"A001187 {expected}")
    return 0 if sum(shares) == expected else 1


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
