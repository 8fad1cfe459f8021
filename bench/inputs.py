"""Seeded inputs and independent answer checks for the oldset benchmark.

Nothing here imports oldset, so a change to the package can change
neither the inputs a run feeds it nor the checks applied to what it
prints.  Graphs are tuples of adjacency bitmasks (adj[v] is the open
neighbourhood of v), but the graph6 writer, locatability test, OLD-set
test, forced partition and half-graph test below are the benchmark's own.

Randomness comes only from random.Random(seed).random(), whose stream
is the same on every Python 3 release, so a seed names the same inputs
everywhere.
"""

from __future__ import annotations

import random

# the solve corpus is drawn once from this seed so that its answers can
# be stored in expected/solve.json; a run's --seed only shuffles it
SOLVE_CORPUS_SEED = 2101
SOLVE_RANDOM_ORDERS = (16, 20, 24)
SOLVE_RANDOM_DENSITIES = (0.15, 0.3)
SOLVE_RANDOM_PER_CELL = 10
SOLVE_PATH_CYCLE_ORDERS = range(8, 25)
SOLVE_HALF_GRAPH_INDICES = range(2, 17)

# census workload -> the order whose connected graphs it sweeps
CENSUS_ORDERS = {"census": 8, "census7": 7}
CENSUS_JOBS = 1

STREAM_ORDER = 10
STREAM_JOBS = 2
STREAM_SIZE = 3000
STREAM_HALF_GRAPH_COPIES = 5
# densities whose mix leaves roughly one graph in eight with open twins
STREAM_DENSITIES = (0.25, 0.35, 0.45, 0.55, 0.65)

# H_4 written in the labeling of its canonical graph6 record G?CilS:
# v_1..v_4 are vertices 6, 4, 2, 0 and w_1..w_4 are 1, 3, 5, 7
H4_CANONICAL_LABELS = (6, 4, 2, 0, 1, 3, 5, 7)
KNOWN_RECORDS = (("DhC", "P_5"), ("G?CilS", "H_4"), ("A_", "H_1"))


def graph6(adj: tuple[int, ...]) -> str:
    """graph6 record of a graph of order at most 62."""
    n = len(adj)
    if n > 62:
        raise ValueError("the benchmark writes orders up to 62 only")
    bits = [adj[col] >> row & 1 for col in range(1, n) for row in range(col)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        value = 0
        for bit in bits[i : i + 6]:
            value = value << 1 | bit
        out.append(chr(63 + value))
    return "".join(out)


def from_edges(n: int, edges) -> tuple[int, ...]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def path(n: int) -> tuple[int, ...]:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> tuple[int, ...]:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def half_graph(k: int) -> tuple[int, ...]:
    """H_k with v_i at index i - 1 and w_j at index k + j - 1."""
    return from_edges(2 * k, [(i, k + j) for i in range(k) for j in range(i, k)])


def relabel(adj: tuple[int, ...], perm) -> tuple[int, ...]:
    """The graph with vertex v renamed perm[v]."""
    rows = [0] * len(adj)
    for v, row in enumerate(adj):
        for u in range(len(adj)):
            if row >> u & 1:
                rows[perm[v]] |= 1 << perm[u]
    return tuple(rows)


def shuffle(rng: random.Random, items: list) -> None:
    """Fisher-Yates on rng.random(), stable across Python releases."""
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]


def gnp(rng: random.Random, n: int, p: float) -> tuple[int, ...]:
    return from_edges(
        n, [(u, v) for v in range(1, n) for u in range(v) if rng.random() < p]
    )


def is_connected(adj: tuple[int, ...]) -> bool:
    if not adj:
        return True
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in range(len(adj)):
            if frontier >> v & 1:
                reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


def is_locatable(adj: tuple[int, ...]) -> bool:
    """No isolated vertex and no two vertices with one open neighbourhood."""
    return all(adj) and len(set(adj)) == len(adj)


def is_old_set(adj: tuple[int, ...], s: int) -> bool:
    """Every trace N(v) & s is nonempty and no two traces are equal."""
    traces = [row & s for row in adj]
    return all(traces) and len(set(traces)) == len(traces)


def forced_partition(adj: tuple[int, ...]) -> tuple[int, int, int]:
    """(domination-forced, location-forced, unforced) vertex masks.

    v is domination-forced when some N(w) = {v}, location-forced when
    some pair has N(x) xor N(y) = {v}; unforced is everything else.
    """
    single = lambda mask: mask and not mask & (mask - 1)  # noqa: E731
    dom = 0
    for row in adj:
        if single(row):
            dom |= row
    loc = 0
    for x in range(len(adj)):
        for y in range(x + 1, len(adj)):
            diff = adj[x] ^ adj[y]
            if single(diff):
                loc |= diff
    full = (1 << len(adj)) - 1
    return dom, loc, full & ~(dom | loc)


def is_half_graph(adj: tuple[int, ...]) -> bool:
    """True iff the graph is H_k for k = n / 2.

    That is: a bipartition into sides A and B of k vertices each, no edge
    inside a side, and the neighbourhoods of A forming a chain of sizes
    1, 2, ..., k.
    """
    n = len(adj)
    if n == 0 or n % 2 or not is_connected(adj):
        return False
    side = [-1] * n
    side[0] = 0
    stack = [0]
    while stack:
        v = stack.pop()
        for u in range(n):
            if adj[v] >> u & 1:
                if side[u] < 0:
                    side[u] = 1 - side[v]
                    stack.append(u)
                elif side[u] == side[v]:
                    return False
    k = n // 2
    a_rows = sorted((adj[v] for v in range(n) if side[v] == 0), key=int.bit_count)
    if len(a_rows) != k:
        return False
    return all(
        row.bit_count() == i + 1 and (i == 0 or a_rows[i - 1] & ~row == 0)
        for i, row in enumerate(a_rows)
    )


def self_check() -> None:
    """Raise if the writer disagrees with records known from the literature."""
    built = {
        "P_5": path(5),
        "H_4": relabel(half_graph(4), H4_CANONICAL_LABELS),
        "H_1": half_graph(1),
    }
    for record, name in KNOWN_RECORDS:
        got = graph6(built[name])
        if got != record:
            raise AssertionError(f"graph6 writer: {name} gave {got!r}, want {record!r}")
    if not is_half_graph(built["H_4"]) or is_half_graph(path(8)):
        raise AssertionError("half-graph test is wrong on H_4 or P_8")


def solve_corpus(seed: int) -> list[tuple[str, str, tuple[int, ...]]]:
    """(record, name, adjacency) for every solve input, in --seed's order.

    The graphs themselves are fixed: locatable G(n, p) draws from
    SOLVE_CORPUS_SEED, then P_n, C_n and H_k.
    """
    rng = random.Random(SOLVE_CORPUS_SEED)
    corpus = []
    for n in SOLVE_RANDOM_ORDERS:
        for p in SOLVE_RANDOM_DENSITIES:
            drawn = 0
            while drawn < SOLVE_RANDOM_PER_CELL:
                adj = gnp(rng, n, p)
                if is_locatable(adj):
                    corpus.append((graph6(adj), f"G({n},{p})#{drawn}", adj))
                    drawn += 1
    for n in SOLVE_PATH_CYCLE_ORDERS:
        corpus.append((graph6(path(n)), f"P_{n}", path(n)))
        corpus.append((graph6(cycle(n)), f"C_{n}", cycle(n)))
    for k in SOLVE_HALF_GRAPH_INDICES:
        corpus.append((graph6(half_graph(k)), f"H_{k}", half_graph(k)))
    shuffle(random.Random(seed), corpus)
    return corpus


def stream_graphs(seed: int) -> list[tuple[int, ...]]:
    """Random connected order-10 graphs with relabeled H_5 copies mixed in."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < STREAM_SIZE - STREAM_HALF_GRAPH_COPIES:
        p = STREAM_DENSITIES[int(rng.random() * len(STREAM_DENSITIES))]
        adj = gnp(rng, STREAM_ORDER, p)
        if is_connected(adj):
            graphs.append(adj)
    for _ in range(STREAM_HALF_GRAPH_COPIES):
        perm = list(range(STREAM_ORDER))
        shuffle(rng, perm)
        at = int(rng.random() * (len(graphs) + 1))
        graphs.insert(at, relabel(half_graph(STREAM_ORDER // 2), perm))
    return graphs
