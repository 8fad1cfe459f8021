"""Bitset-backed simple graphs and the structural predicates used throughout.

Vertices of an order-n graph are the integers 0..n-1, and every set of
vertices is an int whose bit v stands for vertex v.  Neighbourhoods,
solver states, and certificates all share this one currency, so set
algebra is plain word arithmetic: union is ``|``, intersection ``&``,
symmetric difference ``^``, cardinality ``int.bit_count``.  Python ints
are unbounded, so no graph order needs special casing.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = [
    "Graph",
    "VertexSet",
    "NotLocatableError",
    "mask_of",
    "iter_bits",
    "vertices_of",
    "from_edges",
    "open_twins",
    "is_old_set",
    "is_locatable",
    "is_connected",
    "induced_subgraph",
    "disjoint_union",
    "canonical_form",
    "CANONICAL_ORDER_LIMIT",
]

# A set of vertices, encoded one bit per vertex.
VertexSet = int


def mask_of(vertices: Iterable[int]) -> VertexSet:
    """Pack an iterable of vertex indices into a vertex-set mask."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def iter_bits(mask: VertexSet) -> Iterator[int]:
    """Yield the vertices of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertices_of(mask: VertexSet) -> list[int]:
    """Unpack a mask into a sorted list of vertex indices."""
    return list(iter_bits(mask))


class Graph:
    """Immutable simple graph on vertex set {0, ..., n-1}.

    ``adj[v]`` is the open neighbourhood N(v) as a vertex-set mask.  The
    adjacency tuple fully determines the graph; equality and hashing are
    label-sensitive (use :func:`canonical_form` to compare up to
    isomorphism).
    """

    __slots__ = ("n", "adj")

    n: int
    adj: tuple[VertexSet, ...]

    def __init__(self, n: int, adj: Iterable[VertexSet]):
        adj = tuple(adj)
        if n < 0:
            raise ValueError("graph order must be nonnegative")
        if len(adj) != n:
            raise ValueError(f"expected {n} adjacency masks, got {len(adj)}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"neighbourhood of {v} mentions a vertex >= {n}")
            if row >> v & 1:
                raise ValueError(f"vertex {v} has a self-loop")
            for u in iter_bits(row):
                if not adj[u] >> v & 1:
                    raise ValueError(f"adjacency is not symmetric at ({u}, {v})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # immutability guard breaks slot-based pickling; rebuild instead,
        # through the validating constructor, since the package itself
        # never unpickles a graph and the bytes may come from anywhere
        return (Graph, (self.n, self.adj))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        return [
            (u, v)
            for u in range(self.n)
            for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1))
        ]


def _graph(n: int, adj: tuple[VertexSet, ...]) -> Graph:
    """Trusted constructor: no validation.

    Only for rows built inside the package, which are symmetric, loopless
    and in range by construction (the graph6 decoder's too); other
    outside input goes through Graph().
    """
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build an order-n graph from an edge list.

    Duplicate edges collapse; self-loops and endpoints outside 0..n-1 are
    rejected.
    """
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) leaves the vertex range 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def open_twins(g: Graph) -> list[tuple[int, int]]:
    """All pairs u < v with N(u) = N(v), sorted lexicographically.

    Open twins are never separated by any vertex subset, so a graph with
    such a pair has no OLD set.
    """
    by_nbhd: dict[VertexSet, list[int]] = {}
    for v in range(g.n):
        by_nbhd.setdefault(g.adj[v], []).append(v)
    pairs = [
        (u, v)
        for group in by_nbhd.values()
        for i, u in enumerate(group)
        for v in group[i + 1 :]
    ]
    pairs.sort()
    return pairs


def is_old_set(g: Graph, s: VertexSet) -> bool:
    """True iff s is total dominating and all traces N(v) & s are distinct."""
    seen = set()
    for row in g.adj:
        trace = row & s
        if trace == 0 or trace in seen:
            return False
        seen.add(trace)
    return True


def is_locatable(g: Graph) -> bool:
    """True iff the whole vertex set is an OLD set of g.

    Its traces are the neighbourhoods themselves, so this holds exactly
    when g has no isolated vertex and no open twins, and these are the
    graphs that admit any OLD set (an OLD set's supersets are OLD sets
    too).  The order-0 graph is vacuously locatable.
    """
    return _locatable_rows(g) is not None


def _locatable_rows(g: Graph) -> set[VertexSet] | None:
    """The set of g's rows when g is locatable, else None.

    V's traces are the rows, so V is an OLD set exactly when no row is
    empty and no two rows are equal, that is when the set of rows holds
    n nonzero members.
    """
    rows = set(g.adj)
    if 0 in rows or len(rows) < g.n:
        return None
    return rows


class NotLocatableError(ValueError):
    """The graph has no OLD set; carries the obstructions found."""

    def __init__(self, g: Graph):
        self.isolated = [v for v in range(g.n) if g.adj[v] == 0]
        self.twins = open_twins(g)
        parts = []
        if self.isolated:
            parts.append("isolated vertices " + str(self.isolated))
        if self.twins:
            parts.append("open twins " + str(self.twins))
        super().__init__("no OLD set exists: " + "; ".join(parts))


def _closure(g: Graph, seed: VertexSet, within: VertexSet = -1) -> VertexSet:
    """Union of seed with everything reachable from it inside within.

    within defaults to every vertex; seed must lie inside it.
    """
    reached = seed
    frontier = seed
    while frontier:
        grow = 0
        for v in iter_bits(frontier):
            grow |= g.adj[v]
        frontier = grow & within & ~reached
        reached |= frontier
    return reached


def is_connected(g: Graph) -> bool:
    """True iff g has at most one connected component (so also for n <= 1)."""
    if g.n <= 1:
        return True
    return _closure(g, 1) == (1 << g.n) - 1


def component_masks(g: Graph, within: VertexSet = -1) -> list[VertexSet]:
    """Vertex masks of the connected components, ordered by least vertex.

    With within, the components of the subgraph that within induces.
    """
    masks = []
    remaining = (1 << g.n) - 1 & within
    while remaining:
        seed = remaining & -remaining
        comp = _closure(g, seed, within)
        masks.append(comp)
        remaining &= ~comp
    return masks


def induced_subgraph(g: Graph, mask: VertexSet) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on the vertices of mask.

    Returns (subgraph, kept) where kept[i] is the original label of the
    subgraph's vertex i; kept is increasing.
    """
    if mask & ~((1 << g.n) - 1):
        raise ValueError("mask mentions a vertex outside the graph")
    kept = vertices_of(mask)
    index = {v: i for i, v in enumerate(kept)}
    rows = []
    for v in kept:
        row = 0
        for u in iter_bits(g.adj[v] & mask):
            row |= 1 << index[u]
        rows.append(row)
    return Graph(len(kept), rows), tuple(kept)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; g2's vertices are shifted up by g1.n."""
    shifted = tuple(row << g1.n for row in g2.adj)
    return Graph(g1.n + g2.n, g1.adj + shifted)


# ---------------------------------------------------------------------------
# Canonical form


# Orders above this need an explicit opt-in: the labeling search is
# exponential in the worst case and meant for the small-graph regime.
CANONICAL_ORDER_LIMIT = 10


def _g6_bytes(n: int, adj: tuple[VertexSet, ...]) -> bytes:
    """Raw graph6 encoding of an adjacency tuple (no trailing newline).

    Size comes first: one byte n+63 for n <= 62, then the '~' and '~~'
    big-endian forms for larger n.  The upper triangle follows in column
    major order, packed big-endian six bits per byte, each offset by 63,
    with zero padding to a byte boundary.
    """
    out = bytearray()
    if n <= 62:
        out.append(63 + n)
    elif n <= 258047:
        out.append(126)
        out.extend(63 + (n >> shift & 63) for shift in (12, 6, 0))
    elif n <= 68719476735:
        out.extend((126, 126))
        out.extend(63 + (n >> shift & 63) for shift in (30, 24, 18, 12, 6, 0))
    else:
        raise ValueError("graph6 cannot encode an order above 2^36 - 1")
    buf = 0
    nbits = 0
    for col in range(1, n):
        for row in range(col):
            buf = buf << 1 | adj[col] >> row & 1
            nbits += 1
            if nbits == 6:
                out.append(63 + buf)
                buf = 0
                nbits = 0
    if nbits:
        out.append(63 + (buf << (6 - nbits)))
    return bytes(out)


def _degree_classes(g: Graph) -> dict[int, list[int]]:
    """Map each degree of g to its vertices, in increasing order."""
    classes: dict[int, list[int]] = {}
    for v, row in enumerate(g.adj):
        classes.setdefault(row.bit_count(), []).append(v)
    return classes


def _twin_masks(g: Graph, classes: dict[int, list[int]]) -> list[VertexSet]:
    """twin[v] marks every u != v whose swap with v is an automorphism.

    That holds exactly when N(u) - v = N(v) - u: equal neighbourhoods
    (open twins) or equal-after-removing-each-other plus the edge uv
    (closed twins).  Either way u and v have the same degree, so only
    pairs within one of classes, g's _degree_classes, are compared.
    """
    adj = g.adj
    twin = [0] * g.n
    for group in classes.values():
        for i, u in enumerate(group):
            for v in group[i + 1 :]:
                if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                    twin[u] |= 1 << v
                    twin[v] |= 1 << u
    return twin


def canonical_form(g: Graph, max_order: int = CANONICAL_ORDER_LIMIT) -> bytes:
    """A byte string equal for two graphs iff they are isomorphic.

    The certificate is the graph6 encoding of the least adjacency matrix
    obtainable by relabeling, minimised over the labelings that list
    vertices in nondecreasing degree order.  Degree profiles are
    isomorphism-invariant, so restricting to that candidate set keeps
    the certificate complete while cutting the search sharply.

    The search walks labelings depth first, one position at a time,
    comparing the next adjacency column against the best certificate
    found so far and pruning as soon as the prefix is beaten.  Vertices
    interchangeable by a transposition (twins) are tried once per
    position.  Raises ValueError beyond max_order rather than stalling.
    Nothing is cached on g: each call searches afresh.

    Along the way the search proves automorphisms: a leaf that ties the
    best certificate differs from the best leaf by one.  Pruned subtrees
    hold no best leaf, and a skipped one is a visited subtree's image
    under a twin swap, so every best leaf is reached from the first
    through tied leaves and twin swaps.  Twins form classes (open and
    closed twins never share a vertex), and the swaps of consecutive
    members of each class generate all of its swaps, so these and the
    tied leaves generate the whole automorphism group.  The enumeration
    needs that whole group: it extends each parent once per orbit of
    neighbourhoods, and a child that the orbit rule must decide is kept
    only when its new vertex shares an orbit with the chosen deletion.
    """
    if g.n > max_order:
        raise ValueError(
            f"canonical_form on order {g.n} exceeds max_order={max_order}; "
            "raise max_order to opt in"
        )
    canon = _canonical_labeling(g)[0]
    return _g6_bytes(canon.n, canon.adj)


def _canonical_labeling(
    g: Graph,
) -> tuple[Graph, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """g canonically relabeled, generators of its automorphism group, and
    the canonical label of each vertex of g.

    A generator p maps vertex i of the relabeled graph to p[i]; graphs
    of order <= 1 get none.  Vertex v of g is vertex label[v] of the
    relabeled graph.  No order limit applies; canonical_form holds that
    gate.
    """
    n = g.n
    adj = g.adj
    if n <= 1:
        return g, (), tuple(range(n))

    classes = _degree_classes(g)
    twin = _twin_masks(g, classes)
    # the vertices that may fill each slot: its degree class, in
    # nondecreasing degree order
    slot_class = [classes[d] for d in sorted(classes) for _ in classes[d]]

    placed: list[int] = []
    cols = [0] * n
    best: list[int] | None = None
    best_perm: list[int] = []
    # automorphisms of g in its own labels, from tied leaves
    tied: list[dict[int, int]] = []
    # bumped on every best improvement; lets an ancestor notice that the
    # current prefix now matches best exactly
    version = 0

    def descend(slot: int, used: VertexSet, tight: bool) -> None:
        # used is the mask of placed
        nonlocal best, best_perm, version
        if slot == n:
            if best is None or not tight:
                best = cols.copy()
                best_perm = placed.copy()
                version += 1
            else:
                # same matrix as best, so best_perm[i] -> placed[i] is an
                # automorphism
                tied.append(dict(zip(best_perm, placed)))
            return
        ranked = []
        for v in slot_class[slot]:
            if used >> v & 1:
                continue
            col = 0
            row = adj[v]
            for u in placed:
                col = col << 1 | row >> u & 1
            ranked.append((col, v))
        ranked.sort()
        tried = 0
        for col, v in ranked:
            if twin[v] & tried:
                # v's subtree is a tried twin's under their swap
                continue
            tried |= 1 << v
            if best is not None and tight:
                if col > best[slot]:
                    break
                deeper_tight = col == best[slot]
            else:
                deeper_tight = False
            cols[slot] = col
            placed.append(v)
            mark = version
            descend(slot + 1, used | 1 << v, deeper_tight)
            placed.pop()
            if version != mark:
                # best now extends this very prefix
                tight = True
        return

    descend(0, 0, False)
    del descend  # its closure cell refers to it: one reference cycle a call
    index = {v: slot for slot, v in enumerate(best_perm)}
    rows = [0] * n
    for slot, v in enumerate(best_perm):
        for u in iter_bits(adj[v]):
            rows[slot] |= 1 << index[u]
    canon = tuple(rows)
    gens = {tuple(index[image[v]] for v in best_perm) for image in tied}
    # each twin class's symmetric group, from the swaps of consecutive
    # members: u with the least twin above it
    for u in range(n):
        above = twin[u] >> u + 1 << u + 1
        if above:
            v = (above & -above).bit_length() - 1
            p = list(range(n))
            p[index[u]], p[index[v]] = index[v], index[u]
            gens.add(tuple(p))
    label = tuple(index[v] for v in range(n))
    return _graph(n, canon), tuple(sorted(gens)), label
