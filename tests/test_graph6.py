"""graph6 codec: bit-exact encoding, strict parsing."""

from __future__ import annotations

import random

from oldset import (
    Graph,
    GraphFormatError,
    from_edges,
    parse_graph6,
    to_graph6,
)


def _rejects(record: str) -> None:
    try:
        parse_graph6(record)
    except GraphFormatError:
        return
    raise AssertionError(f"accepted malformed record {record!r}")


def test_parse_k2():
    # 'A' = order 2; '_' = 95 -> 32 -> bit (0,1) set, padding clear
    g = parse_graph6("A_")
    assert g == from_edges(2, [(0, 1)])


def test_encode_k2():
    assert to_graph6(from_edges(2, [(0, 1)])) == "A_"


def test_order_zero():
    assert to_graph6(Graph(0, ())) == "?"
    assert parse_graph6("?").n == 0


def test_c4_round_trip():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert parse_graph6(to_graph6(g)) == g


def test_trailing_newline_tolerated():
    assert parse_graph6("A_\n") == from_edges(2, [(0, 1)])
    assert parse_graph6("A_\r\n") == from_edges(2, [(0, 1)])


def test_rejects_malformed_records():
    _rejects("")
    _rejects("A")          # order 2 needs one data byte
    _rejects("A_X")        # trailing garbage
    _rejects("A!")         # byte below 63
    _rejects("A\x7f")      # byte above 126
    _rejects("Ä_")         # not ASCII
    _rejects("A@")         # nonzero padding bits for n=2
    _rejects("~??A_")      # n=2 must not use the 3-byte size form
    _rejects("~~??????A_")  # nor the 6-byte form
    _rejects("~?")         # truncated 3-byte size prefix
    _rejects("~~???")      # truncated 6-byte size prefix


def test_multibyte_size_round_trip():
    rng = random.Random(63)
    for n in (63, 64, 100):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.05
        ]
        g = from_edges(n, edges)
        record = to_graph6(g)
        assert record.startswith("~") and not record.startswith("~~")
        assert parse_graph6(record) == g


def test_random_round_trips_both_directions():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(0, 12)
        g = from_edges(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < rng.choice([0.1, 0.5, 0.9])
            ],
        )
        record = to_graph6(g)
        parsed = parse_graph6(record)
        assert parsed == g
        assert to_graph6(parsed) == record
        # parse_graph6 skips Graph's checks, so its rows must pass them
        assert Graph(parsed.n, parsed.adj) == parsed
