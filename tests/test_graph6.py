"""graph6 codec: bit-exact encoding, strict parsing."""

from __future__ import annotations

import random

import pytest

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


def _record(n: int, body: list[int]) -> str:
    return chr(63 + n) + "".join(chr(63 + value) for value in body)


def _layout(n: int) -> tuple[int, int]:
    """(data bytes, padding bits in the last one) of an order-n record."""
    nbits = n * (n - 1) // 2
    return (nbits + 5) // 6, -nbits % 6


def test_every_set_padding_value_is_a_format_error():
    # a set padding bit would name a matrix position past the last
    # column, so it must be caught before any position is decoded
    for n in range(2, 13):
        size, pad = _layout(n)
        if not pad:
            continue
        data_mask = 63 & ~((1 << pad) - 1)
        for fill in (0, 63):
            for padding in range(1, 1 << pad):
                record = _record(n, [fill] * (size - 1) + [fill & data_mask | padding])
                with pytest.raises(GraphFormatError, match="nonzero padding bits"):
                    parse_graph6(record)


def test_all_ones_body_decodes_to_the_complete_graph():
    # every data bit set reaches every offset of every 6-bit value
    for n in range(13):
        size, pad = _layout(n)
        body = [63] * size
        if pad:
            body[-1] &= 63 & ~((1 << pad) - 1)
        record = _record(n, body)
        complete = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        assert parse_graph6(record) == complete
        assert to_graph6(complete) == record


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
