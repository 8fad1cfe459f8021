"""Header-less graph6 records.

One record encodes one simple graph: a size prefix, then the upper
triangle of the adjacency matrix in column-major order ((0,1), (0,2),
(1,2), (0,3), ...), packed big-endian six bits per printable byte with
offset 63 and zero padding.  The size prefix is a single byte n+63 for
n <= 62, '~' plus three bytes for n <= 258047, and '~~' plus six bytes
beyond that; each size must use its shortest form.  Parsing is strict:
anything malformed raises :class:`GraphFormatError` instead of guessing.

Decoding does one step per edge, not one per matrix bit: a table lists
the set-bit offsets of each 6-bit value, and the column bounds of the
upper triangle move forward as the set positions rise, so a position
becomes a (column, row) pair without a per-order table.  The padding
check runs before the decode, so a set padding bit is reported as such
and never read as a matrix position past the last column.
"""

from __future__ import annotations

from .graphs import Graph, _g6_bytes, _graph

__all__ = ["GraphFormatError", "parse_graph6", "to_graph6"]


class GraphFormatError(ValueError):
    """A graph6 record that cannot be decoded."""


# _SET_BITS[v]: offsets of the set bits of the 6-bit value v, counted
# from its most significant bit as graph6 packs them
_SET_BITS = tuple(tuple(i for i in range(6) if v >> 5 - i & 1) for v in range(64))


# the bytes a record may hold, 63..126
_VALID = bytes(range(63, 127))


def _fail(record: str, reason: str) -> GraphFormatError:
    shown = record if len(record) <= 40 else record[:37] + "..."
    return GraphFormatError(f"bad graph6 record {shown!r}: {reason}")


def parse_graph6(record: str) -> Graph:
    """Decode one graph6 record, tolerating only a trailing newline.

    Rejects bytes outside the printable range 63..126, non-minimal size
    prefixes, truncated or overlong data sections, and nonzero padding
    bits.
    """
    text = record.rstrip("\r\n")
    if not text:
        raise _fail(record, "empty record")
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError:
        raise _fail(text, "non-ASCII byte") from None
    # one C pass deletes the valid bytes; only a rejection looks for the
    # first that is left
    if data.translate(None, _VALID):
        byte = next(b for b in data if not 63 <= b <= 126)
        raise _fail(text, f"byte {byte} outside the graph6 range 63..126")

    if data[0] != 126:
        n = data[0] - 63
        body = data[1:]
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise _fail(text, "truncated 3-byte size prefix")
        n = 0
        for byte in data[1:4]:
            n = n << 6 | byte - 63
        if n <= 62:
            raise _fail(text, f"order {n} must use the 1-byte size prefix")
        body = data[4:]
    else:
        if len(data) < 8:
            raise _fail(text, "truncated 6-byte size prefix")
        n = 0
        for byte in data[2:8]:
            n = n << 6 | byte - 63
        if n <= 258047:
            raise _fail(text, f"order {n} must use a shorter size prefix")
        body = data[8:]

    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise _fail(
            text, f"order {n} needs {expected} data bytes, found {len(body)}"
        )

    # before the decode, so that a set padding bit never reads as a
    # matrix position past the last column
    if nbits % 6 and body[-1] - 63 & (1 << 6 - nbits % 6) - 1:
        raise _fail(text, "nonzero padding bits")

    # one step per set bit: position p is (col, p - start) for the
    # column bounds start <= p < end, which only move forward
    rows = [0] * n
    col, start, end = 1, 0, 1
    pos = 0
    for byte in body:
        for offset in _SET_BITS[byte - 63]:
            p = pos + offset
            while p >= end:
                col += 1
                start = end
                end += col
            row = p - start
            rows[col] |= 1 << row
            rows[row] |= 1 << col
        pos += 6
    # symmetric, loopless and in range by construction
    return _graph(n, tuple(rows))


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 record (no trailing newline).

    Round-trips: parse_graph6(to_graph6(g)) == g, and re-encoding a
    parsed record reproduces it byte for byte.
    """
    return _g6_bytes(g.n, g.adj).decode("ascii")
