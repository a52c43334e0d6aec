"""Reading and writing graphs.

Two formats are supported: a line-oriented edge list and graph6. Both
stop at MAX_VERTICES, the largest vertex count graph6 can encode.

Edge list: a header line "n m" followed by m lines "u v" with
0 <= u, v < n and u != v. Lines starting with '#' and blank lines are
ignored. Duplicate edge lines are idempotent.

graph6: the compact printable-ASCII encoding of small undirected graphs.
The upper triangle of the adjacency matrix is read column by column into
a bit stream, padded with zeros to a multiple of six, and every six bits
become one byte offset by 63. A vertex count above 62 takes the long form,
'~' and three such bytes. The parser rejects nonzero padding and a long
form for a count of 62 or less, so each graph has one spelling.
"""

from __future__ import annotations

import os

from .graphs import Graph


MAX_VERTICES = 258047


class GraphParseError(ValueError):
    """Graph text that cannot be parsed; the message names the bad line."""


def parse_edge_list(text: str) -> Graph:
    header: tuple[int, int] | None = None
    header_line = 0
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise GraphParseError(f"line {lineno}: header must be 'n m', got {line!r}")
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: header must be two integers, got {line!r}") from None
            if n < 0 or m < 0:
                raise GraphParseError(f"line {lineno}: header values must be non-negative")
            if n > MAX_VERTICES:
                raise GraphParseError(f"line {lineno}: at most {MAX_VERTICES} vertices are supported, got {n}")
            header = (n, m)
            header_line = lineno
            continue
        n, m = header
        if len(edges) == m:
            raise GraphParseError(f"line {lineno}: more than the {m} edges announced in the header")
        if len(fields) != 2:
            raise GraphParseError(f"line {lineno}: edge must be 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: edge must be two integers, got {line!r}") from None
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop {u} {v}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {lineno}: vertex id out of range 0..{n - 1}")
        edges.append((u, v))
    if header is None:
        raise GraphParseError("line 1: missing 'n m' header")
    n, m = header
    if len(edges) != m:
        raise GraphParseError(
            f"line {header_line}: header announced {m} edges but {len(edges)} were given"
        )
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


_G6_HEADER = ">>graph6<<"


def _g6_encode_count(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= MAX_VERTICES:
        return "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    raise ValueError(f"graph6 supports at most {MAX_VERTICES} vertices here, got {n}")


def serialize_graph6(g: Graph) -> str:
    """Bit-exact graph6: upper triangle by columns, 6-bit chunks offset by 63."""
    out = [_g6_encode_count(g.n)]
    val = 0
    nbits = 0
    for j in range(1, g.n):
        col = g.adj_bits[j]
        for i in range(j):
            val = (val << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + val))
                val = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (val << (6 - nbits))))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise GraphParseError("empty graph6 string")
    if "\n" in s:
        raise GraphParseError("graph6 text has more than one line; a file holds one graph")
    vals = []
    for ch in s:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise GraphParseError(f"invalid graph6 character {ch!r}")
        vals.append(v)
    if vals[0] == 63:
        if len(vals) >= 2 and vals[1] == 63:
            raise GraphParseError(f"graph6 vertex counts above {MAX_VERTICES} are not supported")
        if len(vals) < 4:
            raise GraphParseError("truncated graph6 vertex count")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        if n <= 62:
            raise GraphParseError(f"graph6 spells a vertex count of {n} in one character, not the long form")
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) < need:
        raise GraphParseError(f"truncated graph6 bit stream: need {need} data characters, got {len(body)}")
    if len(body) > need:
        raise GraphParseError(f"trailing data after graph6 bit stream ({len(body) - need} extra characters)")
    pad = 6 * need - n * (n - 1) // 2
    if pad and body[-1] & ((1 << pad) - 1):
        raise GraphParseError(f"nonzero padding bits in graph6 bit stream: the last {pad} bits must be 0")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (body[k // 6] >> (5 - k % 6)) & 1:
                edges.append((i, j))
            k += 1
    return Graph(n, edges)


def load_graph(path: str, fmt: str | None = None) -> Graph:
    """Read a graph file; the format is sniffed from the extension
    (.g6 or .el) unless ``fmt`` ("g6" or "el") overrides it."""
    if fmt is None:
        ext = os.path.splitext(path)[1].lower()
        if ext == ".g6":
            fmt = "g6"
        elif ext == ".el":
            fmt = "el"
        else:
            raise ValueError(
                f"cannot determine format of {path!r} from its extension; pass fmt='g6' or fmt='el'"
            )
    if fmt not in ("g6", "el"):
        raise ValueError(f"unknown graph format {fmt!r}")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_graph6(text) if fmt == "g6" else parse_edge_list(text)
