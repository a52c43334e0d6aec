"""Vertex cuts by exhaustive enumeration.

This module is the brute-force side of the library: predicates that say
what a subset of vertices does to a graph, subset-enumeration oracles for
connectivity and isolation-free connectivity, minimum-cut enumeration and
the super-connectivity test built on it. It deliberately shares nothing
with the max-flow connectivity in :mod:`lexiconn.graphs` beyond the Graph
type, so the two routes can check each other.

Terminology. A vertex cut is a subset whose removal disconnects the graph
or shrinks it to a single vertex (removing everything does not count). An
isolation-free cut, called a k1 cut throughout, is a vertex cut whose
removal disconnects the graph and leaves no isolated vertices; the least
size of such a cut is the k1 connectivity, infinite when no such cut
exists. A graph is super connected when every minimum vertex cut isolates
some vertex.

Every oracle and predicate here runs on one private kernel,
``_vertex_cuts``, which holds the module's only flood fill. The rule is
"enumerate by size then lex, first hit wins": subsets are visited by
size, then in lexicographic order, so the first hit is a minimum and
every result is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterator

from .graphs import INFINITY, ExtendedNat, Graph, is_complete, is_connected, vertex_set


@dataclass(frozen=True)
class CutCertificate:
    """What removing ``cut`` from a specific graph was observed to do."""

    cut: tuple[int, ...]
    disconnects: bool
    reduces_to_trivial: bool
    isolated_after: tuple[int, ...]
    is_minimum: bool

    def to_json(self) -> dict:
        return {
            "cut": list(self.cut),
            "disconnects": self.disconnects,
            "reduces_to_trivial": self.reduces_to_trivial,
            "isolated_after": list(self.isolated_after),
            "is_minimum": self.is_minimum,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CutCertificate":
        return cls(
            cut=tuple(obj["cut"]),
            disconnects=bool(obj["disconnects"]),
            reduces_to_trivial=bool(obj["reduces_to_trivial"]),
            isolated_after=tuple(obj["isolated_after"]),
            is_minimum=bool(obj["is_minimum"]),
        )


@dataclass(frozen=True)
class CutScan:
    """Everything one exhaustive subset sweep reports about a graph.

    ``kappa`` and ``kappa_cut`` are the connectivity and the first minimum
    vertex cut; ``k1`` and ``k1_cut`` the isolation-free counterparts,
    with ``k1_cut`` None when ``k1`` is infinite.
    """

    kappa: int
    kappa_cut: tuple[int, ...]
    k1: ExtendedNat
    k1_cut: tuple[int, ...] | None


def _isolated_mask(adj_bits, rem: int) -> int:
    mask = 0
    r = rem
    while r:
        b = r & -r
        r ^= b
        if not adj_bits[b.bit_length() - 1] & rem:
            mask |= b
    return mask


def _bits_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return tuple(out)


def _vertex_cuts(g: Graph, subsets) -> Iterator[tuple[tuple[int, ...], int, bool]]:
    """The enumeration kernel: every oracle and predicate here runs on it.

    For each subset, in the order given, whose removal is a vertex cut of
    ``g``, yields (subset, remaining mask, disconnects); a cut that does
    not disconnect leaves exactly one vertex. Removing every vertex is not
    a cut and is never yielded.
    """
    bits = g.adj_bits
    full = (1 << g.n) - 1
    for subset in subsets:
        removed = 0
        for v in subset:
            removed |= 1 << v
        rem = full ^ removed
        if not rem:
            continue
        comp = rem & -rem
        frontier = comp
        while frontier:
            reach = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                reach |= bits[b.bit_length() - 1]
            frontier = reach & rem & ~comp
            comp |= frontier
        if comp != rem:
            yield subset, rem, True
        elif rem & (rem - 1) == 0:
            yield subset, rem, False


def _certificate(g: Graph, cut, rem: int, disconnects: bool, is_minimum: bool) -> CutCertificate:
    """The certificate of a cut the kernel yielded; ``rem`` 0 records a
    subset that is not a cut, which neither trivializes nor isolates."""
    return CutCertificate(
        cut=cut,
        disconnects=disconnects,
        reduces_to_trivial=bool(rem) and not disconnects,
        isolated_after=_bits_to_tuple(_isolated_mask(g.adj_bits, rem)),
        is_minimum=is_minimum,
    )


def is_vertex_cut(g: Graph, cut) -> bool:
    """True when removing ``cut`` disconnects ``g`` or leaves one vertex.

    Removing all vertices is not a cut. Ids outside 0..n-1 raise.
    """
    if g.n == 0:
        raise ValueError("the empty graph has no cuts")
    cut = vertex_set(cut, n=g.n)
    return next(_vertex_cuts(g, (cut,)), None) is not None


def is_k1_vertex_cut(g: Graph, cut) -> bool:
    """True when removing ``cut`` disconnects ``g`` without isolating anyone."""
    if g.n == 0:
        raise ValueError("the empty graph has no cuts")
    cut = vertex_set(cut, n=g.n)
    for _, rem, disconnects in _vertex_cuts(g, (cut,)):
        return disconnects and not _isolated_mask(g.adj_bits, rem)
    return False


def cut_certificate(g: Graph, cut, kappa: int | None = None) -> CutCertificate:
    """Populate every observation flag for ``cut`` on ``g``.

    ``kappa`` short-circuits the is_minimum check when the caller already
    ran the connectivity oracle; otherwise the oracle runs here.
    """
    cut = vertex_set(cut, n=g.n)
    if kappa is None:
        kappa = vertex_connectivity_oracle(g)
    for _, rem, disconnects in _vertex_cuts(g, (cut,)):
        return _certificate(g, cut, rem, disconnects, is_minimum=len(cut) == kappa)
    # not a cut: nothing remains, or a connected graph on two or more
    # vertices, which has no isolated vertex
    return _certificate(g, cut, 0, False, is_minimum=False)


def _sweep(g: Graph, need_k1: bool):
    """One pass over subsets by size then lex order.

    Returns (kappa_cut, k1_cut), k1_cut None when absent or not requested.
    A k1 cut leaves at least two components of at least two vertices each,
    so sizes above n - 4 are never scanned for it.
    """
    n = g.n
    if n == 0:
        raise ValueError("the empty graph has no cuts")
    k1_bound = n - 4 if need_k1 else -1
    kappa_cut = k1_cut = None
    for size in range(n):
        for cut, rem, disconnects in _vertex_cuts(g, combinations(range(n), size)):
            if kappa_cut is None:
                kappa_cut = cut
            if size > k1_bound:
                break
            if disconnects and not _isolated_mask(g.adj_bits, rem):
                k1_cut = cut
                break
        if kappa_cut is not None and (k1_cut is not None or size >= k1_bound):
            break
    return kappa_cut, k1_cut


def scan_cuts(g: Graph) -> CutScan:
    """Run the combined connectivity / k1-connectivity sweep once."""
    kappa_cut, k1_cut = _sweep(g, need_k1=True)
    return CutScan(
        kappa=len(kappa_cut),
        kappa_cut=kappa_cut,
        k1=ExtendedNat(len(k1_cut)) if k1_cut is not None else INFINITY,
        k1_cut=k1_cut,
    )


def vertex_connectivity_oracle(g: Graph) -> int:
    """Connectivity by plain subset enumeration, smallest size first."""
    return len(_sweep(g, need_k1=False)[0])


def k1_connectivity(g: Graph) -> ExtendedNat:
    """Least size of an isolation-free cut, INFINITY when none exists."""
    return scan_cuts(g).k1


def minimum_k1_cut(g: Graph) -> tuple[int, ...] | None:
    """The first minimum isolation-free cut, None when k1 is infinite."""
    return scan_cuts(g).k1_cut


def _require_connected_non_complete(g: Graph, what: str) -> None:
    if not is_connected(g):
        raise ValueError(f"{what} requires a connected graph")
    if is_complete(g):
        raise ValueError(f"{what} requires a non-complete graph")


def _least_isolating(g: Graph, sizes) -> tuple[tuple[int, ...], int, bool, int]:
    """(cut, remaining mask, disconnects, isolated count) of the first cut
    over ``sizes`` leaving the fewest isolated vertices; stops at a cut
    leaving none. Connected non-complete graphs always have a cut."""
    best = None
    subsets = chain.from_iterable(combinations(range(g.n), size) for size in sizes)
    for cut, rem, disconnects in _vertex_cuts(g, subsets):
        count = bin(_isolated_mask(g.adj_bits, rem)).count("1")
        if best is None or count < best[3]:
            best = (cut, rem, disconnects, count)
            if count == 0:
                break
    return best


def enumerate_min_vertex_cuts(g: Graph, kappa: int | None = None) -> list[CutCertificate]:
    """All minimum vertex cuts of a connected non-complete graph, in
    lexicographic order, each with fully populated flags."""
    _require_connected_non_complete(g, "minimum-cut enumeration")
    if kappa is None:
        kappa = vertex_connectivity_oracle(g)
    return [
        _certificate(g, cut, rem, disconnects, is_minimum=True)
        for cut, rem, disconnects in _vertex_cuts(g, combinations(range(g.n), kappa))
    ]


def find_non_isolating_min_cut(g: Graph, kappa: int | None = None) -> tuple[int, ...] | None:
    """First minimum cut that disconnects without isolating anyone, or None.

    None means every minimum cut isolates a vertex, i.e. the graph is
    super connected.
    """
    _require_connected_non_complete(g, "super-connectivity testing")
    if kappa is None:
        kappa = vertex_connectivity_oracle(g)
    # leaving no isolated vertex implies disconnecting: a one-vertex remainder is isolated
    cut, _, _, count = _least_isolating(g, (kappa,))
    return cut if count == 0 else None


def is_super_connected(g: Graph) -> bool:
    """Every minimum vertex cut isolates a vertex.

    Disconnected graphs are not super connected by convention; complete
    graphs are, since their only cuts shrink the graph to one vertex.
    """
    if g.n == 0:
        raise ValueError("super connectivity of the empty graph is undefined")
    if not is_connected(g):
        return False
    if is_complete(g):
        return True
    return find_non_isolating_min_cut(g) is None


def select_optimal_min_cut(g: Graph, kappa: int | None = None) -> tuple[CutCertificate, int]:
    """Among the minimum vertex cuts, one leaving the fewest isolated
    vertices (ties go to the lexicographically smallest cut); also returns
    that minimum count."""
    _require_connected_non_complete(g, "optimal-cut selection")
    if kappa is None:
        kappa = vertex_connectivity_oracle(g)
    cut, rem, disconnects, count = _least_isolating(g, (kappa,))
    return _certificate(g, cut, rem, disconnects, is_minimum=True), count


def least_isolating_cut(g: Graph) -> tuple[tuple[int, ...], int]:
    """Over ALL vertex cuts of any size, one leaving the fewest isolated
    vertices, scanning by size then lex order with strict improvement.

    This is the alternative quantifier for the product k1 formula, where
    the cut is not required to be minimum. Exponential; meant for the
    small left factors the verification harness feeds it.
    """
    _require_connected_non_complete(g, "optimal-cut selection")
    cut, _, _, count = _least_isolating(g, range(g.n))
    return cut, count
