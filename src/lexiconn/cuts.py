"""Vertex cuts by exhaustive enumeration.

This module is the brute-force side of the library: predicates that say
what a subset of vertices does to a graph, subset-enumeration oracles for
connectivity and isolation-free connectivity, minimum-cut enumeration and
the super-connectivity test built on it. Nothing here runs a max flow,
so it and the max-flow connectivity in :mod:`lexiconn.graphs` can check
each other.

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
every result is reproducible. Every minimum-cut query reads
``_min_cuts``, which ends with the first size that has a cut.
``scan_cuts`` is the per-graph record: one call gives kappa and the first
minimum cut, k1 and the first k1 cut, and the first minimum cut leaving
the fewest isolated vertices with that count. It and
``is_super_connected`` read ``_optimal_min_cut``, one walk of the minimum
cuts that stops at the first one isolating nobody; only when none does
are the larger sizes walked for a k1 cut.

The walk draws its subsets from a subset source, a function from a size
to the subsets of that size to try, in lex order. ``scan_cuts`` and every
public oracle draw all of them. ``_twin_scan`` draws fewer. Twins are
vertices u, v with N(u) - v = N(v) - u, and swapping two twins is an
automorphism, so it keeps whether a subset cuts, whether it disconnects
and how many vertices it isolates. A subset that takes a later twin but
not an earlier one becomes lex-smaller by the swap, so the lex-first cut
of every kind the walk looks for takes a prefix of each twin class.
``_twin_scan`` draws only those prefix subsets, and returns exactly
``scan_cuts``' CutScan, cuts included. A product's right-factor copies
on two or three vertices always fall into twin classes, so its walk is
much shorter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations
from typing import Iterator

from .graphs import INFINITY, ExtendedNat, Graph, _bits_to_tuple, is_complete, is_connected, vertex_set


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
    with ``k1_cut`` None when ``k1`` is infinite; ``optimal_cut`` is the first
    minimum cut leaving the fewest isolated vertices, ``optimal_isolated`` that count.
    ``super_connected`` is what ``is_super_connected`` says of the graph.
    """

    kappa: int
    kappa_cut: tuple[int, ...]
    k1: ExtendedNat
    k1_cut: tuple[int, ...] | None
    optimal_cut: tuple[int, ...]
    optimal_isolated: int
    super_connected: bool


def _isolated_mask(adj_bits, rem: int) -> int:
    mask = 0
    r = rem
    while r:
        b = r & -r
        r ^= b
        if not adj_bits[b.bit_length() - 1] & rem:
            mask |= b
    return mask


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


def cut_certificate(g: Graph, cut) -> CutCertificate:
    """Populate every observation flag for ``cut`` on ``g``; is_minimum runs the oracle."""
    cut = vertex_set(cut, n=g.n)
    kappa = vertex_connectivity_oracle(g)
    for _, rem, disconnects in _vertex_cuts(g, (cut,)):
        return _certificate(g, cut, rem, disconnects, is_minimum=len(cut) == kappa)
    # not a cut: nothing remains, or a connected graph on two or more
    # vertices, which has no isolated vertex
    return _certificate(g, cut, 0, False, is_minimum=False)


def _lex_subsets(g: Graph):
    """The lex subset source: size -> every subset of that size, in lex order."""
    return partial(combinations, range(g.n))


def _twin_subsets(g: Graph):
    """The twin-prefix subset source: size -> the subsets of that size, in
    lex order, that take each member's nearest earlier twin too, so a
    prefix of every twin class; ``_lex_subsets(g)`` itself when no vertex
    has an earlier twin."""
    bits = g.adj_bits
    # tail[v]: v and its later twins, the vertices that skipping v rules out
    tail = [1 << v for v in range(g.n)]
    for v in range(g.n - 1, 0, -1):
        for u in range(v - 1, -1, -1):
            if bits[u] & ~(1 << v) == bits[v] & ~(1 << u):
                tail[u] |= tail[v]
                break
    if all(t.bit_count() == 1 for t in tail):
        return _lex_subsets(g)

    def walk(taken: tuple[int, ...], need: int, allowed: int):
        """Every way, in lex order, to add ``need`` of the ``allowed``
        vertices, all above ``taken``, taking the least one before skipping it."""
        if not need:
            yield taken
        elif need <= allowed.bit_count():
            b = allowed & -allowed
            v = b.bit_length() - 1
            yield from walk(taken + (v,), need - 1, allowed ^ b)
            yield from walk(taken, need, allowed & ~tail[v])

    return partial(walk, (), allowed=(1 << g.n) - 1)


def _min_cuts(g: Graph, subsets) -> Iterator[tuple[tuple[int, ...], int, bool]]:
    """The kernel's yields for the cuts that ``subsets`` draws of the first
    size that has any (n - 1 always does); no larger size is drawn."""
    for size in range(g.n):
        cuts = _vertex_cuts(g, subsets(size))
        first = next(cuts, None)
        if first is not None:
            return chain((first,), cuts)
    raise ValueError("the empty graph has no cuts")


def _optimal_min_cut(g: Graph, subsets) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(first minimum cut, first minimum cut leaving the fewest isolated
    vertices, that count), in the order of ``subsets``; the walk stops at
    a cut leaving none."""
    hits = _min_cuts(g, subsets)
    first, rem, _ = next(hits)
    optimal, fewest = first, _isolated_mask(g.adj_bits, rem).bit_count()
    if fewest:
        for cut, rem, _ in hits:
            count = _isolated_mask(g.adj_bits, rem).bit_count()
            if count < fewest:
                optimal, fewest = cut, count
                if count == 0:
                    break
    return first, optimal, fewest


def _first_k1_cut(g: Graph, sizes, subsets) -> tuple[tuple[int, ...], int, bool] | None:
    """The kernel's hit for the first subset of ``sizes``, by size then in
    the order of ``subsets``, that disconnects ``g`` and isolates nobody;
    None when none does."""
    for cut, rem, disconnects in _vertex_cuts(g, chain.from_iterable(map(subsets, sizes))):
        if disconnects and not _isolated_mask(g.adj_bits, rem):
            return cut, rem, disconnects
    return None


def _walk(g: Graph, subsets) -> CutScan:
    """The sweep behind ``scan_cuts``, drawing its subsets from ``subsets``.

    The first pass tallies the isolated vertices each minimum cut leaves and
    stops at one leaving none: it disconnects, so it is the first k1 cut.
    Otherwise the second pass walks sizes kappa + 1 .. n - 4, as a k1 cut
    leaves two components of at least two vertices each. A connected graph
    (kappa > 0, or K1) is super connected when every minimum cut isolates.
    """
    kappa_cut, optimal_cut, optimal_isolated = _optimal_min_cut(g, subsets)
    k1_cut = optimal_cut if optimal_isolated == 0 else None
    if k1_cut is None:
        hit = _first_k1_cut(g, range(len(kappa_cut) + 1, g.n - 3), subsets)
        k1_cut = hit[0] if hit is not None else None
    return CutScan(
        kappa=len(kappa_cut),
        kappa_cut=kappa_cut,
        k1=ExtendedNat(len(k1_cut)) if k1_cut is not None else INFINITY,
        k1_cut=k1_cut,
        optimal_cut=optimal_cut,
        optimal_isolated=optimal_isolated,
        super_connected=(len(kappa_cut) > 0 or g.n == 1) and optimal_isolated > 0,
    )


def scan_cuts(g: Graph) -> CutScan:
    """Run the combined connectivity / k1-connectivity sweep once, over
    every subset by size then lex order, so each cut is the first of its
    kind in that order."""
    return _walk(g, _lex_subsets(g))


def _twin_scan(g: Graph) -> CutScan:
    """``scan_cuts``' sweep over the twin-prefix subsets only, with the same
    CutScan."""
    return _walk(g, _twin_subsets(g))


def vertex_connectivity_oracle(g: Graph) -> int:
    """Connectivity by plain subset enumeration, smallest size first."""
    return len(next(_min_cuts(g, _lex_subsets(g)))[0])


def k1_connectivity(g: Graph) -> ExtendedNat:
    """Least size of an isolation-free cut, INFINITY when none exists."""
    return scan_cuts(g).k1


def enumerate_min_vertex_cuts(g: Graph) -> list[CutCertificate]:
    """All minimum vertex cuts of a connected non-complete graph, in
    lexicographic order, each with fully populated flags."""
    if not is_connected(g):
        raise ValueError("minimum-cut enumeration requires a connected graph")
    if is_complete(g):
        raise ValueError("minimum-cut enumeration requires a non-complete graph")
    return [
        _certificate(g, cut, rem, disconnects, is_minimum=True)
        for cut, rem, disconnects in _min_cuts(g, _lex_subsets(g))
    ]


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
    # some minimum cut isolates nobody exactly when the fewest isolated is 0
    return _optimal_min_cut(g, _lex_subsets(g))[2] > 0
