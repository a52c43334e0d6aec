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
some vertex: it is connected and the fewest isolated vertices a minimum
cut leaves is positive (1 for K_n, whose minimum cuts leave one vertex).

Every oracle and predicate here runs on one private kernel,
``_vertex_cuts``, which holds the module's only flood fill; the flood
stops once it has reached every remaining vertex. The rule is "enumerate
by size then lex, first hit wins": subsets are visited by size, then in
lexicographic order, so the first hit is a minimum and every result is
reproducible. Every minimum-cut query reads ``_min_cuts``, which ends
with the first size that has a cut and starts at 2 delta - n + 2 (at
most n - 1), as fewer removed vertices never disconnect a graph of least
degree delta (Chartrand and Harary, 1968).
``scan_cuts`` is the per-graph record: one call gives kappa and the first
minimum cut, k1 and the first k1 cut, and the first minimum cut leaving
the fewest isolated vertices with that count. It reads
``_optimal_min_cut``, one walk of the minimum cuts that stops at the
first one isolating nobody; only when none does are the larger sizes
walked for a k1 cut. ``_fewest_isolated``, which ``is_super_connected``
and ``lexprod`` read, is that walk's count alone. ``_is_k1_cut`` tests
one subset mask, for ``is_k1_vertex_cut`` and ``lexprod``'s lifted
witnesses.

The walk draws its subsets from a subset source, a function from a size
to the subsets of that size to try, in lex order. A subset is a bitmask,
bit v for vertex v, from the source through the kernel's yield; only the
cuts a query returns become vertex tuples. ``scan_cuts`` and every
public oracle draw all of them. ``_twin_scan`` draws only the unions of
whole twin classes, and returns exactly ``scan_cuts``' CutScan, cuts
included. Twins are vertices u, v with N(u) - v = N(v) - u; being twins
is an equivalence, and its classes are the twin classes. In a
non-complete graph every minimum cut and every minimum k1 cut is a union
of whole twin classes. Let S be one, u in S and v a twin of u outside S,
and put u back. If v has a neighbour w outside S, u is adjacent to w and
to nothing outside S that v's piece lacks, so u joins that piece and is
not isolated. Otherwise v is isolated in G - S, which a k1 cut rules
out; for a disconnecting set, u joins v's piece or forms its own. Either
way no two pieces merge and no vertex becomes isolated, so S - u is a
smaller cut of the same kind. A minimum cut of a non-complete graph
disconnects it, so this covers every minimum cut, and the class walk
meets every minimum cut and every minimum k1 cut in the lex walk's
order. Complete graphs are the one exception, as their cuts leave a
single vertex. The source takes the least undecided vertex's whole class
or skips that class: each set taking it comes before each set skipping
it in lex order, as the two agree below it. A product's right-factor
copies on two or three vertices always fall into twin classes, so its
walk is much shorter. ``_twin_scan`` walks them for a whole CutScan, and
``_witness_cut`` only as far as the one cut of it that a caller needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterator

from .graphs import INFINITY, ExtendedNat, Graph, _bits_to_tuple, is_complete, is_connected, min_degree, vertex_set


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
    ``super_connected``: the graph is connected (kappa > 0, or K1) and ``optimal_isolated`` > 0.
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


def _isolates(adj_bits, rem: int) -> bool:
    """Whether some vertex of ``rem`` has no neighbour in ``rem``; stops at the first."""
    r = rem
    while r:
        b = r & -r
        r ^= b
        if not adj_bits[b.bit_length() - 1] & rem:
            return True
    return False


def _vertex_cuts(g: Graph, subsets) -> Iterator[tuple[int, int, bool]]:
    """The enumeration kernel: every oracle and predicate here runs on it.

    ``subsets`` are vertex masks. For each, in the order given, whose
    removal is a vertex cut of ``g``, yields (subset mask, remaining mask,
    disconnects); a cut that does not disconnect leaves exactly one
    vertex. Removing every vertex is not a cut and is never yielded. The
    flood from the lowest remaining vertex stops as soon as ``left``, the
    remaining vertices not yet reached, is empty, without walking the
    vertices still queued in ``frontier``.
    """
    bits = g.adj_bits
    full = (1 << g.n) - 1
    for removed in subsets:
        rem = full ^ removed
        if not rem:
            continue
        frontier = rem & -rem
        left = rem ^ frontier
        while frontier and left:
            v = frontier.bit_length() - 1
            frontier ^= 1 << v
            reach = bits[v] & left
            left ^= reach
            frontier |= reach
        if left:
            yield removed, rem, True
        elif rem & (rem - 1) == 0:
            yield removed, rem, False


def _mask(cut: tuple[int, ...]) -> int:
    """The mask of a sorted, duplicate-free tuple of valid vertex ids."""
    return sum(1 << v for v in cut)


def _certificate(g: Graph, cut: tuple[int, ...], is_minimum: bool) -> CutCertificate:
    """What removing ``cut``, a valid vertex set, does to ``g``, read from
    one kernel pass over it; a subset that is not a cut neither
    disconnects, trivializes nor isolates, and is no minimum cut."""
    for _, rem, disconnects in _vertex_cuts(g, (_mask(cut),)):
        isolated = _bits_to_tuple(_isolated_mask(g.adj_bits, rem))
        return CutCertificate(cut, disconnects, not disconnects, isolated, is_minimum)
    return CutCertificate(cut, False, False, (), False)


def is_vertex_cut(g: Graph, cut) -> bool:
    """True when removing ``cut`` disconnects ``g`` or leaves one vertex.

    Removing all vertices is not a cut. Ids outside 0..n-1 raise.
    """
    if g.n == 0:
        raise ValueError("the empty graph has no cuts")
    cut = vertex_set(cut, n=g.n)
    return next(_vertex_cuts(g, (_mask(cut),)), None) is not None


def _is_k1_cut(g: Graph, mask: int) -> bool:
    """Whether removing the vertices of ``mask`` disconnects ``g`` without isolating anyone."""
    for _, rem, disconnects in _vertex_cuts(g, (mask,)):
        return disconnects and not _isolates(g.adj_bits, rem)
    return False


def is_k1_vertex_cut(g: Graph, cut) -> bool:
    """True when removing ``cut`` disconnects ``g`` without isolating anyone."""
    if g.n == 0:
        raise ValueError("the empty graph has no cuts")
    return _is_k1_cut(g, _mask(vertex_set(cut, n=g.n)))


def cut_certificate(g: Graph, cut) -> CutCertificate:
    """Populate every observation flag for ``cut`` on ``g``; is_minimum runs the oracle.
    Unused in the package, but public: a cut's observed effect, read by the demos."""
    cut = vertex_set(cut, n=g.n)
    return _certificate(g, cut, is_minimum=len(cut) == vertex_connectivity_oracle(g))


def _lex_subsets(g: Graph):
    """The lex subset source: size -> the mask of every subset of that
    size, in lex order; each mask sums a ``combinations`` draw of the
    vertices' bits, all in C."""
    bits = [1 << v for v in range(g.n)]
    return lambda size: map(sum, combinations(bits, size))


def _class_subsets(g: Graph):
    """The class-union subset source: size -> the masks of the unions of
    whole twin classes of that size, in lex order; ``_lex_subsets(g)``
    itself when ``g`` is complete or has no twins."""
    bits = g.adj_bits
    # two twins share their open neighbourhood when non-adjacent and their
    # closed one when adjacent, and no vertex has twins of both kinds
    open_nbhd: dict[int, int] = {}
    closed_nbhd: dict[int, int] = {}
    for v, row in enumerate(bits):
        open_nbhd[row] = open_nbhd.get(row, 0) | 1 << v
        closed_nbhd[row | 1 << v] = closed_nbhd.get(row | 1 << v, 0) | 1 << v
    if len(open_nbhd) == len(closed_nbhd) == g.n or is_complete(g):
        return _lex_subsets(g)
    # v's class is its open-neighbourhood group when that has two members, else its closed one
    twins = (c if (c := open_nbhd[row]) & (c - 1) else closed_nbhd[row | 1 << v] for v, row in enumerate(bits))
    # each class once, ordered by its least vertex, with its size
    classes = [(mask, mask.bit_count()) for mask in dict.fromkeys(twins)]
    # bit s of reach[i]: some union of classes[i:] has s vertices
    reach = [1] * (len(classes) + 1)
    for i in range(len(classes) - 1, -1, -1):
        reach[i] = reach[i + 1] | reach[i + 1] << classes[i][1]

    def walk(need: int):
        """Every class union of ``need`` vertices, in lex order: take the next
        class and stack the branch skipping it, when both can still reach
        ``need``, so every branch popped ends in a yield."""
        skips = [(0, need, 0)] if reach[0] >> need & 1 else []
        while skips:
            taken, need, i = skips.pop()
            while need:
                mask, size = classes[i]
                i += 1
                if reach[i] >> need & 1:
                    if size > need or not reach[i] >> (need - size) & 1:
                        continue
                    skips.append((taken, need, i))
                taken |= mask
                need -= size
            yield taken

    return walk


def _min_cuts(g: Graph, subsets) -> Iterator[tuple[int, int, bool]]:
    """The kernel's yields for the cuts that ``subsets`` draws of the first
    size that has any (n - 1 always does); no larger size is drawn, and no
    size below min(2 delta - n + 2, n - 1), with delta the least degree.

    Proof of that start: removing s < min(2 delta - n + 2, n - 1) vertices
    leaves two or more, and any two non-adjacent ones keep delta - s
    neighbours each among the n - s - 2 others; 2 (delta - s) exceeds that,
    so they share one. What is left is connected and not one vertex.
    """
    delta = min_degree(g) if g.n else 0
    for size in range(max(0, min(2 * delta - g.n + 2, g.n - 1)), g.n):
        cuts = _vertex_cuts(g, subsets(size))
        first = next(cuts, None)
        if first is not None:
            return chain((first,), cuts)
    raise ValueError("the empty graph has no cuts")


def _optimal_min_cut(g: Graph, subsets) -> tuple[int, int, int]:
    """(first minimum cut, first minimum cut leaving the fewest isolated
    vertices, that count), cuts as masks, in the order of ``subsets``; the
    walk stops at a cut leaving none."""
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


def _first_k1_cut(g: Graph, subsets, sizes) -> tuple[int, ...] | None:
    """The first k1 cut that ``subsets`` draws over ``sizes`` in turn, or
    None when none of them has one."""
    hits = _vertex_cuts(g, chain.from_iterable(map(subsets, sizes)))
    hit = next((cut for cut, rem, apart in hits if apart and not _isolates(g.adj_bits, rem)), None)
    return None if hit is None else _bits_to_tuple(hit)


def _walk(g: Graph, subsets) -> CutScan:
    """The sweep behind ``scan_cuts``, drawing its subsets from ``subsets``.

    The first pass tallies the isolated vertices each minimum cut leaves and
    stops at one leaving none: it disconnects, so it is the first k1 cut.
    Otherwise the second pass walks sizes kappa + 1 .. n - 4, as a k1 cut
    leaves two components of at least two vertices each. A connected graph
    (kappa > 0, or K1) is super connected when every minimum cut isolates.
    """
    first, optimal, optimal_isolated = _optimal_min_cut(g, subsets)
    kappa = first.bit_count()
    # each returned cut becomes a tuple once, and equal cuts share that tuple
    kappa_cut = _bits_to_tuple(first)
    optimal_cut = kappa_cut if optimal == first else _bits_to_tuple(optimal)
    k1_cut = optimal_cut if optimal_isolated == 0 else None
    if k1_cut is None:
        k1_cut = _first_k1_cut(g, subsets, range(kappa + 1, g.n - 3))
    return CutScan(
        kappa=kappa,
        kappa_cut=kappa_cut,
        k1=ExtendedNat(len(k1_cut)) if k1_cut is not None else INFINITY,
        k1_cut=k1_cut,
        optimal_cut=optimal_cut,
        optimal_isolated=optimal_isolated,
        super_connected=(kappa > 0 or g.n == 1) and optimal_isolated > 0,
    )


def scan_cuts(g: Graph) -> CutScan:
    """Run the combined connectivity / k1-connectivity sweep once, over
    every subset by size then lex order, so each cut is the first of its
    kind in that order."""
    return _walk(g, _lex_subsets(g))


def _twin_scan(g: Graph) -> CutScan:
    """``scan_cuts``' sweep over the unions of whole twin classes only, with
    the same CutScan."""
    return _walk(g, _class_subsets(g))


def _witness_cut(g: Graph, k1: bool, size: int, kappa: int) -> tuple[int, ...] | None:
    """``_twin_scan(g)``'s kappa_cut, or its k1_cut when ``k1``, from the
    same class walk stopped at that cut: the first minimum cut, or the
    first k1 cut over sizes ``kappa`` .. ``size`` (g's connectivity and k1
    as the caller knows them), which is where ``_walk``'s two passes find
    it. A smaller k1 cut is returned as found, and None when there is
    none, so a caller can tell that its size is wrong."""
    subsets = _class_subsets(g)
    if not k1:
        return _bits_to_tuple(next(_min_cuts(g, subsets))[0])
    return _first_k1_cut(g, subsets, range(kappa, size + 1))


def vertex_connectivity_oracle(g: Graph) -> int:
    """Connectivity by plain subset enumeration, smallest size first."""
    return next(_min_cuts(g, _lex_subsets(g)))[0].bit_count()


def k1_connectivity(g: Graph) -> ExtendedNat:
    """Least size of an isolation-free cut, INFINITY when none exists.
    Unused in the package, but public: the paper's k1, read by the demos and the benchmark."""
    return scan_cuts(g).k1


def enumerate_min_vertex_cuts(g: Graph) -> list[CutCertificate]:
    """All minimum vertex cuts of a connected non-complete graph, in
    lexicographic order, each with fully populated flags. Unused in the
    package, but public: the paper's evidence for super connectivity, read by the demos."""
    if not is_connected(g):
        raise ValueError("minimum-cut enumeration requires a connected graph")
    if is_complete(g):
        raise ValueError("minimum-cut enumeration requires a non-complete graph")
    return [_certificate(g, _bits_to_tuple(cut), is_minimum=True) for cut, _, _ in _min_cuts(g, _lex_subsets(g))]


def is_super_connected(g: Graph) -> bool:
    """Every minimum vertex cut isolates a vertex: connected and ``_fewest_isolated(g) > 0``.

    Disconnected graphs are not super connected by convention; complete
    graphs are, as every minimum cut of K_n leaves one isolated vertex.
    """
    if g.n == 0:
        raise ValueError("super connectivity of the empty graph is undefined")
    return is_connected(g) and _fewest_isolated(g) > 0


def _fewest_isolated(g: Graph) -> int:
    """``_optimal_min_cut``'s count: the fewest isolated vertices a minimum cut of ``g`` leaves."""
    return _optimal_min_cut(g, _lex_subsets(g))[2]
