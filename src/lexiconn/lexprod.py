"""Lexicographic products and their closed-form connectivity rules.

The product of a left factor on n1 vertices and a right factor on m
vertices lives on n1 * m vertices indexed row-major: the copy of right
vertex j inside left vertex i is the flat id i * m + j. Two product
vertices are adjacent when their left coordinates are adjacent, or the
left coordinates agree and the right coordinates are adjacent: the
mask of copy j in row i is the full rows of i's neighbours or j's mask
shifted into row i, and products are built from these masks. With two
or more left vertices the product is connected exactly when the left
factor is (K1 by G2 is G2); it is not commutative in general.

Closed-form rules implemented here, each labeled by the branch string it
reports. Each rule is one private function returning (value, branch), in
lex_super_connected's order, which the lex_* functions and the harness
both read; ``_kappa_rule``'s branch means nothing for a disconnected left
factor, where the value is 0.

* connectivity of the product: kappa(left) * m for connected non-complete
  left factors, and (n - 1) * m + kappa(right) when the left factor is
  the complete graph on n vertices.
* k1 (isolation-free) connectivity of the product, dispatching on how the
  left factor's k1 compares with its connectivity: "thm22" when they are
  equal, "thm23" for the strictly-between-finite case, "cor24" when the
  left factor has no isolation-free cut at all. They read only the left
  factor's scan: kappa, k1 and the fewest isolated vertices a cut leaves.
  A complete left factor on n vertices gives "complete_left", exactly.
* super connectivity of the product, exact from the factors alone: over
  a connected non-complete left factor it holds exactly when the left
  factor is super connected and the right factor has an isolated vertex
  ("iso_m1", "part1", "part2", "part3", "left_not_super"); a complete
  left factor gives "complete_left".

Every finite k1 answer attaches a witness cut built by lifting factor
cuts into the product. Under a non-complete left factor the answer is the
rule's value when the witness has exactly that many vertices and checks
out on the product; otherwise the answer comes from the brute-force
oracle, labeled "oracle_fallback" (a k1-only label). As G1 by K1 is G1,
there the witness is checked on G1 and a fallback reads the left
factor's scan. The check cannot fail when the right factor has an edge.
Lift a disconnecting cut C of the left factor: each row outside C that C
does not strand has a neighbour row outside C, so no copy in it is
isolated; each stranded row keeps the right factor minus its isolated
vertices, non-empty and isolation-free; and G1 - C is disconnected, so
two pieces remain. Only an edgeless right factor E_m falls back, and
there k1(G1 by E_m) = m k1(G1) for every G1, infinite when k1(G1) is.
The rows of a k1 cut C of G1 are a k1 cut of the product, which they
leave as (G1 - C) by E_m. Conversely, let S be a k1 cut of the product
and R the rows it takes whole. Every other row keeps a copy, and two
kept copies are adjacent exactly when their rows are. So a row isolated
in G1 - R would leave an isolated copy, and as every piece of G1 - R
then has an edge, the kept copies of each piece form one piece of the
product: G1 - R is disconnected and isolates nobody, and
|S| >= m |R| >= m k1(G1). A minimum S is thus whole rows, and lifting
keeps lex order, so the product's first k1 cut is the rows of G1's first
k1 cut. A verified witness proves only that k1 is at most the value, so
an overestimate goes uncaught. By K2 + 3K1, "cor24" gives 14 for graph6
``Fi`AO`` and "thm23" gives 14 for graph6 ``HNhA@`?``, and both products
have a lifted k1 cut of 13 vertices. Over six-vertex left factors, within
its PRODUCT_LIMIT, the harness finds no "thm23" discrepancy under
"min_cuts_only", and under "all_cuts" one on every pair whose right
factor has an isolated vertex: that reading counts 0 isolated vertices,
as the left factor has a k1 cut, though each of its minimum cuts
isolates a vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cuts import (
    CutScan,
    _fewest_isolated,
    _is_k1_cut,
    _isolated_mask,
    is_vertex_cut,
    scan_cuts,
)
from .graphs import (
    ExtendedNat,
    Graph,
    _bits_to_tuple,
    is_complete,
    is_connected,
    isolated_vertices,
    vertex_connectivity,
    vertex_set,
)

READINGS = ("min_cuts_only", "all_cuts")


@dataclass(frozen=True, slots=True)
class LexK1Result:
    """k1 connectivity of a product, with provenance.

    ``branch`` tells which rule produced ``value``, or "oracle_fallback"
    when brute force did. ``witness``, when present, is an isolation-free
    cut of the product of exactly ``value`` vertices.
    """

    value: ExtendedNat
    branch: str
    witness: tuple[int, ...] | None

    def to_json(self) -> dict:
        return {
            "value": self.value.to_json(),
            "branch": self.branch,
            "witness": list(self.witness) if self.witness is not None else None,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LexK1Result":
        return cls(
            value=ExtendedNat.from_json(obj["value"]),
            branch=obj["branch"],
            witness=tuple(obj["witness"]) if obj["witness"] is not None else None,
        )


def lex_product(g1: Graph, g2: Graph) -> Graph:
    """The lexicographic product, row-major flat ids, built from row masks."""
    if g1.n == 0 or g2.n == 0:
        raise ValueError("product factors must be non-empty")
    m = g2.n
    rows = [((1 << m) - 1) << i * m for i in range(g1.n)]
    # disjoint rows sum to their union; a list, not a generator, sizes the tuple exactly
    across = [sum(rows[p] for p in _bits_to_tuple(nbrs)) for nbrs in g1.adj_bits]
    return Graph._from_adj_bits(tuple([x | b << i * m for i, x in enumerate(across) for b in g2.adj_bits]))


def lift_min_cut(cut, m: int) -> tuple[int, ...]:
    """Lift a left-factor cut to the product: every copy of each cut vertex.

    The result is the rows of the cut in the flat indexing, size |cut| * m.
    Unused in the package, but public: the lifted cut behind "thm21", read by the demos.
    """
    if m < 1:
        raise ValueError("right factor must have at least one vertex")
    cut = vertex_set(cut)
    if cut and cut[0] < 0:
        raise ValueError(f"vertex id {cut[0]} is negative")
    return tuple(i * m + j for i in cut for j in range(m))


def lift_k1_cut(g1: Graph, g2: Graph, cut) -> tuple[int, ...]:
    """Lift a left-factor vertex cut to an isolation-free cut candidate.

    Takes every copy of the cut vertices, plus the isolated copies of
    every left vertex stranded by the cut (those whose whole neighborhood
    lies inside it). Raises when ``cut`` is not a vertex cut of the left
    factor or the right factor is empty.
    """
    if g2.n == 0:
        raise ValueError("right factor must have at least one vertex")
    cut = vertex_set(cut, n=g1.n)
    if not is_vertex_cut(g1, cut):
        raise ValueError("lift_k1_cut requires a vertex cut of the left factor")
    return _bits_to_tuple(_lift(g1, g2.n, _isolated_mask(g2.adj_bits, (1 << g2.n) - 1), cut))


def _lift(g1: Graph, m: int, isolated: int, cut: tuple[int, ...]) -> int:
    """``lift_k1_cut``'s mask, unchecked; the right factor has ``m`` vertices and isolated-vertex mask ``isolated``."""
    cut_mask = sum(1 << x for x in cut)
    lifted = 0
    for x, nbrs in enumerate(g1.adj_bits):
        if cut_mask >> x & 1:
            lifted |= ((1 << m) - 1) << x * m
        elif not nbrs & ~cut_mask:
            lifted |= isolated << x * m
    return lifted


def _kappa_rule(n1: int, kappa1: int, g2: Graph) -> tuple[int, str]:
    """(connectivity, branch) of a product whose left factor has n1
    vertices and connectivity ``kappa1``: the left factor is complete
    exactly when kappa1 = n1 - 1 (K1 included), and only then is kappa(g2)
    computed. A disconnected left factor gives 0, under a meaningless "thm21"."""
    if kappa1 == n1 - 1:
        return (n1 - 1) * g2.n + vertex_connectivity(g2), "complete_left"
    return kappa1 * g2.n, "thm21"


def lex_connectivity(g1: Graph, g2: Graph) -> int:
    """Closed-form connectivity of the product.

    0 when the left factor is disconnected (the product is too),
    (n - 1) * m + kappa(right) when the left factor is complete on n
    vertices, kappa(left) * m otherwise.
    """
    if g1.n == 0 or g2.n == 0:
        raise ValueError("product factors must be non-empty")
    return _kappa_rule(g1.n, vertex_connectivity(g1), g2)[0]


# the finite k1 values below 64, each one shared ExtendedNat, so a caller
# keeping many results keeps no value object per result
_K1_VALUES = tuple(map(ExtendedNat, range(64)))


def _k1_value(size: int) -> ExtendedNat:
    """ExtendedNat(size), one shared object for sizes below 64."""
    return _K1_VALUES[size] if size < len(_K1_VALUES) else ExtendedNat(size)


def _k1_rule(left: CutScan, g2: Graph, reading: str) -> tuple[ExtendedNat, str]:
    """(shared ``_k1_value``, branch) of a product whose connected non-complete
    left factor has scan ``left``. The isolation count is the fewest isolated
    vertices over the left factor's minimum cuts under "min_cuts_only", over
    its cuts of every size under "all_cuts"."""
    m = g2.n
    if left.k1 == left.kappa:
        return _k1_value(left.kappa * m), "thm22"
    if reading == "min_cuts_only":
        c = left.optimal_isolated
    else:
        # over cuts of every size: 0 via a k1 cut, else 1 by removing n - 1 vertices
        c = 0 if left.k1.is_finite else 1
    value = left.kappa * m + c * len(isolated_vertices(g2))
    if left.k1.is_finite:
        return _k1_value(min(left.k1.value * m, value)), "thm23"
    return _k1_value(value), "cor24"


def lex_k1_connectivity(g1: Graph, g2: Graph) -> LexK1Result:
    """k1 connectivity of the product, closed form first, oracle as backstop.

    A complete left factor joins any two rows completely, so a k1 cut
    takes n1 - 1 whole rows and a k1 cut of the last copy of g2: the
    answer is exact, builds no product, and is witnessed by those cuts.
    For connected non-complete left factors the witness is the shorter
    lift_k1_cut of a minimum k1 cut, when there is one, and of an optimal
    minimum cut. It must have ``_k1_rule``'s value in vertices, and check
    out as a k1 cut of the product, as it does whenever the right factor
    has an edge; otherwise the product is scanned by brute force, except
    G1 by K1, which is G1 and reuses the left scan.
    """
    if g1.n == 0 or g2.n == 0:
        raise ValueError("product factors must be non-empty")
    if not is_connected(g1):
        raise ValueError("the left factor must be connected")
    m = g2.n
    if is_complete(g1):
        right, rows = scan_cuts(g2), (g1.n - 1) * m
        witness = None if right.k1_cut is None else tuple(range(rows)) + tuple(rows + j for j in right.k1_cut)
        value = right.k1 if witness is None else _k1_value(len(witness))
        return LexK1Result(value=value, branch="complete_left", witness=witness)
    left = scan_cuts(g1)
    value, branch = _k1_rule(left, g2, "min_cuts_only")
    isolated = _isolated_mask(g2.adj_bits, (1 << m) - 1)
    # a k1 cut strands no row, so its lift is its rows; min keeps the
    # first of equal sizes, so a tie goes to the rows
    cuts = (c for c in (left.k1_cut, left.optimal_cut) if c is not None)
    lifted = min((_lift(g1, m, isolated, c) for c in cuts), key=int.bit_count)
    product = g1 if m == 1 else lex_product(g1, g2)
    if value == lifted.bit_count() and _is_k1_cut(product, lifted):
        return LexK1Result(value=value, branch=branch, witness=_bits_to_tuple(lifted))
    scan = left if m == 1 else scan_cuts(product)
    return LexK1Result(value=scan.k1, branch="oracle_fallback", witness=scan.k1_cut)


# every (verdict, branch) answer lex_super_connected can give, each one shared
# tuple, so a caller keeping many answers keeps no tuple per answer
_SUPER_ANSWERS = {
    (verdict, branch): (verdict, branch)
    for verdict in (False, True)
    for branch in ("disconnected", "complete_left", "iso_m1", "part1", "part2", "part3", "left_not_super")
}


def _super_rule(g2: Graph, left_super: bool) -> tuple[bool, str]:
    """The shared ``_SUPER_ANSWERS`` (verdict, branch) for a connected non-complete
    left factor; reads ``left_super`` only when ``g2`` has an isolated vertex."""
    if g2.n == 1:
        return _SUPER_ANSWERS[left_super, "iso_m1"]
    if is_connected(g2):
        return _SUPER_ANSWERS[False, "part1"]
    if not isolated_vertices(g2):
        return _SUPER_ANSWERS[False, "part2"]
    return _SUPER_ANSWERS[left_super, "part3" if left_super else "left_not_super"]


def lex_super_connected(g1: Graph, g2: Graph) -> tuple[bool, str]:
    """Is the product super connected, and which exact rule decided it.

    No product is built or scanned, so no answer is an "oracle_fallback".
    Each answer is one shared constant tuple, not a fresh one per call.
    Over a connected non-complete left factor, the product's minimum cuts
    are the rows of the left factor's; such a row isolates a product
    vertex exactly when its left cut isolates a vertex whose copy is an
    isolated vertex of the right factor. A complete left factor on n1
    vertices joins n1 copies of the right factor, so a minimum cut is
    n1 - 1 whole copies plus a minimum cut of the last copy, isolating what
    that cut isolates in g2; the product is connected when n1 > 1 or g2 is.
    A disconnected g2's only minimum cut is the empty set.
    """
    if g1.n == 0 or g2.n == 0:
        raise ValueError("product factors must be non-empty")
    if not is_connected(g1):
        return _SUPER_ANSWERS[False, "disconnected"]
    if is_complete(g1):
        verdict = (g1.n > 1 or is_connected(g2)) and _fewest_isolated(g2) > 0
        return _SUPER_ANSWERS[verdict, "complete_left"]
    # the left factor's minimum-cut walk runs only when the verdict can be True
    return _super_rule(g2, bool(isolated_vertices(g2)) and _fewest_isolated(g1) > 0)
