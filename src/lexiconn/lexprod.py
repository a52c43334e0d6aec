"""Lexicographic products and their closed-form connectivity rules.

The product of a left factor on n1 vertices and a right factor on m
vertices lives on n1 * m vertices indexed row-major: the copy of right
vertex j inside left vertex i is the flat id i * m + j. Two product
vertices are adjacent when their left coordinates are adjacent, or the
left coordinates agree and the right coordinates are adjacent. The
product is connected exactly when the left factor is, and it is never
commutative in general.

Closed-form rules implemented here, each labeled by the branch string it
reports:

* connectivity of the product: kappa(left) * m for connected non-complete
  left factors, and (n - 1) * m + kappa(right) when the left factor is
  the complete graph on n vertices.
* k1 (isolation-free) connectivity of the product, dispatching on how the
  left factor's k1 compares with its connectivity: "thm22" when they are
  equal, "thm23" for the strictly-between-finite case, "cor24" when the
  left factor has no isolation-free cut at all.
* super connectivity of the product, split by whether the right factor is
  connected ("part1"), disconnected without isolated vertices ("part2"),
  or disconnected with isolated vertices and a super-connected left
  factor ("part3").

Every k1 fast path attaches a witness cut built by lifting factor cuts
into the product. The witness is verified against the product before the
value is reported; when verification fails the answer falls back to the
brute-force oracle and says so via the "oracle_fallback" branch, so the
library never asserts an unverified closed-form output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cuts import (
    CutScan,
    is_k1_vertex_cut,
    is_super_connected,
    is_vertex_cut,
    least_isolating_cut,
    scan_cuts,
    select_optimal_min_cut,
)
from .graphs import (
    ExtendedNat,
    Graph,
    is_complete,
    is_connected,
    isolated_vertices,
    vertex_connectivity,
    vertex_set,
)

READINGS = ("min_cuts_only", "all_cuts")


@dataclass(frozen=True)
class LexK1Result:
    """k1 connectivity of a product, with provenance.

    ``branch`` tells which closed-form rule produced ``value``, or
    "oracle_fallback" when brute force did. ``witness``, when present, is
    a verified isolation-free cut of the product of exactly ``value``
    vertices.
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
    """The lexicographic product, row-major flat ids."""
    if g1.n == 0 or g2.n == 0:
        raise ValueError("product factors must be non-empty")
    m = g2.n
    edges = []
    for i in range(g1.n):
        base = i * m
        for p in g1.adj[i]:
            if p > i:
                pbase = p * m
                for j in range(m):
                    for q in range(m):
                        edges.append((base + j, pbase + q))
        for j in range(m):
            for q in g2.adj[j]:
                if q > j:
                    edges.append((base + j, base + q))
    return Graph(g1.n * m, edges)


def lift_min_cut(cut, m: int) -> tuple[int, ...]:
    """Lift a left-factor cut to the product: every copy of each cut vertex.

    The result is the rows of the cut in the flat indexing, size |cut| * m.
    """
    if m < 1:
        raise ValueError("right factor must have at least one vertex")
    cut = vertex_set(cut)
    return tuple(i * m + j for i in cut for j in range(m))


def lift_k1_cut(g1: Graph, g2: Graph, cut) -> tuple[int, ...]:
    """Lift a left-factor vertex cut to an isolation-free cut candidate.

    Takes every copy of the cut vertices, plus the isolated copies of
    every left vertex stranded by the cut (those whose whole neighborhood
    lies inside it). Raises when ``cut`` is not a vertex cut of the left
    factor.
    """
    cut = vertex_set(cut, n=g1.n)
    if not is_vertex_cut(g1, cut):
        raise ValueError("lift_k1_cut requires a vertex cut of the left factor")
    m = g2.n
    cut_set = set(cut)
    stranded = [x for x in range(g1.n) if x not in cut_set and g1.adj[x] <= cut_set]
    lifted = {i * m + j for i in cut for j in range(m)}
    lifted.update(x * m + j for x in stranded for j in isolated_vertices(g2))
    return tuple(sorted(lifted))


def lex_connectivity(g1: Graph, g2: Graph) -> int:
    """Closed-form connectivity of the product.

    0 when the left factor is disconnected (the product is too),
    (n - 1) * m + kappa(right) when the left factor is complete on n
    vertices, kappa(left) * m otherwise.
    """
    if g1.n == 0 or g2.n == 0:
        raise ValueError("product factors must be non-empty")
    if not is_connected(g1):
        return 0
    if is_complete(g1):
        return (g1.n - 1) * g2.n + vertex_connectivity(g2)
    return vertex_connectivity(g1) * g2.n


def _k1_rule(g1: Graph, g2: Graph, reading: str) -> tuple[ExtendedNat, str, CutScan, tuple[int, ...] | None]:
    """(value, branch, the left factor's scan, the cut whose isolation
    count entered the formula); the cut is None on the thm22 branch."""
    if reading not in READINGS:
        raise ValueError(f"unknown reading {reading!r}; expected one of {READINGS}")
    if g1.n == 0 or g2.n == 0:
        raise ValueError("product factors must be non-empty")
    if not is_connected(g1):
        raise ValueError("the closed-form k1 rules need a connected left factor")
    if is_complete(g1):
        raise ValueError("the closed-form k1 rules need a non-complete left factor")
    m = g2.n
    left = scan_cuts(g1)
    kappa1 = left.kappa
    if left.k1 == kappa1:
        return ExtendedNat(kappa1 * m), "thm22", left, None
    t = len(isolated_vertices(g2))
    if reading == "min_cuts_only":
        cert, c = select_optimal_min_cut(g1, kappa=kappa1)
        cut = cert.cut
    else:
        cut, c = least_isolating_cut(g1)
    if left.k1.is_finite:
        return ExtendedNat(min(left.k1.value * m, kappa1 * m + c * t)), "thm23", left, cut
    return ExtendedNat(kappa1 * m + c * t), "cor24", left, cut


def k1_product_formula(g1: Graph, g2: Graph, reading: str = "min_cuts_only") -> tuple[ExtendedNat, str]:
    """Raw closed-form k1 value for the product, with its branch label.

    No witness is built or checked here; this is the formula side the
    verification harness compares against the oracle. ``reading`` selects
    the quantifier for the isolation count: "min_cuts_only" minimizes the
    leftover isolated vertices over minimum cuts of the left factor,
    "all_cuts" minimizes over vertex cuts of every size.
    """
    value, branch, _, _ = _k1_rule(g1, g2, reading)
    return value, branch


def lex_k1_connectivity(g1: Graph, g2: Graph) -> LexK1Result:
    """k1 connectivity of the product, closed form first, oracle as backstop.

    For connected non-complete left factors the matching closed-form rule
    is evaluated and a witness cut is lifted from the factor (rows of a
    minimum isolation-free cut, or the stranded-copies augmentation of an
    optimal minimum cut, whichever realizes the value). The witness must
    check out as an isolation-free cut of the product of exactly the
    claimed size; otherwise, and for complete left factors, the product
    is scanned by brute force.
    """
    if g1.n == 0 or g2.n == 0:
        raise ValueError("product factors must be non-empty")
    if not is_connected(g1):
        raise ValueError("the left factor must be connected")
    m = g2.n
    product = lex_product(g1, g2)
    if not is_complete(g1):
        value, branch, left, opt_cut = _k1_rule(g1, g2, "min_cuts_only")
        if branch == "thm22":
            witness = lift_min_cut(left.k1_cut, m)
        elif branch == "thm23":
            rows = lift_min_cut(left.k1_cut, m)
            augmented = lift_k1_cut(g1, g2, opt_cut)
            witness = rows if len(rows) <= len(augmented) else augmented
        else:
            witness = lift_k1_cut(g1, g2, opt_cut)
        if len(witness) == value and is_k1_vertex_cut(product, witness):
            return LexK1Result(value=value, branch=branch, witness=witness)
    scan = scan_cuts(product)
    return LexK1Result(value=scan.k1, branch="oracle_fallback", witness=scan.k1_cut)


def lex_super_connected(g1: Graph, g2: Graph) -> tuple[bool, str]:
    """Is the product super connected, and which rule decided it.

    A right factor with one vertex leaves the product isomorphic to the
    left factor, so that case short-circuits before the split on the
    right factor's shape ("iso_m1"). Complete left factors, and the
    unruled case of a disconnected right factor with isolated vertices
    under a non-super-connected left factor, are answered by enumerating
    the product's minimum cuts ("oracle_fallback").
    """
    if g1.n == 0 or g2.n == 0:
        raise ValueError("product factors must be non-empty")
    if not is_connected(g1):
        return False, "disconnected"
    if is_complete(g1):
        return is_super_connected(lex_product(g1, g2)), "oracle_fallback"
    if g2.n == 1:
        return is_super_connected(g1), "iso_m1"
    if is_connected(g2):
        return False, "part1"
    if not isolated_vertices(g2):
        return False, "part2"
    if is_super_connected(g1):
        return True, "part3"
    return is_super_connected(lex_product(g1, g2)), "oracle_fallback"
