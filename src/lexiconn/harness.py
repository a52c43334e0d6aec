"""Formula-versus-oracle verification over exhaustive or random instances.

The harness treats every closed-form rule as a hypothesis under test: for
each (left, right) factor pair in an instance family that satisfies the
rule's stated hypotheses, it computes the closed-form value through the
fast path and the true value through the brute-force cut oracles on the
constructed product, and tallies agreement. Every disagreement is frozen
into a self-contained DiscrepancyCertificate (the factors travel as
graph6 strings) that can be revalidated from scratch later; disagreements
are data, not errors.

Rule identifiers: "thm21" (product connectivity, non-complete left
factor), "thm21_complete" (complete left factor), "thm22" / "thm23" /
"cor24" (the three k1 branches), and "super_part1" / "super_part2" /
"super_part3" (the super-connectivity split). The k1 rules accept a
``reading`` toggle choosing how the isolation count in the formula is
quantified, because the two natural readings genuinely differ.

Oracle results are memoized per graph6 key for the lifetime of the
process; reports do not depend on the cache, it only avoids rescanning a
product that several runs share.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random
from typing import Iterator

from .cuts import CutCertificate, CutScan, cut_certificate, scan_cuts
from .graphs import ExtendedNat, Graph, is_complete, is_connected, isolated_vertices
from .io import parse_graph6, serialize_graph6
from .lexprod import READINGS, k1_product_formula, lex_connectivity, lex_product

THEOREM_IDS = (
    "thm21",
    "thm21_complete",
    "thm22",
    "thm23",
    "cor24",
    "super_part1",
    "super_part2",
    "super_part3",
)

_KAPPA_IDS = ("thm21", "thm21_complete")
_K1_IDS = ("thm22", "thm23", "cor24")

ENUMERATION_LIMIT = 6  # all labeled graphs on up to this many vertices
PRODUCT_LIMIT = 24  # largest product the oracles are asked to sweep


def _edge_slots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on n vertices, edge-bitmask order.

    Bit k of the mask is the k-th pair in lexicographic order (0,1),
    (0,2), ..., (n-2,n-1).
    """
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"exhaustive enumeration is budgeted for 1..{ENUMERATION_LIMIT} vertices, got {n}")
    slots = _edge_slots(n)
    for mask in range(1 << len(slots)):
        yield Graph(n, [slots[k] for k in range(len(slots)) if mask >> k & 1])


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi style graph: every pair independently with
    probability p; identical (n, p, seed) always gives the identical graph."""
    if n < 1:
        raise ValueError("random graphs need at least one vertex")
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = Random(seed)
    return Graph(n, [pair for pair in _edge_slots(n) if rng.random() < p])


@dataclass(frozen=True)
class InstanceFamily:
    """A deterministic stream of (left, right) factor pairs.

    Exhaustive mode walks all labeled graphs with 1 <= n1 <= n1_max and
    1 <= n2 <= n2_max (that requires n1_max <= 6 and n2_max <= 4, the
    desk-scale budget). Random mode draws ``sample_count`` pairs whose
    sizes are uniform in the same ranges and whose edges come from
    ``seed``; the same family always yields the same stream. Either way
    n1_max * n2_max is capped so the product oracles stay tractable.
    """

    n1_max: int
    n2_max: int
    mode: str = "exhaustive"
    sample_count: int = 100
    seed: int = 0
    edge_probability: float = 0.5

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n1_max < 1 or self.n2_max < 1:
            raise ValueError("factor size bounds must be at least 1")
        if self.mode == "exhaustive" and (self.n1_max > 6 or self.n2_max > 4):
            raise ValueError("exhaustive families are budgeted to n1_max <= 6 and n2_max <= 4")
        if self.n1_max * self.n2_max > PRODUCT_LIMIT:
            raise ValueError(f"products above {PRODUCT_LIMIT} vertices are outside the oracle budget")
        if self.mode == "random":
            if self.sample_count < 1:
                raise ValueError("sample_count must be positive")
            if not 0 <= self.edge_probability <= 1:
                raise ValueError("edge_probability must lie in [0, 1]")

    def instances(self) -> Iterator[tuple[Graph, Graph]]:
        if self.mode == "exhaustive":
            rights = [list(enumerate_labeled_graphs(n2)) for n2 in range(1, self.n2_max + 1)]
            for n1 in range(1, self.n1_max + 1):
                for g1 in enumerate_labeled_graphs(n1):
                    for batch in rights:
                        for g2 in batch:
                            yield g1, g2
        else:
            rng = Random(self.seed)
            for _ in range(self.sample_count):
                n1 = rng.randint(1, self.n1_max)
                n2 = rng.randint(1, self.n2_max)
                g1 = random_graph(n1, self.edge_probability, rng.getrandbits(32))
                g2 = random_graph(n2, self.edge_probability, rng.getrandbits(32))
                yield g1, g2


@dataclass(frozen=True)
class DiscrepancyCertificate:
    """A frozen, self-contained record that a rule and the oracle disagree.

    ``g1`` and ``g2`` are graph6 strings, so the instance can be rebuilt
    with no other context. ``witness`` carries the oracle-side cut when
    one exists (it does not when the oracle value is infinite).
    """

    theorem_id: str
    g1: str
    g2: str
    formula_value: ExtendedNat | bool
    oracle_value: ExtendedNat | bool
    witness: CutCertificate | None
    reading: str

    def to_json(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "g1": self.g1,
            "g2": self.g2,
            "formula_value": _value_to_json(self.formula_value),
            "oracle_value": _value_to_json(self.oracle_value),
            "witness": self.witness.to_json() if self.witness is not None else None,
            "reading": self.reading,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DiscrepancyCertificate":
        return cls(
            theorem_id=obj["theorem_id"],
            g1=obj["g1"],
            g2=obj["g2"],
            formula_value=_value_from_json(obj["formula_value"]),
            oracle_value=_value_from_json(obj["oracle_value"]),
            witness=CutCertificate.from_json(obj["witness"]) if obj["witness"] is not None else None,
            reading=obj["reading"],
        )


def _value_to_json(value):
    if isinstance(value, bool):
        return value
    return value.to_json()


def _value_from_json(obj):
    if isinstance(obj, bool):
        return obj
    return ExtendedNat.from_json(obj)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one rule over one instance family."""

    theorem_id: str
    reading: str
    instances_checked: int
    skipped: int
    agreements: int
    discrepancies: tuple[DiscrepancyCertificate, ...]
    seed: int | None
    wall_time_ms: float

    def to_json(self, include_wall_time: bool = True) -> dict:
        obj = {
            "theorem_id": self.theorem_id,
            "reading": self.reading,
            "instances_checked": self.instances_checked,
            "skipped": self.skipped,
            "agreements": self.agreements,
            "discrepancies": [c.to_json() for c in self.discrepancies],
        }
        if self.seed is not None:
            obj["seed"] = self.seed
        if include_wall_time:
            obj["wall_time_ms"] = self.wall_time_ms
        return obj

    def canonical_json(self) -> str:
        """Byte-stable serialization for determinism checks: everything
        except the wall time, which is measurement noise by nature."""
        import json

        return json.dumps(self.to_json(include_wall_time=False), separators=(",", ":"))


_SCAN_MEMO: dict[str, CutScan] = {}
_SUPER_MEMO: dict[str, tuple[bool, tuple[int, ...] | None]] = {}


def clear_caches() -> None:
    _SCAN_MEMO.clear()
    _SUPER_MEMO.clear()


def _scan_for(g: Graph) -> CutScan:
    key = serialize_graph6(g)
    hit = _SCAN_MEMO.get(key)
    if hit is None:
        hit = scan_cuts(g)
        _SCAN_MEMO[key] = hit
    return hit


def _super_for(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """(is super connected, a refuting non-isolating minimum cut or None)."""
    key = serialize_graph6(g)
    hit = _SUPER_MEMO.get(key)
    if hit is None:
        if not is_connected(g):
            hit = (False, None)
        elif is_complete(g):
            hit = (True, None)
        else:
            # a non-isolating minimum cut is exactly a k1 cut of size kappa,
            # and the scan holds the lexicographically first one
            scan = _scan_for(g)
            refuting = scan.k1_cut if scan.k1 == scan.kappa else None
            hit = (refuting is None, refuting)
        _SUPER_MEMO[key] = hit
    return hit


def _satisfies_hypotheses(theorem_id: str, g1: Graph, g2: Graph) -> bool:
    if theorem_id == "thm21_complete":
        return is_complete(g1)
    if not (is_connected(g1) and not is_complete(g1)):
        return False
    if theorem_id == "thm21":
        return True
    if theorem_id in _K1_IDS:
        left = _scan_for(g1)
        if theorem_id == "thm22":
            return left.k1 == left.kappa
        if theorem_id == "thm23":
            return left.kappa < left.k1 and left.k1.is_finite
        return not left.k1.is_finite
    # super rules assume a right factor with at least two vertices
    if g2.n < 2:
        return False
    if theorem_id == "super_part1":
        return is_connected(g2)
    if is_connected(g2):
        return False
    if theorem_id == "super_part2":
        return not isolated_vertices(g2)
    return bool(isolated_vertices(g2)) and _super_for(g1)[0]


def _evaluate(theorem_id: str, g1: Graph, g2: Graph, reading: str):
    """(formula value, oracle value, oracle-side witness certificate)."""
    product = lex_product(g1, g2)
    pscan = _scan_for(product)
    if theorem_id in _KAPPA_IDS:
        formula = ExtendedNat(lex_connectivity(g1, g2))
        oracle = ExtendedNat(pscan.kappa)
        witness = cut_certificate(product, pscan.kappa_cut, kappa=pscan.kappa)
    elif theorem_id in _K1_IDS:
        formula, _ = k1_product_formula(g1, g2, reading)
        oracle = pscan.k1
        witness = (
            cut_certificate(product, pscan.k1_cut, kappa=pscan.kappa)
            if pscan.k1_cut is not None
            else None
        )
    else:
        formula = theorem_id == "super_part3"
        oracle, refuting = _super_for(product)
        cut = refuting if refuting is not None else pscan.kappa_cut
        witness = cut_certificate(product, cut, kappa=pscan.kappa)
    return formula, oracle, witness


def verify_theorem(
    theorem_id: str,
    family: InstanceFamily,
    reading: str = "min_cuts_only",
) -> VerificationReport:
    """Check one rule against the oracle over a whole instance family.

    Pairs failing the rule's hypotheses are skipped and counted; checked
    plus skipped equals the family size. Every disagreement becomes a
    DiscrepancyCertificate. Reports are deterministic functions of
    (theorem_id, family, reading).
    """
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; expected one of {THEOREM_IDS}")
    if reading not in READINGS:
        raise ValueError(f"unknown reading {reading!r}; expected one of {READINGS}")
    start = time.perf_counter()
    checked = skipped = agreements = 0
    discrepancies: list[DiscrepancyCertificate] = []
    for g1, g2 in family.instances():
        if not _satisfies_hypotheses(theorem_id, g1, g2):
            skipped += 1
            continue
        checked += 1
        formula, oracle, witness = _evaluate(theorem_id, g1, g2, reading)
        if formula == oracle:
            agreements += 1
        else:
            discrepancies.append(
                DiscrepancyCertificate(
                    theorem_id=theorem_id,
                    g1=serialize_graph6(g1),
                    g2=serialize_graph6(g2),
                    formula_value=formula,
                    oracle_value=oracle,
                    witness=witness,
                    reading=reading,
                )
            )
    wall_ms = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        theorem_id=theorem_id,
        reading=reading,
        instances_checked=checked,
        skipped=skipped,
        agreements=agreements,
        discrepancies=tuple(discrepancies),
        seed=family.seed if family.mode == "random" else None,
        wall_time_ms=wall_ms,
    )


def validate_certificate(cert: DiscrepancyCertificate) -> bool:
    """Rebuild the instance from the certificate and recheck everything.

    The factors are reparsed from graph6 (parse failures raise), the
    product is reconstructed, the oracle value is recomputed and the
    witness flags are reverified field by field. A certificate whose
    formula and oracle values agree violates the type's whole point and
    is invalid.
    """
    if cert.theorem_id not in THEOREM_IDS:
        return False
    if cert.formula_value == cert.oracle_value:
        return False
    g1 = parse_graph6(cert.g1)
    g2 = parse_graph6(cert.g2)
    product = lex_product(g1, g2)
    pscan = _scan_for(product)
    if cert.theorem_id in _KAPPA_IDS:
        oracle: ExtendedNat | bool = ExtendedNat(pscan.kappa)
    elif cert.theorem_id in _K1_IDS:
        oracle = pscan.k1
    else:
        oracle = _super_for(product)[0]
    if oracle != cert.oracle_value:
        return False
    if cert.witness is None:
        # only an infinite k1 oracle value has nothing to witness
        return cert.theorem_id in _K1_IDS and not pscan.k1.is_finite
    fresh = cut_certificate(product, cert.witness.cut, kappa=pscan.kappa)
    return fresh == cert.witness
