"""Formula-versus-oracle verification over exhaustive or random instances.

The harness treats every closed-form rule as a hypothesis under test: for
each (left, right) factor pair in an instance family that satisfies the
rule's stated hypotheses, it computes the closed-form value through the
fast path and the true value through the brute-force cut oracles on the
constructed product, and tallies agreement. A rule's hypotheses are
lexprod's own dispatch: a pair is checked against a rule exactly when
lexprod's branch for it is that rule. Every disagreement is frozen
into a self-contained DiscrepancyCertificate (the factors travel as
graph6 strings); disagreements are data, not errors. One function
decides each pair, so validating a certificate re-derives it from its
factors and compares, rather than rechecking it field by field.

Rule identifiers: "thm21" (product connectivity, non-complete left
factor), "thm21_complete" (complete left factor), "thm22" / "thm23" /
"cor24" (the three k1 branches), and "super_part1" / "super_part2" /
"super_part3" (the super-connectivity split). The k1 rules accept a
``reading`` toggle choosing how the isolation count in the formula is
quantified, because the two natural readings genuinely differ.

Cut scans are memoized for the life of the process, keyed by the
isomorphism classes of the factors, because the reports of a sweep share
their products up to relabeling; a hit builds nothing. A memo entry is
cuts._twin_scan of the first labeling visited, which walks only the
subsets taking a prefix of each twin class and returns scan_cuts' exact
CutScan. Its cuts belong to that labeling, so only its class invariants
are read: kappa, k1, the fewest isolated vertices over minimum cuts and
super connectivity. A factor that is disconnected or complete is
recorded without a scan, so the hypotheses need no graph search per
pair. A discrepancy's witness is walked on its own labeled product, over
the same twin-prefix subsets, so reports do not depend on the memo.

Within one verify_theorem call, the verdict on a pair (skipped, agreed,
or the discrepancy's values and witness size) is kept per pair of
factor classes, since every input to it is a class invariant. A repeat
visit to a discrepant class pair only writes its certificate: it
serializes the factors and walks the witness on its labeled product.

A graph on n <= ENUMERATION_LIMIT vertices is keyed by n and the least
edge mask, in enumerate_labeled_graphs' bit order, over its relabelings.
The first miss for n keys all labeled graphs on n vertices at once, by
marking each class's orbit from its least mask. A larger graph is keyed
by its labeled adjacency, uncached: that loses sharing between
relabelings but never merges two classes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from random import Random
from typing import Iterator

from .cuts import CutCertificate, CutScan, _certificate, _first_k1_cut, _twin_scan, _twin_subsets, _vertex_cuts
from .graphs import ExtendedNat, Graph, _bits_to_tuple, is_complete, is_connected
from .io import parse_graph6, serialize_graph6
from .lexprod import READINGS, _k1_branch, _k1_rule, _kappa_rule, _super_branch, lex_product

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
    1 <= n2 <= n2_max (that requires n1_max <= ENUMERATION_LIMIT and
    n2_max <= 4, the desk-scale budget). Random mode draws
    ``sample_count`` pairs whose sizes are uniform in the same ranges and
    whose edges come from ``seed``; the same family always yields the
    same stream. Either way n1_max * n2_max is capped so the product
    oracles stay tractable.
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
        if self.mode == "exhaustive" and (self.n1_max > ENUMERATION_LIMIT or self.n2_max > 4):
            raise ValueError(f"exhaustive families are budgeted to n1_max <= {ENUMERATION_LIMIT} and n2_max <= 4")
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
    return value if isinstance(value, bool) else value.to_json()


def _value_from_json(obj):
    return obj if isinstance(obj, bool) else ExtendedNat.from_json(obj)


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


_CLASS_KEYS: dict[tuple[int, ...], tuple] = {}
_SCANS: dict[tuple[tuple, tuple | None], CutScan] = {}


def clear_caches() -> None:
    _CLASS_KEYS.clear()
    _SCANS.clear()


def _class_key(g: Graph) -> tuple:
    """(n, the least edge mask of ``g``'s isomorphism class) for n up to
    ENUMERATION_LIMIT, else ("labeled", ``g``'s adjacency), uncached."""
    key = _CLASS_KEYS.get(g.adj_bits)
    if key is not None:
        return key
    if g.n > ENUMERATION_LIMIT:
        return ("labeled", g.adj_bits)
    # key every labeled graph on n vertices: in ascending mask order, the
    # first unkeyed mask is its class's least and keys its whole orbit
    slots = _edge_slots(g.n)
    bit_of = {pair: 1 << k for k, pair in enumerate(slots)}
    # relabeling p moves the edge in slot (i, j) to the slot of {p[i], p[j]}
    relabelings = [
        [bit_of[min(p[i], p[j]), max(p[i], p[j])] for i, j in slots] for p in itertools.permutations(range(g.n))
    ]
    keys: list[tuple | None] = [None] * (1 << len(slots))
    for mask, labeled in enumerate(enumerate_labeled_graphs(g.n)):
        if keys[mask] is None:
            key, edges = (g.n, mask), _bits_to_tuple(mask)
            for image_of in relabelings:
                keys[sum(map(image_of.__getitem__, edges))] = key
        _CLASS_KEYS[labeled.adj_bits] = keys[mask]
    return _CLASS_KEYS[g.adj_bits]


def _scan(g1: Graph, g2: Graph | None = None) -> CutScan | None:
    """The memoized scan of ``g1``'s class, or of its product with ``g2``'s;
    its cuts are those of the first labeling visited, so only its
    invariant fields are read. A factor that is disconnected or complete
    maps to None: no rule reads its scan, which can walk a number of
    subsets exponential in its size."""
    key = (_class_key(g1), _class_key(g2) if g2 is not None else None)
    if key not in _SCANS:
        if g2 is not None:
            _SCANS[key] = _twin_scan(lex_product(g1, g2))
        else:
            _SCANS[key] = _twin_scan(g1) if is_connected(g1) and not is_complete(g1) else None
    return _SCANS[key]


def _formula(theorem_id: str, g1: Graph, g2: Graph, reading: str):
    """The rule's value on (g1, g2), or None when the pair fails the rule's
    hypotheses, which are lexprod's own dispatch on the factors."""
    if theorem_id == "thm21_complete":
        return ExtendedNat(_kappa_rule(g1.n, g1.n - 1, g2)) if is_complete(g1) else None
    # every other rule takes a connected non-complete left factor
    left = _scan(g1)
    if left is None:
        return None
    if theorem_id == "thm21":
        return ExtendedNat(_kappa_rule(g1.n, left.kappa, g2))
    if theorem_id in _K1_IDS:
        return _k1_rule(left, g2, reading) if _k1_branch(left) == theorem_id else None
    right_connected = is_complete(g2) or _scan(g2) is not None
    if _super_branch(g2, right_connected, left.super_connected) != theorem_id[len("super_"):]:
        return None
    return theorem_id == "super_part3"


def _verdict(theorem_id: str, g1: Graph, g2: Graph, reading: str):
    """None when (g1, g2) fails the rule's hypotheses, True when the rule
    and the oracle agree, else the discrepancy's facts (formula value,
    oracle value, witness), where the witness is None when the oracle
    value is infinite and else (is it a k1 cut, its size, is_minimum).

    Every part is read from the factors' classes, so the verdict holds for
    every relabeling of either factor.
    """
    formula = _formula(theorem_id, g1, g2, reading)
    if formula is None:
        return None
    pscan = _scan(g1, g2)
    if theorem_id in _KAPPA_IDS:
        oracle, k1_witness = ExtendedNat(pscan.kappa), False
    elif theorem_id in _K1_IDS:
        oracle, k1_witness = pscan.k1, True
    else:
        # the hypotheses make the product connected and non-complete, where
        # a minimum cut isolating nobody is the first k1 cut
        oracle = pscan.super_connected
        k1_witness = not oracle
    if formula == oracle:
        return True
    if k1_witness and not pscan.k1.is_finite:
        return formula, oracle, None
    size = pscan.k1.value if k1_witness else pscan.kappa
    return formula, oracle, (k1_witness, size, size == pscan.kappa)


def _discrepancy(theorem_id: str, g1: Graph, g2: Graph, reading: str, facts) -> DiscrepancyCertificate:
    """The pair's certificate from its verdict's ``facts``.

    The witness is the first cut of the pair's own labeled product, in lex
    order, of the size the memo proved (the cut scan_cuts would find),
    walked over its twin-prefix subsets and certified from that hit; none
    raises RuntimeError.
    """
    formula, oracle, witness = facts
    if witness is not None:
        k1_witness, size, is_minimum = witness
        labeled = lex_product(g1, g2)
        subsets = _twin_subsets(labeled)
        if k1_witness:
            hit = _first_k1_cut(labeled, (size,), subsets)
        else:
            hit = next(_vertex_cuts(labeled, subsets(size)), None)
        if hit is None:
            field = "k1" if k1_witness else "kappa"
            raise RuntimeError(f"the class memo has no {field}_cut of its size on {serialize_graph6(labeled)}")
        cut, rem, disconnects = hit
        witness = _certificate(labeled, cut, rem, disconnects, is_minimum)
    return DiscrepancyCertificate(
        theorem_id=theorem_id,
        g1=serialize_graph6(g1),
        g2=serialize_graph6(g2),
        formula_value=formula,
        oracle_value=oracle,
        witness=witness,
        reading=reading,
    )


def _check(theorem_id: str, g1: Graph, g2: Graph, reading: str):
    """None when (g1, g2) fails the rule's hypotheses, True when the rule
    and the oracle agree, else the pair's DiscrepancyCertificate."""
    verdict = _verdict(theorem_id, g1, g2, reading)
    if verdict is None or verdict is True:
        return verdict
    return _discrepancy(theorem_id, g1, g2, reading, verdict)


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
    skipped = agreements = 0
    discrepancies: list[DiscrepancyCertificate] = []
    verdicts: dict[tuple[tuple, tuple], object] = {}
    for g1, g2 in family.instances():
        key = (_class_key(g1), _class_key(g2))
        if key not in verdicts:
            verdicts[key] = _verdict(theorem_id, g1, g2, reading)
        verdict = verdicts[key]
        if verdict is None:
            skipped += 1
        elif verdict is True:
            agreements += 1
        else:
            discrepancies.append(_discrepancy(theorem_id, g1, g2, reading, verdict))
    wall_ms = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        theorem_id=theorem_id,
        reading=reading,
        instances_checked=agreements + len(discrepancies),
        skipped=skipped,
        agreements=agreements,
        discrepancies=tuple(discrepancies),
        seed=family.seed if family.mode == "random" else None,
        wall_time_ms=wall_ms,
    )


def validate_certificate(cert: DiscrepancyCertificate) -> bool:
    """Re-derive the certificate from its factors and compare.

    The factors are reparsed from graph6 (parse failures raise). An
    unknown rule or reading, an empty factor, or a product past
    PRODUCT_LIMIT vertices, which no report holds, is invalid without a
    scan. Otherwise the pair is checked as verify_theorem checks it, and
    the certificate is valid exactly when it equals the one written now:
    the factors in serialize_graph6's spelling, the formula and oracle
    values, and the witness, flags included. Only the oracle value comes
    from the class memo (a fresh process rescans the product).
    """
    if cert.theorem_id not in THEOREM_IDS or cert.reading not in READINGS:
        return False
    g1, g2 = parse_graph6(cert.g1), parse_graph6(cert.g2)
    if not 0 < g1.n * g2.n <= PRODUCT_LIMIT:
        return False
    return _check(cert.theorem_id, g1, g2, cert.reading) == cert
