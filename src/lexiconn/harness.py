"""Formula-versus-oracle verification over exhaustive or random instances.

The harness treats every closed-form rule as a hypothesis under test: for
each (left, right) factor pair in an instance family that satisfies the
rule's stated hypotheses, it computes the closed-form value through the
fast path and the true value through the brute-force cut oracles on the
constructed product, and tallies agreement. Every disagreement is frozen
into a self-contained DiscrepancyCertificate (the factors travel as
graph6 strings); disagreements are data, not errors. One function
decides each pair, so validating a certificate re-derives it from its
factors and compares, rather than rechecking it field by field.

The rules are one table, _RULES, from rule id to the product invariant
it predicts ("kappa", "k1" or "super") and the branch label lexprod
gives the pairs it covers: lexprod's rule for the invariant returns
(value, branch), and a pair is checked against that value exactly when
the branch is the label. Only the k1 rules read ``reading``, which picks
one of two readings of the isolation count.

Each InstanceFamily memoizes cut scans while it lives, keyed by the
isomorphism classes of the factors, because the reports of a sweep share
their products up to relabeling; a hit builds nothing. A memo entry is
cuts._twin_scan of the first labeling visited, which walks only the
unions of whole twin classes and returns scan_cuts' exact CutScan. Its
cuts belong to that labeling, so only its class invariants are read:
kappa, k1, the fewest isolated vertices over minimum cuts and super
connectivity. A factor that is disconnected or complete is recorded
without a scan, and no rule reads a right factor's own scan. A
discrepancy's witness is read off its own labeled product, so reports
do not depend on the memo: cuts._witness_cut walks the same twin-class
unions as _twin_scan, but only as far as the cut the memo's size
needs, and returns _twin_scan's cut of that kind. Which subsets a walk
draws, and how a cut is certified, is left to the cuts module.

Within one verify_theorem call, the verdict on a pair (skipped, agreed,
or the discrepancy's values, witness size and the product's kappa) is
kept per pair of factor classes, since every input to it is a class
invariant, and a pair visit is one lookup in its left class's row,
keyed by the right factor's adjacency and filled from the class-pair
verdicts. A new class pair's verdict reads the class keys the loop
already holds. A repeat visit to a discrepant class pair only writes its
certificate: it walks its labeled product for the witness and names the
factors. The family keeps those names, so a sweep serializes each
labeled factor to graph6 once however many reports name it.

A graph on n <= ENUMERATION_LIMIT vertices is keyed by n and the least
edge mask, in enumerate_labeled_graphs' bit order, over its relabelings.
One table per n, built on first use and kept for the process, lists
every labeled graph on n vertices in mask order with its key, and
enumerate_labeled_graphs reads its graphs from it. It builds each mask's
adjacency from a smaller mask's and marks each class's orbit from its
least mask. A larger graph is keyed by its labeled adjacency: that loses
sharing between relabelings but never merges two classes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import cache, cached_property
from random import Random
from typing import Iterator

from .cuts import CutCertificate, CutScan, _certificate, _twin_scan, _witness_cut
from .graphs import ExtendedNat, Graph, _bits_to_tuple, is_complete, is_connected
from .io import parse_graph6, serialize_graph6
from .lexprod import READINGS, _k1_rule, _kappa_rule, _super_rule, lex_product

_RULES = {
    "thm21": ("kappa", "thm21"),
    "thm21_complete": ("kappa", "complete_left"),
    "thm22": ("k1", "thm22"),
    "thm23": ("k1", "thm23"),
    "cor24": ("k1", "cor24"),
    "super_part1": ("super", "part1"),
    "super_part2": ("super", "part2"),
    "super_part3": ("super", "part3"),
}
THEOREM_IDS = tuple(_RULES)

ENUMERATION_LIMIT = 6  # all labeled graphs on up to this many vertices
PRODUCT_LIMIT = 24  # largest product the oracles are asked to sweep


def _edge_slots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@cache
def _class_table(n: int) -> dict[tuple[int, ...], tuple]:
    """Every labeled graph on n vertices, as its adjacency in edge-mask order,
    mapped to its class key; built once per process and never changed."""
    slots = _edge_slots(n)
    bit_of = {pair: 1 << k for k, pair in enumerate(slots)}
    # relabeling p moves the edge in slot (i, j) to the slot of {p[i], p[j]}
    relabelings = [
        [bit_of[min(p[i], p[j]), max(p[i], p[j])] for i, j in slots] for p in itertools.permutations(range(n))
    ]
    # adjacency[mask | 1 << k] is adjacency[mask] plus slot k, for mask < 1 << k
    adjacency = [(0,) * n]
    for k, (i, j) in enumerate(slots):
        for bits in adjacency[: 1 << k]:
            row = list(bits)
            row[i] |= 1 << j
            row[j] |= 1 << i
            adjacency.append(tuple(row))
    # in ascending mask order, the first unkeyed mask is its class's least and keys its whole orbit
    keys: list[tuple | None] = [None] * len(adjacency)
    for mask in range(len(keys)):
        if keys[mask] is None:
            key, edges = (n, mask), _bits_to_tuple(mask)
            for image_of in relabelings:
                keys[sum(map(image_of.__getitem__, edges))] = key
    return dict(zip(adjacency, keys))


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on n vertices, read from n's class table
    in edge-mask order: bit k of the mask is the k-th pair in lexicographic
    order (0,1), (0,2), ..., (n-2,n-1)."""
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"exhaustive enumeration is budgeted for 1..{ENUMERATION_LIMIT} vertices, got {n}")
    yield from map(Graph._from_adj_bits, _class_table(n))


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

    A family keeps, for its lifetime, the scan memo of its reports, the
    graph6 names of the factors its certificates carry and, when
    exhaustive, its labeled graphs: one tuple per size shared by both
    sides, so every walk hands out the same Graph objects. Those share
    their adjacency with the process-wide class tables (4.3 MB for n <= 6)
    and take 1.9 MB more for InstanceFamily(6, 4), by tracemalloc; a thm22
    report over it leaves a memo of 784 scans, about 0.1 MB. The names are
    keyed by those shared adjacency tuples: a cor24 report over it under
    all_cuts names 15,694 factors in 1.4 MB, and naming all 33,867 would
    take 3.1 MB. None of these is a field: ==, hash and repr see only the
    parameters, and a new family starts with empty memos even when it
    equals an old one.
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

    @cached_property
    def _scans(self) -> dict[tuple[tuple, tuple | None], CutScan | None]:
        """The scan memo of this family's reports (see _scan)."""
        return {}

    @cached_property
    def _names(self) -> dict[tuple[int, ...], str]:
        """The graph6 string of each labeled factor its reports have named,
        by the factor's adjacency (see _discrepancy)."""
        return {}

    @cached_property
    def _labeled(self) -> tuple[tuple[Graph, ...], ...]:
        """enumerate_labeled_graphs(n) for n = 1 .. max(n1_max, n2_max)."""
        return tuple(tuple(enumerate_labeled_graphs(n)) for n in range(1, max(self.n1_max, self.n2_max) + 1))

    def instances(self) -> Iterator[tuple[Graph, Graph]]:
        if self.mode == "exhaustive":
            rights = list(itertools.chain.from_iterable(self._labeled[: self.n2_max]))
            for batch in self._labeled[: self.n1_max]:
                for g1 in batch:
                    for g2 in rights:
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


def _class_key(g: Graph) -> tuple:
    """(n, the least edge mask of ``g``'s isomorphism class) for n up to
    ENUMERATION_LIMIT, else ("labeled", ``g``'s adjacency)."""
    return _class_table(g.n)[g.adj_bits] if g.n <= ENUMERATION_LIMIT else ("labeled", g.adj_bits)


def _scan(scans: dict, key: tuple, g1: Graph, g2: Graph | None = None) -> CutScan | None:
    """The scan in ``scans`` of ``g1``'s class, or of its product with ``g2``'s,
    under ``key``: (``g1``'s class key, ``g2``'s or None). Its cuts are
    those of the first labeling visited, so only its invariant fields are
    read. A factor that is disconnected or complete maps to None: no rule
    reads its scan, which can walk a number of subsets exponential in its
    size."""
    if key not in scans:
        if g2 is not None:
            scans[key] = _twin_scan(lex_product(g1, g2))
        else:
            scans[key] = _twin_scan(g1) if is_connected(g1) and not is_complete(g1) else None
    return scans[key]


def _formula(scans: dict, theorem_id: str, g1: Graph, g2: Graph, reading: str, keys: tuple[tuple, tuple]):
    """The rule's value on (g1, g2), whose class keys are ``keys``, or None
    when the pair fails the rule's hypotheses: a disconnected left factor,
    or the branch that lexprod's rule returns with its value is not the rule's label."""
    invariant, label = _RULES[theorem_id]
    # a complete g1 is complete_left under every invariant, and its memo entry is None
    if label == "complete_left" and is_complete(g1):
        value, branch = _kappa_rule(g1.n, g1.n - 1, g2)
    elif label == "complete_left" or (left := _scan(scans, (keys[0], None), g1)) is None:
        return None
    elif invariant == "kappa":
        value, branch = _kappa_rule(g1.n, left.kappa, g2)
    elif invariant == "k1":
        value, branch = _k1_rule(left, g2, reading)
    else:
        value, branch = _super_rule(g2, left.super_connected)
    if branch != label:
        return None
    return ExtendedNat(value) if invariant == "kappa" else value


def _verdict(scans: dict, theorem_id: str, g1: Graph, g2: Graph, reading: str, keys: tuple[tuple, tuple]):
    """None when (g1, g2), whose class keys are ``keys``, fails the rule's
    hypotheses, True when the rule and the oracle agree, else the
    discrepancy's facts (formula value, oracle value, witness), where the
    witness is None when the oracle value is infinite and else (is it a k1
    cut, its size, the product's kappa).

    Every part is read from the factors' classes, so the verdict holds for
    every relabeling of either factor.
    """
    formula = _formula(scans, theorem_id, g1, g2, reading, keys)
    if formula is None:
        return None
    pscan, invariant = _scan(scans, keys, g1, g2), _RULES[theorem_id][0]
    if invariant == "kappa":
        oracle, k1_witness = ExtendedNat(pscan.kappa), False
    elif invariant == "k1":
        oracle, k1_witness = pscan.k1, True
    else:
        # the hypotheses make the product connected and non-complete, where
        # a minimum cut isolating nobody is the first k1 cut
        oracle, k1_witness = pscan.super_connected, not pscan.super_connected
    if formula == oracle:
        return True
    if k1_witness and not pscan.k1.is_finite:
        return formula, oracle, None
    size = pscan.k1.value if k1_witness else pscan.kappa
    return formula, oracle, (k1_witness, size, pscan.kappa)


def _discrepancy(
    theorem_id: str, g1: Graph, g2: Graph, reading: str, facts, names: dict[tuple[int, ...], str]
) -> DiscrepancyCertificate:
    """The pair's certificate from its verdict's ``facts``.

    The witness is cuts._witness_cut of the pair's own labeled product:
    the kappa_cut or k1_cut that _twin_scan, and so scan_cuts, finds
    there, the lex-first cut of its kind, walked only up to the size the
    memo proved. A cut that is missing or not of that size raises
    RuntimeError naming the field. ``names``, the family's in a sweep, maps
    a factor's adjacency to its graph6 string; a factor not in it yet is
    serialized and added.
    """
    formula, oracle, witness = facts
    if witness is not None:
        k1_witness, size, kappa = witness
        labeled = lex_product(g1, g2)
        cut = _witness_cut(labeled, k1_witness, size, kappa)
        if cut is None or len(cut) != size:
            field = "k1_cut" if k1_witness else "kappa_cut"
            raise RuntimeError(f"the class memo has no {field} of its size on {serialize_graph6(labeled)}")
        witness = _certificate(labeled, cut, size == kappa)
    for g in (g1, g2):
        if g.adj_bits not in names:
            names[g.adj_bits] = serialize_graph6(g)
    return DiscrepancyCertificate(
        theorem_id=theorem_id,
        g1=names[g1.adj_bits],
        g2=names[g2.adj_bits],
        formula_value=formula,
        oracle_value=oracle,
        witness=witness,
        reading=reading,
    )


def _check(theorem_id: str, g1: Graph, g2: Graph, reading: str):
    """None when (g1, g2) fails the rule's hypotheses, True when the rule
    and the oracle agree, else the pair's DiscrepancyCertificate; it scans afresh."""
    verdict = _verdict({}, theorem_id, g1, g2, reading, (_class_key(g1), _class_key(g2)))
    if verdict is None or verdict is True:
        return verdict
    return _discrepancy(theorem_id, g1, g2, reading, verdict, {})


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
    # per left class, each verdict by the right factor's adjacency, which fixes its n
    rows: dict[tuple, dict[tuple[int, ...], object]] = {}
    scans, names = family._scans, family._names
    left = None
    for g1, g2 in family.instances():
        # an exhaustive family hands out each left factor for a run of pairs
        if g1 is not left:
            left_key = _class_key(g1)
            left, row = g1, rows.setdefault(left_key, {})
        try:
            verdict = row[g2.adj_bits]
        except KeyError:
            key = (left_key, _class_key(g2))
            if key not in verdicts:
                verdicts[key] = _verdict(scans, theorem_id, g1, g2, reading, key)
            verdict = row[g2.adj_bits] = verdicts[key]
        if verdict is None:
            skipped += 1
        elif verdict is True:
            agreements += 1
        else:
            discrepancies.append(_discrepancy(theorem_id, g1, g2, reading, verdict, names))
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
    values, and the witness, flags included. Every scan is made afresh, so
    nothing an earlier sweep in the process left behind is read.
    """
    if cert.theorem_id not in THEOREM_IDS or cert.reading not in READINGS:
        return False
    g1, g2 = parse_graph6(cert.g1), parse_graph6(cert.g2)
    if not 0 < g1.n * g2.n <= PRODUCT_LIMIT:
        return False
    return _check(cert.theorem_id, g1, g2, cert.reading) == cert
