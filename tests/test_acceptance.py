"""Acceptance suite.

Each criterion below runs at its stated scale with exact comparisons and
prints one PASS/FAIL line (run pytest with -s to watch them stream by).
The verification reports produced along the way are kept in session state
so the final determinism criterion can regenerate and byte-compare them.
"""

import time

import pytest

from helpers import brute_k1
from lexiconn import (
    INFINITY,
    ExtendedNat,
    InstanceFamily,
    bowtie_graph,
    complete_graph,
    cut_certificate,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_labeled_graphs,
    is_complete,
    is_connected,
    is_k1_vertex_cut,
    is_super_connected,
    is_vertex_cut,
    k1_connectivity,
    lex_k1_connectivity,
    lex_product,
    lift_min_cut,
    path_graph,
    random_graph,
    star_graph,
    validate_certificate,
    verify_theorem,
    vertex_connectivity,
    vertex_connectivity_oracle,
)

K1_THEOREMS = ("thm22", "thm23", "cor24")
READINGS = ("min_cuts_only", "all_cuts")


@pytest.fixture()
def announce(capsys):
    """Print through pytest's capture so criterion lines always show."""

    def _announce(text: str) -> None:
        with capsys.disabled():
            print(text)

    return _announce


@pytest.fixture()
def report_line(announce):
    def _line(number: int, ok: bool, text: str) -> None:
        announce(f"ACCEPTANCE criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")

    return _line


@pytest.fixture(scope="session")
def left_factors():
    """All labeled connected non-complete graphs on 3 to 5 vertices."""
    out = []
    for n in (3, 4, 5):
        for g in enumerate_labeled_graphs(n):
            if is_connected(g) and not is_complete(g):
                out.append(g)
    return out


@pytest.fixture(scope="session")
def right_factors():
    """All labeled graphs on 1 to 3 vertices."""
    return [g for m in (1, 2, 3) for g in enumerate_labeled_graphs(m)]


@pytest.fixture(scope="session")
def k1_reports():
    """The six verification runs of criterion 7, shared with criterion 8."""
    family = InstanceFamily(5, 3)
    return {
        (theorem_id, reading): verify_theorem(theorem_id, family, reading)
        for theorem_id in K1_THEOREMS
        for reading in READINGS
    }


def test_criterion_1_product_connectivity_exhaustive(left_factors, right_factors, report_line):
    """kappa(G1 o G2) = kappa(G1) * |V(G2)| over every connected
    non-complete G1 with 3..5 vertices and every G2 with 1..3 vertices."""
    start = time.time()
    failures = []
    checked = 0
    for g1 in left_factors:
        kappa1 = vertex_connectivity(g1)
        for g2 in right_factors:
            checked += 1
            got = vertex_connectivity(lex_product(g1, g2))
            if got != kappa1 * g2.n:
                failures.append((g1.edges(), g2.edges(), got, kappa1 * g2.n))
    elapsed = time.time() - start
    ok = not failures and checked == len(left_factors) * len(right_factors)
    report_line(1, ok, f"{checked} products, {len(failures)} discrepancies, {elapsed:.1f}s")
    assert checked == (3 + 37 + 727) * (1 + 2 + 8)
    assert not failures


def test_criterion_2_product_connectivity_complete_branch(report_line):
    """kappa(K_n o G2) = (n - 1) * |V(G2)| + kappa(G2) for n in {2,3,4}
    and every G2 with up to 4 vertices."""
    failures = []
    checked = 0
    for n in (2, 3, 4):
        g1 = complete_graph(n)
        for m in (1, 2, 3, 4):
            for g2 in enumerate_labeled_graphs(m):
                checked += 1
                expected = (n - 1) * m + vertex_connectivity(g2)
                got = vertex_connectivity(lex_product(g1, g2))
                if got != expected:
                    failures.append((n, g2.edges(), got, expected))
    ok = not failures
    report_line(2, ok, f"{checked} products, {len(failures)} discrepancies")
    assert checked == 3 * (1 + 2 + 8 + 64)
    assert not failures


def test_criterion_3_connectivity_cross_implementation(report_line):
    """Max-flow connectivity equals the subset-enumeration oracle on at
    least 200 seeded random graphs with up to 8 vertices."""
    failures = []
    checked = 0
    for p_index, p in enumerate((0.2, 0.5, 0.8)):
        for i in range(70):
            n = i % 8 + 1
            g = random_graph(n, p, seed=1000 * p_index + i)
            checked += 1
            if vertex_connectivity(g) != vertex_connectivity_oracle(g):
                failures.append((n, p, 1000 * p_index + i))
    ok = checked >= 200 and not failures
    report_line(3, ok, f"{checked} random graphs across p in (0.2, 0.5, 0.8), {len(failures)} mismatches")
    assert checked >= 200
    assert not failures


def test_criterion_4_k1_definitional_suite(report_line):
    """Library values and an independent brute force agree on the
    definitional k1 examples."""
    cases = [
        (star_graph(2), INFINITY),
        (star_graph(3), INFINITY),
        (star_graph(4), INFINITY),
        (path_graph(6), ExtendedNat(1)),
        (cycle_graph(6), ExtendedNat(2)),
        (cycle_graph(5), INFINITY),
    ]
    failures = []
    for g, expected in cases:
        library = k1_connectivity(g)
        brute = brute_k1(g)
        brute_value = INFINITY if brute is None else ExtendedNat(brute)
        if library != expected or brute_value != expected:
            failures.append((g.edges(), str(library), str(brute_value), str(expected)))
    ok = not failures
    report_line(4, ok, f"{len(cases)} definitional values, both paths, {len(failures)} mismatches")
    assert not failures


def test_criterion_5_counterexample_regression(report_line):
    """The bowtie's lifted hub cut is a minimum cut of the product with
    (one edge plus an isolated vertex) that isolates nothing, so that
    product is not super connected."""
    g1 = bowtie_graph()
    g2 = disjoint_union(complete_graph(2), empty_graph(1))
    product = lex_product(g1, g2)
    lifted = lift_min_cut((1,), g2.n)
    checks = {
        "lift is {3,4,5}": lifted == (3, 4, 5),
        "size 3": len(lifted) == 3,
        "is a cut": is_vertex_cut(product, lifted),
        "is minimum (max flow)": vertex_connectivity(product) == 3,
        "is minimum (oracle)": vertex_connectivity_oracle(product) == 3,
        "isolates no vertex": cut_certificate(product, lifted).isolated_after == (),
        "product not super connected": not is_super_connected(product),
    }
    failed = [name for name, good in checks.items() if not good]
    report_line(5, not failed, f"{len(checks)} checks on the 15-vertex product" + (f"; failed: {failed}" if failed else ""))
    assert not failed


def test_criterion_6_super_parts_one_and_two_exhaustive(report_line):
    """Products with connected right factors, and with disconnected right
    factors free of isolated vertices, are never super connected over
    n1 <= 4 and 2 <= m <= 3."""
    family = InstanceFamily(4, 3)
    part1 = verify_theorem("super_part1", family)
    part2 = verify_theorem("super_part2", family)
    ok = part1.discrepancies == () and part2.discrepancies == () and part1.instances_checked > 0
    note = (
        f"part1: {part1.instances_checked} instances, {len(part1.discrepancies)} discrepancies; "
        f"part2: {part2.instances_checked} instances (vacuous at m <= 3: the smallest "
        f"disconnected graph without isolated vertices has 4 vertices), "
        f"{len(part2.discrepancies)} discrepancies"
    )
    report_line(6, ok, note)
    assert part1.instances_checked == 200
    assert part1.discrepancies == ()
    assert part2.instances_checked == 0
    assert part2.discrepancies == ()


def test_criterion_7_k1_rules_harness_run(left_factors, right_factors, k1_reports, report_line, announce):
    """Full harness run for the three k1 rules under both quantifier
    readings: both runs complete, every discrepancy certificate
    revalidates, and every finite fast-path answer carries a witness that
    verifies on the product."""
    family_size = (1 + 2 + 8 + 64 + 1024) * (1 + 2 + 8)
    problems = []
    for (theorem_id, reading), report in sorted(k1_reports.items()):
        if report.instances_checked + report.skipped != family_size:
            problems.append(f"{theorem_id}/{reading}: accounting broken")
        if report.agreements + len(report.discrepancies) != report.instances_checked:
            problems.append(f"{theorem_id}/{reading}: tally broken")
        bad_certs = sum(0 if validate_certificate(c) else 1 for c in report.discrepancies)
        if bad_certs:
            problems.append(f"{theorem_id}/{reading}: {bad_certs} invalid certificates")
        rate = (
            f"{report.agreements}/{report.instances_checked}"
            if report.instances_checked
            else "vacuous (no qualifying instances)"
        )
        announce(f"    {theorem_id} under {reading}: agreement {rate}, "
                 f"{len(report.discrepancies)} certified discrepancies")

    unsound = 0
    swept = 0
    for g1 in left_factors:
        for g2 in right_factors:
            swept += 1
            result = lex_k1_connectivity(g1, g2)
            if result.value.is_finite:
                if result.witness is None or len(result.witness) != result.value:
                    unsound += 1
                    continue
                if not is_k1_vertex_cut(lex_product(g1, g2), result.witness):
                    unsound += 1
    if unsound:
        problems.append(f"{unsound} finite answers without verifying witnesses")
    ok = not problems
    report_line(
        7,
        ok,
        f"6 reports over {family_size} pairs each, witness soundness swept over "
        f"{swept} products, problems: {problems if problems else 'none'}",
    )
    assert not problems


def test_criterion_8_determinism(k1_reports, report_line):
    """Regenerating every verification report byte-reproduces it, and the
    seeded random pieces of earlier criteria reproduce too."""
    family = InstanceFamily(5, 3)
    mismatches = []
    for (theorem_id, reading), report in sorted(k1_reports.items()):
        again = verify_theorem(theorem_id, family, reading)
        if again.canonical_json() != report.canonical_json():
            mismatches.append(f"{theorem_id}/{reading}")
    part_reports = [
        ("super_part1", InstanceFamily(4, 3), "min_cuts_only"),
        ("super_part2", InstanceFamily(4, 3), "min_cuts_only"),
    ]
    for theorem_id, fam, reading in part_reports:
        first = verify_theorem(theorem_id, fam, reading)
        second = verify_theorem(theorem_id, fam, reading)
        if first.canonical_json() != second.canonical_json():
            mismatches.append(theorem_id)
    for p_index, p in enumerate((0.2, 0.5, 0.8)):
        for i in (0, 35, 69):
            seed = 1000 * p_index + i
            if random_graph(i % 8 + 1, p, seed) != random_graph(i % 8 + 1, p, seed):
                mismatches.append(f"random p={p} seed={seed}")
    ok = not mismatches
    report_line(8, ok, f"regenerated {len(k1_reports) + 2} reports byte-identically"
                       + (f"; mismatches: {mismatches}" if mismatches else ""))
    assert not mismatches
