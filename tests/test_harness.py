import dataclasses
import itertools
import json
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_class_key, graph_from_mask
from lexiconn import (
    READINGS,
    DiscrepancyCertificate,
    Graph,
    InstanceFamily,
    complete_graph,
    cut_certificate,
    empty_graph,
    enumerate_labeled_graphs,
    is_complete,
    is_connected,
    is_k1_vertex_cut,
    lex_k1_connectivity,
    lex_product,
    lex_super_connected,
    parse_graph6,
    path_graph,
    random_graph,
    scan_cuts,
    serialize_graph6,
    star_graph,
    validate_certificate,
    verify_theorem,
)
import lexiconn.harness
import lexiconn.lexprod
from lexiconn.cuts import _certificate, _class_subsets, _first_k1_cut, _twin_scan
from lexiconn.graphs import ExtendedNat
from lexiconn.harness import THEOREM_IDS, _check, _class_key
from lexiconn.io import GraphParseError


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (4, 64)])
    def test_counts(self, n, count):
        assert len(list(enumerate_labeled_graphs(n))) == count

    def test_first_two_graphs_on_two_vertices(self):
        graphs = list(enumerate_labeled_graphs(2))
        assert graphs[0].num_edges == 0
        assert graphs[1] == complete_graph(2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_graphs_come_in_edge_mask_order(self, n):
        # the golden digests rest on this order
        masks = range(2 ** (n * (n - 1) // 2))
        assert list(enumerate_labeled_graphs(n)) == [graph_from_mask(n, mask) for mask in masks]

    def test_budget(self):
        with pytest.raises(ValueError):
            list(enumerate_labeled_graphs(0))
        with pytest.raises(ValueError):
            list(enumerate_labeled_graphs(7))

    def test_no_duplicates(self):
        graphs = list(enumerate_labeled_graphs(4))
        assert len({g for g in graphs}) == 64


class TestRandomGraph:
    def test_probability_extremes(self):
        assert random_graph(5, 0, 123).num_edges == 0
        assert random_graph(4, 1, 123) == complete_graph(4)

    def test_determinism(self):
        assert random_graph(6, 0.5, 42) == random_graph(6, 0.5, 42)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_graph(0, 0.5, 1)
        with pytest.raises(ValueError):
            random_graph(3, 1.5, 1)


class TestInstanceFamily:
    def test_exhaustive_budget(self):
        with pytest.raises(ValueError, match="factor size bounds must be at least 1"):
            InstanceFamily(0, 1)
        with pytest.raises(ValueError):
            InstanceFamily(7, 2)
        with pytest.raises(ValueError):
            InstanceFamily(4, 5)
        with pytest.raises(ValueError):
            InstanceFamily(6, 4, mode="random", sample_count=0)
        with pytest.raises(ValueError):
            InstanceFamily(3, 2, mode="sideways")
        with pytest.raises(ValueError):
            InstanceFamily(3, 2, mode="random", edge_probability=2.0)

    def test_product_size_cap(self):
        with pytest.raises(ValueError):
            InstanceFamily(24, 2, mode="random")

    def test_exhaustive_stream_size(self):
        family = InstanceFamily(3, 2)
        pairs = list(family.instances())
        assert len(pairs) == (1 + 2 + 8) * (1 + 2)

    def test_random_stream_is_reproducible(self):
        fam = InstanceFamily(4, 3, mode="random", sample_count=20, seed=7, edge_probability=0.4)
        first = [(a, b) for a, b in fam.instances()]
        second = [(a, b) for a, b in fam.instances()]
        assert first == second

    def test_exhaustive_walks_hand_out_the_same_graphs(self, monkeypatch):
        family = InstanceFamily(4, 3)
        first, second = list(family.instances()), list(family.instances())
        assert first == second
        assert all(a[0] is b[0] and a[1] is b[1] for a, b in zip(first, second))
        # the pairs are those of the labeled enumeration, in its order
        lefts = [g for n in range(1, 5) for g in enumerate_labeled_graphs(n)]
        rights = [g for n in range(1, 4) for g in enumerate_labeled_graphs(n)]
        assert first == [(g1, g2) for g1 in lefts for g2 in rights]
        # an equal family object starts with an empty memo, so it scans as often as the first
        scanned = []
        twin_scan = lexiconn.harness._twin_scan
        monkeypatch.setattr(lexiconn.harness, "_twin_scan", lambda g: scanned.append(g) or twin_scan(g))
        fresh = InstanceFamily(4, 3)
        counts = []
        for fam in (family, fresh):
            verify_theorem("cor24", fam, "all_cuts")
            counts.append(len(scanned))
        assert counts[0] > 0 and counts[1] == 2 * counts[0]
        # the kept graphs and the memo are no field: the family compares, hashes and prints by its parameters
        for other in (fresh, InstanceFamily(4, 3)):
            assert family == other and hash(family) == hash(other) and repr(family) == repr(other)
        assert family != InstanceFamily(4, 2)


def relabeled_graphs(max_n=7):
    """(graph, the same graph with its vertices permuted)."""

    def build(n):
        masks = st.integers(0, 2 ** (n * (n - 1) // 2) - 1)
        return st.tuples(st.builds(graph_from_mask, st.just(n), masks), st.permutations(range(n)))

    return st.integers(1, max_n).flatmap(build).map(
        lambda pair: (pair[0], Graph(pair[0].n, [(pair[1][u], pair[1][v]) for u, v in pair[0].edges()]))
    )


def one_above_a_k1_cut(scan, product):
    """kappa + 1 for k1, when ``product``, scanned as ``scan``, has k1 equal
    to kappa and a k1 cut of size kappa + 1 among the unions of its twin
    classes, which the witness walk draws: a walk of that size alone, or
    one skipping size kappa, would find a witness."""
    if scan.k1 != ExtendedNat(scan.kappa):
        return {}
    if _first_k1_cut(product, _class_subsets(product), (scan.kappa + 1,)) is None:
        return {}
    return {"k1": ExtendedNat(scan.kappa + 1)}


class TestClassKey:
    @pytest.mark.parametrize("n,classes", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)])
    def test_one_key_per_isomorphism_class(self, n, classes):
        assert len({_class_key(g) for g in enumerate_labeled_graphs(n)}) == classes

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_key_is_the_least_mask_over_all_relabelings(self, n):
        for g in enumerate_labeled_graphs(n):
            assert _class_key(g) == brute_class_key(g)

    def test_seven_vertex_graphs_key_their_labeling(self):
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
        assert _class_key(g) == ("labeled", g.adj_bits)

    @settings(max_examples=150, deadline=None)
    @given(relabeled_graphs())
    def test_relabeling_keeps_the_key(self, pair):
        g, relabeled = pair
        key = _class_key(g)
        if key[0] == "labeled":
            # past the ordering bound only a labeling is keyed, never a class
            assert _class_key(relabeled)[0] == "labeled"
        else:
            assert _class_key(relabeled) == key

    def test_symmetric_24_vertex_graphs_fall_back_quickly(self):
        start = time.perf_counter()
        for g in (empty_graph(24), complete_graph(24)):
            assert _class_key(g) == ("labeled", g.adj_bits)
        assert time.perf_counter() - start < 0.5

    def test_witnesses_come_from_the_labeled_product(self):
        # K2 + K1 has three labelings in one class, so a memoized cut could
        # name the wrong vertices for two of them
        report = verify_theorem("cor24", InstanceFamily(4, 3), "all_cuts")
        witnessed = [cert for cert in report.discrepancies if cert.witness is not None]
        assert len(witnessed) == 48
        assert {cert.g2 for cert in witnessed} == {"B_", "BO", "BG"}
        for cert in witnessed:
            product = lex_product(parse_graph6(cert.g1), parse_graph6(cert.g2))
            scan = scan_cuts(product)
            assert cert.witness == cut_certificate(product, scan.k1_cut)

    @pytest.mark.parametrize(
        "theorem_id,family,witnessed",
        [("cor24", InstanceFamily(4, 3), 48), ("cor24", InstanceFamily(4, 4), 400), ("thm23", InstanceFamily(6, 2), 7380)],
        ids=["cor24-4-3", "cor24-4-4", "thm23-6-2"],
    )
    def test_bounded_witness_walks_certify_what_a_full_scan_finds(self, theorem_id, family, witnessed):
        # the witness walk stops at the memo's k1 size; a full class walk of
        # the same labeled product must give the same certificate
        report = verify_theorem(theorem_id, family, "all_cuts")
        certs = [cert for cert in report.discrepancies if cert.witness is not None]
        assert len(certs) == witnessed
        for cert in certs:
            product = lex_product(parse_graph6(cert.g1), parse_graph6(cert.g2))
            scan = _twin_scan(product)
            assert cert.witness == _certificate(product, scan.k1_cut, len(scan.k1_cut) == scan.kappa)

    @pytest.mark.parametrize("theorem_id", ["thm21", "super_part1", "super_part3"])
    def test_perturbed_rules_witness_every_pair_as_a_full_scan_would(self, theorem_id, monkeypatch):
        # no rule fails on these, so flip each value to reach the kappa_cut
        # and super witnesses: super_part1 products have k1 == kappa, and
        # super_part3 products are super connected
        formula = lexiconn.harness._formula

        def perturbed(*args):
            value = formula(*args)
            if value is None:
                return None
            return not value if isinstance(value, bool) else ExtendedNat(value.value + 1)

        monkeypatch.setattr(lexiconn.harness, "_formula", perturbed)
        report = verify_theorem(theorem_id, InstanceFamily(4, 2))
        assert report.instances_checked == len(report.discrepancies) > 0
        for cert in report.discrepancies:
            product = lex_product(parse_graph6(cert.g1), parse_graph6(cert.g2))
            scan = scan_cuts(product)
            field = "kappa_cut" if cert.oracle_value is not False else "k1_cut"
            assert cert.witness == cut_certificate(product, getattr(scan, field))
            # super certificates carry bool values through JSON
            rebuilt = DiscrepancyCertificate.from_json(json.loads(json.dumps(cert.to_json())))
            assert rebuilt == cert
            assert validate_certificate(rebuilt)

    @pytest.mark.parametrize(
        "theorem_id,wrong_size,field",
        [
            ("thm21", lambda scan, product: {"kappa": 0}, "kappa_cut"),
            ("cor24", lambda scan, product: {"k1": ExtendedNat(0)}, "k1_cut"),
            # the memo's k1 is kappa + 1, the product's is kappa: the walk must start at kappa
            ("cor24", one_above_a_k1_cut, "k1_cut"),
        ],
        # fixed ids, as pytest would name each case by its callable
        ids=["thm21-wrong_size0-kappa_cut", "cor24-wrong_size1-k1_cut", "cor24-wrong_size2-k1_cut"],
    )
    def test_a_memo_size_with_no_cut_on_the_product_raises(self, theorem_id, wrong_size, field, monkeypatch):
        # every product here is connected, so none has a cut of size 0
        scan = lexiconn.harness._scan
        wronged = []

        def wrong(scans, key, g1, g2=None):
            value = scan(scans, key, g1, g2)
            if g2 is None or not (changes := wrong_size(value, lex_product(g1, g2))):
                return value
            wronged.append(key)
            return dataclasses.replace(value, **changes)

        monkeypatch.setattr(lexiconn.harness, "_scan", wrong)
        with pytest.raises(RuntimeError, match=field):
            verify_theorem(theorem_id, InstanceFamily(4, 3), "all_cuts")
        assert wronged


class TestVerifyTheorem:
    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            verify_theorem("thm99", InstanceFamily(3, 2))

    def test_unknown_reading(self):
        with pytest.raises(ValueError):
            verify_theorem("thm21", InstanceFamily(3, 2), reading="sideways")

    def test_kappa_rule_exhaustive(self):
        report = verify_theorem("thm21", InstanceFamily(4, 2))
        assert report.discrepancies == ()
        assert report.instances_checked == 120
        assert report.agreements == 120
        assert report.instances_checked + report.skipped == (1 + 2 + 8 + 64) * (1 + 2)

    def test_kappa_rule_complete_branch(self):
        report = verify_theorem("thm21_complete", InstanceFamily(4, 2))
        assert report.discrepancies == ()
        # exactly one complete graph per size
        assert report.instances_checked == 4 * 3

    def test_equal_branch_rule(self):
        report = verify_theorem("thm22", InstanceFamily(5, 2))
        assert report.instances_checked > 0
        assert report.discrepancies == ()

    def test_mid_branch_rule_is_vacuous_below_six_vertices(self):
        # a finite k1 above kappa needs at least six vertices in the left factor
        report = verify_theorem("thm23", InstanceFamily(5, 2))
        assert report.instances_checked == 0
        assert report.agreements == 0

    def test_mid_branch_rule_holds_on_six_vertex_left_factors(self):
        report = verify_theorem("thm23", InstanceFamily(6, 3))
        assert report.instances_checked == 40590
        assert report.discrepancies == ()

    def test_mid_branch_rule_fails_under_all_cuts_by_right_factors_with_isolated_vertices(self):
        # a thm23 left factor has a k1 cut, so all_cuts counts 0 isolated
        # vertices and predicts kappa * m; but its minimum cuts all isolate a
        # vertex, and their rows leave the right factor's isolated copies isolated
        family = InstanceFamily(6, 2)
        report = verify_theorem("thm23", family, "all_cuts")
        assert report.instances_checked == 11070
        assert len(report.discrepancies) == 7380
        # K1 and 2K1; K2 has no isolated vertex
        assert {cert.g2 for cert in report.discrepancies} == {"@", "A?"}
        assert all(cert.formula_value.value < cert.oracle_value.value for cert in report.discrepancies)
        assert validate_certificate(report.discrepancies[0]) and validate_certificate(report.discrepancies[-1])
        assert verify_theorem("thm23", family, "min_cuts_only").discrepancies == ()

    def test_super_rules_small(self):
        for theorem_id, family in (
            ("super_part1", InstanceFamily(4, 3)),
            ("super_part2", InstanceFamily(3, 4)),
            ("super_part3", InstanceFamily(4, 3)),
            ("super_part3", InstanceFamily(5, 2)),
        ):
            report = verify_theorem(theorem_id, family)
            assert report.discrepancies == (), theorem_id
            assert report.instances_checked > 0, theorem_id

    def test_one_vertex_right_factor_breaks_the_no_cut_rule(self):
        # the closed form overshoots when the product collapses to the left factor
        report = verify_theorem("cor24", InstanceFamily(4, 1))
        assert report.instances_checked == 40
        assert len(report.discrepancies) == 40
        for cert in report.discrepancies:
            assert cert.oracle_value == ExtendedNat.from_json("infinity")
            assert validate_certificate(cert)

    def test_accounting_invariant(self):
        family = InstanceFamily(4, 2)
        total = sum(1 for _ in family.instances())
        for theorem_id in ("thm21", "cor24", "super_part1"):
            report = verify_theorem(theorem_id, family)
            assert report.agreements + len(report.discrepancies) == report.instances_checked
            assert report.instances_checked + report.skipped == total

    def test_reports_are_deterministic(self):
        family = InstanceFamily(4, 2)
        first = verify_theorem("cor24", family, "min_cuts_only")
        # an equal family object starts with an empty memo
        second = verify_theorem("cor24", InstanceFamily(4, 2), "min_cuts_only")
        assert first.canonical_json() == second.canonical_json()

    def test_random_mode_reports_carry_their_seed(self):
        family = InstanceFamily(4, 2, mode="random", sample_count=30, seed=99)
        report = verify_theorem("thm21", family)
        assert report.seed == 99
        assert report.to_json()["seed"] == 99
        again = verify_theorem("thm21", family)
        assert report.canonical_json() == again.canonical_json()

    def test_exhaustive_reports_omit_seed(self):
        report = verify_theorem("thm21", InstanceFamily(3, 2))
        assert report.seed is None
        assert "seed" not in report.to_json()

    def test_repeated_reports_build_and_scan_nothing(self, monkeypatch):
        family = InstanceFamily(4, 2)
        runs = [("thm21", "min_cuts_only"), ("super_part1", "min_cuts_only")]
        runs += [(theorem_id, reading) for theorem_id in ("thm22", "cor24") for reading in READINGS]
        first = [verify_theorem(theorem_id, family, reading) for theorem_id, reading in runs]
        wide = InstanceFamily(4, 3)
        witnessed = verify_theorem("cor24", wide, "all_cuts")
        calls = {}

        def counting(key, inner):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return inner(*args, **kwargs)

            return wrapper

        for module, name in (
            (lexiconn.harness, "lex_product"),
            (lexiconn.harness, "_twin_scan"),
            (lexiconn.lexprod, "scan_cuts"),
        ):
            key = f"{module.__name__}.{name}"
            calls[key] = 0
            monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
        again = [verify_theorem(theorem_id, family, reading) for theorem_id, reading in runs]
        assert [r.canonical_json() for r in again] == [r.canonical_json() for r in first]
        assert first[0].discrepancies == first[1].discrepancies == ()
        assert calls == {
            "lexiconn.harness.lex_product": 0,
            "lexiconn.harness._twin_scan": 0,
            "lexiconn.lexprod.scan_cuts": 0,
        }
        # each witness is read off one bounded walk of its own labeled product, not a scan
        calls["lexiconn.harness._witness_cut"] = 0
        witness_cut = lexiconn.harness._witness_cut
        monkeypatch.setattr(lexiconn.harness, "_witness_cut", counting("lexiconn.harness._witness_cut", witness_cut))
        again = verify_theorem("cor24", wide, "all_cuts")
        assert again.canonical_json() == witnessed.canonical_json()
        assert sum(cert.witness is not None for cert in again.discrepancies) == 48
        assert calls == {
            "lexiconn.harness.lex_product": 48,
            "lexiconn.harness._twin_scan": 0,
            "lexiconn.lexprod.scan_cuts": 0,
            "lexiconn.harness._witness_cut": 48,
        }

    def test_verdicts_are_derived_once_per_class_pair(self, monkeypatch):
        family = InstanceFamily(4, 3)
        verdict = lexiconn.harness._verdict
        derived = []

        def counting(scans, theorem_id, g1, g2, reading, keys):
            assert keys == (_class_key(g1), _class_key(g2))
            derived.append(keys)
            return verdict(scans, theorem_id, g1, g2, reading, keys)

        monkeypatch.setattr(lexiconn.harness, "_verdict", counting)
        report = verify_theorem("cor24", family, "all_cuts")
        # 18 left classes on 1-4 vertices by 7 right classes on 1-3
        assert len(derived) == len(set(derived)) == 126
        # each visit still writes the certificate a lone check of its pair
        # writes; test_golden pins the report's bytes
        checked = [_check("cor24", g1, g2, "all_cuts") for g1, g2 in family.instances()]
        assert report.discrepancies == tuple(c for c in checked if c is not None and c is not True)
        assert len(report.discrepancies) == 168

    @pytest.mark.parametrize(
        "family",
        [InstanceFamily(4, 3), InstanceFamily(4, 3, mode="random", sample_count=300, seed=7)],
        ids=["exhaustive", "random"],
    )
    def test_reports_equal_a_tally_of_every_pair_checked_alone(self, family):
        # a report looks a pair's verdict up by its left class and its right
        # factor's adjacency; a lone check of each pair must tally the same
        pairs = list(family.instances())
        keys = [(_class_key(g1), _class_key(g2)) for g1, g2 in pairs]
        # the random family repeats class pairs under other labelings and objects
        assert len(set(keys)) < len(pairs)
        sweep = [(t, r) for t in THEOREM_IDS for r in (READINGS if t in ("thm22", "thm23", "cor24") else READINGS[:1])]
        assert len(sweep) == 11
        for theorem_id, reading in sweep:
            report = verify_theorem(theorem_id, family, reading)
            checked = [_check(theorem_id, g1, g2, reading) for g1, g2 in pairs]
            assert report.skipped == checked.count(None), theorem_id
            assert report.agreements == sum(c is True for c in checked), theorem_id
            assert report.discrepancies == tuple(c for c in checked if c is not None and c is not True)
            assert report.instances_checked == len(pairs) - report.skipped

    def test_a_family_object_reused_across_a_sweep_writes_the_same_reports(self):
        family = InstanceFamily(4, 3)
        sweep = [(t, r) for t in THEOREM_IDS for r in (READINGS if t in ("thm22", "thm23", "cor24") else READINGS[:1])]
        assert len(sweep) == 11
        for theorem_id, reading in sweep:
            shared = verify_theorem(theorem_id, family, reading)
            assert shared.canonical_json() == verify_theorem(theorem_id, InstanceFamily(4, 3), reading).canonical_json()

    def test_each_factor_is_named_once_per_family(self, monkeypatch):
        calls = []
        serialize = lexiconn.harness.serialize_graph6
        monkeypatch.setattr(lexiconn.harness, "serialize_graph6", lambda g: calls.append(g) or serialize(g))
        family = InstanceFamily(4, 3)
        report = verify_theorem("cor24", family, "all_cuts")
        assert len(report.discrepancies) == 168
        # two factors per certificate, but only 46 distinct labeled factors among them
        names = {c.g1 for c in report.discrepancies} | {c.g2 for c in report.discrepancies}
        assert len(calls) == len(names) == 46
        # a second report on the same family object reads its names
        assert verify_theorem("cor24", family, "all_cuts").canonical_json() == report.canonical_json()
        assert len(calls) == 46
        # a new, equal family names its factors afresh
        verify_theorem("cor24", InstanceFamily(4, 3), "all_cuts")
        assert len(calls) == 92

    def test_kappa_rules_read_the_left_factor_without_a_max_flow(self, monkeypatch):
        # thm21 reads kappa(g1) from the memo, thm21_complete knows it is n1 - 1;
        # only a complete left factor's rule needs kappa(g2)
        from lexiconn.graphs import vertex_connectivity

        calls = []

        def counting(g):
            calls.append(g)
            return vertex_connectivity(g)

        monkeypatch.setattr(lexiconn.lexprod, "vertex_connectivity", counting)
        # the harness does not import it today; a future direct call is counted too
        monkeypatch.setattr(lexiconn.harness, "vertex_connectivity", counting, raising=False)
        report = verify_theorem("thm21", InstanceFamily(4, 2))
        assert report.instances_checked > 0 and report.discrepancies == ()
        assert calls == []
        report = verify_theorem("thm21_complete", InstanceFamily(4, 2))
        assert report.instances_checked == len(calls) == 12
        assert report.discrepancies == ()

    def test_sweeps_scan_no_disconnected_or_complete_factor(self, monkeypatch):
        # such a factor's scan can walk exponentially many subsets, and no rule needs it
        from lexiconn import is_complete, is_connected

        scanned = []
        scan = lexiconn.harness._twin_scan

        def recording(g):
            scanned.append(g)
            return scan(g)

        monkeypatch.setattr(lexiconn.harness, "_twin_scan", recording)
        for theorem_id in ("thm21", "thm22", "cor24", "super_part1", "super_part2", "super_part3"):
            verify_theorem(theorem_id, InstanceFamily(4, 3))
        assert scanned
        assert all(is_connected(g) and not is_complete(g) for g in scanned)

    def test_wall_time_excluded_from_canonical_form(self):
        report = verify_theorem("thm21", InstanceFamily(3, 2))
        assert "wall_time_ms" in report.to_json()
        assert "wall_time_ms" not in json.loads(report.canonical_json())


class TestCertificateValidation:
    @pytest.fixture()
    def real_cert(self):
        report = verify_theorem("cor24", InstanceFamily(4, 1))
        return report.discrepancies[0]

    def test_round_trip(self, real_cert):
        rebuilt = DiscrepancyCertificate.from_json(real_cert.to_json())
        assert rebuilt == real_cert
        assert validate_certificate(rebuilt)

    def test_every_certificate_of_a_report_round_trips(self):
        certs = verify_theorem("cor24", InstanceFamily(4, 3), "all_cuts").discrepancies
        assert len(certs) == 168
        # infinite oracle values come without a witness
        assert any(not cert.oracle_value.is_finite and cert.witness is None for cert in certs)
        assert any(cert.witness is not None for cert in certs)
        for cert in certs:
            rebuilt = DiscrepancyCertificate.from_json(json.loads(json.dumps(cert.to_json())))
            assert rebuilt == cert
            assert validate_certificate(rebuilt)

    def test_validation_rescans_instead_of_reading_the_sweeps_memo(self, monkeypatch):
        family = InstanceFamily(4, 3)
        certs = verify_theorem("cor24", family, "all_cuts").discrepancies
        assert len(certs) == 168
        # a k1 the products do not have: a validation reading it would find no k1 cut of that size
        products = {key: scan for key, scan in family._scans.items() if key[1] is not None and scan.k1.is_finite}
        assert products
        for key, scan in products.items():
            family._scans[key] = dataclasses.replace(scan, k1=ExtendedNat(scan.k1.value + 1))
        scanned = []
        twin_scan = lexiconn.harness._twin_scan
        monkeypatch.setattr(lexiconn.harness, "_twin_scan", lambda g: scanned.append(g) or twin_scan(g))
        assert all(validate_certificate(cert) for cert in certs)
        assert scanned

    def test_a_sweep_leaves_no_module_level_state_behind(self):
        def sizes():
            modules = [m for name, m in sys.modules.items() if name == "lexiconn" or name.startswith("lexiconn.")]
            return {
                (module.__name__, name): len(value)
                for module in modules
                for name, value in vars(module).items()
                if not name.startswith("__") and isinstance(value, (dict, list, set))
            }

        before = sizes()
        # the random family's left factors reach seven vertices, past ENUMERATION_LIMIT
        families = (InstanceFamily(3, 3), InstanceFamily(7, 2, mode="random", sample_count=20))
        assert max(g1.n for g1, _ in families[1].instances()) > lexiconn.harness.ENUMERATION_LIMIT
        certs = [c for family in families for c in verify_theorem("cor24", family, "all_cuts").discrepancies]
        assert certs and all(validate_certificate(cert) for cert in certs)
        assert sizes() == before

    def test_cross_family_tampering_rejected(self):
        # a witnessless k1 certificate repackaged as a connectivity claim
        base = verify_theorem("cor24", InstanceFamily(4, 1)).discrepancies[0]
        bogus = dataclasses.replace(
            base,
            theorem_id="thm21",
            formula_value=ExtendedNat(5),
            oracle_value=ExtendedNat(4),
        )
        assert not validate_certificate(bogus)

    def test_equal_values_rejected(self, real_cert):
        broken = dataclasses.replace(real_cert, formula_value=real_cert.oracle_value)
        assert not validate_certificate(broken)

    def test_wrong_oracle_value_rejected(self, real_cert):
        broken = dataclasses.replace(real_cert, oracle_value=ExtendedNat(999))
        assert not validate_certificate(broken)

    def test_unknown_theorem_rejected(self, real_cert):
        broken = dataclasses.replace(real_cert, theorem_id="thm99")
        assert not validate_certificate(broken)

    def test_unparsable_graphs_raise(self, real_cert):
        broken = dataclasses.replace(real_cert, g1="\x01bogus")
        with pytest.raises(GraphParseError):
            validate_certificate(broken)

    def test_products_past_the_limit_are_rejected_without_a_scan(self):
        # a 26-vertex product, past the oracle budget: its scan alone runs for many seconds
        cert = DiscrepancyCertificate(
            theorem_id="thm21",
            g1=serialize_graph6(star_graph(12)),
            g2=serialize_graph6(empty_graph(2)),
            formula_value=ExtendedNat(2),
            oracle_value=ExtendedNat(3),
            witness=None,
            reading="min_cuts_only",
        )
        start = time.perf_counter()
        assert not validate_certificate(cert)
        assert time.perf_counter() - start < 0.5

    def test_witness_flag_tampering_rejected(self):
        report = verify_theorem("cor24", InstanceFamily(3, 3), "all_cuts")
        cert = next(cert for cert in report.discrepancies if cert.witness is not None)
        assert validate_certificate(cert)
        flipped = dataclasses.replace(cert, witness=dataclasses.replace(cert.witness, isolated_after=(0,)))
        assert not validate_certificate(flipped)

    @pytest.mark.parametrize("cut", [(99,), (-1,)])
    def test_a_witness_naming_no_product_vertex_is_rejected_without_raising(self, cut):
        report = verify_theorem("cor24", InstanceFamily(3, 3), "all_cuts")
        cert = next(cert for cert in report.discrepancies if cert.witness is not None)
        broken = dataclasses.replace(cert, witness=dataclasses.replace(cert.witness, cut=cut))
        assert validate_certificate(broken) is False

    def test_another_spelling_of_a_factor_is_rejected(self, real_cert):
        # the prefix parses to the same graph, but the certificate is not the one the harness writes
        prefixed = ">>graph6<<" + real_cert.g1
        assert parse_graph6(prefixed) == parse_graph6(real_cert.g1)
        assert not validate_certificate(dataclasses.replace(real_cert, g1=prefixed))

    def test_another_cut_of_the_witness_size_is_rejected(self):
        # a genuine k1 cut of the right size, flags and all, but not the first in lex order
        report = verify_theorem("cor24", InstanceFamily(4, 3), "all_cuts")
        for cert in report.discrepancies:
            if cert.witness is None:
                continue
            product = lex_product(parse_graph6(cert.g1), parse_graph6(cert.g2))
            size = len(cert.witness.cut)
            other = next(
                (
                    cut
                    for cut in itertools.combinations(range(product.n), size)
                    if cut != cert.witness.cut and is_k1_vertex_cut(product, cut)
                ),
                None,
            )
            if other is not None:
                break
        assert other is not None and validate_certificate(cert)
        moved = dataclasses.replace(cert, witness=cut_certificate(product, other))
        assert moved.witness.disconnects and moved.witness.isolated_after == ()
        assert not validate_certificate(moved)

    def test_factors_outside_the_rule_hypotheses_are_rejected(self):
        # 2K1 is disconnected, so no super rule applies, whatever the product says
        from lexiconn import cut_certificate, empty_graph, lex_product, serialize_graph6

        g1 = empty_graph(2)
        g2 = complete_graph(1)
        cert = DiscrepancyCertificate(
            theorem_id="super_part1",
            g1=serialize_graph6(g1),
            g2=serialize_graph6(g2),
            formula_value=True,
            oracle_value=False,
            witness=cut_certificate(lex_product(g1, g2), ()),
            reading="min_cuts_only",
        )
        assert not validate_certificate(cert)


class TestCertificateFormulaSide:
    """A certificate's rule, reading and formula value are rechecked, not
    taken on trust."""

    @pytest.fixture()
    def cert(self):
        cert = verify_theorem("cor24", InstanceFamily(3, 2), "all_cuts").discrepancies[0]
        assert cert.formula_value == ExtendedNat(2) and validate_certificate(cert)
        return cert

    def test_rule_whose_hypotheses_the_pair_fails_rejected(self, cert):
        assert not validate_certificate(dataclasses.replace(cert, theorem_id="thm22"))

    def test_wrong_formula_value_rejected(self, cert):
        assert not validate_certificate(dataclasses.replace(cert, formula_value=ExtendedNat(3)))

    def test_unknown_reading_rejected(self, cert):
        assert not validate_certificate(dataclasses.replace(cert, reading="sideways"))

    def test_empty_factor_rejected(self, cert):
        assert not validate_certificate(dataclasses.replace(cert, g1="?"))


def _lexprod_branch(invariant, g1, g2):
    """lexprod's branch for the pair under one invariant, None for a
    disconnected left factor. lex_connectivity reports no branch, so its
    two cases take the non-complete rule's name and the label the other
    invariants give a complete left factor."""
    if not is_connected(g1):
        return None
    if invariant == "kappa":
        return "complete_left" if is_complete(g1) else "thm21"
    if invariant == "k1":
        return lex_k1_connectivity(g1, g2).branch
    return lex_super_connected(g1, g2)[1]


class TestRuleTable:
    """Labels are compared as strings, so a mistyped one would skip every
    pair of its rule and still write a clean report."""

    def test_a_pair_is_checked_exactly_when_lexprods_branch_is_the_rule_label(self):
        # no left factor on four vertices has a k1 cut of its connectivity's
        # size. P5's middle vertex is one, the thm22 branch. The hub 0 of the
        # six-vertex graph isolates its pendant 1, and its k1 cut {2, 3} is
        # larger: the thm23 branch.
        mid = Graph(6, [(0, 1), (0, 2), (0, 3), (2, 4), (3, 5), (4, 5)])
        family = InstanceFamily(4, 3)
        rights = [g2 for g1, g2 in family.instances() if g1.n == 1]
        pairs = list(family.instances()) + [(g1, g2) for g1 in (path_graph(5), mid) for g2 in rights]
        # the part2 branch needs a right factor like 2K2: disconnected, no isolated vertex
        pairs += InstanceFamily(3, 4).instances()
        branches = {invariant: set() for invariant, _ in lexiconn.harness._RULES.values()}
        scans = {}
        for g1, g2 in pairs:
            keys = (_class_key(g1), _class_key(g2))
            for theorem_id, (invariant, label) in lexiconn.harness._RULES.items():
                branch = _lexprod_branch(invariant, g1, g2)
                branches[invariant].add(branch)
                # a fallback answer does not name the rule whose witness failed
                if branch != "oracle_fallback":
                    checked = lexiconn.harness._formula(scans, theorem_id, g1, g2, "min_cuts_only", keys) is not None
                    assert checked == (branch == label), (theorem_id, g1.edges(), g2.edges())
        for invariant, label in lexiconn.harness._RULES.values():
            assert label in branches[invariant], label

    def test_every_rule_checks_some_pair(self):
        families = {theorem_id: (InstanceFamily(4, 3), InstanceFamily(3, 4)) for theorem_id in THEOREM_IDS}
        # thm22 needs a left factor on five vertices; thm23 needs six, and
        # test_mid_branch_rule_holds_on_six_vertex_left_factors pins it at 40590 pairs
        families["thm22"] = (InstanceFamily(5, 2),)
        del families["thm23"]
        for theorem_id, candidates in families.items():
            assert any(verify_theorem(theorem_id, f).instances_checked for f in candidates), theorem_id

    def test_only_the_k1_rules_read_the_reading(self):
        def without_reading(report):
            obj = report.to_json(include_wall_time=False)
            del obj["reading"]
            for cert in obj["discrepancies"]:
                del cert["reading"]
            return obj

        family = InstanceFamily(4, 3)
        others = [t for t, (invariant, _) in lexiconn.harness._RULES.items() if invariant != "k1"]
        assert others == ["thm21", "thm21_complete", "super_part1", "super_part2", "super_part3"]
        for theorem_id in others:
            default, other = (verify_theorem(theorem_id, family, reading) for reading in READINGS)
            assert (default.reading, other.reading) == READINGS
            assert without_reading(default) == without_reading(other), theorem_id
