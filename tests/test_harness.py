import dataclasses
import itertools
import json
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
    is_k1_vertex_cut,
    lex_product,
    parse_graph6,
    random_graph,
    scan_cuts,
    serialize_graph6,
    star_graph,
    validate_certificate,
    verify_theorem,
)
import lexiconn.harness
import lexiconn.lexprod
from lexiconn.graphs import ExtendedNat
from lexiconn.harness import _check, _class_key, clear_caches
from lexiconn.io import GraphParseError


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (4, 64)])
    def test_counts(self, n, count):
        assert len(list(enumerate_labeled_graphs(n))) == count

    def test_first_two_graphs_on_two_vertices(self):
        graphs = list(enumerate_labeled_graphs(2))
        assert graphs[0].num_edges == 0
        assert graphs[1] == complete_graph(2)

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


def relabeled_graphs(max_n=7):
    """(graph, the same graph with its vertices permuted)."""

    def build(n):
        masks = st.integers(0, 2 ** (n * (n - 1) // 2) - 1)
        return st.tuples(st.builds(graph_from_mask, st.just(n), masks), st.permutations(range(n)))

    return st.integers(1, max_n).flatmap(build).map(
        lambda pair: (pair[0], Graph(pair[0].n, [(pair[1][u], pair[1][v]) for u, v in pair[0].edges()]))
    )


class TestClassKey:
    @pytest.mark.parametrize("n,classes", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)])
    def test_one_key_per_isomorphism_class(self, n, classes):
        assert len({_class_key(g) for g in enumerate_labeled_graphs(n)}) == classes

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_key_is_the_least_mask_over_all_relabelings(self, n):
        clear_caches()
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
        clear_caches()
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
        "theorem_id,wrong_size,field", [("thm21", {"kappa": 0}, "kappa_cut"), ("cor24", {"k1": ExtendedNat(0)}, "k1_cut")]
    )
    def test_a_memo_size_with_no_cut_on_the_product_raises(self, theorem_id, wrong_size, field, monkeypatch):
        # every product here is connected, so none has a cut of size 0
        scan = lexiconn.harness._scan

        def wrong(g1, g2=None):
            value = scan(g1, g2)
            return value if g2 is None else dataclasses.replace(value, **wrong_size)

        monkeypatch.setattr(lexiconn.harness, "_scan", wrong)
        with pytest.raises(RuntimeError, match=field):
            verify_theorem(theorem_id, InstanceFamily(4, 2), "all_cuts")


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
        clear_caches()
        second = verify_theorem("cor24", family, "min_cuts_only")
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
        witnessed = verify_theorem("cor24", InstanceFamily(4, 3), "all_cuts")
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
        # a witness walks its own labeled product, but scans nothing
        again = verify_theorem("cor24", InstanceFamily(4, 3), "all_cuts")
        assert again.canonical_json() == witnessed.canonical_json()
        assert calls == {
            "lexiconn.harness.lex_product": 48,
            "lexiconn.harness._twin_scan": 0,
            "lexiconn.lexprod.scan_cuts": 0,
        }

    def test_verdicts_are_derived_once_per_class_pair(self, monkeypatch):
        family = InstanceFamily(4, 3)
        verdict = lexiconn.harness._verdict
        derived = []

        def counting(theorem_id, g1, g2, reading):
            derived.append((_class_key(g1), _class_key(g2)))
            return verdict(theorem_id, g1, g2, reading)

        monkeypatch.setattr(lexiconn.harness, "_verdict", counting)
        report = verify_theorem("cor24", family, "all_cuts")
        # 18 left classes on 1-4 vertices by 7 right classes on 1-3
        assert len(derived) == len(set(derived)) == 126
        # each visit still writes the certificate a lone check of its pair
        # writes; test_golden pins the report's bytes
        checked = [_check("cor24", g1, g2, "all_cuts") for g1, g2 in family.instances()]
        assert report.discrepancies == tuple(c for c in checked if c is not None and c is not True)
        assert len(report.discrepancies) == 168

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
        clear_caches()
        report = verify_theorem("thm21", InstanceFamily(4, 2))
        assert report.instances_checked > 0 and report.discrepancies == ()
        assert calls == []
        report = verify_theorem("thm21_complete", InstanceFamily(4, 2))
        assert report.instances_checked == len(calls) == 12
        assert report.discrepancies == ()

    def test_sweeps_scan_no_disconnected_or_complete_factor(self, monkeypatch):
        # such a factor's scan can walk exponentially many subsets, and no rule needs it
        from lexiconn import is_complete, is_connected

        clear_caches()
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

