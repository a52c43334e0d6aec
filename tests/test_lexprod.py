import dataclasses
import hashlib
import itertools
import pickle
import tracemalloc
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_product_adjacent, graph_from_mask
from lexiconn import (
    INFINITY,
    ExtendedNat,
    Graph,
    LexK1Result,
    bowtie_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_labeled_graphs,
    is_complete,
    is_connected,
    is_k1_vertex_cut,
    is_super_connected,
    is_vertex_cut,
    isolated_vertices,
    k1_connectivity,
    lex_connectivity,
    lex_k1_connectivity,
    lex_product,
    lex_super_connected,
    lift_k1_cut,
    lift_min_cut,
    parse_graph6,
    path_graph,
    random_graph,
    scan_cuts,
    star_graph,
    vertex_connectivity,
    vertex_connectivity_oracle,
)
import lexiconn.lexprod
from lexiconn.cuts import _twin_scan
from lexiconn.harness import _class_key


def graphs(max_n=4, min_n=1):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.builds(graph_from_mask, st.just(n), st.integers(0, 2 ** (n * (n - 1) // 2) - 1))
    )


def class_members(n, connected=False):
    """One labeled member of each isomorphism class on n vertices,
    optionally only the connected classes."""
    members = {}
    for g in enumerate_labeled_graphs(n):
        if is_connected(g) or not connected:
            members.setdefault(_class_key(g), g)
    return list(members.values())


def k2_plus_k1():
    return disjoint_union(complete_graph(2), empty_graph(1))


def mid_branch_fixture():
    """Connectivity 1 (the hub 0 isolates its pendant 1) but the smallest
    isolation-free cut is {2, 3}, splitting {0, 1} from {4, 5}."""
    return Graph(6, [(0, 1), (0, 2), (0, 3), (2, 4), (3, 5), (4, 5)])


class TestLexProduct:
    def test_k2_by_k2_is_k4(self):
        assert lex_product(complete_graph(2), complete_graph(2)) == complete_graph(4)

    def test_k2_by_empty_is_complete_bipartite(self):
        assert lex_product(complete_graph(2), empty_graph(2)) == complete_bipartite(2, 2)

    def test_c4_by_k2_edge_count(self):
        assert lex_product(cycle_graph(4), complete_graph(2)).num_edges == 20

    def test_empty_factor_rejected(self):
        with pytest.raises(ValueError):
            lex_product(empty_graph(0), complete_graph(1))
        with pytest.raises(ValueError):
            lex_product(complete_graph(1), empty_graph(0))

    @pytest.mark.parametrize("rule", [lex_connectivity, lex_k1_connectivity, lex_super_connected])
    @pytest.mark.parametrize("empty_side", [0, 1], ids=["left", "right"])
    def test_rules_reject_an_empty_factor(self, rule, empty_side):
        factors = [complete_graph(2), complete_graph(2)]
        factors[empty_side] = empty_graph(0)
        with pytest.raises(ValueError, match="product factors must be non-empty"):
            rule(*factors)

    @given(graphs(), graphs())
    def test_edge_count_identity(self, g1, g2):
        product = lex_product(g1, g2)
        assert product.num_edges == g1.n * g2.num_edges + g1.num_edges * g2.n ** 2

    @given(graphs(max_n=3), graphs(max_n=3))
    def test_adjacency_rule(self, g1, g2):
        product = lex_product(g1, g2)
        for v in range(product.n):
            for w in range(product.n):
                if v == w:
                    continue
                expected = brute_product_adjacent(g1, g2, divmod(v, g2.n), divmod(w, g2.n))
                assert product.has_edge(v, w) == expected

    def test_row_masks_equal_the_edge_list_definition(self):
        # every labeled pair with n1 <= 4 and m <= 3
        checked = 0
        for n1, m in itertools.product(range(1, 5), range(1, 4)):
            for g1 in enumerate_labeled_graphs(n1):
                for g2 in enumerate_labeled_graphs(m):
                    edges = [(i * m + j, i * m + q) for i in range(n1) for j, q in g2.edges()]
                    edges += [(i * m + j, p * m + q) for i, p in g1.edges() for j in range(m) for q in range(m)]
                    product = lex_product(g1, g2)
                    assert product.adj_bits == Graph(n1 * m, edges).adj_bits, (g1.edges(), g2.edges())
                    assert product == Graph(n1 * m, edges) and product.n == n1 * m
                    checked += 1
        assert checked == (1 + 2 + 8 + 64) * (1 + 2 + 8)

    @given(graphs())
    def test_right_unit(self, g):
        assert lex_product(g, complete_graph(1)) == g

    def test_not_commutative(self):
        left = lex_product(path_graph(3), complete_graph(2))
        right = lex_product(complete_graph(2), path_graph(3))
        degrees = lambda g: sorted(g.degree(v) for v in range(g.n))  # noqa: E731
        assert degrees(left) != degrees(right)

    def test_products_keep_no_per_vertex_containers(self):
        # the bitmasks of a 15-vertex product take well under 1 KB; one
        # container per vertex on top of them would take several
        rng = Random(0)
        factors = [random_graph(5, 0.5, rng.getrandbits(32)) for _ in range(200)]
        k3 = complete_graph(3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            products = [lex_product(g, k3) for g in factors]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / len(products) < 2048


class TestLiftMinCut:
    def test_single_row(self):
        assert lift_min_cut((1,), 3) == (3, 4, 5)

    def test_empty(self):
        assert lift_min_cut((), 5) == ()

    def test_rejects_an_empty_right_factor(self):
        with pytest.raises(ValueError, match="right factor must have at least one vertex"):
            lift_min_cut((0,), 0)

    def test_bowtie_hub_rows(self):
        assert lift_min_cut((1,), 3) == (3, 4, 5)
        product = lex_product(bowtie_graph(), k2_plus_k1())
        assert is_vertex_cut(product, (3, 4, 5))

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=4, min_n=2), graphs(max_n=3))
    def test_lifts_disconnecting_cuts_to_cuts(self, g1, g2):
        from itertools import combinations

        from helpers import adjacency, components_without

        product = lex_product(g1, g2)
        for size in range(g1.n):
            for combo in combinations(range(g1.n), size):
                if len(components_without(adjacency(g1), set(combo))) < 2:
                    continue
                lifted = lift_min_cut(combo, g2.n)
                assert len(lifted) == len(combo) * g2.n
                assert is_vertex_cut(product, lifted)
                # the public lift validates, then runs the one mask lift
                isolated = sum(1 << j for j in isolated_vertices(g2))
                mask = lexiconn.lexprod._lift(g1, g2.n, isolated, combo)
                assert lift_k1_cut(g1, g2, combo) == tuple(v for v in range(product.n) if mask >> v & 1)


class TestLiftK1Cut:
    def test_star_augments_with_stranded_copies(self):
        lifted = lift_k1_cut(star_graph(3), k2_plus_k1(), (0,))
        assert lifted == (0, 1, 2, 5, 8, 11)
        assert len(lifted) == 6

    def test_bowtie_has_nothing_stranded(self):
        lifted = lift_k1_cut(bowtie_graph(), k2_plus_k1(), (1,))
        assert lifted == (3, 4, 5)

    def test_no_isolated_right_vertices_means_plain_lift(self):
        g2 = path_graph(3)
        assert lift_k1_cut(star_graph(3), g2, (0,)) == lift_min_cut((0,), 3)

    def test_requires_a_cut(self):
        with pytest.raises(ValueError):
            lift_k1_cut(path_graph(3), complete_graph(2), (0,))

    def test_rejects_an_empty_right_factor(self):
        with pytest.raises(ValueError, match="right factor"):
            lift_k1_cut(path_graph(3), Graph(0), (1,))

    @settings(max_examples=30, deadline=None)
    @given(graphs(max_n=4, min_n=3), graphs(max_n=3))
    def test_never_strands_an_isolated_copy(self, g1, g2):
        if not is_connected(g1) or is_complete(g1):
            return
        lifted = lift_k1_cut(g1, g2, scan_cuts(g1).optimal_cut)
        product = lex_product(g1, g2)
        remaining = set(range(product.n)) - set(lifted)
        for v in remaining:
            assert product.neighbors(v) & remaining


class TestLexConnectivity:
    def test_c4_by_k2(self):
        assert lex_connectivity(cycle_graph(4), complete_graph(2)) == 4
        product = lex_product(cycle_graph(4), complete_graph(2))
        assert vertex_connectivity_oracle(product) == 4

    def test_complete_branch(self):
        assert lex_connectivity(complete_graph(3), path_graph(3)) == 7
        product = lex_product(complete_graph(3), path_graph(3))
        assert vertex_connectivity_oracle(product) == 7

    def test_right_unit(self):
        assert lex_connectivity(path_graph(3), complete_graph(1)) == 1

    def test_disconnected_left_factor(self):
        assert lex_connectivity(disjoint_union(complete_graph(2), empty_graph(1)), complete_graph(2)) == 0

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=4, min_n=1), graphs(max_n=3))
    def test_matches_oracle_on_products(self, g1, g2):
        # disconnected left factors give a disconnected product, so both sides are 0
        assert lex_connectivity(g1, g2) == vertex_connectivity_oracle(lex_product(g1, g2))


class TestK1ProductFormula:
    def test_readings_differ_on_star(self):
        g2 = k2_plus_k1()
        left = scan_cuts(star_graph(3))
        proof_reading, branch = lexiconn.lexprod._k1_rule(left, g2, "min_cuts_only")
        loose_reading, loose_branch = lexiconn.lexprod._k1_rule(left, g2, "all_cuts")
        assert branch == loose_branch == "cor24"
        assert proof_reading == ExtendedNat(6)
        assert loose_reading == ExtendedNat(4)
        # the oracle sides with the minimum-cut reading
        assert scan_cuts(lex_product(star_graph(3), g2)).k1 == ExtendedNat(6)


class TestLexK1Connectivity:
    def test_equal_branch(self):
        result = lex_k1_connectivity(path_graph(6), path_graph(3))
        assert result.value == ExtendedNat(3)
        assert result.branch == "thm22"
        assert result.witness == (6, 7, 8)

    def test_no_cut_branch_without_isolated_right_vertices(self):
        result = lex_k1_connectivity(star_graph(3), complete_graph(2))
        assert result.value == ExtendedNat(2)
        assert result.branch == "cor24"
        assert result.witness == (0, 1)

    def test_no_cut_branch_with_isolated_right_vertices(self):
        result = lex_k1_connectivity(star_graph(3), k2_plus_k1())
        assert result.value == ExtendedNat(6)
        assert result.branch == "cor24"
        assert len(result.witness) == 6
        product = lex_product(star_graph(3), k2_plus_k1())
        assert scan_cuts(product).k1 == ExtendedNat(6)

    def test_mid_branch(self):
        g1 = mid_branch_fixture()
        assert vertex_connectivity(g1) == 1
        assert k1_connectivity(g1) == ExtendedNat(2)
        result = lex_k1_connectivity(g1, k2_plus_k1())
        assert result.branch == "thm23"
        assert result.value == ExtendedNat(4)
        product = lex_product(g1, k2_plus_k1())
        assert scan_cuts(product).k1 == ExtendedNat(4)

    def test_one_vertex_right_factor_falls_back(self):
        # the closed form misses that the product collapses to the left factor
        result = lex_k1_connectivity(path_graph(4), complete_graph(1))
        assert result.branch == "oracle_fallback"
        assert result.value == INFINITY
        assert result.witness is None

    def test_one_vertex_right_factor_reads_the_left_scan(self, monkeypatch):
        # g1 by K1 is g1: one scan of g1, and no product is built
        scanned = []
        real_scan = lexiconn.lexprod.scan_cuts

        def counting_scan(g):
            scanned.append(g)
            return real_scan(g)

        def refuse(*args):
            raise AssertionError("no product may be built")

        monkeypatch.setattr(lexiconn.lexprod, "scan_cuts", counting_scan)
        monkeypatch.setattr(lexiconn.lexprod, "lex_product", refuse)
        for g1, branch in ((path_graph(4), "oracle_fallback"), (mid_branch_fixture(), "thm23")):
            scanned.clear()
            assert lex_k1_connectivity(g1, complete_graph(1)).branch == branch
            assert scanned == [g1]

    def test_one_vertex_right_factor_equals_the_product_path(self):
        # the general path lifts, checks the lift on the built product and
        # scans that product when the check fails; by K1 it must agree
        k1 = complete_graph(1)
        branches = []
        for g1 in (g for n1 in range(1, 6) for g in class_members(n1, connected=True)):
            if is_complete(g1):
                continue
            left, product = scan_cuts(g1), lex_product(g1, k1)
            cuts = (c for c in (left.k1_cut, left.optimal_cut) if c is not None)
            witness = min((lift_k1_cut(g1, k1, c) for c in cuts), key=len)
            if is_k1_vertex_cut(product, witness):
                branch = lexiconn.lexprod._k1_rule(left, k1, "min_cuts_only")[1]
                expected = LexK1Result(ExtendedNat(len(witness)), branch, witness)
            else:
                scan = scan_cuts(product)
                expected = LexK1Result(scan.k1, "oracle_fallback", scan.k1_cut)
            assert lex_k1_connectivity(g1, k1) == expected, g1.edges()
            branches.append(expected.branch)
        assert (len(branches), branches.count("oracle_fallback")) == (26, 23)

    def test_edgeless_right_factor_falls_back(self):
        """With an edgeless right factor, any isolation-free product cut
        would induce one on the left factor, so none exists here; the
        closed form misses this whole family and the fallback covers it."""
        result = lex_k1_connectivity(star_graph(3), empty_graph(2))
        assert result.branch == "oracle_fallback"
        assert result.value == INFINITY
        product = lex_product(star_graph(3), empty_graph(2))
        assert scan_cuts(product).k1 == INFINITY

    def test_fallbacks_have_edgeless_right_factors_that_scale_the_left_k1(self):
        # lexprod proves k1(G1 by E_m) = m * k1(G1), with the rows of G1's
        # first k1 cut as the product's first; no other right factor falls back
        pairs = fallbacks = 0
        for g1 in (g for n1 in range(1, 6) for g in class_members(n1, connected=True)):
            left = scan_cuts(g1)
            for m in range(1, 4):
                for g2 in enumerate_labeled_graphs(m):
                    result = lex_k1_connectivity(g1, g2)
                    if result.branch == "oracle_fallback":
                        assert g2.num_edges == 0, (g1.edges(), g2.edges())
                        lifted = lift_k1_cut(g1, g2, left.k1_cut) if left.k1_cut is not None else None
                        assert result.witness == lifted, (g1.edges(), m)
                        fallbacks += 1
                    pairs += 1
                expected = ExtendedNat(m * left.k1.value) if left.k1.is_finite else INFINITY
                assert lex_k1_connectivity(g1, empty_graph(m)).value == expected, (g1.edges(), m)
        assert (pairs, fallbacks) == (341, 69)

    def test_right_factors_with_an_edge_never_fall_back(self):
        # a lifted disconnecting cut is isolation-free whenever the right
        # factor has an edge, so its size is the rule's value
        rights = [g2 for m in range(1, 4) for g2 in enumerate_labeled_graphs(m) if g2.num_edges]
        lefts = [g1 for n1 in range(3, 7) for g1 in class_members(n1, connected=True) if not is_complete(g1)]
        assert (len(lefts), len(rights)) == (137, 8)
        for g1 in lefts:
            left = scan_cuts(g1)
            for g2 in rights:
                result = lex_k1_connectivity(g1, g2)
                value, branch = lexiconn.lexprod._k1_rule(left, g2, "min_cuts_only")
                assert result.branch == branch, (g1.edges(), g2.edges())
                assert result.value == value

    def test_a_witness_whose_size_is_not_the_rules_value_falls_back(self, monkeypatch):
        # each lift checks out on its product, so only its size against the
        # rule's value can send these answers to the product scan
        pairs = [
            (path_graph(6), path_graph(3)),
            (mid_branch_fixture(), k2_plus_k1()),
            (star_graph(3), complete_graph(2)),
        ]
        assert [lex_k1_connectivity(g1, g2).branch for g1, g2 in pairs] == ["thm22", "thm23", "cor24"]
        rule = lexiconn.lexprod._k1_rule

        def overestimate(left, g2, reading):
            value, branch = rule(left, g2, reading)
            return ExtendedNat(value.value + 1), branch

        monkeypatch.setattr(lexiconn.lexprod, "_k1_rule", overestimate)
        for g1, g2 in pairs:
            scan = scan_cuts(lex_product(g1, g2))
            assert lex_k1_connectivity(g1, g2) == LexK1Result(scan.k1, "oracle_fallback", scan.k1_cut), g1.edges()

    def test_complete_left_factor_is_exact(self):
        result = lex_k1_connectivity(complete_graph(3), path_graph(3))
        assert result.branch == "complete_left"
        product = lex_product(complete_graph(3), path_graph(3))
        assert result.value == scan_cuts(product).k1

    def test_complete_left_factor_matches_the_oracle_on_every_right_class(self):
        # K1..K5 by one labeled member of each right class, products of at
        # most 16 vertices
        checked = 0
        for n1, m in itertools.product(range(1, 6), range(1, 5)):
            if n1 * m > 16:
                continue
            for g2 in class_members(m):
                result = lex_k1_connectivity(complete_graph(n1), g2)
                product = lex_product(complete_graph(n1), g2)
                assert result.branch == "complete_left"
                assert result.value == scan_cuts(product).k1, (n1, g2.edges())
                if result.value.is_finite:
                    assert len(result.witness) == result.value
                    assert is_k1_vertex_cut(product, result.witness)
                else:
                    assert result.witness is None
                checked += 1
        assert checked == 4 * 18 + 7

    def test_complete_left_factor_builds_no_product(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("no product may be built")

        monkeypatch.setattr(lexiconn.lexprod, "lex_product", refuse)
        # K5 by K4 is K20, a product whose scan takes seconds
        assert lex_k1_connectivity(complete_graph(5), complete_graph(4)).value == INFINITY
        two_edges = disjoint_union(complete_graph(2), complete_graph(2))
        result = lex_k1_connectivity(complete_graph(5), two_edges)
        assert (result.value, result.witness) == (ExtendedNat(16), tuple(range(16)))
        result = lex_k1_connectivity(complete_graph(2), path_graph(6))
        assert (result.value, result.witness) == (ExtendedNat(7), (0, 1, 2, 3, 4, 5, 8))

    def test_disconnected_left_factor_rejected(self):
        with pytest.raises(ValueError):
            lex_k1_connectivity(disjoint_union(complete_graph(2), empty_graph(1)), complete_graph(2))

    def test_answers_are_pinned(self):
        lefts = [g for n in range(1, 6) for g in class_members(n, connected=True)]
        lefts += [complete_graph(6)]
        rights = [g for n in range(1, 4) for g in enumerate_labeled_graphs(n)]
        for g2 in rights:
            with pytest.raises(ValueError):
                lex_k1_connectivity(k2_plus_k1(), g2)
        answers = [lex_k1_connectivity(g1, g2) for g1 in lefts for g2 in rights]
        assert len(answers) == (31 + 1) * 11
        assert Counter(answer.branch for answer in answers) == {
            "complete_left": 66,
            "cor24": 184,
            "oracle_fallback": 69,
            "thm22": 33,
        }
        # every (value, branch, witness), in order
        rows = [(answer.value, answer.branch, answer.witness) for answer in answers]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "100f5b4c26936aaaf3f7a17db6c6c748286c66f617e3cca0cba0f985ce21e0b8"
        )

    def test_json_round_trip(self):
        result = lex_k1_connectivity(path_graph(6), path_graph(3))
        assert LexK1Result.from_json(result.to_json()) == result
        fallback = lex_k1_connectivity(path_graph(4), complete_graph(1))
        assert fallback.to_json()["value"] == "infinity"
        assert LexK1Result.from_json(fallback.to_json()) == fallback

    def test_slotted_result_round_trips(self):
        # the benchmark keeps every pass's results, so each one stays small
        for result in (
            lex_k1_connectivity(path_graph(6), path_graph(3)),
            lex_k1_connectivity(path_graph(4), complete_graph(1)),
        ):
            assert not hasattr(result, "__dict__")
            for copy in (
                LexK1Result.from_json(result.to_json()),
                pickle.loads(pickle.dumps(result)),
                dataclasses.replace(result),
            ):
                assert copy == result and hash(copy) == hash(result)

    def test_finite_values_below_64_are_shared(self):
        first, again = (lex_k1_connectivity(path_graph(6), path_graph(3)) for _ in range(2))
        assert first.value == ExtendedNat(3) and first.value is again.value
        # K9 by P8: eight whole rows and P8's first k1 cut, past the shared values
        large = lex_k1_connectivity(complete_graph(9), path_graph(8))
        assert large.value == ExtendedNat(65) == len(large.witness) and large.witness[-1] == 66

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=4, min_n=2), graphs(max_n=3))
    def test_finite_results_always_ship_verified_witnesses(self, g1, g2):
        if not is_connected(g1):
            return
        result = lex_k1_connectivity(g1, g2)
        product = lex_product(g1, g2)
        if result.value.is_finite:
            assert result.witness is not None
            assert len(result.witness) == result.value
            assert is_k1_vertex_cut(product, result.witness)
        else:
            assert result.witness is None
        if result.branch == "oracle_fallback":
            assert result.value == scan_cuts(product).k1

    def test_no_cut_left_factor_lifts_a_13_vertex_k1_cut(self):
        # past the oracle budget (35 vertices), so only this cut bounds k1 there
        g1, g2 = parse_graph6("Fi`AO"), disjoint_union(complete_graph(2), empty_graph(3))
        lifted = lift_k1_cut(g1, g2, (0, 6))
        assert len(lifted) == 13
        assert is_k1_vertex_cut(lex_product(g1, g2), lifted)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="cor24 overestimates; needs an exact k1 rule")
    def test_no_cut_rule_is_not_an_overestimate(self):
        g1, g2 = parse_graph6("Fi`AO"), disjoint_union(complete_graph(2), empty_graph(3))
        assert lex_k1_connectivity(g1, g2).value <= 13

    def test_mid_branch_left_factor_lifts_a_13_vertex_k1_cut(self):
        # kappa 1 (cut {1} isolates 5, 6 and 8), k1 3; the 45-vertex
        # product is past the oracle budget too
        g1, g2 = parse_graph6("HNhA@`?"), disjoint_union(complete_graph(2), empty_graph(3))
        left = scan_cuts(g1)
        assert (left.kappa, left.k1, left.optimal_isolated) == (1, 3, 3)
        lifted = lift_k1_cut(g1, g2, (0, 2))
        assert len(lifted) == 13
        assert is_k1_vertex_cut(lex_product(g1, g2), lifted)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="thm23 overestimates; needs an exact k1 rule")
    def test_mid_branch_rule_is_not_an_overestimate(self):
        g1, g2 = parse_graph6("HNhA@`?"), disjoint_union(complete_graph(2), empty_graph(3))
        result = lex_k1_connectivity(g1, g2)
        assert result.branch == "thm23"
        assert result.value <= 13


class TestTwinScanOnProducts:
    def test_invariants_equal_the_lex_scan_up_to_16_vertices(self):
        # one member of each class pair with both factors on 2-6 vertices
        # (1321 products); a one-vertex factor gives a graph on at most 6
        for n1 in range(2, 7):
            for n2 in range(2, min(6, 16 // n1) + 1):
                for g1 in class_members(n1):
                    for g2 in class_members(n2):
                        product = lex_product(g1, g2)
                        assert _twin_scan(product) == scan_cuts(product), (g1.edges(), g2.edges())


class TestLexSuperConnected:
    def test_connected_right_factor(self):
        assert lex_super_connected(cycle_graph(4), complete_graph(2)) == (False, "part1")

    def test_disconnected_no_isolated_right_factor(self):
        g2 = disjoint_union(complete_graph(2), complete_graph(2))
        verdict, branch = lex_super_connected(path_graph(3), g2)
        assert (verdict, branch) == (False, "part2")
        assert not is_super_connected(lex_product(path_graph(3), g2))

    def test_super_left_with_isolated_right(self):
        verdict, branch = lex_super_connected(cycle_graph(4), k2_plus_k1())
        assert (verdict, branch) == (True, "part3")
        assert is_super_connected(lex_product(cycle_graph(4), k2_plus_k1()))

    def test_non_super_left_with_isolated_right(self):
        verdict, branch = lex_super_connected(bowtie_graph(), k2_plus_k1())
        assert (verdict, branch) == (False, "left_not_super")
        assert not is_super_connected(lex_product(bowtie_graph(), k2_plus_k1()))

    def test_one_vertex_right_factor(self):
        assert lex_super_connected(cycle_graph(4), complete_graph(1)) == (True, "iso_m1")
        assert lex_super_connected(bowtie_graph(), complete_graph(1)) == (False, "iso_m1")

    def test_complete_left_factor(self):
        verdict, branch = lex_super_connected(complete_graph(3), complete_graph(2))
        assert branch == "complete_left"
        assert verdict == is_super_connected(lex_product(complete_graph(3), complete_graph(2)))

    def test_disconnected_left_factor(self):
        g1 = disjoint_union(complete_graph(2), empty_graph(1))
        assert lex_super_connected(g1, complete_graph(2)) == (False, "disconnected")

    @settings(max_examples=30, deadline=None)
    @given(graphs(max_n=4), graphs(max_n=3))
    def test_ruled_branches_match_oracle(self, g1, g2):
        verdict, _ = lex_super_connected(g1, g2)
        assert verdict == is_super_connected(lex_product(g1, g2))

    def test_exact_on_every_class_of_products_up_to_16_vertices(self):
        # one labeled member per isomorphism class of each factor; products of
        # 18 and 20 vertices are left out, as their oracle walks take minutes
        lefts = {n1: class_members(n1, connected=True) for n1 in range(1, 7)}
        rights = {n2: class_members(n2) for n2 in range(1, 5)}
        checked = 0
        for n1, n2 in itertools.product(lefts, rights):
            if n1 * n2 > 16:
                continue
            for g1, g2 in itertools.product(lefts[n1], rights[n2]):
                verdict, branch = lex_super_connected(g1, g2)
                assert verdict == is_super_connected(lex_product(g1, g2)), (g1.edges(), g2.edges(), branch)
                checked += 1
        assert checked == 31 * 7 + 10 * 11 + 112 * 3

    def test_answers_are_pinned_and_shared(self):
        lefts = [g for n in range(1, 6) for g in class_members(n, connected=True)]
        lefts += [complete_graph(6), k2_plus_k1()]
        rights = [g for n in range(1, 4) for g in enumerate_labeled_graphs(n)]
        answers = [lex_super_connected(g1, g2) for g1 in lefts for g2 in rights]
        assert len(answers) == (31 + 2) * 11
        assert Counter(answers) == {
            (False, "complete_left"): 5,
            (False, "disconnected"): 11,
            (False, "iso_m1"): 3,
            (False, "left_not_super"): 15,
            (False, "part1"): 130,
            (True, "complete_left"): 61,
            (True, "iso_m1"): 23,
            (True, "part3"): 115,
        }
        # every answer, in order
        assert hashlib.sha256(repr(answers).encode()).hexdigest() == (
            "75a7b365525dbd4bceae6a57585ea8b48073798757e2aef3c25af7656aa33d34"
        )
        shared = {}
        for answer in answers:
            assert shared.setdefault(answer, answer) is answer

    def test_builds_and_scans_no_product(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("no product may be built or scanned")

        monkeypatch.setattr(lexiconn.lexprod, "lex_product", refuse)
        monkeypatch.setattr(lexiconn.lexprod, "scan_cuts", refuse)
        lefts = (complete_graph(1), complete_graph(3), bowtie_graph(), cycle_graph(4), path_graph(3))
        rights = (
            complete_graph(1),
            complete_graph(2),
            path_graph(3),
            empty_graph(2),
            k2_plus_k1(),
            disjoint_union(complete_graph(2), complete_graph(2)),
        )
        branches = {lex_super_connected(g1, g2)[1] for g1 in lefts for g2 in rights}
        assert branches == {"complete_left", "iso_m1", "part1", "part2", "part3", "left_not_super"}


class TestCounterexampleRegression:
    """The hub rows of the bowtie form a minimum product cut that isolates
    nothing, so a super-connected verdict cannot survive a non-super left
    factor even with isolated right-factor vertices."""

    def test_lifted_hub_cut(self):
        product = lex_product(bowtie_graph(), k2_plus_k1())
        lifted = lift_min_cut((1,), 3)
        assert lifted == (3, 4, 5)
        assert is_vertex_cut(product, lifted)
        assert vertex_connectivity(product) == 3
        assert vertex_connectivity_oracle(product) == 3
        from lexiconn import cut_certificate

        cert = cut_certificate(product, lifted)
        assert cert.is_minimum
        assert cert.isolated_after == ()
        assert not is_super_connected(product)
