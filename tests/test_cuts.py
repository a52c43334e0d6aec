from itertools import chain, combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    adjacency,
    brute_is_cut,
    brute_is_super,
    brute_k1,
    brute_kappa,
    brute_least_isolating,
    brute_optimal_min_cut,
    brute_twin_classes,
    components_without,
    graph_from_mask,
)
from lexiconn import (
    INFINITY,
    CutCertificate,
    ExtendedNat,
    bowtie_graph,
    complete_graph,
    cut_certificate,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_labeled_graphs,
    enumerate_min_vertex_cuts,
    is_complete,
    is_connected,
    is_k1_vertex_cut,
    is_super_connected,
    is_vertex_cut,
    k1_connectivity,
    lex_product,
    path_graph,
    scan_cuts,
    star_graph,
    vertex_connectivity,
    vertex_connectivity_oracle,
)
from lexiconn.cuts import _class_subsets, _twin_scan, _vertex_cuts


def graphs(max_n=7, min_n=1):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.builds(graph_from_mask, st.just(n), st.integers(0, 2 ** (n * (n - 1) // 2) - 1))
    )


def connected_graphs(max_n=7, min_n=2):
    return graphs(max_n=max_n, min_n=min_n).filter(is_connected)


def mask_of(subset) -> int:
    return sum(1 << v for v in subset)


def brute_kernel_yield(g, subset):
    """What the kernel should yield for the mask of ``subset``: (that mask,
    remaining mask, more than one component) when it is a cut, else None."""
    if not brute_is_cut(g, subset):
        return None
    rem = sum(1 << v for v in range(g.n) if v not in subset)
    return mask_of(subset), rem, len(components_without(adjacency(g), set(subset))) > 1


def degree_bound(g):
    """min(2 delta - n + 2, n - 1), floored at 0: no smaller subset cuts."""
    delta = min((g.degree(v) for v in range(g.n)), default=0)
    return max(0, min(2 * delta - g.n + 2, g.n - 1))


class TestKernel:
    """``_vertex_cuts`` against the independent dict-of-sets flood."""

    def test_every_subset_of_every_small_graph(self):
        for n in range(1, 6):
            subsets = list(chain.from_iterable(combinations(range(n), k) for k in range(n + 1)))
            for g in enumerate_labeled_graphs(n):
                expected = [hit for s in subsets if (hit := brute_kernel_yield(g, s)) is not None]
                assert list(_vertex_cuts(g, map(mask_of, subsets))) == expected, g.edges()

    @settings(max_examples=300, deadline=None)
    @given(graphs(max_n=16), st.data())
    def test_random_subsets_up_to_16_vertices(self, g, data):
        subset = tuple(sorted(data.draw(st.sets(st.integers(0, g.n - 1)))))
        hit = brute_kernel_yield(g, subset)
        assert list(_vertex_cuts(g, (mask_of(subset),))) == ([hit] if hit is not None else [])


class TestDegreeBound:
    """The minimum-cut walk starts at min(2 delta - n + 2, n - 1)."""

    def test_no_subset_below_the_bound_cuts_a_small_graph(self):
        for n in range(1, 7):
            for g in enumerate_labeled_graphs(n):
                for size in range(degree_bound(g)):
                    for s in combinations(range(n), size):
                        assert not brute_is_cut(g, s), (g.edges(), s)

    def test_dense_product_walk_starts_at_the_bound(self, monkeypatch):
        import lexiconn.cuts

        kernel = lexiconn.cuts._vertex_cuts
        drawn = []

        def recording(g, subsets):
            def record():
                for mask in subsets:
                    drawn.append(mask.bit_count())
                    yield mask

            return kernel(g, record())

        monkeypatch.setattr(lexiconn.cuts, "_vertex_cuts", recording)
        # K5 by 2K2: 20 vertices of degree 17, so the walk starts at size 16 = kappa
        product = lex_product(complete_graph(5), disjoint_union(complete_graph(2), complete_graph(2)))
        assert not is_super_connected(product)
        assert drawn and min(drawn) == 16


class TestIsVertexCut:
    def test_opposite_cycle_vertices(self):
        assert is_vertex_cut(cycle_graph(4), (0, 2))

    def test_reduction_to_single_vertex_counts(self):
        assert is_vertex_cut(complete_graph(4), (0, 1, 2))

    def test_path_endpoint_is_no_cut(self):
        assert not is_vertex_cut(path_graph(3), (0,))

    def test_removing_everything_is_no_cut(self):
        assert not is_vertex_cut(path_graph(3), (0, 1, 2))

    def test_empty_cut_on_trivial_graph(self):
        assert is_vertex_cut(complete_graph(1), ())

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            is_vertex_cut(path_graph(3), (3,))


PREDICATES = (is_vertex_cut, is_k1_vertex_cut, cut_certificate)


class TestPredicateInputs:
    """The predicates check their ids before folding them into a mask."""

    @pytest.mark.parametrize("predicate", PREDICATES)
    @pytest.mark.parametrize(
        "cut, error, message",
        [
            ((-1,), ValueError, "vertex id -1 out of range for 6 vertices"),
            ((0, 6), ValueError, "vertex id 6 out of range for 6 vertices"),
            ((True,), TypeError, "vertex ids must be ints"),
        ],
    )
    def test_bad_ids_raise_before_any_shift(self, predicate, cut, error, message):
        with pytest.raises(error) as info:
            predicate(path_graph(6), cut)
        assert str(info.value) == message

    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_duplicate_ids_count_once(self, predicate):
        # summed without de-duplication, (1, 1) would carry into vertex 2
        for g in (path_graph(3), path_graph(6), star_graph(3)):
            for v in range(g.n):
                assert predicate(g, (v, v)) == predicate(g, (v,)), (g.edges(), v)
        assert is_vertex_cut(path_graph(3), (1, 1)) and not is_vertex_cut(path_graph(3), (2,))
        assert is_k1_vertex_cut(path_graph(6), (2, 2)) and not is_k1_vertex_cut(path_graph(6), (4,))


class TestEmptyGraph:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda g: is_vertex_cut(g, ()), "the empty graph has no cuts"),
            (lambda g: is_k1_vertex_cut(g, ()), "the empty graph has no cuts"),
            (vertex_connectivity_oracle, "the empty graph has no cuts"),
            (is_super_connected, "super connectivity of the empty graph is undefined"),
        ],
        ids=["is_vertex_cut", "is_k1_vertex_cut", "vertex_connectivity_oracle", "is_super_connected"],
    )
    def test_is_rejected(self, call, message):
        with pytest.raises(ValueError) as info:
            call(empty_graph(0))
        assert str(info.value) == message


class TestIsK1VertexCut:
    def test_path_middle(self):
        assert is_k1_vertex_cut(path_graph(6), (2,))

    def test_isolating_cut_rejected(self):
        assert not is_k1_vertex_cut(path_graph(4), (1,))

    def test_all_isolated_rejected(self):
        assert not is_k1_vertex_cut(cycle_graph(4), (0, 2))

    @given(connected_graphs(), st.data())
    def test_implies_vertex_cut(self, g, data):
        cut = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
        if is_k1_vertex_cut(g, cut):
            assert is_vertex_cut(g, cut)


class TestVertexConnectivityOracle:
    def test_disconnected(self):
        assert vertex_connectivity_oracle(disjoint_union(complete_graph(2), empty_graph(1))) == 0

    def test_cycle5(self):
        assert vertex_connectivity_oracle(cycle_graph(5)) == 2

    def test_complete_convention(self):
        assert vertex_connectivity_oracle(complete_graph(3)) == 2

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=6))
    def test_matches_independent_brute_force(self, g):
        assert vertex_connectivity_oracle(g) == brute_kappa(g)


class TestK1Connectivity:
    @pytest.mark.parametrize("leaves", [2, 3, 4])
    def test_stars_have_none(self, leaves):
        assert k1_connectivity(star_graph(leaves)) == INFINITY

    def test_path6(self):
        assert k1_connectivity(path_graph(6)) == ExtendedNat(1)
        assert scan_cuts(path_graph(6)).k1_cut == (2,)

    def test_cycle6(self):
        assert k1_connectivity(cycle_graph(6)) == ExtendedNat(2)

    def test_cycle5_has_none(self):
        assert k1_connectivity(cycle_graph(5)) == INFINITY

    def test_disconnected_without_isolated_is_zero(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        assert k1_connectivity(g) == ExtendedNat(0)
        assert scan_cuts(g).k1_cut == ()

    def test_disconnected_with_isolated(self):
        g = disjoint_union(complete_graph(2), empty_graph(1))
        assert k1_connectivity(g) == INFINITY

    @given(connected_graphs())
    def test_at_least_connectivity(self, g):
        assert k1_connectivity(g) >= vertex_connectivity_oracle(g)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=7))
    def test_matches_independent_brute_force(self, g):
        expected = brute_k1(g)
        got = k1_connectivity(g)
        if expected is None:
            assert got == INFINITY
        else:
            assert got == ExtendedNat(expected)

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=7))
    def test_infinite_iff_no_small_subset_works(self, g):
        from itertools import combinations

        exists = any(
            is_k1_vertex_cut(g, combo)
            for size in range(max(g.n - 3, 0))
            for combo in combinations(range(g.n), size)
        )
        assert k1_connectivity(g).is_finite == exists


class TestEnumerateMinCuts:
    def test_cycle4(self):
        assert [c.cut for c in enumerate_min_vertex_cuts(cycle_graph(4))] == [(0, 2), (1, 3)]

    def test_bowtie_hub(self):
        certs = enumerate_min_vertex_cuts(bowtie_graph())
        assert [c.cut for c in certs] == [(1,)]
        assert certs[0].isolated_after == ()
        assert certs[0].disconnects and not certs[0].reduces_to_trivial

    def test_path3_middle(self):
        assert [c.cut for c in enumerate_min_vertex_cuts(path_graph(3))] == [(1,)]

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            enumerate_min_vertex_cuts(complete_graph(3))
        with pytest.raises(ValueError):
            enumerate_min_vertex_cuts(disjoint_union(complete_graph(2), empty_graph(1)))

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_n=6))
    def test_certificates_check_out(self, g):
        from lexiconn import is_complete

        if is_complete(g):
            return
        kappa = vertex_connectivity_oracle(g)
        certs = enumerate_min_vertex_cuts(g)
        assert certs, "a connected non-complete graph has minimum cuts"
        for cert in certs:
            assert len(cert.cut) == kappa
            assert cert.is_minimum
            assert brute_is_cut(g, cert.cut)
            fresh = cut_certificate(g, cert.cut)
            assert fresh == cert


class TestSuperConnected:
    def test_cycle4(self):
        assert is_super_connected(cycle_graph(4))

    def test_cycle6(self):
        assert not is_super_connected(cycle_graph(6))

    def test_bowtie(self):
        assert not is_super_connected(bowtie_graph())

    def test_conventions(self):
        assert is_super_connected(complete_graph(4))
        assert is_super_connected(complete_graph(1))
        assert not is_super_connected(disjoint_union(complete_graph(2), empty_graph(1)))

    def test_refuting_cut_for_cycle6(self):
        scan = scan_cuts(cycle_graph(6))
        assert scan.optimal_cut == (0, 3) and scan.optimal_isolated == 0

    def test_scan_field_matches_predicate_on_every_small_graph(self):
        # disconnected, complete and one-vertex graphs included
        for n in range(1, 7):
            for g in enumerate_labeled_graphs(n):
                assert scan_cuts(g).super_connected == is_super_connected(g), g.edges()

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=6))
    def test_matches_independent_brute_force(self, g):
        assert is_super_connected(g) == brute_is_super(g)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_n=6))
    def test_equivalent_to_certificate_enumeration(self, g):
        from lexiconn import is_complete

        if is_complete(g):
            return
        certs = enumerate_min_vertex_cuts(g)
        assert is_super_connected(g) == all(
            cert.isolated_after != () or cert.reduces_to_trivial for cert in certs
        )

    def test_min_cut_walk_draws_no_subset_past_kappa(self, monkeypatch):
        import lexiconn.cuts

        kernel = lexiconn.cuts._vertex_cuts
        drawn = []

        def recording(g, subsets):
            def record():
                for mask in subsets:
                    drawn.append(mask.bit_count())
                    yield mask

            return kernel(g, record())

        monkeypatch.setattr(lexiconn.cuts, "_vertex_cuts", recording)
        assert is_super_connected(cycle_graph(5))
        assert drawn and max(drawn) == 2

    @settings(max_examples=80, deadline=None)
    @given(connected_graphs(max_n=7).filter(lambda g: not is_complete(g)))
    def test_refuting_cut_is_first_k1_cut_of_size_kappa(self, g):
        # a non-isolating minimum cut is exactly a k1 cut of size kappa
        scan = scan_cuts(g)
        assert (scan.optimal_isolated == 0) == (scan.k1 == scan.kappa)
        if scan.optimal_isolated == 0:
            assert scan.optimal_cut == scan.k1_cut


class TestSelectOptimalMinCut:
    """The scan's ``optimal_cut`` and ``optimal_isolated`` fields."""

    def test_bowtie(self):
        scan = scan_cuts(bowtie_graph())
        assert scan.optimal_cut == (1,) and scan.optimal_isolated == 0

    def test_star(self):
        scan = scan_cuts(star_graph(3))
        assert scan.optimal_cut == (0,) and scan.optimal_isolated == 3

    def test_cycle5_tie_break(self):
        scan = scan_cuts(cycle_graph(5))
        assert scan.optimal_cut == (0, 2) and scan.optimal_isolated == 1

    def test_walk_stops_with_the_minimum_cuts(self, monkeypatch):
        import lexiconn.cuts

        kernel = lexiconn.cuts._vertex_cuts
        drawn = []

        def recording(g, subsets):
            def record():
                for mask in subsets:
                    drawn.append(mask.bit_count())
                    yield mask

            return kernel(g, record())

        scan = scan_cuts(star_graph(11))
        assert scan.optimal_cut == (0,) and scan.optimal_isolated == 11
        monkeypatch.setattr(lexiconn.cuts, "_vertex_cuts", recording)
        assert is_super_connected(star_graph(11))
        # the empty set, then the twelve single vertices
        assert len(drawn) <= 13 and max(drawn) == 1

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_n=6))
    def test_count_is_minimum_over_enumeration(self, g):
        from lexiconn import is_complete

        if is_complete(g):
            return
        scan = scan_cuts(g)
        # min keeps the first certificate among equals: the lexicographic tie-break
        first_best = min(enumerate_min_vertex_cuts(g), key=lambda c: len(c.isolated_after))
        assert scan.optimal_isolated == len(first_best.isolated_after)
        assert scan.optimal_cut == first_best.cut

    def test_matches_independent_brute_force_on_every_small_graph(self):
        # disconnected, complete and one-vertex graphs included
        for n in range(1, 6):
            for g in enumerate_labeled_graphs(n):
                scan = scan_cuts(g)
                assert (scan.optimal_cut, scan.optimal_isolated) == brute_optimal_min_cut(g), g.edges()

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=7, min_n=6).filter(lambda g: not is_complete(g)))
    def test_matches_independent_brute_force(self, g):
        scan = scan_cuts(g)
        assert (scan.optimal_cut, scan.optimal_isolated) == brute_optimal_min_cut(g)


class TestLeastIsolatingCut:
    def test_star_allows_bigger_cuts(self):
        assert brute_least_isolating(star_graph(3)) == ((0, 1, 2), 1)

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=7).filter(lambda g: not is_complete(g)))
    @example(bowtie_graph())
    def test_count_is_closed_form_of_scan(self, g):
        # the count the "all_cuts" reading uses, read from the scan
        _, over_all = brute_least_isolating(g)
        assert over_all == (0 if scan_cuts(g).k1.is_finite else 1)
        assert over_all <= scan_cuts(g).optimal_isolated


def is_class_union(classes, subset) -> bool:
    return all(c <= set(subset) or c.isdisjoint(subset) for c in classes)


class TestTwinScan:
    """The memo walk: only the unions of whole twin classes."""

    def test_invariants_equal_the_lex_scan_on_every_small_graph(self):
        # all 33,867 labeled graphs on 1-6 vertices
        for n in range(1, 7):
            for g in enumerate_labeled_graphs(n):
                assert _twin_scan(g) == scan_cuts(g), g.edges()

    def test_source_draws_the_class_union_combinations_in_lex_order(self):
        for n in range(1, 7):
            for g in enumerate_labeled_graphs(n):
                complete = is_complete(g)
                classes = brute_twin_classes(g)
                source = _class_subsets(g)
                for size in range(n + 1):
                    expected = [s for s in combinations(range(n), size) if complete or is_class_union(classes, s)]
                    assert list(source(size)) == list(map(mask_of, expected)), (g.edges(), size)

    def test_minimum_cuts_and_k1_cuts_of_non_complete_graphs_are_class_unions(self):
        # the lemma behind the walk, on the helpers alone: all labeled graphs on 1-5 vertices
        for n in range(1, 6):
            for mask in range(2 ** (n * (n - 1) // 2)):
                g = graph_from_mask(n, mask)
                adj = adjacency(g)
                if all(len(adj[v]) == n - 1 for v in adj):
                    continue
                classes = brute_twin_classes(g)
                for s in combinations(range(n), brute_kappa(g)):
                    assert not brute_is_cut(g, s) or is_class_union(classes, s), (g.edges(), s)
                k1 = brute_k1(g)
                if k1 is None:
                    continue
                for s in combinations(range(n), k1):
                    parts = components_without(adj, set(s))
                    if len(parts) > 1 and all(len(p) > 1 for p in parts):
                        assert is_class_union(classes, s), (g.edges(), s)
        # the exception: K3 is one class, and each minimum cut leaves one of its vertices
        k3 = graph_from_mask(3, 0b111)
        assert brute_kappa(k3) == 2 and brute_is_cut(k3, (0, 1))
        assert not is_class_union(brute_twin_classes(k3), (0, 1))


class TestCertificates:
    def test_json_round_trip(self):
        cert = cut_certificate(cycle_graph(4), (0, 2))
        assert CutCertificate.from_json(cert.to_json()) == cert
        assert cert.to_json() == {
            "cut": [0, 2],
            "disconnects": True,
            "reduces_to_trivial": False,
            "isolated_after": [1, 3],
            "is_minimum": True,
        }

    def test_non_cut_certificate(self):
        cert = cut_certificate(path_graph(3), (0,))
        assert not cert.disconnects and not cert.reduces_to_trivial and not cert.is_minimum

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=6))
    def test_scan_is_coherent(self, g):
        scan = scan_cuts(g)
        assert scan.kappa == vertex_connectivity_oracle(g)
        assert scan.k1 == k1_connectivity(g)
        assert len(scan.kappa_cut) == scan.kappa
        assert is_vertex_cut(g, scan.kappa_cut)
        assert brute_is_cut(g, scan.kappa_cut)
        if scan.k1.is_finite:
            assert scan.k1_cut is not None
            assert is_k1_vertex_cut(g, scan.k1_cut)
            assert len(scan.k1_cut) == scan.k1
        else:
            assert scan.k1_cut is None

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=7))
    def test_maxflow_agrees_with_oracle(self, g):
        assert vertex_connectivity(g) == vertex_connectivity_oracle(g)
