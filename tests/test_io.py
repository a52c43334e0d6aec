import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import graph_from_mask
from lexiconn import (
    Graph,
    GraphParseError,
    bowtie_graph,
    complete_graph,
    cycle_graph,
    format_edge_list,
    load_graph,
    parse_edge_list,
    parse_graph6,
    serialize_graph6,
)
from lexiconn.io import MAX_VERTICES


def graphs(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(graph_from_mask, st.just(n), st.integers(0, 2 ** (n * (n - 1) // 2) - 1))
    )


# arbitrary text, text in graph6's printable range, and edge-list tokens
arbitrary_text = st.one_of(
    st.text(),
    st.text(alphabet=st.characters(min_codepoint=63, max_codepoint=126)),
    st.text(alphabet="0123456789 -#\n"),
)


@settings(max_examples=300)
@given(arbitrary_text)
def test_parsers_raise_only_parse_errors(text):
    for parse in (parse_graph6, parse_edge_list):
        try:
            parse(text)
        except GraphParseError:
            pass


class TestEdgeList:
    def test_single_edge(self):
        assert parse_edge_list("2 1\n0 1") == complete_graph(2)

    def test_isolated_vertices(self):
        g = parse_edge_list("3 0\n")
        assert g.n == 3 and g.num_edges == 0

    def test_bowtie_fixture(self):
        assert parse_edge_list("5 6\n0 1\n0 2\n1 2\n1 3\n1 4\n3 4") == bowtie_graph()

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\n3 2\n# another\n0 1\n\n1 2\n"
        assert parse_edge_list(text) == Graph(3, [(0, 1), (1, 2)])

    def test_duplicate_edges_idempotent(self):
        assert parse_edge_list("3 3\n0 1\n0 1\n1 0") == Graph(3, [(0, 1)])

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("nonsense\n0 1", "line 1"),
            ("2 1 7\n0 1", "line 1"),
            ("3 1\n0 3", "line 2"),
            ("3 1\n1 1", "line 2"),
            ("2 1\n0 1\n0 1", "line 3"),
            ("2 2\n0 1", "announced 2"),
            ("", "header"),
            ("2 x\n0 1", "line 1"),
            ("# only a comment", "header"),
        ],
    )
    def test_errors_name_lines(self, text, needle):
        with pytest.raises(GraphParseError) as err:
            parse_edge_list(text)
        assert needle in str(err.value)

    def test_vertex_count_capped_at_header(self):
        # one past the graph6 limit: rejected before any vertex is allocated
        with pytest.raises(GraphParseError) as err:
            parse_edge_list(f"{MAX_VERTICES + 1} 0\n")
        assert "line 1" in str(err.value)
        assert str(MAX_VERTICES) in str(err.value)

    @given(graphs())
    def test_format_round_trip(self, g):
        assert parse_edge_list(format_edge_list(g)) == g


class TestGraph6:
    def test_k2(self):
        assert serialize_graph6(complete_graph(2)) == "A_"

    def test_two_isolated(self):
        g = parse_graph6("A?")
        assert g.n == 2 and g.num_edges == 0

    def test_c4_round_trip(self):
        assert parse_graph6(serialize_graph6(cycle_graph(4))) == cycle_graph(4)

    def test_optional_header(self):
        assert parse_graph6(">>graph6<<A_") == complete_graph(2)

    def test_trailing_newline_ok(self):
        assert parse_graph6("A_\n") == complete_graph(2)

    def test_large_count_form(self):
        g = complete_graph(63)
        text = serialize_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "A",        # missing bit stream
            "A__",      # trailing data
            "B\x01",    # invalid character
            "~~??",     # unsupported huge count
            "~?",       # truncated long count
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(GraphParseError):
            parse_graph6(text)

    @pytest.mark.parametrize("text", ["~??C~", "~???", "~??" + serialize_graph6(complete_graph(62))])
    def test_long_count_form_below_63_vertices_rejected(self, text):
        # K4 is only "C~", the empty graph only "?" and K62 only "}...":
        # the long form starts at 63 vertices
        with pytest.raises(GraphParseError, match="long form"):
            parse_graph6(text)

    @pytest.mark.parametrize("text", ["B~", "Bx", ">>graph6<<Bx", "D~~"])
    def test_nonzero_padding_rejected(self, text):
        # the bits past the last vertex pair must be 0: K3 is only "Bw", K5 only "D~{"
        with pytest.raises(GraphParseError, match="padding"):
            parse_graph6(text)

    @pytest.mark.parametrize("text", ["A_\nBw\n", "A_\r\nBw", ">>graph6<<A_\n>>graph6<<Bw"])
    def test_two_graphs_are_named_as_more_than_one_line(self, text):
        with pytest.raises(GraphParseError, match="more than one line; a file holds one graph"):
            parse_graph6(text)

    def test_zero_padding_accepted(self):
        assert parse_graph6("Bw") == complete_graph(3)
        assert serialize_graph6(complete_graph(3)) == "Bw"
        assert parse_graph6("D~{") == complete_graph(5)
        # six bits for four vertices: nothing to pad, every bit is an edge
        assert parse_graph6("C~") == complete_graph(4)

    @given(graphs())
    def test_round_trip(self, g):
        assert parse_graph6(serialize_graph6(g)) == g


class TestLoadGraph:
    def test_sniffs_g6(self, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text(serialize_graph6(cycle_graph(5)) + "\n")
        assert load_graph(str(path)) == cycle_graph(5)

    def test_sniffs_el(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("2 1\n0 1\n")
        assert load_graph(str(path)) == complete_graph(2)

    def test_override_beats_extension(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 1\n0 1\n")
        assert load_graph(str(path), fmt="el") == complete_graph(2)

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 1\n0 1\n")
        with pytest.raises(ValueError):
            load_graph(str(path))
        with pytest.raises(ValueError):
            load_graph(str(path), fmt="dot")
