import json
import os
import subprocess
import sys

import pytest

from lexiconn import THEOREM_IDS, is_super_connected, parse_graph6, random_graph, serialize_graph6
from lexiconn.cli import EX_DISCREPANCY, EX_INPUT, EX_OK, EX_USAGE, main
from lexiconn.families import complete_graph, cycle_graph


@pytest.fixture()
def star_file(tmp_path):
    path = tmp_path / "star.el"
    path.write_text("4 3\n0 1\n0 2\n0 3\n")
    return str(path)


@pytest.fixture()
def c4_file(tmp_path):
    path = tmp_path / "c4.g6"
    path.write_text(serialize_graph6(cycle_graph(4)) + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_star_connectivities(self, capsys, star_file):
        code, out, _ = run_cli(capsys, "compute", star_file, "--invariants", "k,k1")
        assert code == EX_OK
        assert json.loads(out) == {"k": 1, "k1": "infinity"}

    def test_cycle_is_super_connected(self, capsys, c4_file):
        code, out, _ = run_cli(capsys, "compute", c4_file, "--invariants", "super")
        assert code == EX_OK
        assert json.loads(out) == {"super": True}

    def test_all_invariants(self, capsys, c4_file):
        code, out, _ = run_cli(capsys, "compute", c4_file)
        assert code == EX_OK
        assert json.loads(out) == {"k": 2, "k1": "infinity", "super": True, "delta": 2, "v0": []}

    def test_witness_cuts(self, capsys, c4_file):
        code, out, _ = run_cli(capsys, "compute", c4_file, "--invariants", "k,k1", "--witness")
        assert code == EX_OK
        data = json.loads(out)
        assert data["k_cut"] == [0, 2]
        assert data["k1_cut"] is None

    def test_super_agrees_with_or_without_a_scan(self, capsys, tmp_path):
        for seed in range(30):
            g = random_graph(6 + seed % 5, 0.5, seed)
            path = tmp_path / f"g{seed}.g6"
            path.write_text(serialize_graph6(g) + "\n")
            for invariants in ("k1,super", "super"):
                code, out, _ = run_cli(capsys, "compute", str(path), "--invariants", invariants)
                assert code == EX_OK
                assert json.loads(out)["super"] == is_super_connected(g)

    def test_super_after_k1_reads_the_scan(self, capsys, monkeypatch, tmp_path):
        import lexiconn.cli

        calls = []
        inner = lexiconn.cli.is_super_connected
        monkeypatch.setattr(lexiconn.cli, "is_super_connected", lambda g: calls.append(g) or inner(g))
        for n, expected in ((4, True), (6, False)):
            path = tmp_path / f"c{n}.g6"
            path.write_text(serialize_graph6(cycle_graph(n)) + "\n")
            code, out, _ = run_cli(capsys, "compute", str(path), "--invariants", "k1,super")
            assert code == EX_OK
            assert json.loads(out)["super"] is expected
        assert calls == []

    def test_k_under_witness_reads_the_scan(self, capsys, monkeypatch, tmp_path):
        import lexiconn.cli
        from lexiconn import vertex_connectivity

        calls = []
        monkeypatch.setattr(lexiconn.cli, "vertex_connectivity", lambda g: calls.append(g) or vertex_connectivity(g))
        graphs = [random_graph(1 + seed % 9, 0.5, seed) for seed in range(20)] + [complete_graph(4)]
        for i, g in enumerate(graphs):
            path = tmp_path / f"g{i}.g6"
            path.write_text(serialize_graph6(g) + "\n")
            code, out, _ = run_cli(capsys, "compute", str(path), "--invariants", "k", "--witness")
            assert code == EX_OK
            assert json.loads(out)["k"] == vertex_connectivity(g)
        assert calls == []

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "compute", "no-such-file.g6")
        assert code == EX_INPUT
        assert "no-such-file.g6" in err

    def test_unparsable_file(self, capsys, tmp_path):
        path = tmp_path / "bad.el"
        path.write_text("3 1\n0 9\n")
        code, _, err = run_cli(capsys, "compute", str(path))
        assert code == EX_INPUT
        assert "line 2" in err

    def test_graph6_with_nonzero_padding(self, capsys, tmp_path):
        path = tmp_path / "k3.g6"
        path.write_text("Bx\n")
        code, _, err = run_cli(capsys, "compute", str(path))
        assert code == EX_INPUT
        assert "padding" in err

    def test_graph6_with_a_long_count_below_63_vertices(self, capsys, tmp_path):
        path = tmp_path / "k4.g6"
        path.write_text("~??C~\n")
        code, _, err = run_cli(capsys, "compute", str(path))
        assert code == EX_INPUT
        assert "long form" in err

    def test_unknown_extension(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("2 1\n0 1\n")
        code, _, _ = run_cli(capsys, "compute", str(path))
        assert code == EX_INPUT

    def test_format_in_override(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("2 1\n0 1\n")
        code, out, _ = run_cli(capsys, "compute", str(path), "--format-in", "el", "--invariants", "k")
        assert code == EX_OK
        assert json.loads(out) == {"k": 1}

    def test_unknown_invariant_is_usage_error(self, capsys, c4_file):
        code, _, err = run_cli(capsys, "compute", c4_file, "--invariants", "k,zeta")
        assert code == EX_USAGE
        assert "zeta" in err

    def test_no_invariants_is_usage_error(self, capsys, c4_file):
        code, out, err = run_cli(capsys, "compute", c4_file, "--invariants", ",")
        assert code == EX_USAGE and out == ""
        assert "no invariants requested" in err

    @pytest.mark.parametrize("fmt", ["json", "plain", "csv"])
    def test_repeated_invariant_is_usage_error(self, capsys, c4_file, fmt):
        # plain and csv would print k twice, json once
        code, out, err = run_cli(capsys, "compute", c4_file, "--invariants", "k,k", "--format", fmt)
        assert code == EX_USAGE and out == ""
        assert "'k' is requested twice" in err

    def test_two_graphs_in_one_graph6_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "two.g6"
        path.write_text("A_\nBw\n")
        code, _, err = run_cli(capsys, "compute", str(path))
        assert code == EX_INPUT
        assert "more than one line" in err

    def test_plain_format(self, capsys, star_file):
        code, out, _ = run_cli(capsys, "compute", star_file, "--invariants", "k,k1,v0", "--format", "plain")
        assert code == EX_OK
        assert out.splitlines() == ["k 1", "k1 infinity", "v0 []"]

    def test_csv_format(self, capsys, star_file):
        code, out, _ = run_cli(capsys, "compute", star_file, "--invariants", "k,k1", "--format", "csv")
        assert code == EX_OK
        assert out.splitlines() == ["name,value", "k,1", "k1,infinity"]

    def test_formats_encode_identical_data(self, capsys, c4_file):
        _, js, _ = run_cli(capsys, "compute", c4_file, "--invariants", "k,super")
        _, plain, _ = run_cli(capsys, "compute", c4_file, "--invariants", "k,super", "--format", "plain")
        parsed = {}
        for line in plain.splitlines():
            name, value = line.split(" ", 1)
            parsed[name] = json.loads(value)
        assert parsed == json.loads(js)

    def test_oversized_header_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "huge.el"
        path.write_text("258048 0\n")
        code, out, err = run_cli(capsys, "compute", str(path), "--invariants", "delta")
        assert code == EX_INPUT
        assert out == ""
        assert "line 1" in err

    def test_empty_graph_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "empty.el"
        path.write_text("0 0\n")
        code, _, _ = run_cli(capsys, "compute", str(path), "--invariants", "delta")
        assert code == EX_INPUT


class TestProduct:
    def test_writes_product_graph6(self, capsys, tmp_path):
        k2 = tmp_path / "k2.el"
        k2.write_text("2 1\n0 1\n")
        out_path = tmp_path / "product.g6"
        code, _, _ = run_cli(capsys, "product", str(k2), str(k2), str(out_path))
        assert code == EX_OK
        assert parse_graph6(out_path.read_text()) == complete_graph(4)

    def test_report(self, capsys, tmp_path):
        c4 = tmp_path / "c4.g6"
        c4.write_text(serialize_graph6(cycle_graph(4)) + "\n")
        k2 = tmp_path / "k2.el"
        k2.write_text("2 1\n0 1\n")
        out_path = tmp_path / "product.g6"
        code, out, _ = run_cli(capsys, "product", str(c4), str(k2), str(out_path), "--report", "--oracle")
        assert code == EX_OK
        report = json.loads(out)
        assert report == {"n": 8, "m_edges": 20, "kappa_formula": 4, "kappa_oracle": 4}

    def test_empty_factor(self, capsys, tmp_path):
        empty = tmp_path / "empty.el"
        empty.write_text("0 0\n")
        k2 = tmp_path / "k2.el"
        k2.write_text("2 1\n0 1\n")
        code, _, _ = run_cli(capsys, "product", str(empty), str(k2), str(tmp_path / "x.g6"))
        assert code == EX_INPUT

    def test_output_in_a_missing_directory_is_input_error(self, capsys, tmp_path):
        k2 = tmp_path / "k2.el"
        k2.write_text("2 1\n0 1\n")
        out_path = tmp_path / "missing" / "out.g6"
        code, out, err = run_cli(capsys, "product", str(k2), str(k2), str(out_path))
        assert code == EX_INPUT and out == ""
        assert "cannot write" in err and str(out_path) in err

    def test_product_past_graph6_limit_is_input_error(self, capsys, tmp_path):
        # 2 by 200000 vertices is 400000, past the 258047 that graph6 encodes
        pair = tmp_path / "pair.el"
        pair.write_text("2 0\n")
        big = tmp_path / "big.el"
        big.write_text("200000 0\n")
        out_path = tmp_path / "product.g6"
        code, out, err = run_cli(capsys, "product", str(pair), str(big), str(out_path))
        assert code == EX_INPUT
        assert out == ""
        assert "400000 vertices" in err and "258047" in err
        assert not out_path.exists()

    def test_counterexample_pipeline(self, capsys, tmp_path):
        """Bowtie times (one edge plus an isolated vertex) is not super
        connected even though the right factor has an isolated vertex."""
        g1 = tmp_path / "bowtie.el"
        g1.write_text("5 6\n0 1\n0 2\n1 2\n1 3\n1 4\n3 4\n")
        g2 = tmp_path / "pair.el"
        g2.write_text("3 1\n0 1\n")
        out_path = tmp_path / "product.g6"
        code, _, _ = run_cli(capsys, "product", str(g1), str(g2), str(out_path))
        assert code == EX_OK
        code, out, _ = run_cli(capsys, "compute", str(out_path), "--invariants", "k,super")
        assert code == EX_OK
        assert json.loads(out) == {"k": 3, "super": False}


class TestVerify:
    def test_agreeing_run_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--theorem", "thm21", "--n1-max", "4", "--n2-max", "2")
        assert code == EX_OK
        report = json.loads(out)
        assert report["theorem_id"] == "thm21"
        assert report["discrepancies"] == []
        assert report["instances_checked"] == 120

    def test_discrepancies_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--theorem", "cor24", "--n1-max", "4", "--n2-max", "1")
        assert code == EX_DISCREPANCY
        report = json.loads(out)
        assert len(report["discrepancies"]) == report["instances_checked"] > 0

    def test_reading_is_echoed(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--theorem", "thm23", "--n1-max", "4", "--n2-max", "2",
            "--reading", "all_cuts",
        )
        assert code == EX_OK
        assert json.loads(out)["reading"] == "all_cuts"

    def test_every_rule_id_runs_with_its_exit_code(self, capsys):
        # the workflow's console-script smoke step expects these codes, and
        # --theorem lists the ids in this order
        expected = dict.fromkeys(THEOREM_IDS, EX_OK) | {"cor24": EX_DISCREPANCY}
        assert tuple(expected) == (
            "thm21", "thm21_complete", "thm22", "thm23", "cor24", "super_part1", "super_part2", "super_part3",
        )
        for theorem_id, code in expected.items():
            argv = ("verify", "--theorem", theorem_id, "--n1-max", "3", "--n2-max", "2", "--quiet")
            assert run_cli(capsys, *argv)[0] == code, theorem_id

    def test_unknown_theorem_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--theorem", "bogus")
        assert code == EX_USAGE

    def test_budget_violation_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--theorem", "thm21", "--n1-max", "7")
        assert code == EX_USAGE
        assert "budget" in err

    def test_random_mode_is_byte_reproducible(self, capsys):
        args = (
            "verify", "--theorem", "thm21", "--mode", "random", "--samples", "40",
            "--seed", "11", "--p", "0.4", "--n1-max", "4", "--n2-max", "2",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        strip = lambda text: {k: v for k, v in json.loads(text).items() if k != "wall_time_ms"}  # noqa: E731
        assert strip(first) == strip(second)
        assert json.loads(first)["seed"] == 11

    def test_plain_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--theorem", "thm21", "--n1-max", "3", "--n2-max", "2",
            "--format", "plain",
        )
        assert code == EX_OK
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert lines["theorem_id"] == "thm21"
        assert lines["discrepancy_count"] == "0"

    def test_csv_format_with_discrepancies(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--theorem", "cor24", "--n1-max", "3", "--n2-max", "1",
            "--format", "csv",
        )
        assert code == EX_DISCREPANCY
        lines = out.splitlines()
        assert lines[0] == "name,value"
        assert any(line.startswith("discrepancy,") for line in lines)

    def test_report_round_trips_through_compute(self, capsys, tmp_path):
        """Invariants recomputed from a certificate's embedded graphs match
        what the certificate recorded."""
        code, out, _ = run_cli(capsys, "verify", "--theorem", "cor24", "--n1-max", "4", "--n2-max", "1")
        assert code == EX_DISCREPANCY
        cert = json.loads(out)["discrepancies"][0]
        g1 = tmp_path / "g1.g6"
        g1.write_text(cert["g1"] + "\n")
        g2 = tmp_path / "g2.g6"
        g2.write_text(cert["g2"] + "\n")
        prod = tmp_path / "prod.g6"
        code, _, _ = run_cli(capsys, "product", str(g1), str(g2), str(prod))
        assert code == EX_OK
        code, out, _ = run_cli(capsys, "compute", str(prod), "--invariants", "k1")
        assert code == EX_OK
        assert json.loads(out)["k1"] == cert["oracle_value"]


def test_module_entry_point(tmp_path):
    path = tmp_path / "k2.el"
    path.write_text("2 1\n0 1\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "lexiconn", "compute", str(path), "--invariants", "k"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"k": 1}
