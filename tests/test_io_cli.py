"""Graph file formats, report serialization, and the CLI surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import decaycent
from decaycent import centrality, cli, verification
from decaycent.cli import main
from decaycent.generation import TrialSeed, sample_connected_gnp
from decaycent.graph import build_graph
from decaycent.io import (
    GraphParseError,
    edgelist_text,
    graph_from_json_dict,
    parse_edgelist,
    read_graph,
    write_edgelist,
)

P3_TEXT = "3 2\n0 1\n1 2\n"


class TestEdgelistFormat:
    def test_parse_p3(self):
        g = parse_edgelist(P3_TEXT)
        assert g.n == 3
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_round_trip_identity(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        assert parse_edgelist(edgelist_text(g)).edges.tolist() == g.edges.tolist()
        assert edgelist_text(parse_edgelist(edgelist_text(g))) == edgelist_text(g)

    def test_malformed_line_names_line_number(self):
        with pytest.raises(GraphParseError, match=":3:"):
            parse_edgelist("3 2\n0 1\na b\n", name="<t>")

    def test_wrong_edge_count(self):
        with pytest.raises(GraphParseError, match="promised 3"):
            parse_edgelist("3 3\n0 1\n1 2\n")

    def test_empty_file(self):
        with pytest.raises(GraphParseError, match="empty"):
            parse_edgelist("\n\n")

    def test_header_not_integers(self):
        with pytest.raises(GraphParseError, match="integers"):
            parse_edgelist("x y\n")


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": g.n, "edges": g.edges.tolist()}, indent=2))
        assert read_graph(path).edges.tolist() == g.edges.tolist()

    def test_json_dumps_round_trip(self):
        g, _ = sample_connected_gnp(12, 0.3, TrialSeed(5, 0))
        text = json.dumps({"n": g.n, "edges": g.edges.tolist()})
        back = graph_from_json_dict(json.loads(text))
        assert back.n == g.n
        assert back.edges.tolist() == g.edges.tolist()

    def test_auto_detection(self, tmp_path):
        g = build_graph(3, [(0, 1), (1, 2)])
        as_json = tmp_path / "graph_without_extension"
        as_json.write_text(json.dumps({"n": g.n, "edges": g.edges.tolist()}))
        assert read_graph(as_json).edges.tolist() == g.edges.tolist()
        as_edges = tmp_path / "graph.txt"
        write_edgelist(g, as_edges)
        assert read_graph(as_edges).edges.tolist() == g.edges.tolist()

    def test_bad_json_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nodes": 3}')
        with pytest.raises(GraphParseError):
            read_graph(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text(P3_TEXT)
    return path


@pytest.fixture
def star_json(tmp_path):
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}))
    return path


class TestComputeCommand:
    def test_p3_closeness_column(self, p3_file, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = main(
            ["compute", "--graph", str(p3_file), "--grid-points", "3",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        closeness = [line.split(",")[3] for line in lines[1:]]
        assert closeness == ["0.333333333", "0.5", "0.333333333"]

    def test_star_json_maximizers(self, star_json, tmp_path):
        out_json = tmp_path / "report.json"
        code = main(
            ["compute", "--graph", str(star_json), "--grid-points", "5",
             "--out", str(tmp_path / "t.csv"), "--json", str(out_json), "--full"]
        )
        assert code == 0
        report = json.loads(out_json.read_text())
        assert report["maximizers"]["by_degree"] == [0]
        assert report["maximizers"]["by_closeness"] == [0]
        assert all(v == [0] for v in report["maximizers"]["by_decay"].values())
        assert report["nodes"][0]["fvec"][0] == 3
        assert "version" in report and "conventions" in report

    @pytest.mark.parametrize(
        "graph",
        [{"n": 3, "edges": [[0, 1.9], [1, 2]]},
         {"n": 3.7, "edges": [[0, 1], [1, 2]]},
         {"n": 3, "edges": [[0, True], [1, 2]]},
         {"n": True, "edges": []}],
        ids=["float-endpoint", "float-n", "bool-endpoint", "bool-n"],
    )
    def test_non_integer_json_is_data_error(self, tmp_path, capsys, graph):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph))
        assert main(["compute", "--graph", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "JSON integers" in err

    def test_malformed_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 2\n0 1\na b\n")
        code = main(["compute", "--graph", str(bad)])
        assert code == 2
        assert ":3:" in capsys.readouterr().err

    def test_disconnected_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "disc.txt"
        path.write_text("4 2\n0 1\n2 3\n")
        assert main(["compute", "--graph", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "disconnected" in err

    @pytest.mark.parametrize("flag", ["--out", "--json"])
    @pytest.mark.parametrize("bad, message", [("missing/x", "does not exist"),
                                              ("subdir", "is a directory")])
    def test_bad_output_path_leaves_no_output(self, p3_file, tmp_path, capsys, flag,
                                              bad, message):
        (tmp_path / "subdir").mkdir()
        paths = {"--out": tmp_path / "t.csv", "--json": tmp_path / "r.json"}
        paths[flag] = tmp_path / bad
        argv = ["compute", "--graph", str(p3_file)]
        for key, path in paths.items():
            argv += [key, str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[flag]}: ") and message in err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["p3.txt", "subdir"]
        assert not any((tmp_path / "subdir").iterdir())

    @pytest.mark.parametrize("name, text, message", [
        ("g.txt", "3\n0 1\n", ":1: expected header 'n m', got '3'"),
        ("g.txt", "3 2\n0 1\n2\n", ":3: expected two node ids, got '2'"),
        ("g.txt", "3 1\n0 5\n", ": edge (0, 5) has an endpoint outside 0..2"),
        ("g.txt", "3 1\n1 1\n", ": self-loop (1, 1) is not allowed"),
        ("g.json", '{"n": 3, "edges": [', ": invalid JSON: "),
    ], ids=["one-token-header", "one-id-edge", "endpoint-out-of-range", "self-loop",
            "invalid-json"])
    def test_bad_graph_file_is_data_error(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        out = tmp_path / "t.csv"
        assert main(["compute", "--graph", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}{message}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name, data", [
        ("g.json", b'{"n": 1000000000000000000, "edges": []}'),
        ("g.json", b'{"n": 10000000000000000000, "edges": []}'),
        ("g.txt", b"\xff\xfe3 2\n"),
    ], ids=["node-count-too-large-to-allocate", "node-count-beyond-int64", "not-utf8"])
    def test_unbuildable_graph_file_is_data_error(self, tmp_path, capsys, name, data):
        # 6.94 EiB of CSR row starts: the allocation fails at once, it is never made
        path = tmp_path / name
        path.write_bytes(data)
        out = tmp_path / "t.csv"
        assert main(["compute", "--graph", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_memory_error_is_data_error(self, p3_file, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "centrality_table", exhausted)
        assert main(["compute", "--graph", str(p3_file)]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_stdout_default(self, p3_file, capsys):
        assert main(["compute", "--graph", str(p3_file), "--grid-points", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("node,degree,farness,closeness")


class TestCompareCommand:
    def test_star_center_vs_leaf(self, star_json, capsys):
        code = main(["compare", "--graph", str(star_json), "-i", "0", "-j", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdicts"]["profile_dominance"]["relation"] == "greater"
        assert report["sufficient_conditions"]["low_delta"]["satisfied"] == [1, 2, 3, 4]
        assert report["difference_coeffs"]["avec"] == [2, -2, 0]

    def test_p3_center_vs_endpoint(self, p3_file, capsys):
        code = main(["compare", "--graph", str(p3_file), "-i", "1", "-j", "0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdicts"]["farness_dominance"]["relation"] == "greater"
        assert report["sufficient_conditions"]["high_delta"]["satisfied"] == [1, 2]
        assert report["difference_coeffs"]["bvec"] == [-1, 1]
        curve = report["dc_difference_curve"]["difference"]
        assert all(d > 0 for d in curve)

    def test_signed_vectors_built_once(self, tmp_path, monkeypatch, capsys):
        # the difference coefficients come from the two signed vectors the
        # command already holds, not from a second build of each
        path = tmp_path / "p40.txt"
        write_edgelist(build_graph(40, [(k, k + 1) for k in range(39)]), path)
        calls = []
        original = centrality.fvec_from_counts

        def counted(counts):
            calls.append(counts)
            return original(counts)

        monkeypatch.setattr(centrality, "fvec_from_counts", counted)
        assert main(["compare", "--graph", str(path), "-i", "3", "-j", "20"]) == 0
        assert len(calls) == 2
        report = json.loads(capsys.readouterr().out)
        fi, fj = report["fvecs"]["i"], report["fvecs"]["j"]
        assert report["difference_coeffs"]["bvec"] == [a - b for a, b in zip(fi, fj)]

    @pytest.mark.parametrize("bad, message", [("missing/x.json", "does not exist"),
                                              ("subdir", "is a directory")])
    def test_bad_output_path_fails_before_any_work(self, p3_file, tmp_path, monkeypatch,
                                                   capsys, bad, message):
        (tmp_path / "subdir").mkdir()

        def no_work(*args, **kwargs):
            raise AssertionError("read the graph before checking --out")

        monkeypatch.setattr(cli, "read_graph", no_work)
        out = tmp_path / bad
        assert main(["compare", "--graph", str(p3_file), "-i", "0", "-j", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: ") and message in err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["p3.txt", "subdir"]

    def test_same_node_is_data_error(self, p3_file, capsys):
        assert main(["compare", "--graph", str(p3_file), "-i", "1", "-j", "1"]) == 2
        assert "distinct" in capsys.readouterr().err

    def test_unknown_node_is_data_error(self, p3_file, capsys):
        assert main(["compare", "--graph", str(p3_file), "-i", "0", "-j", "9"]) == 2
        assert "unknown node" in capsys.readouterr().err

    def test_disconnected_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "disc.txt"
        path.write_text("4 2\n0 1\n2 3\n")
        assert main(["compare", "--graph", str(path), "-i", "0", "-j", "1"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "disconnected" in err


@pytest.mark.parametrize("argv, clash", [
    (["compute", "--out", "{dir}/r.json", "--json", "{dir}/r.json"],
     ("{dir}/r.json", "{dir}/r.json")),
    (["compute", "--out", "{dir}/./p3.txt"], ("{dir}/./p3.txt", "{dir}/p3.txt")),
    (["compute", "--out", "{dir}/t.csv", "--json", "{dir}/p3.txt"],
     ("{dir}/p3.txt", "{dir}/p3.txt")),
    (["compare", "-i", "0", "-j", "1", "--out", "{dir}/./p3.txt"],
     ("{dir}/./p3.txt", "{dir}/p3.txt")),
], ids=["csv-is-json", "csv-is-input", "json-is-input", "compare-out-is-input"])
def test_outputs_and_input_need_their_own_files(p3_file, tmp_path, capsys, argv, clash):
    # paths are compared resolved, so "./p3.txt" names the input file too
    command, *rest = (a.format(dir=tmp_path) for a in argv)
    later, earlier = (c.format(dir=tmp_path) for c in clash)
    assert main([command, "--graph", str(p3_file), *rest]) == 2
    assert capsys.readouterr().err == f"error: {later}: names the same file as {earlier}\n"
    assert [f.name for f in tmp_path.iterdir()] == ["p3.txt"]
    assert p3_file.read_text() == P3_TEXT


class TestSimulateCommand:
    def test_requires_seed(self, tmp_path, capsys):
        code = main(
            ["simulate", "--n", "8", "--p", "0.4", "--trials", "2",
             "--out-dir", str(tmp_path / "o")]
        )
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    def test_small_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--n", "8", "--p", "0.4", "--trials", "3",
             "--seed", "5", "--grid-points", "7", "--out-dir", str(out)]
        )
        assert code == 0
        assert (out / "records.csv").exists()
        assert (out / "aggregate.csv").exists()
        assert (out / "summary.json").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "n = 8\np = 0.4\ntrials = 2\nseed = 9\ngrid_points = 5\n"
            f"out_dir = {tmp_path / 'from_file'}\n"
        )
        code = main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "override")])
        assert code == 0
        assert (tmp_path / "override" / "summary.json").exists()
        assert not (tmp_path / "from_file").exists()
        summary = json.loads((tmp_path / "override" / "summary.json").read_text())
        assert summary["config"]["trials"] == 2

    def test_config_line_without_equals_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 8\nseed 5\n")
        out = tmp_path / "sim"
        argv = ["simulate", "--config", str(cfg), "--p", "0.4", "--trials", "2",
                "--out-dir", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {cfg}:2: expected key=value, got 'seed 5'")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["--n", "--p", "--trials", "--out-dir"])
    def test_missing_setting_is_usage_error(self, tmp_path, capsys, missing):
        args = {"--n": "8", "--p": "0.4", "--trials": "2", "--seed": "5",
                "--out-dir": str(tmp_path / "sim")}
        del args[missing]
        assert main(["simulate", *(x for kv in args.items() for x in kv)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: simulate needs {missing} (flag or config file)")
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["simulate", "--config", str(cfg)]) == 1

    def test_bad_config_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 8\n# comment\ntrials = abc\n")
        out = tmp_path / "sim"
        argv = ["simulate", "--config", str(cfg), "--p", "0.4", "--seed", "1",
                "--out-dir", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {cfg}:3: trials: ")
        assert "'abc'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--p", "1.5"), ("--seed", "-1"), ("--grid-points", "0"), ("--n", "1"),
         ("--max-rejects", "-1"), ("--trials", "0"), ("--workers", "0")],
    )
    def test_bad_input_leaves_no_output(self, tmp_path, capsys, flag, value):
        out = tmp_path / "sim"
        args = {"--n": "8", "--p": "0.4", "--seed": "5", "--grid-points": "7",
                "--trials": "2", flag: value}
        argv = ["simulate", "--out-dir", str(out)]
        for key, val in args.items():
            argv += [key, val]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_all_trials_failing_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "sim"
        argv = ["simulate", "--n", "50", "--p", "0.01", "--trials", "2", "--seed", "1",
                "--max-rejects", "5", "--out-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: all 2 trials")
        assert "Traceback" not in err
        # what is left on disk: the records header, nothing else
        assert [f.name for f in out.iterdir()] == ["records.csv"]
        assert len((out / "records.csv").read_text().splitlines()) == 1


class TestCheckCommand:
    @pytest.mark.parametrize("graphs", ["0", "-5"])
    def test_graphs_below_one_is_usage_error(self, tmp_path, capsys, graphs):
        out = tmp_path / "check.json"
        assert main(["check", "--graphs", graphs, "--out", str(out)]) == 1
        assert "--graphs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad, message", [("missing/x.json", "does not exist"),
                                              ("subdir", "is a directory")])
    def test_bad_output_path_fails_before_any_check(self, tmp_path, monkeypatch, capsys,
                                                    bad, message):
        (tmp_path / "subdir").mkdir()

        def no_work(**kwargs):
            raise AssertionError("ran the checks before checking --out")

        monkeypatch.setattr(verification, "run_all_checks", no_work)
        out = tmp_path / bad
        assert main(["check", "--graphs", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: ") and message in err
        assert [f.name for f in tmp_path.iterdir()] == ["subdir"]

    def test_small_run_passes(self, capsys):
        code = main(["check", "--graphs", "12", "--n-max", "8", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    @pytest.mark.parametrize("n_max", ["1", "2", "3"])
    def test_too_small_n_max_is_usage_error(self, capsys, n_max):
        assert main(["check", "--n-max", n_max, "--graphs", "4"]) == 1
        assert "--n-max" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert main(["compute", "--nope"]) == 1

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1


class TestStartup:
    def test_scipy_stays_unloaded(self):
        """Neither importing the CLI nor a trial on a small-diameter graph
        loads scipy, which is only the long-diameter distance fallback."""
        code = (
            "import sys\n"
            "import decaycent.cli\n"
            "assert 'scipy' not in sys.modules, 'loaded by the import'\n"
            "from decaycent.centrality import DeltaGrid\n"
            "from decaycent.generation import TrialSeed, sample_connected_gnp\n"
            "from decaycent.simulation import run_trial\n"
            "g, _ = sample_connected_gnp(200, 0.03, TrialSeed(1, 0), 10**6)\n"
            "run_trial(g, DeltaGrid.uniform(99))\n"
            "assert 'scipy' not in sys.modules, 'loaded by run_trial'\n"
        )
        run_fresh(code)

    def test_cli_import_skips_pool_and_checks(self):
        """``multiprocessing`` loads only for a run on several workers, and
        ``verification`` only for ``check``."""
        run_fresh(
            "import sys\n"
            "import decaycent.cli\n"
            "for name in ('multiprocessing', 'decaycent.verification'):\n"
            "    assert name not in sys.modules, name\n"
        )


def run_fresh(code):
    """Run ``code`` in a new interpreter that imports this checkout's
    package, and require it to exit 0."""
    src = str(Path(decaycent.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
