import json

import numpy as np
import pytest

from privconn import (
    NumericalError,
    PrivacyParams,
    cli,
    from_edge_list,
    graph_core,
    privatize,
    property_bounds,
)
from privconn.cli import main

DIAMOND = "n=4\n0 1\n0 2\n1 2\n1 3\n2 3\n"
CYCLE4 = "n=4\n0 1\n0 2\n1 3\n2 3\n"


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


class TestSolveB:
    def test_reference_scale(self, capsys):
        code, rep = run_json(capsys, ["solve-b", "--n", "10"])
        assert code == 0
        assert rep["results"]["b"] == pytest.approx(7.583004, abs=1e-4)
        assert set(rep) == {"inputs", "public_statistics", "results", "generated_at"}

    def test_json_keys_are_sorted(self, capsys):
        _, out = run(capsys, ["solve-b", "--n", "10"])
        keys = list(json.loads(out))
        assert keys == sorted(keys)

    def test_infeasible_exits_3(self, capsys):
        code, _ = run(capsys, ["solve-b", "--n", "1"])
        assert code == 3
        code, _ = run(capsys, ["solve-b", "--n", "10", "--eps", "-1"])
        assert code == 3


class TestPrivatize:
    def test_seeded_release_is_reproducible(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(DIAMOND)
        code, rep1 = run_json(capsys, ["privatize", "--input", str(path), "--seed", "11"])
        assert code == 0
        _, rep2 = run_json(capsys, ["privatize", "--input", str(path), "--seed", "11"])
        assert rep1["results"] == rep2["results"]
        assert 0.0 <= rep1["results"]["lambda2_tilde"] <= 4.0
        rep1.pop("generated_at")
        rep2.pop("generated_at")
        assert rep1 == rep2

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_public_statistics_do_not_depend_on_the_graph(self, capsys, tmp_path, seed):
        # the 10-node path and cycle share n but not lambda2 (0.098 vs 0.382)
        path = tmp_path / "path.txt"
        path.write_text("n=10\n" + "".join(f"{i} {i + 1}\n" for i in range(9)))
        cycle = tmp_path / "cycle.txt"
        cycle.write_text(path.read_text() + "0 9\n")
        _, rep1 = run_json(capsys, ["privatize", "--input", str(path), "--seed", seed])
        _, rep2 = run_json(capsys, ["privatize", "--input", str(cycle), "--seed", seed])
        assert rep1["public_statistics"] == rep2["public_statistics"]
        assert rep1["results"]["lambda2_tilde"] != rep2["results"]["lambda2_tilde"]
        for rep in (rep1, rep2):
            rep.pop("generated_at")
            rep["inputs"].pop("input")
            rep["results"].pop("lambda2_tilde")
        assert rep1 == rep2

    def test_reads_stdin_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(DIAMOND))
        code, rep = run_json(capsys, ["privatize", "--input", "-", "--seed", "3"])
        assert code == 0
        assert rep["public_statistics"]["n"] == 4

    def test_output_goes_to_the_file(self, capsys, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text(DIAMOND)
        out = tmp_path / "report.json"
        code, echoed = run(
            capsys,
            ["privatize", "--input", str(graph), "--seed", "1", "--output", str(out)],
        )
        assert code == 0
        assert echoed == ""
        assert "lambda2_tilde" in json.loads(out.read_text())["results"]

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _ = run(capsys, ["privatize", "--input", str(tmp_path / "absent.txt")])
        assert code == 2

    def test_malformed_graph_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n")  # node count header missing
        code, _ = run(capsys, ["privatize", "--input", str(path)])
        assert code == 2

    def test_numerical_failure_exits_4(self, capsys, tmp_path, monkeypatch):
        import privconn.cli as cli_mod

        def boom(*args, **kwargs):
            raise NumericalError("synthetic eigensolver failure")

        monkeypatch.setattr(cli_mod, "privatize", boom)
        path = tmp_path / "g.txt"
        path.write_text(DIAMOND)
        code, _ = run(capsys, ["privatize", "--input", str(path)])
        assert code == 4

    def test_out_of_memory_exits_2(self, capsys, tmp_path, monkeypatch):
        import privconn.cli as cli_mod

        def too_big(*args, **kwargs):
            # what numpy raises for the n x n Laplacian of an n = 100000 graph
            raise MemoryError(
                "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"
            )

        monkeypatch.setattr(cli_mod, "privatize", too_big)
        path = tmp_path / "g.txt"
        path.write_text(DIAMOND)
        code = main(["privatize", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "74.5 GiB" in err
        assert "Traceback" not in err

    def test_node_count_past_the_sort_keys_exits_2(self, capsys, tmp_path, monkeypatch):
        # such a graph would take the sparse route, whose length-n arrays
        # take 34 GB at this n; it must be refused before that
        def unreachable(graph):
            raise AssertionError(f"the sparse route was reached with n={graph.n}")

        monkeypatch.setattr(graph_core, "_sparse_algebraic_connectivity", unreachable)
        path = tmp_path / "g.txt"
        path.write_text("n=4294967296\n0 1\n")
        code, out = run(capsys, ["privatize", "--input", str(path)])
        assert code == 2
        assert out == ""

    def test_node_count_above_the_sparse_cap_exits_2(self, capsys, tmp_path, monkeypatch):
        # one edge keeps the mean degree low, so only the node cap stops
        # the sparse route, whose arrays would take about 2 GB at this n
        def unreachable(graph):
            raise AssertionError(f"the sparse route was reached with n={graph.n}")

        monkeypatch.setattr(graph_core, "_sparse_algebraic_connectivity", unreachable)
        path = tmp_path / "g.txt"
        path.write_text("n=4000000\n0 1\n")
        code = main(["privatize", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "n=4000000" in captured.err

    def test_graph_above_the_dense_cap_exits_2(self, capsys, tmp_path, monkeypatch):
        from privconn import graph_core

        monkeypatch.setattr(graph_core, "_DENSE_MAX_N", 3)
        path = tmp_path / "g.txt"
        path.write_text(DIAMOND)
        code = main(["privatize", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "n=4 nodes needs about 384 bytes" in err

    def test_release_path_does_not_load_scipy(self, tmp_path, cli_modules):
        # a 1024-node path is sparse but not above the sparse route's node
        # cutoff, so it stays dense and scipy stays unloaded
        diamond, path1024 = tmp_path / "g.txt", tmp_path / "p.txt"
        diamond.write_text(DIAMOND)
        path1024.write_text("n=1024\n" + "".join(f"{i} {i + 1}\n" for i in range(1023)))
        modules = cli_modules(
            [["privatize", "--input", str(path), "--seed", "1"] for path in (diamond, path1024)]
        )
        assert [m for m in modules if m.startswith("scipy")] == []

    def test_release_path_does_not_load_the_thread_pool(self, tmp_path, cli_modules):
        # importing concurrent.futures with the package would add about 3 ms
        # to every command (validate's own check is in TestValidate)
        path1024 = tmp_path / "p.txt"
        path1024.write_text("n=1024\n" + "".join(f"{i} {i + 1}\n" for i in range(1023)))
        modules = cli_modules([["privatize", "--input", str(path1024), "--seed", "1"]])
        assert "concurrent.futures" not in modules

    def test_report_commands_do_not_load_scipy(self, cli_modules):
        # the scale and base searches use the package's own root-finder and
        # the release's moments are evaluated with math alone; importing
        # scipy.special would add about 0.2 s to bounds and validate, and
        # scipy.optimize about 0.23 s to every command
        modules = cli_modules(
            [
                ["consensus", "--lambda2", "3.0", "--n", "40"],
                ["bounds", "--lambda2", "3.0", "--n", "40"],
                ["bounds", "--lambda2", "3.0", "--n", "40", "--sweep-eps", "0.1:2:20", "--format", "csv"],
                ["solve-b", "--n", "40"],
                ["validate", "--n", "4"],
            ]
        )
        assert [m for m in modules if m.startswith("scipy")] == []

    def test_sparse_release_repeats_across_interpreters(self, capsys, tmp_path, fresh_python):
        # the 2048-node cycle takes the sparse route; its fixed start vector
        # and restart generator make every process release the same value
        path = tmp_path / "c.txt"
        path.write_text("n=2048\n" + "".join(f"{i} {(i + 1) % 2048}\n" for i in range(2048)))
        argv = ["privatize", "--input", str(path), "--seed", "7"]
        script = f"import sys, privconn.cli\nsys.exit(privconn.cli.main({argv!r}))\n"
        released = []
        for _ in range(2):
            proc = fresh_python(script)
            assert proc.returncode == 0, proc.stderr
            released.append(json.loads(proc.stdout)["results"]["lambda2_tilde"])
        code, rep = run_json(capsys, argv)
        assert code == 0
        assert released == [rep["results"]["lambda2_tilde"]] * 2


class TestConsensus:
    ARGS = ["consensus", "--lambda2", "1.0", "--n", "10", "--a", "0.2"]

    def test_json_curve(self, capsys):
        code, rep = run_json(capsys, self.ARGS)
        assert code == 0
        curve = rep["results"]["curve"]
        assert len(curve) == 100  # default grid 1:100:100
        for row in (curve[0], curve[-1]):
            assert row["bound"] == pytest.approx(row["expected_error"] / 0.2, rel=1e-12)
            assert row["vacuous"] == (row["bound"] > 1.0)
        assert curve[0]["vacuous"] is True
        assert curve[-1]["vacuous"] is False
        assert rep["results"]["settle_time"] > 0.0
        assert rep["results"]["worst_case_settle_time"] >= rep["results"]["settle_time"]
        assert rep["public_statistics"]["b"] == pytest.approx(7.583004, abs=1e-4)
        assert set(rep["public_statistics"]) == {"b"}

    def test_csv_curve(self, capsys):
        code, out = run(
            capsys, self.ARGS + ["--format", "csv", "--t-grid", "1:50:10"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,bound,expected_error"
        assert len(lines) == 11
        t, bound, err = map(float, lines[1].split(","))
        assert t == 1.0
        assert bound == pytest.approx(err / 0.2, rel=1e-12)

    @pytest.mark.parametrize(
        "grid",
        [
            "5:1:10", "1:100", "0:100:5", "1:100:1",
            "nan:100:5", "1:inf:5", "1:nan:5", "-inf:1:3",
        ],
    )
    def test_bad_grid_exits_2(self, capsys, grid):
        # csv: the format that computes least after parsing the grid
        code, _ = run(capsys, self.ARGS + ["--format", "csv", f"--t-grid={grid}"])
        assert code == 2

    @pytest.mark.parametrize(
        "bad", [["--a", "0"], ["--a=-1"], ["--a", "nan"], ["--eta", "nan"]], ids=" ".join
    )
    def test_bad_query_exits_2(self, capsys, bad):
        # csv used to skip the query checks and print inf, nan or negative rows
        code, _ = run(capsys, self.ARGS + ["--format", "csv"] + bad)
        assert code == 2

    def test_infinite_settle_time_exits_2(self, capsys):
        # the least positive double settles after infinite time, which a
        # JSON report cannot hold
        code = main(["consensus", "--lambda2", "5e-324", "--n", "10"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "results.settle_time is inf" in err


class TestBounds:
    def test_pinned_alpha_is_used_verbatim(self, capsys):
        code, rep = run_json(
            capsys,
            ["bounds", "--lambda2", "2.0", "--n", "4", "--alpha", "2.0"],
        )
        assert code == 0
        b = rep["results"]["bounds"]
        assert b["alpha_d"] == 2.0
        assert b["alpha_rho"] == 2.0
        assert b["mode"] == "exact"
        assert rep["results"]["min_degree_at_least"] == 2

    def test_auto_alpha_optimizes(self, capsys):
        _, rep = run_json(capsys, ["bounds", "--lambda2", "1.0", "--n", "10"])
        assert rep["results"]["bounds"]["alpha_d"] == pytest.approx(6.787, abs=1e-2)

    def test_csv_without_sweep_exits_2(self, capsys):
        code, _ = run(
            capsys, ["bounds", "--lambda2", "1.0", "--n", "10", "--format", "csv"]
        )
        assert code == 2

    def test_bad_alpha_exits_2(self, capsys):
        code, _ = run(
            capsys, ["bounds", "--lambda2", "1.0", "--n", "10", "--alpha", "1.0"]
        )
        assert code == 2

    def test_non_finite_sweep_exits_2(self, capsys):
        code, _ = run(
            capsys, ["bounds", "--lambda2", "1.0", "--n", "10", "--sweep-eps", "0.1:inf:3"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "bad",
        [
            ["--lambda-n", "nan"],
            ["--lambda-n", "inf"],
            ["--lambda2", "nan"],
            ["--lambda-n", "nan", "--sweep-eps", "0.1:1:3", "--format", "csv"],
        ],
        ids=" ".join,
    )
    def test_non_finite_eigenvalue_exits_2(self, capsys, bad):
        # a nan lambda_n used to pass the ordering check and print NaN bounds
        code, out = run(capsys, ["bounds", "--lambda2", "1.0", "--n", "10"] + bad)
        assert code == 2
        assert out == ""

    def test_infinite_bounds_exit_2(self, capsys):
        # lambda2 = 5e-324 puts every exact distance bound at infinity
        code = main(["bounds", "--lambda2", "5e-324", "--n", "10"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "results.bounds.d_lower is inf" in err

    def test_infinite_sweep_cell_exits_2(self, capsys):
        argv = ["bounds", "--lambda2", "5e-324", "--n", "10", "--sweep-eps", "0.1:2:2", "--format", "csv"]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "row 1.exact_d_lower is inf" in err

    def test_cached_parser_keeps_no_state(self, capsys):
        argv = ["bounds", "--lambda2", "1.0", "--n", "10"]
        _, pinned = run_json(capsys, argv + ["--alpha", "2.0"])
        _, auto = run_json(capsys, argv)
        assert pinned["results"]["bounds"]["alpha_d"] == 2.0
        assert auto["inputs"]["alpha"] == "auto"
        assert auto["results"]["bounds"]["alpha_d"] == property_bounds._ALPHA_D
        helps = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["privatize", "--help"])
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]
        assert "--input" in helps[0]

    def test_sweep_json_records(self, capsys):
        code, rep = run_json(
            capsys,
            [
                "bounds", "--lambda2", "1.0", "--n", "30",
                "--lambda-n", "30", "--sweep-eps", "0.1:2:5",
            ],
        )
        assert code == 0
        sweep = rep["results"]["sweep"]
        assert len(sweep) == 5
        expected_fields = {
            "epsilon", "b",
            "exact_d_lower", "exact_d_upper", "exact_rho_lower", "exact_rho_upper",
            "expected_d_lower", "expected_d_upper",
            "expected_rho_lower", "expected_rho_upper",
        }
        assert all(set(r) == expected_fields for r in sweep)
        # exact bounds do not move with the budget; the noise scale shrinks
        assert len({r["exact_d_upper"] for r in sweep}) == 1
        bs = [r["b"] for r in sweep]
        assert bs == sorted(bs, reverse=True)

    def test_sweep_csv_table(self, capsys):
        code, out = run(
            capsys,
            [
                "bounds", "--lambda2", "1.0", "--n", "30",
                "--lambda-n", "30", "--sweep-eps", "0.1:2:5", "--format", "csv",
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",") == [
            "epsilon", "b",
            "exact_d_lower", "exact_d_upper", "exact_rho_lower", "exact_rho_upper",
            "expected_d_lower", "expected_d_upper",
            "expected_rho_lower", "expected_rho_upper",
        ]
        assert len(lines) == 6
        assert all(len(line.split(",")) == 10 for line in lines[1:])


class TestValidate:
    FAST = [
        "--pairs", "0", "--samples-per-graph", "100000",
        "--t-grid", "1:50:5", "--conc-trials", "10000",
    ]

    def test_honest_run_passes(self, capsys):
        code, rep = run_json(capsys, ["validate", "--n", "5"] + self.FAST)
        assert code == 0
        assert rep["results"]["passed"] is True
        audit = rep["audit"]
        assert set(audit) == {
            "sensitivity", "dp_distinguisher", "concentration", "expectations",
        }
        assert all(audit[name]["passed"] for name in audit)

    def test_sensitivity_is_skipped_past_the_cap(self, capsys):
        code, rep = run_json(capsys, ["validate", "--n", "6"] + self.FAST)
        assert code == 0
        assert rep["audit"]["sensitivity"]["skipped"] is True
        assert rep["results"]["passed"] is True

    def test_non_finite_grid_exits_2(self, capsys):
        code, _ = run(
            capsys, ["validate", "--n", "5"] + self.FAST + ["--t-grid", "1:inf:5"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--a", "0", "deviation threshold must be positive and finite, got 0.0"),
            ("--lambda2", "-1", "lambda2 = -1.0 outside the support [0, 5.0]"),
            ("--conc-trials", "10", "need at least 1e4 draws per grid point"),
            ("--exp-trials", "10", "need at least 1e6 draws to resolve the means"),
            (
                "--conc-trials", "9007199254740993",
                "draws per grid point must be at most 2**53, got 9007199254740993",
            ),
        ],
        ids=["a", "lambda2", "conc-trials", "exp-trials", "conc-trials-cap"],
    )
    def test_bad_tail_argument_exits_2_before_any_audit(self, capsys, monkeypatch, flag, value, message):
        # the concentration and expectation audits run last; their
        # arguments are checked before the exhaustive scan and the draws
        def refuse(*args, **kwargs):
            raise AssertionError("an audit ran before the arguments were checked")

        monkeypatch.setattr(cli, "audit_sensitivity", refuse)
        monkeypatch.setattr(cli, "audit_dp", refuse)
        code = main(["validate", "--n", "5", flag, value])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "5", "--bins", "1000000000"], "histogram bins must lie in [2, 10000], got 1000000000"),
            (["--n", "5", "--bins", "1"], "histogram bins must lie in [2, 10000], got 1"),
            (["--n", "5", "--pairs", "-1"], "extra random pair count must be >= 0, got -1"),
            (["--n", "5", "--samples-per-graph", "10"], "need at least 1e5 samples per graph to resolve the histograms"),
            (
                ["--n", "5", "--samples-per-graph", "9007199254740993"],
                "samples per graph must be at most 2**53, got 9007199254740993",
            ),
            (["--n", "5", "--scale-factor", "0"], "scale factor must be positive and finite, got 0.0"),
            (["--n", "5", "--scale-factor", "nan"], "scale factor must be positive and finite, got nan"),
            (["--n", "1"], "audit supports 2 <= n <= 6"),
            (["--n", "7"], "audit supports 2 <= n <= 6"),
        ],
        ids=["huge-bins", "one-bin", "pairs", "samples", "samples-cap", "scale-0", "scale-nan", "n-1", "n-7"],
    )
    def test_bad_dp_argument_exits_2_before_any_audit(self, capsys, monkeypatch, argv, message):
        # a billion bins would need 8 GB of bin edges; every DP-audit
        # argument is checked before the exhaustive scan
        def refuse(*args, **kwargs):
            raise AssertionError("an audit ran before the arguments were checked")

        monkeypatch.setattr(cli, "audit_sensitivity", refuse)
        monkeypatch.setattr(cli, "audit_dp", refuse)
        code = main(["validate"] + argv)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_counted_audits_run_on_the_calling_thread_alone(self, fresh_python):
        # the DP and concentration audits draw their counts from the exact
        # law, so neither starts a thread or loads concurrent.futures
        script = (
            "import sys, threading, privconn.cli as cli, privconn.validation as v\n"
            "seen = []\n"
            "def spy(real):\n"
            "    def call(*args, **kwargs):\n"
            "        seen.append((threading.active_count(), 'concurrent.futures' in sys.modules))\n"
            "        return real(*args, **kwargs)\n"
            "    return call\n"
            "v._distinguish = spy(v._distinguish)\n"
            "cli.audit_expectations = spy(cli.audit_expectations)\n"
            "code = cli.main(['validate', '--n', '4'])\n"
            "assert code in (0, 5), code\n"
            "# two scores for each of the 3 + 20 pairs, then the expectation audit\n"
            "assert len(seen) == 2 * 23 + 1 and set(seen) == {(1, False)}, seen\n"
            "assert threading.active_count() == 1\n"
            "assert 'concurrent.futures' not in sys.modules\n"
        )
        proc = fresh_python(script)
        assert proc.returncode == 0, proc.stderr

    def test_weakened_mechanism_exits_5(self, capsys):
        # the counts come from their exact law, so a million draws per graph
        # cost no more than FAST's 100,000; they catch the half scale on
        # every seed in 0-999 (100,000 catch about 75%) and flag the shipped
        # scale on none
        code, rep = run_json(
            capsys,
            [
                "validate", "--n", "5", "--seed", "1", "--scale-factor", "0.5",
                "--pairs", "0", "--samples-per-graph", "1000000",
                "--t-grid", "1:50:5", "--conc-trials", "10000",
            ],
        )
        assert code == 5
        assert rep["results"]["passed"] is False
        assert rep["audit"]["dp_distinguisher"]["passed"] is False


class TestAttackDemo:
    def test_exact_release_leaks_and_private_release_does_not(self, capsys, tmp_path):
        path = tmp_path / "cycle.txt"
        path.write_text(CYCLE4)
        code, rep = run_json(
            capsys,
            ["attack-demo", "--input", str(path), "--node", "3", "--seed", "2"],
        )
        assert code == 0
        exact = rep["results"]["exact_release_leak"]
        assert exact["candidate_count"] == 2
        assert [1, 3] in exact["inferred_present"]
        assert [2, 3] in exact["inferred_present"]
        noisy = rep["results"]["attack_under_noise"]
        assert noisy["plausible_count"] == 8
        assert noisy["inferred_present"] == []
        assert noisy["inferred_absent"] == []

    def test_out_of_range_node_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cycle.txt"
        path.write_text(CYCLE4)
        code, _ = run(capsys, ["attack-demo", "--input", str(path), "--node", "4"])
        assert code == 2

    def test_empty_candidate_set_exits_2(self, capsys, tmp_path):
        # no candidate survives a window far narrower than the 1e-9 lambda2
        # is certified to, so every edge frequency is 0/0
        path = tmp_path / "cycle.txt"
        path.write_text(CYCLE4)
        code = main(["attack-demo", "--input", str(path), "--node", "0", "--tol", "1e-300"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "results.exact_release_leak.edge_frequencies.0-1 is nan" in err

    def test_one_eigensolve_feeds_the_attack_and_the_release(self, capsys, tmp_path, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def counted(L):
            calls.append(len(L))
            return eigvalsh(L)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        path = tmp_path / "cycle.txt"
        path.write_text(CYCLE4)
        code, rep = run_json(capsys, ["attack-demo", "--input", str(path), "--node", "3", "--seed", "5"])
        assert code == 0
        assert calls == [4]
        graph = from_edge_list(CYCLE4)
        params = PrivacyParams(epsilon=0.4, delta=0.05, A=1)
        release = privatize(graph, params, np.random.default_rng(5))
        assert rep["results"]["private_release"]["lambda2_tilde"] == release.lambda2_tilde
        assert rep["public_statistics"]["b"] == release.scale_b

    def test_large_graph_exits_2_before_the_eigensolve(self, capsys, tmp_path, monkeypatch):
        def refuse(graph):
            raise AssertionError("the eigensolve ran on a graph the attack refuses")

        monkeypatch.setattr(cli, "algebraic_connectivity", refuse)
        path = tmp_path / "path.txt"
        path.write_text("n=2000\n" + "".join(f"{i} {i + 1}\n" for i in range(1999)))
        code = main(["attack-demo", "--input", str(path), "--node", "0"])
        assert code == 2
        assert "enumeration supports 2 <= n <= 6" in capsys.readouterr().err


def test_missing_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


class TestReportInputs:
    """A report's inputs are its parsed arguments, save the dispatch and
    the output options, with --eps shown as epsilon; bounds keeps its own
    two lists."""

    @staticmethod
    def parsed(argv):
        inputs = vars(cli.build_parser().parse_args(argv)).copy()
        for key in ("command", "run", "output", "format"):
            inputs.pop(key, None)
        inputs["epsilon"] = inputs.pop("eps")
        return inputs

    @pytest.mark.parametrize(
        "argv",
        [
            ["privatize", "--input", "GRAPH", "--seed", "3", "--eps", "0.8", "--output", "-"],
            ["solve-b", "--n", "10", "--A", "2"],
            ["consensus", "--lambda2", "2.5", "--n", "10", "--t-grid", "1:10:3", "--format", "json"],
            ["validate", "--n", "4", "--pairs", "0", "--samples-per-graph", "100000", "--scale-factor", "0.5"],
            ["attack-demo", "--input", "GRAPH", "--node", "1", "--seed", "4", "--tol", "0.5"],
        ],
    )
    def test_inputs_are_the_parsed_arguments(self, capsys, tmp_path, argv):
        path = tmp_path / "g.txt"
        path.write_text(CYCLE4)
        argv = [str(path) if a == "GRAPH" else a for a in argv]
        code, rep = run_json(capsys, argv)
        assert code in (0, 5)
        assert rep["inputs"] == self.parsed(argv)

    def test_bounds_keeps_its_two_lists(self, capsys):
        _, rep = run_json(capsys, ["bounds", "--lambda2", "2.0", "--n", "10", "--delta", "0.1"])
        assert rep["inputs"] == {"lambda2": 2.0, "lambda_n": 10.0, "n": 10, "alpha": "auto"}
        argv = ["bounds", "--lambda2", "2.0", "--n", "10", "--lambda-n", "9", "--sweep-eps", "0.5:1:2"]
        _, rep = run_json(capsys, argv)
        assert rep["inputs"] == {
            "lambda2": 2.0, "lambda_n": 9.0, "n": 10, "delta": 0.05, "A": 1, "sweep_eps": "0.5:1:2",
        }


@pytest.mark.parametrize(
    "argv",
    [
        ["consensus", "--lambda2", "1", "--n", "10", "--t-grid", "1:1e308:3"],
        ["consensus", "--lambda2", "0", "--n", "10", "--t-grid", "1:1.7e308:3", "--format", "csv"],
        ["validate", "--n", "4", "--lambda2", "0", "--t-grid", "1:1.7e308:3"],
    ],
)
def test_huge_finite_times_report_cleanly(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert "nan" not in out.lower()
