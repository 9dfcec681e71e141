import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from savesolve import StochasticProblem
from savesolve.cli import build_parser, main
from savesolve.core import _CHUNK_ROWS
from savesolve.problems import builtin_example, problem_to_dict

from helpers import counted_stack_builds, scenario_document

EX4_1_DOC = {
    "n": 2,
    "m": 1,
    "A_base": [[2.0, 1.0], [5.0, 1.0]],
    "A_terms": [[[1.0, 0.0], [0.0, 1.0]]],
    "b_base": [4.0, 5.0],
    "b_terms": [[1.0, 3.0]],
    "distribution": {"kind": "uniform_box"},
}


def run_args(tmp_path, *extra):
    out = tmp_path / "table.csv"
    trace = tmp_path / "trace.csv"
    args = [
        "run",
        "--example",
        "ex4_1",
        "--sampler",
        "pseudorandom",
        "--N",
        "10",
        "--seed",
        "7",
        "--x0",
        "0.9415,1.7138",
        "--out",
        str(out),
        "--trace",
        str(trace),
    ]
    return args + list(extra), out, trace


class TestRunCommand:
    def test_successful_run_writes_files(self, tmp_path, capsys):
        args, out, trace = run_args(tmp_path)
        assert main(args) == 0
        captured = capsys.readouterr().out
        assert "status=converged" in captured
        table = out.read_text(encoding="utf-8")
        assert table.startswith("N,x0,x*,f(x*)\n")
        assert '"(1.0000,3.0000)"' in table
        trace_text = trace.read_text(encoding="utf-8")
        assert trace_text.startswith("k,f,f_smoothed,grad_norm,mu,alpha\n")

    def test_byte_identical_reruns(self, tmp_path):
        args1, out1, trace1 = run_args(tmp_path / "a")
        args2, out2, trace2 = run_args(tmp_path / "b")
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert main(args1) == 0
        assert main(args2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert trace1.read_bytes() == trace2.read_bytes()

    def test_multiple_counts_one_table(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(
            [
                "run",
                "--example",
                "ex4_1",
                "--N",
                "10,20",
                "--x0",
                "1.2,2.2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = out.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 3
        assert rows[1].startswith("10,") and rows[2].startswith("20,")

    def test_trace_requires_single_count(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--example",
                "ex4_1",
                "--N",
                "10,20",
                "--x0",
                "1.2,2.2",
                "--trace",
                str(tmp_path / "t.csv"),
            ]
        )
        assert code == 64
        assert "single" in capsys.readouterr().err

    def test_problem_file_input(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(EX4_1_DOC), encoding="utf-8")
        code = main(
            ["run", "--problem-file", str(path), "--N", "10", "--x0", "1.0,3.0"]
        )
        assert code == 0

    def test_problem_file_sampler_is_the_default(self, tmp_path, capsys):
        # the file's sampler block supplies kind, count and seed when no flag does
        doc = dict(EX4_1_DOC, sampler={"kind": "pseudorandom", "count": 7, "seed": 5})
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        x0 = ["--x0", "0.9415,1.7138"]
        assert main(
            ["run", "--problem-file", str(path), "--out", str(from_file)] + x0
        ) == 0
        assert main(
            ["run", "--example", "ex4_1", "--sampler", "pseudorandom", "--N", "7",
             "--seed", "5", "--out", str(from_flags)] + x0
        ) == 0
        capsys.readouterr()
        assert from_file.read_text(encoding="utf-8").splitlines()[1].startswith("7,")
        assert from_file.read_bytes() == from_flags.read_bytes()

    def test_sampler_flag_overrides_problem_file(self, tmp_path, capsys):
        doc = dict(EX4_1_DOC, sampler={"kind": "pseudorandom", "count": 7, "seed": 5})
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        x0 = ["--x0", "0.9415,1.7138"]
        assert main(
            ["run", "--problem-file", str(path), "--sampler", "halton",
             "--out", str(from_file)] + x0
        ) == 0
        assert main(
            ["run", "--example", "ex4_1", "--sampler", "halton", "--N", "7",
             "--out", str(from_flags)] + x0
        ) == 0
        capsys.readouterr()
        assert from_file.read_bytes() == from_flags.read_bytes()

    def test_problem_file_sampler_without_count(self, tmp_path, capsys):
        # a file sampler with no count falls back to N=100, not to one sample
        doc = dict(EX4_1_DOC, sampler={"kind": "pseudorandom", "seed": 5})
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        x0 = ["--x0", "0.9415,1.7138"]
        assert main(
            ["run", "--problem-file", str(path), "--out", str(from_file)] + x0
        ) == 0
        assert main(
            ["run", "--example", "ex4_1", "--sampler", "pseudorandom", "--N", "100",
             "--seed", "5", "--out", str(from_flags)] + x0
        ) == 0
        capsys.readouterr()
        assert from_file.read_text(encoding="utf-8").splitlines()[1].startswith("100,")
        assert from_file.read_bytes() == from_flags.read_bytes()

    def test_problem_file_sampler_without_kind(self, tmp_path, capsys):
        # a sampler block may leave out kind, with or without --sampler
        doc = dict(EX4_1_DOC, sampler={"count": 50})
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        x0 = ["--x0", "0.9415,1.7138"]
        tables = []
        for argv in (
            ["--problem-file", str(path)],
            ["--problem-file", str(path), "--sampler", "halton"],
            ["--example", "ex4_1", "--sampler", "halton", "--N", "50"],
        ):
            out = tmp_path / f"table{len(tables)}.csv"
            assert main(["run", *argv, "--out", str(out)] + x0) == 0
            tables.append(out.read_bytes())
        capsys.readouterr()
        assert tables[0].splitlines()[1].startswith(b"50,")
        assert tables[0] == tables[1] == tables[2]

    @pytest.mark.parametrize(
        "extra,named",
        [
            (["--N", "10,50,100", "--sampler", "pseudorandom", "--seed", "3"],
             "--sampler, --N, --seed"),
            (["--N", "10,50", "--trace", "t.csv"], "--N"),
            (["--offset", "0"], "--offset"),
        ],
    )
    def test_ev_route_refuses_sampling_flags(
        self, tmp_path, monkeypatch, capsys, extra, named
    ):
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--example", "ex2_1", "--route", "ev", *extra])
        assert code == 64
        assert named in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_given_start_refuses_random_start_flags(self, capsys):
        given = ["run", "--example", "ex4_1", "--x0", "1,2"]
        extra = ["--x0-seed", "5", "--x0-lo", "3", "--x0-hi", "1", "--N", "10"]
        assert main(given + extra) == 64
        assert "--x0-seed, --x0-lo, --x0-hi" in capsys.readouterr().err
        assert main(given + ["--x0-seed", "5"]) == 64
        assert "--x0-seed" in capsys.readouterr().err
        assert main(given) == 0

    @pytest.mark.parametrize("argv, flag, kind", [
        (["--example", "ex4_1", "--sampler", "halton", "--seed", "5"], "--seed", "halton"),
        (["--example", "ex4_1", "--seed", "5"], "--seed", "halton"),
        (["--example", "ex4_1", "--sampler", "pseudorandom", "--offset", "9"],
         "--offset", "pseudorandom"),
        (["--example", "ex2_1", "--sampler", "scenarios", "--seed", "3"], "--seed", "scenarios"),
        (["--example", "ex2_1", "--sampler", "scenarios", "--offset", "3"],
         "--offset", "scenarios"),
        (["--example", "ex2_1", "--sampler", "scenarios", "--N", "5"], "--N", "scenarios"),
        (["--problem-file", "{file}", "--offset", "9"], "--offset", "pseudorandom"),
    ])
    def test_flags_the_sampler_does_not_read_exit_64(
        self, tmp_path, monkeypatch, capsys, argv, flag, kind
    ):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(dict(EX4_1_DOC, sampler={"kind": "pseudorandom"})),
                        encoding="utf-8")
        solves = []
        monkeypatch.setattr("savesolve.cli.run_experiment", lambda *a, **k: solves.append(a))
        argv = [a.replace("{file}", str(path)) for a in argv]
        assert main(["run", *argv]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and not solves
        assert f"{flag}: not read by the {kind} sampler" in captured.err

    @pytest.mark.parametrize("extra, source", [
        (["--N", "10,100"], "--N"),
        ([], "sampler"),
        (["--offset", str(2**63 - 60)], "--offset"),
    ])
    def test_halton_bound_checked_before_any_solve(
        self, tmp_path, monkeypatch, capsys, extra, source
    ):
        doc = dict(EX4_1_DOC, sampler={"kind": "halton", "offset": 2**63 - 50})
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        solves = []
        monkeypatch.setattr("savesolve.cli.run_experiment", lambda *a, **k: solves.append(a))
        assert main(["run", "--problem-file", str(path), *extra]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and not solves
        assert captured.err.startswith(
            f"save-solve: error: {source}: offset + count must be below 2**63")

    def test_halton_bound_refuses_no_count_below_it(self, capsys):
        argv = ["run", "--example", "ex4_1", "--offset", str(2**63 - 50), "--N", "10"]
        assert main(argv) == 0
        assert "status=converged" in capsys.readouterr().out

    def test_counts_refused_with_the_scenarios_sampler(self, tmp_path, capsys):
        code = main(["run", "--example", "ex2_1", "--sampler", "scenarios", "--N", "10,50"])
        assert code == 64
        assert "--N" in capsys.readouterr().err
        # a file sampler of that kind without --N runs once, on every scenario
        doc = dict(problem_to_dict(builtin_example("ex2_1")), sampler={"kind": "scenarios"})
        path = tmp_path / "ex2_1.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "table.csv"
        x0 = ["--x0", "2.5127,-2.4490,0.0596,1.9908"]
        assert main(["run", "--problem-file", str(path), "--out", str(out)] + x0) == 0
        rows = out.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 2 and rows[1].startswith("2,")
        assert main(["run", "--problem-file", str(path), "--N", "5"] + x0) == 64
        assert "--N" in capsys.readouterr().err

    def test_ev_route(self, capsys):
        code = main(
            [
                "run",
                "--example",
                "ex2_1",
                "--route",
                "ev",
                "--x0",
                "2.5127,-2.4490,0.0596,1.9908",
            ]
        )
        assert code == 0
        assert "(1.0000,1.0000,1.0000,1.0000)" in capsys.readouterr().out

    def test_iteration_cap_exit_code(self):
        # a leading minus needs the --flag=value spelling under argparse
        code = main(
            ["run", "--example", "ex4_1", "--x0=-4.0,4.0", "--N", "10",
             "--max-iter", "2"]
        )
        assert code == 2

    def test_line_search_failure_exit_code(self, tmp_path):
        # a stiff scalar problem with almost no backtracking allowed
        doc = {
            "n": 1,
            "m": 0,
            "A_base": [[100.0]],
            "A_terms": [],
            "b_base": [0.0],
            "b_terms": [],
            "distribution": {"kind": "uniform_box"},
        }
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(
            [
                "run",
                "--problem-file",
                str(path),
                "--N",
                "1",
                "--x0",
                "1.0",
                "--max-backtracks",
                "2",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("x0", ["1e155,1e155", "1e153,1", "1e200,1e200"])
    def test_overflowing_finite_start_exits_4(self, x0):
        # a subprocess, so that any numpy warning would reach stderr
        proc = subprocess.run(
            [sys.executable, "-m", "savesolve", "run", "--example", "ex4_1",
             "--x0", x0],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 4
        assert "status=non_finite" in proc.stdout
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_inputs_exit_64(self, tmp_path, capsys):
        assert main(["run", "--example", "nope"]) == 64
        assert main(["run", "--example", "ex4_4", "--N", "10"]) == 64
        assert main(["run", "--example", "ex4_1", "--x0", "abc"]) == 64
        assert main(["run", "--example", "ex4_1", "--x0", "inf,1"]) == 64
        missing = tmp_path / "missing.json"
        assert main(["run", "--problem-file", str(missing)]) == 64
        capsys.readouterr()
        for extra, message in [
            (["--x0-lo", "2", "--x0-hi", "1"], "hi > lo"),
            (["--N", ","], "--N: at least one sample count"),
            (["--N", "10,abc"], "--N: expected comma-separated integers"),
            (["--sampler", "pseudorandom", "--seed", str(2**64)],
             "--seed: seed must fit in an unsigned 64-bit integer"),
            (["--N", "0"], "--N: count must be at least 1, got 0"),
            (["--N", "10,0"], "--N: count must be at least 1, got 0"),
            (["--seed", "-1"], "--seed: seed must be at least 0, got -1"),
            (["--offset", "-1"], "--offset: offset must be at least 0, got -1"),
            (["--N", "10", "--offset", str(2**63 - 10)],
             "--offset: offset + count must be below 2**63"),
        ]:
            assert main(["run", "--example", "ex4_1", *extra]) == 64
            assert message in capsys.readouterr().err

    def test_overflowing_start_on_the_band_path_exits_4(self):
        # ex4_4 at n = 300 takes the band products
        proc = subprocess.run(
            [sys.executable, "-m", "savesolve", "run", "--example", "ex4_4",
             "--n", "300", "--N", "10", "--x0", ",".join(["1e200"] * 300)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 4
        assert "status=non_finite" in proc.stdout
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_n_with_problem_file_exits_64(self, tmp_path, capsys, command):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(EX4_1_DOC), encoding="utf-8")
        extra = ["--x", "1,3"] if command == "verify" else []
        assert main([command, "--problem-file", str(path), "--n", "7", *extra]) == 64
        assert "--n" in capsys.readouterr().err

    def test_huge_coordinates_keep_table_lines_short(self, capsys):
        assert main(["run", "--example", "ex4_1", "--x0", "1e200,1e200"]) == 4
        table = capsys.readouterr().out.split("status=")[0]
        assert "(1.0000e+200,1.0000e+200)" in table
        assert max(len(line) for line in table.splitlines()) < 120

    @pytest.mark.parametrize(
        "block,field",
        [
            ({"sampler": {"kind": "halton", "count": 2.5}}, "count"),
            ({"sampler": {"kind": "halton", "count": True}}, "count"),
            ({"sampler": {"kind": "pseudorandom", "seed": 1.5}}, "seed"),
            ({"sampler": {"kind": "halton", "offset": 0.5}}, "offset"),
            ({"solver": {"max_backtracks": 2.5}}, "max_backtracks"),
            ({"solver": {"max_iter": 2.5}}, "max_iter"),
            (
                {"distribution": {"kind": "finite_scenarios", "scenarios": [
                    {"omega": [0.0], "p": float("nan")},
                    {"omega": [1.0], "p": 0.5},
                ]}},
                "scenarios: scenario probabilities",
            ),
            ({"A_base": [[float("inf"), 1.0], [5.0, 1.0]]}, "A_base"),
            ({"solver": {"mu0": True}}, "mu0"),
            ({"solver": {"mu0": "0.1"}}, "mu0"),
            ({"solver": [0.1]}, "solver: expected a JSON object"),
            ({"b_base": ["four", 5.0]}, "b_base: not a numeric array"),
            ({"b_terms": []}, "b_terms: expected a list of 1 vectors"),
            ({"distribution": {}}, "distribution: expected an object with a kind"),
            (
                {"distribution": {"kind": "finite_scenarios", "scenarios": []}},
                "distribution.scenarios: expected a non-empty list",
            ),
            (
                {"distribution": {"kind": "finite_scenarios",
                                  "scenarios": [{"omega": [0.0]}]}},
                "scenarios[0]: expected omega and p",
            ),
            (
                {"distribution": {"kind": "finite_scenarios",
                                  "scenarios": [{"omega": [0.0], "p": [0.5, 0.5]}]}},
                "scenarios[0].p",
            ),
        ],
    )
    def test_malformed_problem_file_exits_64(self, tmp_path, capsys, block, field):
        path = tmp_path / "problem.json"
        # json.dumps writes the NaN and Infinity literals that json.load reads
        path.write_text(json.dumps(dict(EX4_1_DOC, **block)), encoding="utf-8")
        code = main(["run", "--problem-file", str(path), "--x0", "1.0,3.0"])
        err = capsys.readouterr().err
        assert code == 64
        assert field in err
        assert "Traceback" not in err

    def test_offset_beyond_int64_exits_64(self, capsys):
        code = main(
            ["run", "--example", "ex4_1", "--N", "10", "--offset", str(2**63 - 1)]
        )
        err = capsys.readouterr().err
        assert code == 64
        assert "offset" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sampler", ["pseudorandom", "halton"])
    def test_unallocatable_count_exits_64(self, capsys, sampler):
        # 2**50 points take 8 PiB: the allocation fails at once, touching
        # nothing, after the count before it was solved
        code = main(["run", "--example", "ex4_1", "--sampler", sampler,
                     "--N", f"10,{2**50}"])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err.startswith("save-solve: error: --N:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", [
        ["run", "--N", "10"], ["verify", "--x", "1,1"],
    ])
    def test_unallocatable_dimension_exits_64(self, capsys, command):
        # ex4_4's diagonals at n = 2**50 take 8 PiB each: the allocation
        # fails at once, touching nothing
        code = main([command[0], "--example", "ex4_4", "--n", str(2**50), *command[1:]])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err.startswith("save-solve: error: --n:")
        assert "Traceback" not in captured.err

    # ev on ex4_4 runs into the iteration cap, exit 2; a dense file of a
    # tridiagonal family over finite scenarios takes the band too
    @pytest.mark.parametrize("source, route, code", [
        ("ex4_4", ["--N", "20"], 0),
        ("ex4_4", ["--route", "ev", "--max-iter", "200"], 2),
        ("file", ["--sampler", "scenarios"], 0),
        ("file", ["--route", "ev", "--max-iter", "200"], 0),
    ], ids=["ex4_4-erm", "ex4_4-ev", "file-erm", "file-ev"])
    def test_band_native_run_reads_no_dense_view(self, tmp_path, monkeypatch, capsys,
                                                 source, route, code):
        if source == "file":
            path = tmp_path / "tridiagonal.json"
            doc = scenario_document(np.random.default_rng(0), 250, 40)
            path.write_text(json.dumps(doc), encoding="utf-8")
            source = ["--problem-file", str(path)]
        else:
            source = ["--example", "ex4_4", "--n", "300"]
        argv = ["run", *source, "--x0-seed", "3", *route,
                "--out", str(tmp_path / "table.csv")]
        assert main(argv) == code
        table = (tmp_path / "table.csv").read_bytes()

        def dense_view(problem):
            raise AssertionError("a dense view was read")

        monkeypatch.setattr(StochasticProblem, "_A", property(dense_view))
        assert main(argv) == code
        assert (tmp_path / "table.csv").read_bytes() == table
        assert "error" not in capsys.readouterr().err

    def test_sweep_keeps_no_finished_report(self, capsys):
        # the problem is O(n) and no trace row keeps a point, so one solve
        # holds O(n + iterations) and the sweep's peak is about one solve's:
        # 1.05 MB for N = 100, where the points of each trace row took it
        # to 12.2 MB
        peaks = []
        for counts in ("100", "100,100,100"):
            tracemalloc.start()
            try:
                assert main(["run", "--example", "ex4_4", "--n", "2000", "--N", counts,
                             "--x0-seed", "1"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]
        assert max(peaks) < 4_000_000

    def test_solver_override_is_validated(self, capsys):
        code = main(["run", "--example", "ex4_1", "--rho", "1.5"])
        assert code == 64
        assert "rho" in capsys.readouterr().err


class TestVerifyCommand:
    def test_solution_passes(self, capsys):
        code = main(["verify", "--example", "ex4_1", "--x", "1,3", "--tol", "1e-8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "save=ok" in out and "glcp=ok" in out

    def test_scenarios_checked_by_default(self, capsys):
        code = main(["verify", "--example", "ex2_1", "--x", "1,1,1,1", "--ev"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("omega=") == 2
        assert "expected matrices glcp=ok" in out

    def test_nonsolution_fails(self, capsys):
        code = main(["verify", "--example", "ex4_1", "--x", "0,0"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_explicit_omega(self):
        assert main(
            ["verify", "--example", "ex4_1", "--x", "1,3", "--omega", "0.73"]
        ) == 0


    @pytest.mark.parametrize("flag, text, message", [
        ("--x", "nan,3", "--x: expected finite numbers"),
        ("--x", "1,inf", "--x: expected finite numbers"),
        ("--omega", "inf", "--omega: expected finite numbers"),
        ("--tol", "inf", "tol must be positive and finite"),
    ])
    def test_non_finite_input_exits_64(self, capsys, flag, text, message):
        # each used to print its checks and exit 0 or 1
        args = {"--x": "1,3", "--omega": "0.5", "--tol": "1e-8", flag: text}
        argv = ["verify", "--example", "ex4_1"]
        for name, value in args.items():
            argv += [name, value]
        assert main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_reads_no_dense_view(self, tmp_path, monkeypatch, capsys):
        # verify reads A(w) x - b(w) off the lifted affine rows, so a dense
        # view that cannot be built changes neither its output nor its code;
        # the file is a dense tridiagonal family over 40 scenarios, which
        # takes the band
        path = tmp_path / "tridiagonal.json"
        path.write_text(json.dumps(scenario_document(np.random.default_rng(0), 250, 40)),
                        encoding="utf-8")
        for source, n in [(["--example", "ex4_4", "--n", "300"], 300),
                          (["--problem-file", str(path)], 250)]:
            argv = ["verify", *source, "--x", ",".join(["1"] * n), "--ev"]
            code = main(argv)
            out = capsys.readouterr().out
            with monkeypatch.context() as patch:
                def dense_view(problem):
                    raise MemoryError("Unable to allocate the dense stack")

                patch.setattr(StochasticProblem, "_A", property(dense_view))
                assert main(argv) == code
                captured = capsys.readouterr()
            assert captured.out == out and captured.err == ""
            assert "omega=" in out and "expected matrices glcp=" in out

    @pytest.mark.parametrize("example", ["ex4_1", "ex2_1"])
    def test_nan_tol_exits_64_before_printing(self, capsys, example):
        x = "1,3" if example == "ex4_1" else "1,1,1,1"
        assert main(["verify", "--example", example, "--x", x, "--ev", "--tol", "nan"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol must be positive and finite" in captured.err

    def test_ev_builds_no_dense_stack(self, monkeypatch, capsys):
        # the residual, the complementarity rows at omega and those of the
        # expected matrices are read off one lift of the affine rows
        builds = counted_stack_builds(monkeypatch)
        code = main(["verify", "--example", "ex4_4", "--n", "300",
                     "--x", ",".join(["1"] * 300), "--ev"])
        assert code == 0
        assert builds == []
        out = capsys.readouterr().out
        assert out.count("omega=") == 1 and "save=ok" in out
        assert "expected matrices glcp=ok" in out

    @pytest.mark.parametrize("source, x, extra, message", [
        (["--example", "ex4_1"], "1,3,1", [], "x has length 3, expected 2"),
        (["--example", "ex4_4", "--n", "300"], "1,1", ["--ev"], "x has length 2, expected 300"),
        (["--example", "ex4_1"], "1,3", ["--omega", "0.5,0.5"], "omega has length 2"),
        (["--example", "ex2_1"], "1,1,1,1", ["--omega", "0.5,0.5", "--ev"], "omega has length 2"),
    ], ids=["x", "band-x", "omega", "scenario-omega"])
    def test_malformed_input_exits_64_before_printing(self, capsys, source, x, extra,
                                                      message):
        assert main(["verify", *source, "--x", x, *extra]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"save-solve: error: {message}")
        assert "Traceback" not in captured.err

    def test_deterministic_problem_file_with_ev(self, tmp_path, capsys):
        # m = 0: every point is the empty omega, the expected one included
        doc = {"n": 2, "m": 0, "A_base": [[3.0, 1.0], [1.0, 4.0]], "A_terms": [],
               "b_base": [3.0, 4.0], "b_terms": [], "distribution": {"kind": "uniform_box"}}
        path = tmp_path / "deterministic.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", "--problem-file", str(path), "--x", "1,1", "--ev"]) == 0
        assert capsys.readouterr().out == (
            "omega=() residual_norm=0.000e+00 save=ok glcp=ok\n"
            "expected matrices glcp=ok\n"
        )


class TestOracleCommand:
    def test_exact_value(self, tmp_path, capsys):
        doc = {"A": [[2.0]], "b_tilde": [1.0], "T": [[1.0]]}
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["oracle", "--case2-file", str(path), "--x", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.333333333333" in out

    def test_qmc_cross_check(self, tmp_path, capsys):
        doc = {"A": [[2.0]], "b_tilde": [1.0], "T": [[1.0]]}
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(
            ["oracle", "--case2-file", str(path), "--x", "1.0", "--qmc", "4096"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "halton estimate" in out
        diff = float(out.strip().splitlines()[-1].split(":")[1])
        assert diff <= 1e-3

    @pytest.mark.parametrize("extra, flag", [
        (["--x", "nan,1"], "--x"),
        (["--x=-inf", "--qmc", "16"], "--x"),
        (["--x", "1.0", "--qmc", "0"], "--qmc"),
        # refused by numpy's size check before anything is allocated
        (["--x", "1.0", "--qmc", str(2**63 - 1)], "--qmc"),
        # 8 PiB of indices: the allocation fails at once, touching nothing
        (["--x", "1.0", "--qmc", str(2**50)], "--qmc"),
    ])
    def test_bad_input_exits_64_before_printing(self, tmp_path, capsys, extra, flag):
        doc = {"A": [[2.0]], "b_tilde": [1.0], "T": [[1.0]]}
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["oracle", "--case2-file", str(path), *extra]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"save-solve: error: {flag}:")

    def test_bad_file_exits_64(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_text("{}", encoding="utf-8")
        assert main(["oracle", "--case2-file", str(path), "--x", "1.0"]) == 64


class TestEntryPoints:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "savesolve", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "run" in proc.stdout and "verify" in proc.stdout

    def test_usage_error_exits_64(self):
        proc = subprocess.run(
            [sys.executable, "-m", "savesolve", "run"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 64


class TestDeterminism:
    @staticmethod
    def runs_at_one_and_two_threads(tmp_path, args):
        """(exit code, stdout without time=, table, trace) of run args at 1
        and at 2 BLAS threads."""
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"table{threads}.csv"
            trace = tmp_path / f"trace{threads}.csv"
            env = dict(
                os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads
            )
            proc = subprocess.run(
                [sys.executable, "-m", "savesolve", "run", *args,
                 "--out", str(out), "--trace", str(trace)],
                capture_output=True,
                env=env,
            )
            stdout = re.sub(rb"time=\S+", b"", proc.stdout)
            outputs.append((proc.returncode, stdout, out.read_bytes(), trace.read_bytes()))
        return outputs

    def test_output_independent_of_blas_threads(self, tmp_path):
        # n = 1200 is large enough that OpenBLAS really runs the second thread
        one, two = self.runs_at_one_and_two_threads(
            tmp_path, ["--example", "ex4_4", "--n", "1200", "--N", "50",
                       "--max-iter", "50", "--x0-seed", "3"])
        assert one == two

    @pytest.mark.parametrize("route", [["--N", "10"], ["--route", "ev"]])
    def test_rows_past_the_blas_split_are_independent_of_threads(self, tmp_path, route):
        # at n = 12000 the gradient, the ev rows and the erm lift's rows
        # (24000 entries) are longer than the 10000 entries at which
        # OpenBLAS splits a dot over its threads, so each is summed in chunks
        one, two = self.runs_at_one_and_two_threads(
            tmp_path, ["--example", "ex4_4", "--n", "12000", *route,
                       "--x0-seed", "1", "--max-iter", "50"])
        assert one == two

    def test_oracle_over_three_chunks_is_independent_of_threads(self, tmp_path):
        # a sample set of three chunks sums its moments in one fixed order
        rng = np.random.default_rng(5)
        n, m = 6, 3
        T = np.zeros((n, m))
        T[np.arange(n), rng.integers(0, m, n)] = rng.uniform(0.5, 2.0, n)
        A = rng.uniform(-1.0, 1.0, (n, n)) + 3.0 * np.eye(n)
        path = tmp_path / "case.json"
        path.write_text(json.dumps(
            {"A": A.tolist(), "b_tilde": rng.uniform(-1.0, 1.0, n).tolist(), "T": T.tolist()}
        ), encoding="utf-8")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "savesolve", "oracle", "--case2-file", str(path),
                 "--x", "1,0.5,-1,2,0,1", "--qmc", str(3 * _CHUNK_ROWS)],
                capture_output=True,
                env=env,
            )
            outputs.append((proc.returncode, proc.stdout, proc.stderr))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and b"halton estimate (N=49152)" in outputs[0][1]


def readme_command_line() -> str:
    """The "Command line" section of the README, up to the next heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("## Command line\n", 1)[1].split("\n## ", 1)[0]


def readme_commands() -> list[list[str]]:
    """The argv of each command in the section's example block."""
    block = readme_command_line().split("```")[1].replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


class TestReadmeCommandLine:
    def test_every_example_command_parses(self):
        commands = readme_commands()
        assert len(commands) >= 5
        for argv in commands:
            assert argv[0] == "save-solve"
            build_parser().parse_args(argv[1:])

    def test_every_example_run_and_verify_exits_0(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        runs = [argv[1:] for argv in readme_commands()
                if argv[1] in ("run", "verify") and "--example" in argv]
        assert len(runs) >= 3
        for argv in runs:
            assert main(argv) == 0, argv
        capsys.readouterr()

    def test_every_named_flag_is_an_option(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {o for p in sub.choices.values() for o in p._option_string_actions}
        named = set(re.findall(r"--[A-Za-z][\w-]*", readme_command_line()))
        assert len(named) >= 20
        assert named <= options, sorted(named - options)
