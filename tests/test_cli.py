import json
import os
import subprocess
import sys

import pytest

from savesolve.cli import main

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
    def test_output_independent_of_blas_threads(self, tmp_path):
        # n = 1200 is large enough that OpenBLAS really runs the second thread
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"table{threads}.csv"
            trace = tmp_path / f"trace{threads}.csv"
            env = dict(
                os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads
            )
            proc = subprocess.run(
                [sys.executable, "-m", "savesolve", "run", "--example", "ex4_4",
                 "--n", "1200", "--N", "50", "--max-iter", "50", "--x0-seed", "3",
                 "--out", str(out), "--trace", str(trace)],
                capture_output=True,
                env=env,
            )
            outputs.append((proc.returncode, out.read_bytes(), trace.read_bytes()))
        assert outputs[0] == outputs[1]
