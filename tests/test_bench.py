import csv
import io

import numpy as np
import pytest

from savesolve import (
    GivenStart,
    SamplerSpec,
    SolveStatus,
    SolverConfig,
    UniformRandomStart,
    builtin_example,
    emit_table,
    emit_trace,
    run_experiment,
)


def run_ex4_1(x0=(0.9415, 1.7138), count=10):
    problem = builtin_example("ex4_1")
    spec = SamplerSpec("pseudorandom", count=count, dim=1, seed=count)
    return run_experiment(
        problem, spec, SolverConfig(), GivenStart(x0), "erm", example_id="ex4_1"
    )


class TestRunExperiment:
    def test_erm_record_fields(self):
        record, report = run_ex4_1()
        assert record.example_id == "ex4_1"
        assert record.N == 10
        assert record.status is SolveStatus.CONVERGED
        assert record.iterations == report.iterations <= 10000
        assert record.f_star >= 0.0
        assert record.wall_time > 0.0
        np.testing.assert_array_equal(record.x_star, report.x_final)

    def test_start_from_solution_stays_there(self):
        # the start is the exact solution; the solver polishes the smoothing
        # bias away and must not wander off
        record, _ = run_ex4_1(x0=(1.0, 3.0))
        assert record.status is SolveStatus.CONVERGED
        assert np.max(np.abs(record.x_star - [1.0, 3.0])) <= 1e-4
        assert record.f_star <= 1e-8

    def test_deterministic_given_seeds(self):
        a, _ = run_ex4_1()
        b, _ = run_ex4_1()
        np.testing.assert_array_equal(a.x_star, b.x_star)
        assert a.f_star == b.f_star
        assert a.iterations == b.iterations

    def test_seeded_random_start(self):
        problem = builtin_example("ex4_1")
        spec = SamplerSpec("halton", count=20, dim=1)
        policy = UniformRandomStart(0.0, 2.0, seed=5)
        rec1, _ = run_experiment(problem, spec, SolverConfig(), policy, "erm")
        rec2, _ = run_experiment(problem, spec, SolverConfig(), policy, "erm")
        np.testing.assert_array_equal(rec1.x0, rec2.x0)
        assert np.all(rec1.x0 >= 0.0) and np.all(rec1.x0 <= 2.0)

    def test_random_start_draws_the_box_formula(self):
        draw = UniformRandomStart(-3.0, 0.5, seed=11).resolve(5)
        expected = -3.0 + (0.5 - -3.0) * np.random.default_rng(11).random(5)
        np.testing.assert_array_equal(draw, expected)

    @pytest.mark.parametrize("lo, hi", [
        (1.0, 1.0), (2.0, 1.0), (-np.inf, 0.0), (0.0, np.inf), (np.nan, 1.0),
        (0.0, np.nan), (-1e308, 1e308),
    ])
    def test_random_start_refuses_a_box_without_a_finite_width(self, lo, hi):
        with pytest.raises(ValueError, match="x0 box needs hi > lo"):
            UniformRandomStart(lo, hi)

    @pytest.mark.parametrize("seed, match", [
        (-1, "x0 seed must be at least 0"), (1.5, "x0 seed must be an integer"),
        (True, "x0 seed must be an integer"), (2.0, "x0 seed must be an integer"),
    ])
    def test_random_start_refuses_a_seed_that_is_not_a_natural_number(self, seed, match):
        with pytest.raises(ValueError, match=match):
            UniformRandomStart(seed=seed)
        # a valid seed, a numpy integer too, draws as before
        draw = UniformRandomStart(seed=np.int64(3)).resolve(4)
        np.testing.assert_array_equal(draw, 2.0 * np.random.default_rng(3).random(4))

    def test_ev_route_on_scenarios(self):
        problem = builtin_example("ex2_1")
        spec = SamplerSpec("scenarios", count=1, dim=1)
        record, _ = run_experiment(
            problem,
            spec,
            SolverConfig(),
            GivenStart((2.5127, -2.4490, 0.0596, 1.9908)),
            "ev",
            example_id="ex2_1",
        )
        assert record.N == 2
        assert not record.ev_on_uniform
        assert np.max(np.abs(record.x_star - 1.0)) <= 1e-4

    def test_erm_route_over_scenarios(self):
        # the finite-scenario weighting makes the sampled objective the exact
        # expectation, so the solve is deterministic without pseudorandomness
        problem = builtin_example("ex2_1")
        spec = SamplerSpec("scenarios", count=1, dim=1)
        record, _ = run_experiment(
            problem, spec, SolverConfig(), GivenStart((0.5, 0.5, 0.5, 0.5)), "erm"
        )
        assert record.N == 2
        assert record.status is SolveStatus.CONVERGED
        assert np.max(np.abs(record.x_star - 1.0)) <= 1e-4

    def test_ev_route_on_uniform_is_flagged(self):
        problem = builtin_example("ex4_1")
        spec = SamplerSpec("halton", count=10, dim=1)
        record, _ = run_experiment(
            problem, spec, SolverConfig(), GivenStart((1.0, 3.0)), "ev"
        )
        assert record.ev_on_uniform

    def test_unknown_route_rejected(self):
        problem = builtin_example("ex4_1")
        spec = SamplerSpec("halton", count=10, dim=1)
        with pytest.raises(ValueError, match="route"):
            run_experiment(problem, spec, SolverConfig(), GivenStart((1.0, 3.0)), "sgd")

    def test_x0_length_checked(self):
        problem = builtin_example("ex4_1")
        spec = SamplerSpec("halton", count=10, dim=1)
        with pytest.raises(ValueError, match="x0"):
            run_experiment(problem, spec, SolverConfig(), GivenStart((1.0,)), "erm")


class TestEmitTable:
    def test_single_record_layout(self):
        record, _ = run_ex4_1()
        text = emit_table([record], "aligned")
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].split() == ["N", "x0", "x*", "f(x*)"]
        assert "(0.9415,1.7138)" in lines[1]

    def test_csv_quoting_and_round_trip(self):
        records = [run_ex4_1()[0], run_ex4_1(x0=(1.5088, 0.6925), count=50)[0]]
        text = emit_table(records, "csv")
        assert text.splitlines()[0] == "N,x0,x*,f(x*)"
        assert '"' in text  # vector cells contain commas, so they are quoted
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["N", "x0", "x*", "f(x*)"]
        assert [row[0] for row in rows[1:]] == ["10", "50"]
        assert rows[1][1] == "(0.9415,1.7138)"
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert buf.getvalue() == text

    def test_solution_rows_print_all_ones(self):
        problem = builtin_example("ex4_4", n=10)
        records = []
        for count in (10, 50):
            spec = SamplerSpec("pseudorandom", count=count, dim=1, seed=count)
            record, _ = run_experiment(
                problem,
                spec,
                SolverConfig(),
                UniformRandomStart(seed=1),
                "erm",
                example_id="ex4_4",
            )
            records.append(record)
        text = emit_table(records, "aligned")
        expected = "(" + ",".join(["1.0000"] * 10) + ")"
        for line in text.splitlines()[1:]:
            assert expected in line

    def test_objective_format_is_four_significant(self):
        record, _ = run_ex4_1()
        text = emit_table([record], "csv")
        f_cell = text.splitlines()[1].rsplit(",", 1)[-1]
        mantissa = f_cell.split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) == 4

    def test_empty_and_bad_format_rejected(self):
        with pytest.raises(ValueError, match="records"):
            emit_table([], "csv")
        record, _ = run_ex4_1()
        with pytest.raises(ValueError, match="format"):
            emit_table([record], "yaml")


class TestEmitTrace:
    def test_zero_iteration_trace(self):
        import savesolve

        x0 = np.array([0.8, -0.4])
        cfg = SolverConfig()
        A = np.array([[4.0, 0.5], [1.0, 3.0]])
        b = A @ x0 - np.sqrt(x0 * x0 + cfg.mu0)
        problem = savesolve.StochasticProblem(A, [], b, [])
        samples = savesolve.SampleSet(np.zeros((1, 0)), np.ones(1))
        report = savesolve.solve(problem, samples, x0, cfg)
        lines = emit_trace(report).splitlines()
        assert lines[0] == "k,f,f_smoothed,grad_norm,mu,alpha"
        assert len(lines) == 2
        assert lines[1].startswith("0,")

    def test_converged_trace_ends_below_tolerance(self):
        _, report = run_ex4_1()
        lines = emit_trace(report).splitlines()
        last = lines[-1].split(",")
        assert float(last[3]) <= 1e-5

        mus = [float(line.split(",")[4]) for line in lines[1:]]
        assert all(m2 <= m1 for m1, m2 in zip(mus, mus[1:]))
