"""End-to-end acceptance runs.

Each test covers one numbered criterion at its pinned tolerance and prints a
single pass line; a failed assertion is the corresponding fail line.
"""

import numpy as np
import pytest

from savesolve import (
    ClosedFormInstance,
    GivenStart,
    SamplerSpec,
    SolveStatus,
    SolverConfig,
    UniformRandomStart,
    as_save_problem,
    builtin_example,
    erm_objective,
    ev_solve,
    exact_objective,
    expected_instance,
    generate,
    halton_points,
    run_experiment,
    smoothed_gradient,
    smoothed_objective,
    verify_glcp,
    verify_save,
)
from savesolve.cli import main

from helpers import eval_A, eval_b, fb, fd_gradient, grid_search, residual

SAMPLE_COUNTS = (10, 50, 100, 200, 500)

EX4_1_STARTS = [
    (0.9415, 1.7138),
    (1.5088, 0.6925),
    (1.6206, 1.1140),
    (1.6822, 0.7090),
    (1.3098, 1.7802),
]

EX4_2_STARTS = [
    (1.3027, 1.4874, 0.6039, 0.1792),
    (1.0894, 1.9952, 1.0220, 1.7470),
    (0.9878, 1.7254, 0.4858, 1.6685),
    (0.2891, 0.7410, 1.2448, 1.9951),
    (1.6171, 1.9691, 1.7718, 0.4277),
]

EX2_1_STARTS = [
    (2.5127, -2.4490, 0.0596, 1.9908),
    (-1.4834, 3.3083, 0.8526, 0.4972),
    (-3.3782, 2.9428, -1.8878, 0.2853),
    (-3.9335, 4.6190, -4.9537, 2.7491),
    (3.5303, 1.2206, -1.4905, 0.1325),
]


def _reproduce(example_id, starts, target, x_tol, f_tol, time_budget):
    problem = builtin_example(example_id)
    cfg = SolverConfig()
    for count in SAMPLE_COUNTS:
        sampler = SamplerSpec("pseudorandom", count=count, dim=1, seed=count)
        for x0 in starts:
            record, _ = run_experiment(
                problem, sampler, cfg, GivenStart(x0), "erm", example_id=example_id
            )
            assert record.status is SolveStatus.CONVERGED, (count, x0)
            assert np.max(np.abs(record.x_star - target)) <= x_tol, (count, x0)
            assert record.f_star <= f_tol, (count, x0)
            assert record.wall_time < time_budget, (count, x0)


def test_criterion_01_small_instance_reproduction():
    _reproduce(
        "ex4_1",
        EX4_1_STARTS,
        np.array([1.0, 3.0]),
        x_tol=1e-4,
        f_tol=1e-6,
        time_budget=1.0,
    )
    print("\n[criterion 1] PASS: 2x2 instance recovered (1, 3) from every "
          "listed start at every sample count")


def test_criterion_02_block_instance_reproduction():
    _reproduce(
        "ex4_2",
        EX4_2_STARTS,
        np.ones(4),
        x_tol=1e-4,
        f_tol=1e-6,
        time_budget=1.0,
    )
    print("\n[criterion 2] PASS: 4x4 instance recovered the all-ones solution")


@pytest.mark.parametrize("n,f_tol", [(100, 1e-5), (500, 1e-5)])
def test_criterion_03_tridiagonal_family(n, f_tol):
    problem = builtin_example("ex4_4", n=n)
    cfg = SolverConfig()
    for count in SAMPLE_COUNTS:
        sampler = SamplerSpec("pseudorandom", count=count, dim=1, seed=count)
        record, _ = run_experiment(
            problem, sampler, cfg, UniformRandomStart(seed=count), "erm",
            example_id="ex4_4",
        )
        assert record.status is SolveStatus.CONVERGED, count
        assert np.max(np.abs(record.x_star - 1.0)) <= 1e-3, count
        assert record.f_star <= f_tol, count
        if n == 500:
            assert record.wall_time < 60.0, count
    print(f"\n[criterion 3] PASS: tridiagonal n={n} recovered all-ones at "
          "every sample count")


def test_criterion_04_dense_instance_residual_band():
    problem = builtin_example("ex4_3")
    sampler = SamplerSpec("pseudorandom", count=100, dim=1, seed=7)
    record, _ = run_experiment(
        problem, sampler, SolverConfig(), UniformRandomStart(seed=0), "erm",
        example_id="ex4_3",
    )
    assert record.status is SolveStatus.CONVERGED
    assert record.f_star <= 0.012
    assert abs(record.x_star[0] - 1.089) <= 0.03
    assert abs(record.x_star[1] - 1.073) <= 0.03
    print(f"\n[criterion 4] PASS: 10x10 instance reached f = {record.f_star:.4f} "
          f"with leading components {record.x_star[0]:.4f}, {record.x_star[1]:.4f}")


def test_criterion_05_expected_value_route():
    inst = expected_instance(builtin_example("ex2_1"))
    for x0 in EX2_1_STARTS:
        report = ev_solve(inst, np.array(x0), SolverConfig())
        assert report.status is SolveStatus.CONVERGED, x0
        assert np.max(np.abs(report.x_final - 1.0)) <= 1e-4, x0
        assert report.f_final <= 1e-8, x0
    print("\n[criterion 5] PASS: expected-value route recovered all-ones from "
          "every listed start")


def test_criterion_06_gradient_correctness():
    rng = np.random.default_rng(123)
    for example_id in ("ex4_1", "ex4_2"):
        problem = builtin_example(example_id)
        samples = generate(
            SamplerSpec("pseudorandom", count=15, dim=1, seed=3), problem
        )
        for _ in range(50):
            x = rng.uniform(-2, 2, size=problem.n)
            mu = 10.0 ** rng.uniform(-6, -1)
            analytic = smoothed_gradient(problem, samples, x, mu)
            numeric = fd_gradient(
                lambda z: smoothed_objective(problem, samples, z, mu), x, h=1e-6
            )
            err = np.linalg.norm(analytic - numeric)
            assert err <= 1e-5 * np.linalg.norm(numeric) + 1e-8
    print("\n[criterion 6] PASS: analytic gradient matched central differences "
          "on 100 draws")


def test_criterion_07_complementarity_function_zero_set():
    rng = np.random.default_rng(321)
    pairs = [tuple(rng.uniform(-5, 5, size=2)) for _ in range(5000)]
    pairs += [(a, 0.0) for a in rng.uniform(0, 5, size=2500)]
    pairs += [(0.0, b) for b in rng.uniform(0, 5, size=2500)]
    failures = 0
    for a, b in pairs:
        lhs = abs(fb(a, b)) <= 1e-10
        rhs = a >= -1e-8 and b >= -1e-8 and abs(a * b) <= 1e-8
        failures += lhs != rhs
    assert failures == 0
    print("\n[criterion 7] PASS: complementarity residual zero set matched on "
          "10000 pairs, zero failures")


def test_criterion_08_residual_complementarity_equivalence():
    rng = np.random.default_rng(77)
    cases = [("ex4_1", np.array([1.0, 3.0])), ("ex4_2", np.ones(4))]
    for example_id, x_star in cases:
        problem = builtin_example(example_id)
        for w in halton_points(50, 1):
            assert np.linalg.norm(residual(problem, x_star, w)) <= 1e-10
            assert verify_save(problem, x_star, w, 1e-8)
            assert verify_glcp(eval_A(problem, w), eval_b(problem, w), x_star, 1e-8)
            x = rng.uniform(-5, 5, size=problem.n)
            assert verify_save(problem, x, w, 1e-8) == verify_glcp(
                eval_A(problem, w), eval_b(problem, w), x, 1e-8
            )
    print("\n[criterion 8] PASS: residual and complementarity predicates agreed "
          "at exact solutions and random points, zero failures")


def test_criterion_09_sampled_average_matches_exact_integral():
    inst = ClosedFormInstance(
        A=np.array([[2.0, 1.0], [0.0, 2.0]]),
        b_tilde=np.array([0.5, -0.5]),
        T=np.array([[0.3], [0.3]]),
    )
    problem = as_save_problem(inst)
    rng = np.random.default_rng(42)
    improved = 0
    for _ in range(20):
        x = rng.uniform(-0.8, 0.8, size=2)
        exact = exact_objective(inst, x)
        errs = {
            N: abs(
                erm_objective(
                    problem,
                    generate(SamplerSpec("halton", count=N, dim=1), problem),
                    x,
                )
                - exact
            )
            for N in (64, 4096)
        }
        assert errs[4096] <= 1e-3
        improved += errs[4096] < errs[64]
    assert improved >= 18

    box = [(-1.0, 1.0), (-1.0, 1.0)]
    steps = 41
    spacing = 2.0 / (steps - 1)
    x_exact, _ = grid_search(lambda z: exact_objective(inst, z), box, steps)
    samples = generate(SamplerSpec("halton", count=4096, dim=1), problem)
    x_sampled, _ = grid_search(
        lambda z: erm_objective(problem, samples, z), box, steps
    )
    assert np.max(np.abs(x_sampled - x_exact)) <= spacing + 1e-12
    print("\n[criterion 9] PASS: quasi-random averages converged to the exact "
          "integral and its minimizer")


def test_criterion_10_byte_identical_reruns(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"table_{tag}.csv"
        trace = tmp_path / f"trace_{tag}.csv"
        code = main(
            [
                "run",
                "--example",
                "ex4_1",
                "--sampler",
                "pseudorandom",
                "--N",
                "10",
                "--seed",
                "10",
                "--x0",
                "0.9415,1.7138",
                "--out",
                str(out),
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        outputs.append((out.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]
    print("\n[criterion 10] PASS: repeated runs produced byte-identical CSV")
