"""Command-line front end.

Subcommands:
  run     solve a built-in or file-defined instance and emit table/trace CSV
  verify  check a candidate solution against the residual and
          complementarity-system predicates
  oracle  evaluate the closed-form expected objective, optionally against a
          quasi-random estimate

Exit codes: 0 converged, 2 iteration cap, 3 line-search failure, 4 non-finite
objective or gradient, 64 bad input; over an --N sweep the largest code wins.
For verify, 0 means every check passed and 1 that at least one failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .analytic import exact_objective
from .bench import (
    ROUTES,
    GivenStart,
    UniformRandomStart,
    emit_table,
    emit_trace,
    run_experiment,
)
from .core import FiniteScenarios, erm_objective, eval_A, eval_b, residual
from .ev import expected_instance, verify_glcp, verify_save
from .problems import (
    EXAMPLE_IDS,
    ProblemFormatError,
    builtin_example,
    load_case2_file,
    load_problem_file,
)
from .sampling import DEFAULT_COUNT, KINDS, SamplerSpec, generate
from .solver import SolveStatus, SolverConfig

EXIT_OK = 0
EXIT_ITERATION_CAP = 2
EXIT_LINE_SEARCH = 3
EXIT_NON_FINITE = 4
EXIT_BAD_INPUT = 64

_STATUS_CODES = {
    SolveStatus.CONVERGED: EXIT_OK,
    SolveStatus.ITERATION_CAP: EXIT_ITERATION_CAP,
    SolveStatus.LINE_SEARCH_FAILURE: EXIT_LINE_SEARCH,
    SolveStatus.NON_FINITE: EXIT_NON_FINITE,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; remap to the bad-input code
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(c) for c in text.split(",") if c.strip() != ""])
    except ValueError:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")


def _parse_counts(text: str) -> list[int]:
    try:
        counts = [int(c) for c in text.split(",") if c.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")
    if not counts:
        raise ValueError("at least one sample count is required")
    return counts


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="save-solve", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve an instance and emit results")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--example", choices=EXAMPLE_IDS, help="built-in instance")
    src.add_argument("--problem-file", help="path to a JSON problem file")
    run.add_argument("--n", type=int, help="dimension for ex4_4")
    run.add_argument("--route", choices=ROUTES, default="erm")
    # sampler flags default to the problem file's sampler, else halton, N=100
    run.add_argument("--sampler", choices=KINDS)
    run.add_argument("--N", help="sample count, or a comma list for several runs")
    run.add_argument("--seed", type=int, help="pseudorandom sampler seed")
    run.add_argument("--offset", type=int, help="halton index offset")
    run.add_argument("--x0", help="explicit start, e.g. 1.0,2.0")
    run.add_argument("--x0-seed", type=int, default=0, help="seed for the random start")
    run.add_argument("--x0-lo", type=float, default=0.0, help="random-start box low end")
    run.add_argument("--x0-hi", type=float, default=2.0, help="random-start box high end")
    run.add_argument("--out", help="write the results table as CSV")
    run.add_argument("--trace", help="write the iterate trace as CSV (single run only)")
    for name, kind in (
        ("--mu0", float),
        ("--epsilon", float),
        ("--rho", float),
        ("--sigma", float),
        ("--delta", float),
        ("--gamma-bar", float),
        ("--max-iter", int),
        ("--max-backtracks", int),
    ):
        run.add_argument(name, type=kind, default=None, help="solver override")

    verify = sub.add_parser("verify", help="check a candidate solution")
    vsrc = verify.add_mutually_exclusive_group(required=True)
    vsrc.add_argument("--example", choices=EXAMPLE_IDS)
    vsrc.add_argument("--problem-file")
    verify.add_argument("--n", type=int, help="dimension for ex4_4")
    verify.add_argument("--x", required=True, help="candidate solution, e.g. 1,3")
    verify.add_argument(
        "--omega", help="evaluation point(s) of w; defaults to 0 or all scenarios"
    )
    verify.add_argument("--ev", action="store_true", help="also check expected matrices")
    verify.add_argument("--tol", type=float, default=1e-8)

    oracle = sub.add_parser("oracle", help="closed-form objective checks")
    oracle.add_argument("--case2-file", required=True, help="JSON {A, b_tilde, T}")
    oracle.add_argument("--x", required=True, help="evaluation point, e.g. 1,1")
    oracle.add_argument(
        "--qmc", type=int, default=None, help="cross-check against this many points"
    )
    return parser


def _load_problem(args):
    if args.problem_file is not None:
        return load_problem_file(args.problem_file)
    return builtin_example(args.example, n=args.n), None, None


def _override(base, **flags):
    """base with each field whose command-line flag was given set to it."""
    given = {name: value for name, value in flags.items() if value is not None}
    return dataclasses.replace(base, **given)


def _merge_config(file_cfg: SolverConfig | None, args) -> SolverConfig:
    return _override(
        file_cfg or SolverConfig(),
        mu0=args.mu0,
        epsilon=args.epsilon,
        rho_backtrack=args.rho,
        sigma=args.sigma,
        delta=args.delta,
        gamma_bar=args.gamma_bar,
        max_iter=args.max_iter,
        max_backtracks=args.max_backtracks,
    )


def _cmd_run(args) -> int:
    problem, file_cfg, file_sampler = _load_problem(args)
    cfg = _merge_config(file_cfg, args)
    sampler = _override(
        file_sampler or SamplerSpec("halton", count=DEFAULT_COUNT, dim=problem.m),
        kind=args.sampler,
        seed=args.seed,
        offset=args.offset,
    )
    counts = _parse_counts(args.N) if args.N is not None else [sampler.count]
    if args.trace and len(counts) > 1 and args.route == "erm":
        raise ValueError("--trace expects a single --N value")
    if args.x0 is not None:
        policy = GivenStart(tuple(_parse_floats(args.x0)))
    else:
        policy = UniformRandomStart(args.x0_lo, args.x0_hi, args.x0_seed)
    example_id = args.example or args.problem_file
    records = []
    last_report = None
    if args.route == "ev":
        counts = counts[:1]  # the ev route does not sample
    for count in counts:
        record, report = run_experiment(
            problem,
            dataclasses.replace(sampler, count=count),
            cfg,
            policy,
            args.route,
            example_id=example_id,
        )
        records.append(record)
        last_report = report
    print(emit_table(records, "aligned"), end="")
    for record in records:
        note = " (expected-value reduction on a uniform problem)" if record.ev_on_uniform else ""
        print(
            f"status={record.status.value} iterations={record.iterations} "
            f"grad_norm={record.grad_norm:.3e} mu={record.mu_final:.3e} "
            f"time={record.wall_time:.3f}s{note}"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(emit_table(records, "csv"))
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="") as handle:
            handle.write(emit_trace(last_report))
    return max(_STATUS_CODES[r.status] for r in records)


def _cmd_verify(args) -> int:
    problem, _, _ = _load_problem(args)
    x = _parse_floats(args.x)
    tol = args.tol
    if args.omega is not None:
        omegas = [_parse_floats(args.omega)]
    elif isinstance(problem.distribution, FiniteScenarios):
        omegas = list(problem.distribution.omegas)
    else:
        omegas = [np.zeros(problem.m)]
    all_ok = True
    for omega in omegas:
        res_norm = float(np.linalg.norm(residual(problem, x, omega)))
        ok_save = verify_save(problem, x, omega, tol)
        ok_glcp = verify_glcp(eval_A(problem, omega), eval_b(problem, omega), x, tol)
        all_ok &= ok_save and ok_glcp
        label = ",".join(f"{c:g}" for c in omega)
        print(
            f"omega=({label}) residual_norm={res_norm:.3e} "
            f"save={'ok' if ok_save else 'FAIL'} glcp={'ok' if ok_glcp else 'FAIL'}"
        )
    if args.ev:
        inst = expected_instance(problem)
        ok_ev = verify_glcp(inst.A_bar, inst.b_bar, x, tol)
        all_ok &= ok_ev
        print(f"expected matrices glcp={'ok' if ok_ev else 'FAIL'}")
    return EXIT_OK if all_ok else 1


def _cmd_oracle(args) -> int:
    inst = load_case2_file(args.case2_file)
    x = _parse_floats(args.x)
    value = exact_objective(inst, x)
    print(f"exact objective: {value:.12g}")
    if args.qmc is not None:
        from .analytic import as_save_problem

        problem = as_save_problem(inst)
        samples = generate(SamplerSpec("halton", count=args.qmc, dim=problem.m), problem)
        estimate = erm_objective(problem, samples, x)
        print(f"halton estimate (N={args.qmc}): {estimate:.12g}")
        print(f"absolute difference: {abs(estimate - value):.3e}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_oracle(args)
    except (ProblemFormatError, ValueError, OSError) as exc:
        print(f"save-solve: error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
