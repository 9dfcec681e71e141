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

from .analytic import as_save_problem, exact_objective
from .bench import (
    ROUTES,
    GivenStart,
    UniformRandomStart,
    emit_table,
    emit_trace,
    run_experiment,
)
from .core import FiniteScenarios, erm_objective
from .ev import _verdicts, expected_instance
from .problems import (
    EXAMPLE_IDS,
    ProblemFormatError,
    builtin_example,
    load_case2_file,
    load_problem_file,
)
from .sampling import READS, SamplerSpec, _last_index, generate
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


def _parse_floats(text: str, flag: str) -> np.ndarray:
    try:
        values = np.array([float(c) for c in text.split(",") if c.strip() != ""])
    except ValueError:
        raise ValueError(f"{flag}: expected a comma-separated list of numbers, got {text!r}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{flag}: expected finite numbers, got {text!r}")
    return values


def _parse_counts(text: str) -> list[int]:
    try:
        counts = [int(c) for c in text.split(",") if c.strip() != ""]
    except ValueError:
        raise ValueError(f"--N: expected comma-separated integers, got {text!r}")
    if not counts:
        raise ValueError("--N: at least one sample count is required")
    return counts


# sampler flag dest -> the SamplerSpec field it sets
_SAMPLER_FLAGS = {"N": "count", "seed": "seed", "offset": "offset"}
# solver flag dest -> SolverConfig field; a flag's type is its field's default's
_SOLVER_FLAGS = {
    "mu0": "mu0", "epsilon": "epsilon", "rho": "rho_backtrack", "sigma": "sigma",
    "delta": "delta", "gamma_bar": "gamma_bar", "max_iter": "max_iter",
    "max_backtracks": "max_backtracks",
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="save-solve", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    source = argparse.ArgumentParser(add_help=False)
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", choices=EXAMPLE_IDS, help="built-in instance")
    group.add_argument("--problem-file", help="path to a JSON problem file")
    source.add_argument("--n", type=int, help="dimension for ex4_4")

    run = sub.add_parser("run", parents=[source], help="solve an instance and emit results")
    run.add_argument("--route", choices=ROUTES, default="erm")
    # the sampler, start and solver flags default to None: a flag left out
    # takes the problem file's value, if any, else the default of its type
    run.add_argument("--sampler", choices=tuple(READS))
    run.add_argument("--N", help="sample count, or a comma list for several runs")
    run.add_argument("--seed", type=int, help="pseudorandom sampler seed")
    run.add_argument("--offset", type=int, help="halton index offset")
    run.add_argument("--x0", help="explicit start, e.g. 1.0,2.0")
    run.add_argument("--x0-seed", type=int, help="seed for the random start")
    run.add_argument("--x0-lo", type=float, help="random-start box low end")
    run.add_argument("--x0-hi", type=float, help="random-start box high end")
    run.add_argument("--out", help="write the results table as CSV")
    run.add_argument("--trace", help="write the iterate trace as CSV (single run only)")
    for dest, name in _SOLVER_FLAGS.items():
        kind = type(getattr(SolverConfig, name))
        run.add_argument("--" + dest.replace("_", "-"), type=kind, help="solver override")

    verify = sub.add_parser("verify", parents=[source], help="check a candidate solution")
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


def _flagged(flag: str, make):
    """make(), a value it refuses or cannot allocate reported as flag's error."""
    try:
        return make()
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _load_problem(args):
    if args.problem_file is not None:
        if args.n is not None:
            raise ValueError("--n applies only to --example ex4_4, not to --problem-file")
        return load_problem_file(args.problem_file)
    return _flagged("--n", lambda: builtin_example(args.example, n=args.n)), None, None


def _refuse_unread(args, dests, why: str) -> None:
    """Refuse every flag among dests that was given, since the run would not read it."""
    given = ["--" + d.replace("_", "-") for d in dests if getattr(args, d) is not None]
    if given:
        raise ValueError(f"{', '.join(given)}: {why}")


def _override(base, **flags):
    """base with each field whose command-line flag was given set to it."""
    given = {name: value for name, value in flags.items() if value is not None}
    return dataclasses.replace(base, **given)


def _cmd_run(args) -> int:
    if args.route == "ev":
        _refuse_unread(args, ("sampler", *_SAMPLER_FLAGS), "the ev route draws no samples")
    problem, file_cfg, file_sampler = _load_problem(args)
    solver_flags = {name: getattr(args, dest) for dest, name in _SOLVER_FLAGS.items()}
    cfg = _override(file_cfg or SolverConfig(), **solver_flags)
    sampler = _override(file_sampler or SamplerSpec(dim=problem.m), kind=args.sampler)
    sampler = _flagged("--seed", lambda: _override(sampler, seed=args.seed))
    sampler = _flagged("--offset", lambda: _override(sampler, offset=args.offset))
    counts = _parse_counts(args.N) if args.N is not None else [sampler.count]
    specs = [_flagged("--N", lambda: dataclasses.replace(sampler, count=c)) for c in counts]
    reads = READS[sampler.kind] if args.route == "erm" else ()
    _refuse_unread(args, [d for d, f in _SAMPLER_FLAGS.items() if f not in reads],
                   f"not read by the {sampler.kind} sampler")
    if "offset" in reads:  # before the first solve, named after what set offset + count
        source = "--offset" if args.offset is not None else "--N" if args.N else "sampler"
        _flagged(source, lambda: _last_index(max(counts), sampler.offset))
    if args.trace and len(counts) > 1:
        raise ValueError("--trace expects a single --N value")
    if args.x0 is not None:
        _refuse_unread(args, ("x0_seed", "x0_lo", "x0_hi"),
                       "--x0 gives the start, so none is drawn")
        policy = GivenStart(tuple(_parse_floats(args.x0, "--x0")))
    else:
        policy = _override(
            UniformRandomStart(), lo=args.x0_lo, hi=args.x0_hi, seed=args.x0_seed
        )
    example_id = args.example or args.problem_file
    records = []
    for spec in specs:
        try:
            record, report = run_experiment(
                problem,
                spec,
                cfg,
                policy,
                args.route,
                example_id=example_id,
            )
        except MemoryError as exc:  # a sample set too large to allocate
            raise ValueError(f"{'--N' if args.N else 'sampler count'}: {exc}") from None
        records.append(record)
        # keep only the report --trace writes, so a sweep holds one solve at a time
        last_report = report if args.trace else None
        del report
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
    x = _parse_floats(args.x, "--x")
    if args.omega is not None:
        omegas = [_parse_floats(args.omega, "--omega")]
    elif isinstance(problem.distribution, FiniteScenarios):
        omegas = list(problem.distribution.omegas)
    else:
        omegas = [np.zeros(problem.m)]
    points = omegas + [expected_instance(problem).points[0]] if args.ev else omegas
    verdicts = _verdicts(problem, x, points, args.tol)
    all_ok = True
    for omega, (res_norm, ok_save, ok_glcp) in zip(omegas, verdicts):
        all_ok &= ok_save and ok_glcp
        label = ",".join(f"{c:g}" for c in omega)
        print(
            f"omega=({label}) residual_norm={res_norm:.3e} "
            f"save={'ok' if ok_save else 'FAIL'} glcp={'ok' if ok_glcp else 'FAIL'}"
        )
    if args.ev:
        ok_ev = verdicts[-1][2]
        all_ok &= ok_ev
        print(f"expected matrices glcp={'ok' if ok_ev else 'FAIL'}")
    return EXIT_OK if all_ok else 1


def _cmd_oracle(args) -> int:
    inst = load_case2_file(args.case2_file)
    x = _parse_floats(args.x, "--x")
    if args.qmc is not None:
        # drawn before the first print, so a count that cannot be drawn is refused first
        problem = as_save_problem(inst)
        samples = _flagged("--qmc", lambda: generate(
            SamplerSpec("halton", count=args.qmc, dim=inst.m), problem))
    value = exact_objective(inst, x)
    print(f"exact objective: {value:.12g}")
    if args.qmc is not None:
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
