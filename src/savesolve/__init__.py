"""Solvers and benchmarks for stochastic absolute value equations
A(w) x - |x| = b(w)."""

from .analytic import (
    ClosedFormInstance,
    as_save_problem,
    exact_objective,
)
from .bench import (
    GivenStart,
    RunRecord,
    UniformRandomStart,
    emit_table,
    emit_trace,
    run_experiment,
)
from .core import (
    FiniteScenarios,
    NonsmoothPointError,
    SampleSet,
    StochasticProblem,
    UniformBox,
    erm_objective,
    smooth_abs,
    smoothed_gradient,
    smoothed_objective,
)
from .ev import (
    EvInstance,
    ev_gradient,
    ev_objective,
    ev_solve,
    expected_instance,
    verify_glcp,
    verify_save,
)
from .problems import (
    EXAMPLE_IDS,
    ProblemFormatError,
    builtin_example,
    case2_from_dict,
    load_case2_file,
    load_problem_file,
    problem_from_dict,
    problem_to_dict,
)
from .sampling import SamplerSpec, generate, halton_points
from .solver import (
    Iterate,
    LineSearchError,
    SmoothedModel,
    SolveReport,
    SolveStatus,
    SolverConfig,
    armijo_backtrack,
    minimize_smoothed,
    solve,
)

__version__ = "0.1.0"
