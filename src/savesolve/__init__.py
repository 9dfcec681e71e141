"""Solvers and benchmarks for stochastic absolute value equations
A(w) x - |x| = b(w)."""

from .analytic import (
    ClosedFormInstance,
    UnsupportedDimensionError,
    as_save_problem,
    exact_objective,
    fd_gradient,
    grid_search,
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
    eval_A,
    eval_b,
    residual,
    smooth_abs,
    smoothed_gradient,
    smoothed_jacobian,
    smoothed_objective,
)
from .ev import (
    EvInstance,
    ev_gradient,
    ev_objective,
    ev_residual,
    ev_solve,
    expected_instance,
    fb,
    smoothed_fb,
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
