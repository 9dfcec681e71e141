"""The package's public names: each module's __all__ is their one list, and
savesolve re-exports every list whole."""

import re
import types
from pathlib import Path

import savesolve
from savesolve import analytic, bench, core, ev, problems, sampling, solver

MODULES = (analytic, bench, core, ev, problems, sampling, solver)

# the 45 names savesolve exported while __init__.py still listed each again
PUBLIC = {
    "ClosedFormInstance", "EXAMPLE_IDS", "EvInstance", "FiniteScenarios", "GivenStart",
    "Iterate", "LineSearchError", "NonsmoothPointError", "ProblemFormatError", "RunRecord",
    "SampleSet", "SamplerSpec", "SmoothedModel", "SolveReport", "SolveStatus",
    "SolverConfig", "StochasticProblem", "UniformBox", "UniformRandomStart",
    "armijo_backtrack", "as_save_problem", "builtin_example", "case2_from_dict",
    "emit_table", "emit_trace", "erm_objective", "ev_gradient", "ev_objective", "ev_solve",
    "exact_objective", "expected_instance", "generate", "halton_points", "load_case2_file",
    "load_problem_file", "minimize_smoothed", "problem_from_dict", "problem_to_dict",
    "run_experiment", "smooth_abs", "smoothed_gradient", "smoothed_objective", "solve",
    "verify_glcp", "verify_save",
}

# the library names the README documents
README_NAMES = {
    "SamplerSpec", "SolveReport", "SolverConfig", "StochasticProblem", "armijo_backtrack",
    "as_save_problem", "builtin_example", "ev_solve", "exact_objective",
    "expected_instance", "generate", "problem_to_dict", "smooth_abs", "solve",
    "verify_glcp", "verify_save",
}


def exported() -> set:
    """The public names of savesolve, as CI counts them."""
    return {name for name, value in vars(savesolve).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def readme_words() -> set:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return set(re.findall(r"[A-Za-z_]\w*", text))


def test_the_package_exports_the_union_of_the_module_lists():
    assert len(PUBLIC) == 45
    assert sum(len(module.__all__) for module in MODULES) == 45  # no name in two lists
    assert exported() == set().union(*(module.__all__ for module in MODULES)) == PUBLIC
    for module in MODULES:
        for name in module.__all__:
            assert getattr(savesolve, name) is getattr(module, name)


def test_every_name_the_readme_documents_is_exported():
    words = readme_words()
    assert README_NAMES <= words
    assert README_NAMES <= exported()
    # any public class or function of the modules that the README mentions
    defined = {name for module in MODULES for name, value in vars(module).items()
               if not name.startswith("_") and isinstance(value, (type, types.FunctionType))
               and value.__module__ == module.__name__}
    assert words & defined <= exported()
