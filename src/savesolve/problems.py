"""Built-in benchmark instances and problem-file ingestion.

Problem files are UTF-8 JSON documents:

    {
      "n": 2, "m": 1,
      "A_base": [[2, 1], [5, 1]], "A_terms": [[[1, 0], [0, 1]]],
      "b_base": [4, 5], "b_terms": [[1, 3]],
      "distribution": {"kind": "uniform_box"},
      "solver":  {"mu0": 0.01, "epsilon": 1e-5, ...},      # optional
      "sampler": {"kind": "halton", "count": 100, ...}     # optional
    }

A finite distribution uses kind "finite_scenarios" with
"scenarios": [{"omega": [...], "p": ...}, ...].  Numbers must be finite; the
sampler's count, seed and offset and the solver's max_iter and max_backtracks
are integers; a field left out of either block takes its type's default.
This module only parses (structure, known fields, the declared n and m,
exact vector shapes, numeric arrays); every other rule lives in the type a
block builds, whose ValueError or TypeError is re-raised as a
ProblemFormatError naming the field, so a malformed file exits with status 64.
"""

from __future__ import annotations

import json

import numpy as np

from .analytic import ClosedFormInstance
from .core import FiniteScenarios, StochasticProblem, UniformBox, _check_int
from .sampling import SamplerSpec
from .solver import SolverConfig

__all__ = [
    "ProblemFormatError",
    "EXAMPLE_IDS",
    "builtin_example",
    "problem_from_dict",
    "problem_to_dict",
    "load_problem_file",
    "case2_from_dict",
    "load_case2_file",
]

EXAMPLE_IDS = ("ex2_1", "ex4_1", "ex4_2", "ex4_3", "ex4_4")


class ProblemFormatError(ValueError):
    """A problem document failed validation."""


# 10 x 10 base matrix of the ex4_3 instance; the fractions are written as
# ratios so the stored doubles are the correctly rounded exact values.
_EX4_3_BASE = [
    [5, 0, 0, 0, 0, 2, 1, 0, 0, 3],
    [1 / 2, 2, 0, 1 / 2, 1, 0, 1, 0, 6, 0],
    [0, 1 / 4, 7, 3 / 4, 0, 2, 0, 0, 1 / 2, 1 / 2],
    [1, 1, 2, 2, 1 / 2, 0, 3 / 2, 2, 0, 1],
    [0, 0, 2 / 5, 1 / 4, 6, 2, 0, 1, 7 / 20, 1],
    [2, 1 / 2, 4, 0, 0, 1, 1 / 2, 2, 1, 0],
    [0, 5, 0, 2 / 3, 0, 2 / 3, 3, 1 / 4, 1, 5 / 12],
    [2, 1, 1, 1, 1, 1 / 2, 0, 4, 1 / 2, 0],
    [1 / 7, 5 / 7, 0, 0, 1, 0, 1 / 7, 0, 9, 0],
    [3, 0, 2, 1, 5 / 2, 0, 1 / 2, 1 / 4, 1 / 4, 1],
]


def _shifted(A0, b0, b1=None, distribution=UniformBox()) -> StochasticProblem:
    """The one-parameter family A(w) = A0 + w I, b(w) = b0 + w b1, with b1
    all ones unless given; every built-in instance has this form."""
    n = len(b0)
    b1 = np.ones(n) if b1 is None else b1
    return StochasticProblem(A0, [np.eye(n)], b0, [b1], distribution)


def builtin_example(example_id: str, n: int | None = None) -> StochasticProblem:
    """Construct one of the built-in benchmark instances.

    ex2_1  4x4 with w scaling the diagonal and the rhs, two scenarios
           w in {0, 2} with probability 1/2 each; solved by the all-ones
           vector.
    ex4_1  2x2, w uniform on [0,1] on the diagonal and rhs; solved by (1, 3)
           for every w.
    ex4_2  4x4 block instance, w uniform; solved by the all-ones vector.
    ex4_3  10x10 dense instance with fractional entries, w uniform; has no
           exact solution, the residual minimum is positive.
    ex4_4  tridiagonal family of user-chosen dimension n >= 2, w uniform;
           solved by the all-ones vector.
    """
    if example_id != "ex4_4" and n is not None:
        raise ValueError("the dimension argument applies only to ex4_4")
    if example_id == "ex2_1":
        A0 = np.array(
            [[10, 1, 2, 0], [1, 11, 3, 1], [0, 2, 12, 1], [1, 7, 0, 13]], dtype=float
        )
        scenarios = FiniteScenarios([[0.0], [2.0]], [0.5, 0.5])
        return _shifted(A0, np.array([12.0, 15.0, 14.0, 20.0]), distribution=scenarios)
    if example_id == "ex4_1":
        A0 = np.array([[2.0, 1.0], [5.0, 1.0]])
        return _shifted(A0, np.array([4.0, 5.0]), np.array([1.0, 3.0]))
    if example_id == "ex4_2":
        A0 = np.array(
            [[2, 1, 0, 0], [2, 1, 0, 0], [0, 0, 2, 1], [0, 2, 0, 1]], dtype=float
        )
        return _shifted(A0, np.full(4, 2.0))
    if example_id == "ex4_3":
        return _shifted(np.array(_EX4_3_BASE, dtype=float), np.full(10, 10.0))
    if example_id == "ex4_4":
        if n is None:
            raise ValueError("ex4_4 requires the dimension n")
        _check_int(n, "ex4_4's dimension n", 2)
        # the family _shifted builds, from its diagonals: no n x n array
        # where the band is picked
        off, zero = np.ones(n - 1), np.zeros(n - 1)
        b0 = np.full(n, 3.0)
        b0[0] = b0[-1] = 2.0
        return StochasticProblem.from_diagonals(
            (-1, 0, 1), [(off, np.full(n, 2.0), off), (zero, np.ones(n), zero)],
            b0, [np.ones(n)],
        )
    raise ValueError(f"unknown example {example_id!r}; valid ids: {EXAMPLE_IDS}")


def _require(data: dict, key: str):
    if key not in data:
        raise ProblemFormatError(f"{key}: missing required field")
    return data[key]


def _object(value, label: str) -> dict:
    if not isinstance(value, dict):
        raise ProblemFormatError(f"{label}: expected a JSON object")
    return value


def _int_field(data: dict, key: str, minimum: int) -> int:
    value = _require(data, key)
    _built(None, lambda: _check_int(value, key, minimum))
    return value


def _array_field(value, label: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """value as a float array, of exactly the given shape when one is given."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{label}: not a numeric array ({exc})") from None
    if shape is not None and arr.shape != shape:
        raise ProblemFormatError(f"{label}: expected shape {shape}, got {arr.shape}")
    return arr


def _built(block: str | None, make):
    """make(), with the type's ValueError or TypeError reported as a
    ProblemFormatError under the document block it came from."""
    try:
        return make()
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{block}: {exc}" if block else str(exc)) from None


def problem_from_dict(data) -> StochasticProblem:
    """Parse a problem document and build the instance."""
    _object(data, "top level")
    known = {"n", "m", "A_base", "A_terms", "b_base", "b_terms", "distribution",
             "solver", "sampler"}
    for key in data:
        if key not in known:
            raise ProblemFormatError(f"{key}: unknown field")
    n = _int_field(data, "n", minimum=1)
    m = _int_field(data, "m", minimum=0)
    A_base = _array_field(_require(data, "A_base"), "A_base", (n, n))
    b_base = _array_field(_require(data, "b_base"), "b_base", (n,))
    A_terms_raw = _require(data, "A_terms")
    b_terms_raw = _require(data, "b_terms")
    if not isinstance(A_terms_raw, list) or len(A_terms_raw) != m:
        raise ProblemFormatError(f"A_terms: expected a list of {m} matrices")
    if not isinstance(b_terms_raw, list) or len(b_terms_raw) != m:
        raise ProblemFormatError(f"b_terms: expected a list of {m} vectors")
    A_terms = [_array_field(t, f"A_terms[{j}]") for j, t in enumerate(A_terms_raw)]
    b_terms = [
        _array_field(t, f"b_terms[{j}]", (n,)) for j, t in enumerate(b_terms_raw)
    ]
    dist_raw = _require(data, "distribution")
    if not isinstance(dist_raw, dict) or "kind" not in dist_raw:
        raise ProblemFormatError("distribution: expected an object with a kind")
    kind = dist_raw["kind"]
    if kind == "uniform_box":
        distribution = UniformBox()
    elif kind == "finite_scenarios":
        raw = dist_raw.get("scenarios")
        if not isinstance(raw, list) or not raw:
            raise ProblemFormatError(
                "distribution.scenarios: expected a non-empty list"
            )
        omegas, probs = [], []
        for i, sc in enumerate(raw):
            label = f"distribution.scenarios[{i}]"
            if not isinstance(sc, dict) or "omega" not in sc or "p" not in sc:
                raise ProblemFormatError(f"{label}: expected omega and p fields")
            omegas.append(_array_field(sc["omega"], f"{label}.omega", (m,)))
            probs.append(_array_field(sc["p"], f"{label}.p", ()))
        distribution = _built(
            "distribution.scenarios", lambda: FiniteScenarios(np.array(omegas), probs)
        )
    else:
        raise ProblemFormatError(
            f"distribution.kind: expected uniform_box or finite_scenarios, got {kind!r}"
        )
    return _built(
        None, lambda: StochasticProblem(A_base, A_terms, b_base, b_terms, distribution)
    )


def problem_to_dict(problem: StochasticProblem) -> dict:
    """Inverse of problem_from_dict, modulo the optional solver/sampler keys."""
    if isinstance(problem.distribution, FiniteScenarios):
        dist = {
            "kind": "finite_scenarios",
            "scenarios": [
                {"omega": omega.tolist(), "p": float(p)}
                for omega, p in zip(
                    problem.distribution.omegas, problem.distribution.probs
                )
            ],
        }
    else:
        dist = {"kind": "uniform_box"}
    A = problem._A  # a banded problem builds it on each read
    return {
        "n": problem.n,
        "m": problem.m,
        "A_base": A[0].tolist(),
        "A_terms": [t.tolist() for t in A[1:]],
        "b_base": problem.b_base.tolist(),
        "b_terms": [t.tolist() for t in problem.b_terms],
        "distribution": dist,
    }


def _block(data: dict, key: str, make):
    """The optional block data[key] built as make(**block), None when absent."""
    if key not in data:
        return None
    raw = _object(data[key], key)
    return _built(key, lambda: make(**raw))


def _read_json(path):
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid JSON: {exc}") from None


def load_problem_file(path):
    """Read a problem file; returns (problem, solver config or None,
    sampler spec or None)."""
    data = _read_json(path)
    problem = problem_from_dict(data)
    cfg = _block(data, "solver", SolverConfig)
    spec = _block(data, "sampler", lambda **raw: SamplerSpec(dim=problem.m, **raw))
    return problem, cfg, spec


def case2_from_dict(data) -> ClosedFormInstance:
    """Parse a closed-form oracle document {A, b_tilde, T} and build the
    instance."""
    _object(data, "top level")
    for key in data:
        if key not in {"A", "b_tilde", "T"}:
            raise ProblemFormatError(f"{key}: unknown field")
    A, b_tilde, T = (
        _array_field(_require(data, key), key) for key in ("A", "b_tilde", "T")
    )
    return _built(None, lambda: ClosedFormInstance(A, b_tilde, T))


def load_case2_file(path) -> ClosedFormInstance:
    return case2_from_dict(_read_json(path))
