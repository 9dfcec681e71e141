import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savesolve import (
    FiniteScenarios,
    ProblemFormatError,
    SamplerSpec,
    SolverConfig,
    StochasticProblem,
    UniformBox,
    builtin_example,
    case2_from_dict,
    expected_instance,
    eval_A,
    load_case2_file,
    load_problem_file,
    problem_from_dict,
    problem_to_dict,
    residual,
)

from helpers import counted_stack_builds, scenario_document

VALID_DOC = {
    "n": 2,
    "m": 1,
    "A_base": [[2.0, 1.0], [5.0, 1.0]],
    "A_terms": [[[1.0, 0.0], [0.0, 1.0]]],
    "b_base": [4.0, 5.0],
    "b_terms": [[1.0, 3.0]],
    "distribution": {"kind": "uniform_box"},
}


def scenarios(p0, p1):
    """A finite_scenarios distribution block of two scenarios whose p are p0, p1."""
    return {"kind": "finite_scenarios",
            "scenarios": [{"omega": [0.0], "p": p0}, {"omega": [1.0], "p": p1}]}


@st.composite
def any_problem(draw):
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)

    def array(*shape):
        size = int(np.prod(shape))
        values = draw(st.lists(finite, min_size=size, max_size=size))
        return np.array(values).reshape(shape)

    if draw(st.booleans()):
        k = draw(st.integers(1, 4))
        weights = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k)))
        distribution = FiniteScenarios(array(k, m), weights / weights.sum())
    else:
        distribution = UniformBox()
    return StochasticProblem(
        array(n, n), list(array(m, n, n)), array(n), list(array(m, n)), distribution
    )


class TestBuiltinExamples:
    def test_ex4_1_coefficients(self):
        problem = builtin_example("ex4_1")
        np.testing.assert_array_equal(
            eval_A(problem, [0.0]), [[2.0, 1.0], [5.0, 1.0]]
        )

    def test_ex4_2_solved_by_ones(self):
        problem = builtin_example("ex4_2")
        for w in (0.0, 0.37, 1.0):
            assert np.max(np.abs(residual(problem, np.ones(4), [w]))) <= 1e-12

    def test_ex4_3_fractional_entries(self):
        A0 = builtin_example("ex4_3").A_base
        assert A0[4, 8] == 7 / 20
        assert A0[6, 9] == 5 / 12
        assert A0[8, 0] == 1 / 7
        assert A0[1, 8] == 6.0

    def test_ex4_4_solved_by_ones(self):
        problem = builtin_example("ex4_4", n=100)
        for w in (0.0, 0.5, 1.0):
            assert np.max(np.abs(residual(problem, np.ones(100), [w]))) <= 1e-12

    def test_ex2_1_expected_matrices(self):
        inst = expected_instance(builtin_example("ex2_1"))
        assert inst.A_bar[0, 0] == 11.0 and inst.A_bar[3, 3] == 14.0
        np.testing.assert_array_equal(inst.b_bar, [13.0, 16.0, 15.0, 21.0])

    def test_ex4_4_validation(self):
        with pytest.raises(ValueError, match="dimension n must be at least 2"):
            builtin_example("ex4_4", n=1)
        with pytest.raises(ValueError, match="requires the dimension"):
            builtin_example("ex4_4")
        for n in (300.0, np.float64(5), "300"):
            with pytest.raises(ValueError, match="dimension n must be an integer"):
                builtin_example("ex4_4", n=n)

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown example"):
            builtin_example("ex9_9")

    def test_dimension_only_for_the_family(self):
        with pytest.raises(ValueError, match="ex4_4"):
            builtin_example("ex4_1", n=5)


class TestProblemDocuments:
    def test_round_trip(self):
        problem = problem_from_dict(VALID_DOC)
        doc = problem_to_dict(problem)
        again = problem_from_dict(doc)
        np.testing.assert_array_equal(problem.A_base, again.A_base)
        np.testing.assert_array_equal(problem.b_base, again.b_base)
        for a, b in zip(problem.A_terms, again.A_terms):
            np.testing.assert_array_equal(a, b)
        assert doc == problem_to_dict(again)

    def test_scenario_round_trip(self):
        problem = builtin_example("ex2_1")
        again = problem_from_dict(problem_to_dict(problem))
        assert isinstance(again.distribution, FiniteScenarios)
        np.testing.assert_array_equal(
            again.distribution.omegas, problem.distribution.omegas
        )
        np.testing.assert_array_equal(
            again.distribution.probs, problem.distribution.probs
        )

    def test_json_round_trip_is_exact(self):
        problem = builtin_example("ex4_3")
        text = json.dumps(problem_to_dict(problem))
        again = problem_from_dict(json.loads(text))
        np.testing.assert_array_equal(problem.A_base, again.A_base)

    @settings(max_examples=200, deadline=None)
    @given(any_problem())
    def test_json_round_trip_reproduces_every_array(self, problem):
        again = problem_from_dict(json.loads(json.dumps(problem_to_dict(problem))))
        pairs = [(problem.A_base, again.A_base), (problem.b_base, again.b_base)]
        pairs += list(zip(problem.A_terms, again.A_terms))
        pairs += list(zip(problem.b_terms, again.b_terms))
        assert type(again.distribution) is type(problem.distribution)
        if isinstance(problem.distribution, FiniteScenarios):
            pairs.append((problem.distribution.omegas, again.distribution.omegas))
            pairs.append((problem.distribution.probs, again.distribution.probs))
        assert again.m == problem.m
        for before, after in pairs:
            assert after.shape == before.shape
            assert after.tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "mutate,field",
        [
            (lambda d: d.update(A_base=[[1.0]]), "A_base"),
            (lambda d: d.update(b_terms=[[1.0, 2.0, 3.0]]), r"b_terms\[0\]"),
            (lambda d: d.update(A_terms=[]), "A_terms"),
            (lambda d: d.update(n=0), "n"),
            (lambda d: d.update(distribution={"kind": "gaussian"}), "kind"),
            (lambda d: d.update(extra=1), "extra"),
            (lambda d: d.pop("b_base"), "b_base"),
            # a p of one shape in every scenario was read as its number, and
            # mixed shapes failed with numpy's message, naming no field
            (lambda d: d.update(distribution=scenarios([0.5], [0.5])), r"scenarios\[0\]\.p"),
            (lambda d: d.update(distribution=scenarios([[0.5]], [[0.5]])), r"scenarios\[0\]\.p"),
            (lambda d: d.update(distribution=scenarios([0.5], 0.5)), r"scenarios\[0\]\.p"),
        ],
    )
    def test_malformed_documents_name_the_field(self, mutate, field):
        doc = {k: (v.copy() if isinstance(v, (dict, list)) else v)
               for k, v in VALID_DOC.items()}
        mutate(doc)
        with pytest.raises(ProblemFormatError, match=field):
            problem_from_dict(doc)

    def test_bad_scenarios_rejected(self):
        doc = dict(VALID_DOC)
        doc["distribution"] = {
            "kind": "finite_scenarios",
            "scenarios": [{"omega": [0.0], "p": 0.5}, {"omega": [1.0], "p": 0.4}],
        }
        with pytest.raises(ProblemFormatError, match="scenarios"):
            problem_from_dict(doc)

    def test_load_file_with_overrides(self, tmp_path):
        doc = dict(VALID_DOC)
        doc["solver"] = {"mu0": 0.5, "epsilon": 1e-4}
        doc["sampler"] = {"kind": "halton", "count": 25}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        problem, cfg, spec = load_problem_file(path)
        assert problem.n == 2
        assert cfg == SolverConfig(mu0=0.5, epsilon=1e-4)
        assert spec == SamplerSpec("halton", count=25, dim=1)

    def test_load_file_rejects_unknown_solver_key(self, tmp_path):
        doc = dict(VALID_DOC)
        doc["solver"] = {"step_size": 0.1}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ProblemFormatError, match="step_size"):
            load_problem_file(path)

    def test_load_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ProblemFormatError, match="JSON"):
            load_problem_file(path)

    def test_to_dict_builds_the_dense_stack_once(self, monkeypatch):
        problem = builtin_example("ex4_4", n=300)
        builds = counted_stack_builds(monkeypatch)
        doc = problem_to_dict(problem)
        assert builds == [(2, 300, 300)]
        assert doc["A_base"] == problem.A_base.tolist()
        assert doc["A_terms"] == [t.tolist() for t in problem.A_terms]

    def test_dense_tridiagonal_round_trip_keeps_the_band(self):
        problem = problem_from_dict(scenario_document(np.random.default_rng(4), 250, 5))
        again = problem_from_dict(json.loads(json.dumps(problem_to_dict(problem))))
        assert problem._band is not None
        assert problem._dense is None and again._dense is None
        for name in ("rows", "cols", "row_index", "col_index"):
            assert getattr(again._band, name).tobytes() == getattr(problem._band, name).tobytes()
        assert again._band.lower == problem._band.lower
        assert again._b.tobytes() == problem._b.tobytes()


class TestCase2Documents:
    def test_load(self, tmp_path):
        doc = {"A": [[2.0]], "b_tilde": [1.0], "T": [[1.0]]}
        path = tmp_path / "case2.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        inst = load_case2_file(path)
        assert inst.n == 1

    def test_field_errors(self):
        with pytest.raises(ProblemFormatError, match="b_tilde"):
            case2_from_dict({"A": [[1.0]], "b_tilde": [1.0, 2.0], "T": [[1.0]]})
        with pytest.raises(ProblemFormatError, match="T"):
            case2_from_dict({"A": [[1.0]], "b_tilde": [1.0], "T": [[-1.0]]})
        with pytest.raises(ProblemFormatError, match="unknown"):
            case2_from_dict({"A": [[1.0]], "b_tilde": [1.0], "T": [[1.0]], "c": 1})
        with pytest.raises(ProblemFormatError, match="A must be square"):
            case2_from_dict({"A": [[1.0, 2.0]], "b_tilde": [1.0], "T": [[1.0]]})
        with pytest.raises(ProblemFormatError, match="T must have 1 rows"):
            case2_from_dict({"A": [[1.0]], "b_tilde": [1.0], "T": [[1.0], [1.0]]})
