"""Helpers shared by the test modules."""

import numpy as np

from savesolve import core


def scalar_trial(ray, alpha, mu):
    """f(x + alpha d, mu) along a line-search ray, one trial on its own: the
    route's value formula over a block of one, at the lifted rows
    Y + alpha Q and the point x + alpha d, the oracle a block's rows are
    checked against."""
    return ray.value((ray.Y + alpha * ray.Q)[None], (ray.x + alpha * ray.d)[None], mu)[0]


def scenario_document(rng, n, k):
    """A tridiagonal base and a diagonal term over k finite scenarios, the
    shape of the benchmark's generated ev_scenarios problems."""
    A0 = np.diag(rng.uniform(3.0, 5.0, n)) + np.diag(rng.uniform(0.5, 1.5, n - 1), 1)
    A0 += np.diag(rng.uniform(0.5, 1.5, n - 1), -1)
    probs = rng.uniform(0.5, 1.5, k)
    return {
        "n": n, "m": 1,
        "A_base": A0.tolist(), "A_terms": [np.diag(rng.uniform(0.5, 1.5, n)).tolist()],
        "b_base": rng.uniform(-1.0, 1.0, n).tolist(), "b_terms": [np.ones(n).tolist()],
        "distribution": {
            "kind": "finite_scenarios",
            "scenarios": [{"omega": [float(w)], "p": float(p)}
                          for w, p in zip(rng.uniform(0.0, 2.0, k), probs / probs.sum())],
        },
    }


def counted_stack_builds(monkeypatch):
    """The shapes of the dense stacks core._stack_of builds from here on,
    appended to the returned list as they are built."""
    shapes = []
    build = core._stack_of

    def counted(count, n, diagonals):
        shapes.append((count, n, n))
        return build(count, n, diagonals)

    monkeypatch.setattr(core, "_stack_of", counted)
    return shapes
