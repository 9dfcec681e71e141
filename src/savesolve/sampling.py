"""Observation-set generation for the sample-average objective.

Three sampler kinds: seeded pseudorandom uniforms on [0,1]^m, deterministic
Halton low-discrepancy points (first m primes as bases, indices starting at
offset + 1), and passthrough of a problem's finite scenarios with their
probability weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FiniteScenarios, SampleSet, StochasticProblem, UniformBox, _check_int

__all__ = ["SamplerSpec", "generate", "halton_points", "radical_inverse"]

KINDS = ("pseudorandom", "halton", "scenarios")
DEFAULT_COUNT = 100  # sample count when neither a flag nor a file gives one


@dataclass(frozen=True)
class SamplerSpec:
    """How to draw the observation set: kind, point count and dimension.

    seed applies to pseudorandom draws, offset shifts the Halton index origin.
    For the scenarios kind the count is ignored; every scenario is emitted.
    """

    kind: str
    count: int = 1
    dim: int = 1
    seed: int = 0
    offset: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}; use one of {KINDS}")
        _check_int(self.count, "count", 1)
        _check_int(self.dim, "dim", 0)
        _check_int(self.seed, "seed", 0)
        if self.seed >= 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        _check_int(self.offset, "offset", 0)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _first_primes(k: int) -> list[int]:
    primes: list[int] = []
    c = 2
    while len(primes) < k:
        if _is_prime(c):
            primes.append(c)
        c += 1
    return primes


def radical_inverse(index: int, base: int) -> float:
    """Digit reversal of index in the given prime base, a value in [0, 1)."""
    index = int(index)
    if index < 0:
        raise ValueError("index must be nonnegative")
    base = int(base)
    if not _is_prime(base):
        raise ValueError(f"base must be a prime >= 2, got {base}")
    f = 1.0
    r = 0.0
    while index > 0:
        index, digit = divmod(index, base)
        f /= base
        r += f * digit
    return r


def halton_points(count: int, dim: int, offset: int = 0) -> np.ndarray:
    """First `count` Halton points in [0,1)^dim, starting at index offset + 1.

    Successive calls with growing count share a prefix, so nested observation
    sets are the leading rows of a larger set.
    """
    bases = _first_primes(dim)
    out = np.empty((count, dim))
    for j, base in enumerate(bases):
        out[:, j] = [radical_inverse(offset + 1 + i, base) for i in range(count)]
    return out


def generate(spec: SamplerSpec, problem: StochasticProblem) -> SampleSet:
    """Generate the observation set described by spec for the given problem.

    Pseudorandom output is bit-reproducible from (seed, count, dim); Halton
    output is fully deterministic.  The scenarios kind requires a finite
    distribution and emits every scenario with weight count * p_i; box
    samplers require the uniform distribution, since their points would fall
    outside a finite support.
    """
    if spec.dim != problem.m:
        raise ValueError(
            f"sampler dimension {spec.dim} does not match problem dimension {problem.m}"
        )
    dist = problem.distribution
    if spec.kind == "scenarios":
        if not isinstance(dist, FiniteScenarios):
            raise ValueError("scenario sampling requires a finite-scenario problem")
        return SampleSet(dist.omegas.copy(), dist.count * dist.probs)
    if not isinstance(dist, UniformBox):
        raise ValueError(
            f"{spec.kind!r} sampling draws from [0,1]^m and requires a "
            "uniform-box problem; use the scenarios kind instead"
        )
    if spec.kind == "pseudorandom":
        rng = np.random.default_rng(spec.seed)
        points = rng.random((spec.count, spec.dim))
    else:
        points = halton_points(spec.count, spec.dim, spec.offset)
    return SampleSet(points, np.ones(spec.count))
