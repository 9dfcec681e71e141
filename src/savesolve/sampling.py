"""Observation-set generation for the sample-average objective.

Three sampler kinds: seeded pseudorandom uniforms on [0,1]^m, deterministic
Halton low-discrepancy points (first m primes as bases, indices starting at
offset + 1), and passthrough of a problem's finite scenarios with their
probability weights.

A Halton coordinate is the digit reversal of an int64 index, so every index
must stay below 2**63.  The low L digits of the whole index array come from
one table lookup: the table holds the reversal's partial sums over one period
P = base**L, built level by level in the order the digit loop adds them, so a
lookup equals that loop bit for bit.  P is capped at twice the index count,
so the table's memory follows the number of indices, never their magnitude;
any digits above P are reversed one digit at a time over the index array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import FiniteScenarios, SampleSet, StochasticProblem, UniformBox, _check_int

__all__ = ["SamplerSpec", "generate", "halton_points", "radical_inverse"]

KINDS = ("pseudorandom", "halton", "scenarios")


@dataclass(frozen=True)
class SamplerSpec:
    """How to draw the observation set: kind, point count and dimension.

    seed applies to pseudorandom draws, offset shifts the Halton index origin.
    For the scenarios kind the count is ignored; every scenario is emitted.
    The field defaults are the run defaults: the command line and a problem
    file's sampler block only overlay the fields they set.
    """

    kind: str = "halton"
    count: int = 100
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
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _first_primes(k: int) -> list[int]:
    return list(itertools.islice(filter(_is_prime, itertools.count(2)), k))


def _reverse_digits(idx: np.ndarray, base: int, top: int) -> np.ndarray:
    """Digit reversal of an int64 array whose entries lie in [0, top]."""
    # level j holds the loop's sum after j digits for every c < base**j:
    # entry t * base**(j-1) + lo is level j-1's entry lo plus f_j * t
    table, f, period = np.zeros(1), 1.0, 1
    while period <= top and period * base <= 2 * idx.size:
        f /= base
        table = (table + f * np.arange(base, dtype=float)[:, None]).ravel()
        period *= base
    if top < period:
        r = table[idx]
    else:
        idx, low = np.divmod(idx, period)
        r = table[low]
        top //= period
        while top:
            idx, digit = np.divmod(idx, base)
            f /= base
            r += f * digit
            top //= base
    # above 2**53 the digit sum can round up to 1.0: keep the point in [0, 1)
    return np.minimum(r, np.nextafter(1.0, 0.0))


def radical_inverse(index: int | np.ndarray, base: int) -> float | np.ndarray:
    """Digit reversal of index in the given prime base, a value in [0, 1).

    index is a nonnegative integer below 2**63 or an array of them; an array
    gives a float array of the same shape, a scalar a float.  The partial-sum
    table holds at most 2 * index.size entries, whatever the index values.
    """
    idx = np.asarray(index)
    if idx.dtype.kind not in "iu" or idx.size and not 0 <= idx.min() <= idx.max() < 2**63:
        raise ValueError(f"index must be an integer in [0, 2**63), got {index!r}")
    # the prime check carries the base >= 2 bound
    _check_int(base, "base", 0)
    if not _is_prime(base):
        raise ValueError(f"base must be a prime >= 2, got {base}")
    r = _reverse_digits(idx.astype(np.int64), base, int(idx.max()) if idx.size else 0)
    return float(r) if r.ndim == 0 else r


def halton_points(count: int, dim: int, offset: int = 0) -> np.ndarray:
    """First `count` Halton points in [0,1)^dim, starting at index offset + 1.

    Successive calls with growing count share a prefix, so nested observation
    sets are the leading rows of a larger set.  offset + count must be below 2**63.
    """
    _check_int(count, "count", 0)
    _check_int(dim, "dim", 0)
    _check_int(offset, "offset", 0)
    # as Python ints, since an int64 sum would wrap past the bound
    top = int(offset) + int(count)
    if top >= 2**63:
        raise ValueError(f"offset + count must be below 2**63, got offset {offset}")
    # int(offset): a numpy uint64 offset would promote the indices to float64
    index = np.arange(count) + int(offset) + 1
    out = np.empty((count, dim))
    for j, base in enumerate(_first_primes(dim)):
        out[:, j] = _reverse_digits(index, base, top)
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
