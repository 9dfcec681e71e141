"""Observation-set generation for the sample-average objective.

Three sampler kinds: seeded pseudorandom uniforms on [0,1]^m, deterministic
Halton low-discrepancy points (first m primes as bases, indices starting at
offset + 1), and passthrough of a problem's finite scenarios with their
probability weights.

A Halton coordinate is the digit reversal of an int64 index, so every index
must stay below 2**63.  The low L digits of the whole index array come from
one table lookup: the table holds the reversal's partial sums over one period
P = base**L, built level by level in the order the digit loop adds them, so a
lookup equals that loop bit for bit.  P is capped at twice the index count
and at _TABLE_ENTRIES, so the table stays small whatever the indices' count
or magnitude; digits above P are reversed one at a time.  halton_points
fills _CHUNK_ROWS rows at a time from one table per column.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import _CHUNK_ROWS, FiniteScenarios, SampleSet, StochasticProblem, UniformBox
from .core import _check_int

__all__ = ["SamplerSpec", "generate", "halton_points"]

# the SamplerSpec fields each kind reads; generate ignores the others
READS = {
    "pseudorandom": ("count", "dim", "seed"),
    "halton": ("count", "dim", "offset"),
    "scenarios": ("dim",),
}
# the table's entry cap, 1 MB: at N = 2**22, m = 3 a 2 * count table took
# generate's peak to 209 MiB against 129, a 16384-entry one 37% more time
# (one core of a 2-vCPU Xeon)
_TABLE_ENTRIES = 2**17


@dataclass(frozen=True)
class SamplerSpec:
    """How to draw the observation set: kind, point count and dimension.

    seed applies to pseudorandom draws, offset shifts the Halton index origin;
    READS lists the fields each kind reads (scenarios emits every scenario,
    whatever the count), though every field is checked whatever the kind.
    The field defaults are the run defaults: the command line and a problem
    file's sampler block only overlay the fields they set.
    """

    kind: str = "halton"
    count: int = 100
    dim: int = 1
    seed: int = 0
    offset: int = 0

    def __post_init__(self):
        if self.kind not in READS:
            raise ValueError(f"unknown sampler kind {self.kind!r}; use one of {tuple(READS)}")
        _check_int(self.count, "count", 1)
        _check_int(self.dim, "dim", 0)
        _check_int(self.seed, "seed", 0)
        if self.seed >= 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        _check_int(self.offset, "offset", 0)


def _first_primes(k: int) -> list[int]:
    primes = (p for p in itertools.count(2) if all(p % d for d in range(2, math.isqrt(p) + 1)))
    return list(itertools.islice(primes, k))


def _digit_reversal(base: int, top: int, size: int):
    """Digit reversal of int64 arrays in [0, top] as a function of an array
    and its largest entry, with one table for about size indices in all."""
    # level j holds the loop's sum after j digits for every c < base**j:
    # entry t * base**(j-1) + lo is level j-1's entry lo plus f_j * t
    table, f, period = np.zeros(1), 1.0, 1
    while period <= top and period * base <= min(2 * size, _TABLE_ENTRIES):
        f /= base
        table = (table + f * np.arange(base, dtype=float)[:, None]).ravel()
        period *= base

    def reverse(idx: np.ndarray, last: int) -> np.ndarray:
        idx, low = np.divmod(idx, period)
        r, g, high = table[low], f, last // period
        while high:
            idx, digit = np.divmod(idx, base)
            g /= base
            r += g * digit
            high //= base
        # above 2**53 the digit sum can round up to 1.0: keep the point in [0, 1)
        return np.minimum(r, np.nextafter(1.0, 0.0))

    return reverse


def _last_index(count: int, offset: int) -> int:
    """offset + count, the last index of a Halton set, refused from 2**63 on."""
    # as Python ints, since an int64 sum would wrap past the bound
    top = int(offset) + int(count)
    if top >= 2**63:
        raise ValueError(f"offset + count must be below 2**63, got offset {offset}")
    return top


def halton_points(count: int, dim: int, offset: int = 0) -> np.ndarray:
    """First `count` Halton points in [0,1)^dim, starting at index offset + 1.

    Successive calls with growing count share a prefix, so nested observation
    sets are the leading rows of a larger set.  offset + count must be below 2**63.
    """
    _check_int(count, "count", 0)
    _check_int(dim, "dim", 0)
    _check_int(offset, "offset", 0)
    top = _last_index(count, offset)
    out = np.empty((count, dim))  # first, so a count that cannot be held fails at once
    for j, base in enumerate(_first_primes(dim)):
        reverse = _digit_reversal(base, top, count)
        for s in range(0, count, _CHUNK_ROWS):
            # int(offset): a numpy uint64 offset would promote the indices to float64
            index = np.arange(s, min(s + _CHUNK_ROWS, count)) + int(offset) + 1
            out[s:s + _CHUNK_ROWS, j] = reverse(index, int(index[-1]))
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
