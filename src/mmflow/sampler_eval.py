"""One-step and few-step sampling via the inverse update, plus the
trajectory-quality diagnostics: time-aligned path deviation against a
ground-truth path, discrete-curvature smoothness, one-step reconstruction
error, and an exact two-sample energy distance standing in for a learned
perceptual metric at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import as_tensor, forward_fn
from .field_model import write_atomic

__all__ = [
    "SamplePath",
    "SamplePathSet",
    "one_step_sample",
    "few_step_sample",
    "path_deviation",
    "smoothness",
    "one_step_mse",
    "energy_distance",
]


@dataclass
class SamplePath:
    """A single generation trajectory on a descending grid from 1 to 0."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.states = np.asarray(self.states, dtype=np.float64)
        if self.times[0] != 1.0 or self.times[-1] != 0.0:
            raise ValueError("sample path must run from t=1 down to t=0")
        if np.any(np.diff(self.times) >= 0):
            raise ValueError("sample path times must be strictly decreasing")
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("one state row per time node required")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def write_csv(self, path):
        def write(fh):
            fh.write(",".join(["t"] + [f"x{j}" for j in range(self.dim)]) + "\n")
            for ti, row in zip(self.times, self.states):
                fh.write(",".join([f"{ti:.17g}"] + [f"{v:.17g}" for v in row]) + "\n")

        write_atomic(path, write)


@dataclass
class SamplePathSet:
    """Trajectories for a whole batch: states indexed [node, sample, dim]."""

    times: np.ndarray
    states: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.states.shape[1]

    @property
    def endpoints(self) -> np.ndarray:
        return self.states[-1]

    def path(self, i: int) -> SamplePath:
        return SamplePath(times=self.times.copy(), states=self.states[:, i, :].copy())


def one_step_sample(field, x1) -> np.ndarray:
    """x0 = x1 - u(x1, 0, 1); exactly one field evaluation for the batch."""
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    b = x1.shape[0]
    u = forward_fn(field)(as_tensor(x1), as_tensor(np.zeros(b)), as_tensor(np.ones(b))).data
    return x1 - u


def few_step_sample(field, x1, n_steps: int) -> SamplePathSet:
    """Recursive inverse updates down a uniform grid from t=1 to t=0.

    With a single step this reproduces ``one_step_sample`` bit for bit.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    x = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    b = x.shape[0]
    times = np.linspace(1.0, 0.0, n_steps + 1)
    states = [x.copy()]
    fn = forward_fn(field)
    for k in range(n_steps):
        t_hi, t_lo = times[k], times[k + 1]
        u = fn(as_tensor(x), as_tensor(np.full(b, t_lo)), as_tensor(np.full(b, t_hi))).data
        x = x - (t_hi - t_lo) * u
        states.append(x.copy())
    return SamplePathSet(times=times, states=np.stack(states))


def path_deviation(path: SamplePath, reference) -> float:
    """Mean squared distance to the reference state at matching times.

    The reference is linearly interpolated in t and must span the path.
    """
    ref_states = reference.state_at(path.times)
    diff = path.states - ref_states
    return float(np.mean(np.sum(diff * diff, axis=1)))


def smoothness(path) -> float:
    """Mean squared second difference normalized by the squared mean step.

    Zero exactly on straight-line trajectories; grows with discrete
    curvature. Needs at least three nodes.
    """
    states = np.asarray(path.states, dtype=np.float64)
    times = np.asarray(path.times, dtype=np.float64)
    if states.shape[0] < 3:
        raise ValueError("smoothness needs a path with at least 3 nodes")
    second = states[2:] - 2.0 * states[1:-1] + states[:-2]
    mean_step = float(np.mean(np.abs(np.diff(times))))
    return float(np.mean(np.sum(second * second, axis=1)) / mean_step**2)


def one_step_mse(field, task, n_samples: int, rng) -> float:
    """Mean squared one-step reconstruction error on fresh task pairs."""
    x0, x1 = task.sample_pairs(rng, n_samples)
    x0_hat = one_step_sample(field, x1)
    diff = x0_hat - x0
    return float(np.mean(np.sum(diff * diff, axis=1)))


def _mean_pairwise_distance(a: np.ndarray, b: np.ndarray, chunk: int = 256) -> float:
    """Mean Euclidean distance over all (row of a, row of b) pairs.

    For each block of ``chunk`` rows of ``a`` the squared distances to every
    row of ``b`` are built one coordinate at a time in two ``[chunk, n_b]``
    buffers: coordinate 0 squared, then each further coordinate's square
    added in place, then one in-place sqrt and one sum. The additions run in
    the order of a sum over the coordinate axis, so the value is the one the
    ``[chunk, n_b, d]`` difference tensor would give (bitwise for d < 8),
    without the 3-D temporaries.
    """
    n_a, d = a.shape
    n_b = b.shape[0]
    # one allocation for both buffers: at 2048 columns it is large enough for
    # malloc to map it and unmap it on free, where two halves can stay
    # resident in the heap and raise the peak RSS of the caller
    dist, term = np.empty((2, min(chunk, n_a), n_b))
    total = 0.0
    for i in range(0, n_a, chunk):
        blk = a[i:i + chunk]
        acc, tmp = dist[:len(blk)], term[:len(blk)]
        np.subtract.outer(blk[:, 0], b[:, 0], out=acc)
        np.multiply(acc, acc, out=acc)
        for j in range(1, d):
            np.subtract.outer(blk[:, j], b[:, j], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            acc += tmp
        np.sqrt(acc, out=acc)
        total += float(np.sum(acc))
    return total / (n_a * n_b)


def energy_distance(a, b) -> float:
    """2 E|A-B| - E|A-A'| - E|B-B'| with exact pairwise sums.

    All pairs enter the within-sample means (including the zero diagonal),
    so identical point sets give exactly zero. A 1-D set is n scalar
    samples, an [n, 1] column.
    """
    a, b = (np.asarray(x, dtype=np.float64) for x in (a, b))
    a, b = (x.reshape(-1, 1) if x.ndim < 2 else x for x in (a, b))
    for name, x in (("a", a), ("b", b)):
        if x.size == 0:
            raise ValueError(f"energy_distance: {name} is empty (shape {x.shape})")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    ab = _mean_pairwise_distance(a, b)
    aa = _mean_pairwise_distance(a, a)
    bb = _mean_pairwise_distance(b, b)
    return 2.0 * ab - aa - bb
