"""One-step and few-step sampling via the inverse update, plus the
trajectory-quality diagnostics: time-aligned path deviation against a
ground-truth path, discrete-curvature smoothness, one-step reconstruction
error, and an exact two-sample energy distance standing in for a learned
perceptual metric at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import as_tensor

__all__ = [
    "SamplePathSet",
    "one_step_sample",
    "few_step_sample",
    "path_deviation",
    "smoothness",
    "one_step_mse",
    "energy_distance",
]


@dataclass
class SamplePathSet:
    """Sampled trajectories on a descending grid from t=1 to t=0, states
    indexed [node, sample, dim]."""

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
    def endpoints(self) -> np.ndarray:
        return self.states[-1]

    def path(self, i: int) -> SamplePathSet:
        return SamplePathSet(times=self.times.copy(), states=self.states[:, i:i + 1].copy())


def one_step_sample(field, x1) -> np.ndarray:
    """x0 = x1 - u(x1, 0, 1); exactly one field evaluation for the batch."""
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    b = x1.shape[0]
    u = field(as_tensor(x1), as_tensor(np.zeros(b)), as_tensor(np.ones(b))).data
    return x1 - u


def few_step_sample(field, x1, n_steps: int) -> SamplePathSet:
    """Recursive inverse updates down a uniform grid from t=1 to t=0.

    With a single step this reproduces ``one_step_sample`` bit for bit.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    b = x1.shape[0]
    times = np.linspace(1.0, 0.0, n_steps + 1)
    states = np.empty((n_steps + 1, *x1.shape))
    states[0] = x1
    for k in range(n_steps):
        t_hi, t_lo = times[k], times[k + 1]
        x = states[k]
        u = field(as_tensor(x), as_tensor(np.full(b, t_lo)), as_tensor(np.full(b, t_hi))).data
        np.subtract(x, (t_hi - t_lo) * u, out=states[k + 1])
    return SamplePathSet(times=times, states=states)


def path_deviation(paths, reference) -> np.ndarray:
    """Per sample, the mean squared distance to the reference state at
    matching times. The reference is linearly interpolated in t, must span
    the path and holds one path for all samples or one per sample. Each
    sample's terms are reduced as one contiguous row, so its value is bit
    for bit the one it gives alone.
    """
    nodes, dim = paths.states.shape[0], paths.states.shape[-1]
    ref_states = reference.state_at(paths.times).reshape(nodes, -1, dim)
    diff = np.ascontiguousarray(np.moveaxis(paths.states - ref_states, 1, 0))
    return np.mean(np.sum(diff * diff, axis=-1), axis=-1)


def smoothness(paths) -> np.ndarray:
    """Per sample, the mean squared second difference normalized by the
    squared mean step, reduced as in ``path_deviation``.

    Zero exactly on straight-line trajectories; grows with discrete
    curvature. Needs at least three nodes.
    """
    if paths.times.shape[0] < 3:
        raise ValueError("smoothness needs a path with at least 3 nodes")
    states = np.ascontiguousarray(np.moveaxis(paths.states, 0, -2))  # [sample, node, dim]
    second = states[..., 2:, :] - 2.0 * states[..., 1:-1, :] + states[..., :-2, :]
    mean_step = float(np.mean(np.abs(np.diff(paths.times))))
    return np.mean(np.sum(second * second, axis=-1), axis=-1) / mean_step**2


def one_step_mse(field, task, n_samples: int, rng) -> float:
    """Mean squared one-step reconstruction error on fresh task pairs."""
    x0, x1 = task.sample_pairs(rng, n_samples)
    x0_hat = one_step_sample(field, x1)
    diff = x0_hat - x0
    return float(np.mean(np.sum(diff * diff, axis=1)))


def _mean_pairwise_distance(a: np.ndarray, b: np.ndarray, chunk: int = 256,
                            rows: int = 32) -> float:
    """Mean Euclidean distance over all (row of a, row of b) pairs.

    The squared distances from each block of ``chunk`` rows of ``a`` to
    every row of ``b`` are built in a ``[chunk, n_b]`` buffer, ``rows`` rows
    at a time so that the rows being filled stay in cache: for each
    coordinate, ``b``'s column is copied into the rows, ``a``'s is
    subtracted in place and the result squared (``(b-a)²`` is ``(a-b)²``
    bit for bit) and added to the previous coordinates'. One in-place sqrt
    follows, and one sum per block. The additions run in the order of a sum
    over the coordinate axis, so the value is the one the
    ``[chunk, n_b, d]`` difference tensor would give (bitwise for d < 8),
    without the 3-D temporaries.
    """
    n_a, d = a.shape
    n_b = b.shape[0]
    block_rows = min(chunk, n_a)
    # one allocation for the block, the scratch rows and b's columns as
    # rows: at 2048 columns it is large enough for malloc to map it and
    # unmap it on free, where separate buffers can stay resident in the heap
    # and raise the peak RSS of the caller
    buf = np.empty((block_rows + min(rows, n_a) + d, n_b))
    dist, term, b_cols = buf[:block_rows], buf[block_rows:-d], buf[-d:]
    b_cols[:] = b.T
    total = 0.0
    for i in range(0, n_a, chunk):
        blk = a[i:i + chunk]
        for k in range(0, len(blk), rows):
            part = blk[k:k + rows]
            acc, tmp = dist[k:k + len(part)], term[:len(part)]
            acc[:] = b_cols[0]
            acc -= part[:, :1]
            acc *= acc
            for j in range(1, d):
                tmp[:] = b_cols[j]
                tmp -= part[:, j:j + 1]
                tmp *= tmp
                acc += tmp
            np.sqrt(acc, out=acc)
        total += float(np.sum(dist[:len(blk)]))
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
