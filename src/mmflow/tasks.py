"""Data generators for the three desk-scale tasks.

Couplings differ by task and each task declares its own: the decay-path
task pairs both endpoints of one trajectory (x1 is the decayed, possibly
noise-corrupted image of x0), while the 2D mixture transport and the
point-mass task couple independent draws of the two marginals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field_model import _check_seed, _check_size
from .meanflow_math import ReferencePath

__all__ = [
    "SamplePair",
    "Gmm2dTask",
    "OdeHarmonicTask",
    "PointMassTask",
    "NoReferencePathError",
]


class NoReferencePathError(ValueError):
    """The task has no ground-truth path between its endpoints."""


@dataclass
class SamplePair:
    """One sample's endpoints ([dim]) or a batch's ([sample, dim])."""

    x0: np.ndarray  # data endpoint (time 0)
    x1: np.ndarray  # prior endpoint (time 1)


class Gmm2dTask:
    """Independent coupling of a standard normal prior with a ring mixture."""

    def __init__(self, components: int = 8, ring_radius: float = 4.0,
                 component_std: float = 0.3, seed: int = 0):
        _check_size("components", components)
        if not ring_radius >= 0:
            raise ValueError(f"ring_radius must be >= 0, got {ring_radius}")
        if not component_std >= 0:
            raise ValueError(f"component_std must be >= 0, got {component_std}")
        _check_seed(seed)
        self.components = int(components)
        self.ring_radius = float(ring_radius)
        self.component_std = float(component_std)
        self.seed = int(seed)
        angles = 2.0 * np.pi * np.arange(self.components) / self.components
        self.centers = self.ring_radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)

    @property
    def dim(self) -> int:
        return 2

    def sample_pairs(self, rng, n: int):
        which = rng.integers(0, self.components, size=n)
        x0 = self.centers[which] + self.component_std * rng.standard_normal((n, 2))
        x1 = rng.standard_normal((n, 2))
        return x0, x1

    def reference_path(self, pair: SamplePair, grid_len: int) -> ReferencePath:
        raise NoReferencePathError("no reference path defined for the mixture task")


class OdeHarmonicTask:
    """Endpoint observations of quadratic-potential gradient-flow paths.

    One trajectory per pair: x0 is the state at time 0 and x1 its image at
    time 1 under exponential decay, observed with optional Gaussian noise.
    """

    def __init__(self, dim: int = 2, endpoint_noise_std: float = 0.01, seed: int = 0):
        _check_size("dim", dim)
        if not endpoint_noise_std >= 0:
            raise ValueError(f"endpoint_noise_std must be >= 0, got {endpoint_noise_std}")
        _check_seed(seed)
        self._dim = int(dim)
        self.endpoint_noise_std = float(endpoint_noise_std)
        self.seed = int(seed)

    @property
    def dim(self) -> int:
        return self._dim

    def sample_pairs(self, rng, n: int):
        x0 = rng.standard_normal((n, self._dim))
        eta = rng.standard_normal((n, self._dim))
        x1 = x0 * np.exp(-1.0) + self.endpoint_noise_std * eta
        return x0, x1

    def reference_path(self, pair: SamplePair, grid_len: int) -> ReferencePath:
        if grid_len < 2:
            raise ValueError("grid_len must be >= 2")
        taus = np.linspace(0.0, 1.0, grid_len)
        states = np.multiply.outer(np.exp(-taus), np.asarray(pair.x0))
        return ReferencePath(times=taus, states=states)


class PointMassTask:
    """Move a 2D point mass from a standard-normal start to a target blob."""

    def __init__(self, target_mean=(3.0, 0.0), target_std: float = 0.25, seed: int = 0):
        mean = np.asarray(target_mean, dtype=np.float64).reshape(-1)
        if mean.shape[0] != 2 or not np.isfinite(mean).all():
            raise ValueError(f"target_mean must be a finite 2-vector, got {mean.tolist()!r}")
        if not target_std >= 0:
            raise ValueError(f"target_std must be >= 0, got {target_std}")
        _check_seed(seed)
        self.target_mean = mean
        self.target_std = float(target_std)
        self.seed = int(seed)

    @property
    def dim(self) -> int:
        return 2

    def sample_pairs(self, rng, n: int):
        x0 = self.target_mean + self.target_std * rng.standard_normal((n, 2))
        x1 = rng.standard_normal((n, 2))
        return x0, x1

    def reference_path(self, pair: SamplePair, grid_len: int) -> ReferencePath:
        # no dynamics are imposed, so the minimum-effort constant-velocity
        # straight line is the ground truth
        if grid_len < 2:
            raise ValueError("grid_len must be >= 2")
        taus = np.linspace(0.0, 1.0, grid_len)
        x0 = np.asarray(pair.x0)
        x1 = np.asarray(pair.x1)
        states = x0 + np.multiply.outer(taus, x1 - x0)
        return ReferencePath(times=taus, states=states)

