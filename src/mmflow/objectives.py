"""Training-batch construction and the gradient-modulated loss family.

A batch couples data endpoints x0 with prior endpoints x1, draws a time
pair (r, t), and interpolates x_t = (1 - a) x0 + a x1 with a = (t-r)/(1-r).
The regression target is (x1 - x0)/(t - r) and is always detached.

``loss_lambda`` is the tunable objective: the derivative bracket
d_t u + (grad_x u) target is computed with one forward-mode call (its value
doubles as the field evaluation), wrapped in the partial stop-gradient so
its value never depends on the modulation factor while its gradient scales
linearly with it. ``loss_full`` instead feeds the field's own output back
into the bracket and keeps everything attached, which needs
reverse-over-forward support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import as_tensor, forward_fn, jvp, sg_lambda

__all__ = [
    "MIN_GAP_FLOOR",
    "TimePairConfig",
    "TrainingBatch",
    "ConstantSchedule",
    "WarmupSchedule",
    "schedule_from_dict",
    "sample_time_pairs",
    "interpolate",
    "target_velocity",
    "build_batch",
    "loss_lambda",
    "loss_full",
]

# both denominators (t - r in the target, 1 - r in the interpolation weight)
# are guarded by this floor; below it single rows dominate the batch loss
MIN_GAP_FLOOR = 1e-3


@dataclass(frozen=True)
class TimePairConfig:
    min_gap: float = 1e-3
    r_zero_prob: float = 0.25

    def __post_init__(self):
        if self.min_gap < MIN_GAP_FLOOR:
            raise ValueError(f"min_gap must be >= {MIN_GAP_FLOOR}, got {self.min_gap}")
        if not 0.0 <= self.r_zero_prob <= 1.0:
            raise ValueError("r_zero_prob must lie in [0, 1]")


@dataclass
class TrainingBatch:
    """One training batch: endpoints, time pair, interpolated state.

    ``convention`` records which interpolation weight built x_t:
    "interval_ratio" places x0 at time r (a = (t-r)/(1-r)), "absolute_time"
    places it at time 0 (a = t).
    """

    x0: np.ndarray
    x1: np.ndarray
    r: np.ndarray
    t: np.ndarray
    x_t: np.ndarray
    convention: str = "interval_ratio"

    @property
    def size(self) -> int:
        return self.x0.shape[0]


# ---------------------------------------------------------------------------
# modulation schedules


@dataclass(frozen=True)
class ConstantSchedule:
    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("constant modulation value must lie in [0, 1]")

    def at(self, step: int) -> float:
        return self.value

    def to_dict(self):
        return {"kind": "constant", "value": self.value}


@dataclass(frozen=True)
class WarmupSchedule:
    """Ramps from pure stop-gradient to full propagation over t_warmup steps."""

    t_warmup: int

    def __post_init__(self):
        if self.t_warmup < 1:
            raise ValueError("t_warmup must be a positive integer")

    def at(self, step: int) -> float:
        return min(1.0, step / self.t_warmup)

    def to_dict(self):
        return {"kind": "warmup", "t_warmup": self.t_warmup}


def schedule_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "constant":
        return ConstantSchedule(float(d["value"]))
    if kind == "warmup":
        return WarmupSchedule(int(d["t_warmup"]))
    raise ValueError(f"unknown schedule kind: {kind!r}")


# ---------------------------------------------------------------------------
# time pairs and interpolation


def sample_time_pairs(rng, batch_size: int, cfg: TimePairConfig):
    """Draw (r, t) rows with 0 <= r < t <= 1 honoring the gap floors.

    Each row first decides (with probability r_zero_prob) whether it anchors
    r = 0; anchored rows draw a single uniform t, the rest draw an ordered
    uniform pair. Rows violating t - r >= min_gap or 1 - r >= min_gap are
    redrawn.
    """
    g = cfg.min_gap
    anchored = rng.random(batch_size) < cfg.r_zero_prob
    r = np.zeros(batch_size)
    t = np.zeros(batch_size)

    idx = np.flatnonzero(anchored)
    while idx.size:
        t[idx] = rng.random(idx.size)
        idx = idx[t[idx] < g]

    idx = np.flatnonzero(~anchored)
    while idx.size:
        u = rng.random((idx.size, 2))
        r[idx] = u.min(axis=1)
        t[idx] = u.max(axis=1)
        bad = (t[idx] - r[idx] < g) | (1.0 - r[idx] < g)
        idx = idx[bad]
    return r, t


def interpolate(x0, x1, r, t) -> np.ndarray:
    """x_t = (1 - a) x0 + a x1 with a = (t - r)/(1 - r)."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if np.any(1.0 - r < MIN_GAP_FLOOR):
        raise ValueError(f"interpolate: r too close to 1 (needs 1 - r >= {MIN_GAP_FLOOR})")
    alpha = (t - r) / (1.0 - r)
    return (1.0 - alpha)[..., None] * x0 + alpha[..., None] * x1


def target_velocity(x0, x1, r, t) -> np.ndarray:
    """Regression target (x1 - x0)/(t - r); plain data, never on a tape."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    gap = np.asarray(t, dtype=np.float64) - np.asarray(r, dtype=np.float64)
    if np.any(gap < MIN_GAP_FLOOR):
        raise ValueError(f"target_velocity: needs t - r >= {MIN_GAP_FLOOR}")
    return (x1 - x0) / gap[..., None]


def build_batch(x0, x1, r, t, convention: str = "interval_ratio") -> TrainingBatch:
    """Assemble a TrainingBatch; ``convention`` picks the interpolation weight.

    "interval_ratio" uses a = (t-r)/(1-r); "absolute_time" uses a = t, which
    makes x_t independent of r.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if convention == "interval_ratio":
        x_t = interpolate(x0, x1, r, t)
    elif convention == "absolute_time":
        x_t = (1.0 - t)[..., None] * x0 + t[..., None] * x1
    else:
        raise ValueError(f"unknown interpolation convention: {convention!r}")
    return TrainingBatch(x0=x0, x1=x1, r=r, t=t, x_t=x_t, convention=convention)


# ---------------------------------------------------------------------------
# losses


def _loss_target(batch: TrainingBatch, target_norm: str) -> np.ndarray:
    """Regression target for the modulated loss family.

    "sampled_gap" divides the pair displacement by t - r, the literal
    regression form. "pair_span" divides by 1 - r, the length of the
    interval the pair actually spans under the interpolation weight
    a = (t-r)/(1-r); this keeps target magnitudes bounded when tiny gaps
    are sampled (the two coincide at t = 1). See the demo scripts for the
    collapse mode that motivates the second normalization.
    """
    if target_norm == "sampled_gap":
        return target_velocity(batch.x0, batch.x1, batch.r, batch.t)
    if target_norm == "pair_span":
        if batch.convention == "absolute_time":
            return batch.x1 - batch.x0  # the pair always spans [0, 1]
        span = 1.0 - batch.r
        if np.any(span < MIN_GAP_FLOOR):
            raise ValueError(f"pair_span target needs 1 - r >= {MIN_GAP_FLOOR}")
        return (batch.x1 - batch.x0) / span[:, None]
    raise ValueError(f"unknown target normalization: {target_norm!r}")


def loss_lambda(field, batch: TrainingBatch, lam: float,
                target_norm: str = "sampled_gap"):
    """Mean squared residual of u + (t-r) SG[d_t u + (grad_x u) target] - target.

    One forward-mode call supplies both the field value and the bracket.
    The bracket stays attached to the tape whenever lam > 0 so its share of
    the gradient can flow; at lam = 0 it is a detached constant.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"modulation factor {lam} outside [0, 1]")
    target = _loss_target(batch, target_norm)
    gap = batch.t - batch.r
    u, bracket = jvp(
        forward_fn(field),
        [batch.x_t, batch.r, batch.t],
        [target, np.zeros_like(batch.r), np.ones_like(batch.t)],
        attach=lam > 0.0,
    )
    residual = ad.sub(
        ad.add(u, ad.scale_rows(sg_lambda(bracket, lam), as_tensor(gap))),
        as_tensor(target),
    )
    return ad.div(ad.sum_all(ad.square(residual)), float(batch.size))


def loss_full(field, batch: TrainingBatch, bracket_velocity: str = "field",
              target_norm: str = "sampled_gap"):
    """Fully attached objective with the field itself inside the bracket.

    The bracket is d_t u + (grad_x u) u, so the tangent seed is the field's
    own output and gradients flow through the whole expression; requires the
    engine to differentiate through forward-mode results. With
    ``bracket_velocity="target"`` the seed is the regression target instead,
    which reduces to the modulated loss at full propagation.
    """
    if bracket_velocity not in ("field", "target"):
        raise ValueError(f"unknown bracket velocity source: {bracket_velocity!r}")
    target = _loss_target(batch, target_norm)
    gap = batch.t - batch.r
    fwd = forward_fn(field)
    if bracket_velocity == "field":
        seed = fwd(as_tensor(batch.x_t), as_tensor(batch.r), as_tensor(batch.t))
    else:
        seed = as_tensor(target)
    u, bracket = jvp(
        fwd,
        [batch.x_t, batch.r, batch.t],
        [seed, np.zeros_like(batch.r), np.ones_like(batch.t)],
        attach=True,
    )
    residual = ad.sub(
        ad.add(u, ad.scale_rows(bracket, as_tensor(gap))), as_tensor(target)
    )
    return ad.div(ad.sum_all(ad.square(residual)), float(batch.size))
