"""Training-batch construction and the gradient-modulated loss family.

A batch couples data endpoints x0 with prior endpoints x1, draws a time
pair (r, t), and interpolates x_t = (1 - a) x0 + a x1 with a = (t-r)/(1-r).
The regression target is (x1 - x0)/(t - r) and is always detached.

``loss_lambda`` is the tunable objective: the derivative bracket
d_t u + (grad_x u) target is computed with one forward-mode call (its value
doubles as the field evaluation) and enters the loss under the partial
stop-gradient, so its value never depends on the modulation factor while
its gradient scales linearly with it. The residual and its mean square are
one tape node. ``loss_full`` instead feeds the field's own output back
into the bracket and keeps everything attached, which needs
reverse-over-forward support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, as_tensor, jvp
from .field_model import _integer, _number

__all__ = [
    "MIN_GAP_FLOOR",
    "MIN_GAP_CEILING",
    "TimePairConfig",
    "TrainingBatch",
    "ConstantSchedule",
    "WarmupSchedule",
    "sample_time_pairs",
    "target_velocity",
    "build_batch",
    "loss_lambda",
    "loss_full",
]

# both denominators (t - r in the target, 1 - r in the interpolation weight)
# are guarded by this floor; below it single rows dominate the batch loss
MIN_GAP_FLOOR = 1e-3
# a free row is kept with probability (1 - min_gap)^2, so at this ceiling
# ``sample_time_pairs`` draws each row at most 4 times in expectation
MIN_GAP_CEILING = 0.5


@dataclass(frozen=True)
class TimePairConfig:
    min_gap: float = 1e-3
    r_zero_prob: float = 0.25

    def __post_init__(self):
        object.__setattr__(self, "min_gap",
                           _number("min_gap", self.min_gap, MIN_GAP_FLOOR, MIN_GAP_CEILING))
        object.__setattr__(self, "r_zero_prob", _number("r_zero_prob", self.r_zero_prob, 0.0, 1.0))


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
        object.__setattr__(self, "value", _number("value", self.value, 0.0, 1.0))

    def at(self, step: int) -> float:
        return self.value


@dataclass(frozen=True)
class WarmupSchedule:
    """Ramps from pure stop-gradient to full propagation over t_warmup steps."""

    t_warmup: int

    def __post_init__(self):
        object.__setattr__(self, "t_warmup", _integer("t_warmup", self.t_warmup))
        if not self.t_warmup >= 1:
            raise ValueError(f"t_warmup must be >= 1, got {self.t_warmup}")

    def at(self, step: int) -> float:
        return min(1.0, step / self.t_warmup)


# ---------------------------------------------------------------------------
# time pairs, targets and batches


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

    idx = anchored.nonzero()[0]
    while idx.size:
        draw = rng.random(idx.size)
        t[idx] = draw
        idx = idx[draw < g]

    idx = (~anchored).nonzero()[0]
    while idx.size:
        u = rng.random((idx.size, 2))
        lo = np.minimum(u[:, 0], u[:, 1])
        hi = np.maximum(u[:, 0], u[:, 1])
        r[idx] = lo
        t[idx] = hi
        idx = idx[(hi - lo < g) | (1.0 - lo < g)]
    return r, t


def target_velocity(x0, x1, r, t) -> np.ndarray:
    """Regression target (x1 - x0)/(t - r); plain data, never on a tape."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    gap = np.asarray(t, dtype=np.float64) - np.asarray(r, dtype=np.float64)
    if np.any(gap < MIN_GAP_FLOOR):
        raise ValueError(f"target_velocity: needs t - r >= {MIN_GAP_FLOOR}")
    return (x1 - x0) / gap[..., None]


def build_batch(x0, x1, r, t, convention: str = "interval_ratio") -> TrainingBatch:
    """Assemble a TrainingBatch with x_t = (1 - a) x0 + a x1, where
    ``convention`` picks the interpolation weight a.

    "interval_ratio" uses a = (t-r)/(1-r) and needs 1 - r >= ``MIN_GAP_FLOOR``;
    "absolute_time" uses a = t, which makes x_t independent of r.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if convention == "interval_ratio":
        if np.any(1.0 - r < MIN_GAP_FLOOR):
            raise ValueError(f"interpolation: r too close to 1 (needs 1 - r >= {MIN_GAP_FLOOR})")
        a = (t - r) / (1.0 - r)
    elif convention == "absolute_time":
        a = t
    else:
        raise ValueError(f"unknown interpolation convention: {convention!r}")
    x_t = (1.0 - a)[..., None] * x0 + a[..., None] * x1
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


def _residual_loss(u, bracket, gap: np.ndarray, target: np.ndarray, lam: float):
    """Mean squared residual ``|u + gap * bracket - target|^2 / b`` as one
    tape node over ``u`` and ``bracket``, the adjoint into ``bracket``
    scaled by ``lam``.

    It rounds like the generic tape-op chain it replaced, which the tests
    keep as its oracle (``scale_rows`` of the ``sg_lambda``-wrapped bracket,
    ``add``, ``sub``, ``square``, ``sum_all``, ``div``): the residual is
    ``(u + bracket * gap) - target`` and the value
    ``sum(res^2) / b``; the adjoints are ``gu = (2 res) * (g / b)`` and
    ``gdu = (gu * gap) * lam``, the last product skipped at ``lam = 1``.
    """
    b = float(u.shape[0])
    res = bracket.data * gap[:, None]
    res += u.data
    res -= target
    out = Tensor._wrap(np.asarray(np.square(res).sum() / b))

    def bwd(g):
        gu = 2.0 * res
        gu *= g / b
        if lam == 0.0:
            return gu, None
        gdu = gu * gap[:, None]
        if lam != 1.0:
            gdu *= lam
        return gu, gdu

    return ad._emit("residual_loss", out, (u, bracket), bwd)


def loss_lambda(field, batch: TrainingBatch, lam: float,
                target_norm: str = "sampled_gap"):
    """Mean squared residual of u + (t-r) SG[d_t u + (grad_x u) target] - target.

    One forward-mode call supplies both the field value and the bracket,
    and the residual and its square mean are one tape node after it. The
    bracket stays attached to the tape whenever lam > 0 so its share of
    the gradient (scaled by lam) can flow; at lam = 0 it is a detached
    constant.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"modulation factor {lam} outside [0, 1]")
    target = _loss_target(batch, target_norm)
    u, bracket = jvp(
        field,
        [batch.x_t, batch.r, batch.t],
        [target, None, np.ones_like(batch.t)],
        attach=lam > 0.0,
    )
    return _residual_loss(u, bracket, batch.t - batch.r, target, lam)


def loss_full(field, batch: TrainingBatch, target_norm: str = "sampled_gap"):
    """Fully attached objective with the field itself inside the bracket.

    The bracket is d_t u + (grad_x u) u, so the tangent seed is the field's
    own output and gradients flow through the whole expression; requires the
    engine to differentiate through forward-mode results. Seeding the
    regression target instead would be ``loss_lambda`` at ``lam = 1``.
    """
    target = _loss_target(batch, target_norm)
    seed = field(as_tensor(batch.x_t), as_tensor(batch.r), as_tensor(batch.t))
    u, bracket = jvp(
        field,
        [batch.x_t, batch.r, batch.t],
        [seed, np.zeros_like(batch.r), np.ones_like(batch.t)],
        attach=True,
    )
    return _residual_loss(u, bracket, batch.t - batch.r, target, 1.0)
