"""Closed-form reference flows and the residual calculators built on them.

Two analytic flows are provided: a constant drift and the gradient flow of
the quadratic potential (velocity -x, exponential decay paths). Each knows
its instantaneous velocity and trajectory in closed form as plain numpy,
and its average velocity in closed form as tape operations, so that the
analytic oracle ``OracleField`` can be differentiated with a
Jacobian-vector product. One Simpson rule, ``average_velocity_oracle``,
integrates the velocity along the numpy trajectory over a fixed
``_SIMPSON_INTERVALS`` intervals; it is the independent reference that the
closed forms are checked against.

The residual calculators measure how far a candidate field is from
satisfying the differential identity tying average to instantaneous
velocity (v = u + (t-r) du/dt), the interval-additivity relation across
overlapping sub-intervals, and the shrinking-interval limit u -> v at the
fixed gaps ``_LIMIT_GAPS``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import as_tensor, jvp
from .field_model import CHECKPOINT_FORMAT, CHECKPOINT_VERSION, _check_size, _integer

__all__ = [
    "AnalyticFlow",
    "ConstantFlow",
    "HarmonicFlow",
    "ReferencePath",
    "flow_from_dict",
    "rk4_solve",
    "average_velocity_oracle",
    "average_velocity_field",
    "OracleField",
    "identity_residual",
    "consistency_residual",
    "limit_slope",
]


def _promote(x, r, t):
    """Normalize to x [b, d], r [b], t [b]."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    b = x.shape[0]
    r = np.broadcast_to(np.asarray(r, dtype=np.float64), (b,)).astype(np.float64)
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), (b,)).astype(np.float64)
    return x, r, t


def _rows(x) -> int:
    primal = x.primal if isinstance(x, ad.DualTensor) else x
    return primal.shape[0]


class AnalyticFlow:
    """Base class for closed-form reference dynamics."""

    kind = "abstract"

    def __init__(self, dim: int):
        self.dim = _integer("dim", dim)
        _check_size("dim", self.dim)

    def velocity(self, x, t) -> np.ndarray:
        raise NotImplementedError

    def trajectory(self, x_from, t_from, t_to) -> np.ndarray:
        """State transported from time t_from to t_to (either direction)."""
        raise NotImplementedError

    def average_velocity_op(self, x, r, t):
        """Average velocity over [r, t] at the state x_t, in tape operations."""
        raise NotImplementedError(f"{self.kind} flow has no closed-form average velocity")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}


class ConstantFlow(AnalyticFlow):
    """v(x, t) = c everywhere; trajectories are straight lines."""

    kind = "constant"

    def __init__(self, c):
        if not (isinstance(c, (list, tuple, np.ndarray)) and all(
                isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
                for v in c)):
            raise ValueError(f"c must be a flat sequence of finite real numbers, got {c!r}")
        c = np.array(c, dtype=np.float64)
        super().__init__(len(c))
        self.c = c

    def velocity(self, x, t):
        return np.broadcast_to(self.c, np.shape(x)).copy()

    def trajectory(self, x_from, t_from, t_to):
        x, t0, t1 = _promote(x_from, t_from, t_to)
        out = x + (t1 - t0)[:, None] * self.c
        return out[0] if np.ndim(x_from) == 1 else out

    def average_velocity_op(self, x, r, t):
        return ad.expand_rows(as_tensor(self.c), _rows(x))

    def to_dict(self):
        return {"kind": self.kind, "c": self.c.tolist()}


class HarmonicFlow(AnalyticFlow):
    """Gradient flow of the quadratic bowl: v(x, t) = -x, x(t) = x0 e^{-t}."""

    kind = "harmonic"

    def velocity(self, x, t):
        return -np.asarray(x, dtype=np.float64)

    def trajectory(self, x_from, t_from, t_to):
        x, t0, t1 = _promote(x_from, t_from, t_to)
        out = x * np.exp(t0 - t1)[:, None]
        return out[0] if np.ndim(x_from) == 1 else out

    def average_velocity_op(self, x, r, t):
        # u(x_t, r, t) = x_t (1 - e^{t-r}) / (t - r) = -x_t expm1(g) / g, g = t - r
        return ad.scale_rows(x, ad.neg(_expm1_ratio(ad.sub(t, r))))


# below this |g| the slope of expm1(g)/g comes from its Taylor series:
# (e^g - expm1(g)/g) / g loses about 4e-16/|g| of its digits to cancellation,
# and the series' first dropped term is g^6/5760, about 1e-14 here
_SERIES_BELOW = 2e-2


def _expm1_ratio_value(g: np.ndarray) -> np.ndarray:
    """expm1(g) / g, with its limit 1 at g = 0."""
    return np.divide(np.expm1(g), g, out=np.ones_like(g), where=g != 0.0)


def _expm1_ratio_slope(g: np.ndarray) -> np.ndarray:
    """d/dg expm1(g) / g, with its limit 1/2 at g = 0."""
    series = 0.5 + g * (1 / 3 + g * (1 / 8 + g * (1 / 30 + g * (1 / 144 + g / 840))))
    small = np.abs(g) < _SERIES_BELOW
    safe = np.where(small, 1.0, g)
    return np.where(small, series, (np.exp(safe) - _expm1_ratio_value(safe)) / safe)


def _expm1_ratio(g):
    """Tape op for expm1(g) / g, exact at and near g = 0. Its slope enters
    forward mode as a constant, so the op is differentiable once."""
    return ad._op(
        "expm1_ratio", (g,), _expm1_ratio_value,
        lambda grad, x, y: (grad * _expm1_ratio_slope(x),),
        lambda y, gp, gt: ad.mul(as_tensor(_expm1_ratio_slope(gp.data)), gt),
    )


_FLOWS = {cls.kind: cls for cls in (ConstantFlow, HarmonicFlow)}


def flow_from_dict(d: dict) -> AnalyticFlow:
    """The flow ``to_dict`` wrote: ``kind`` picks the class, built from the
    other entries as keywords. Every value rule is the constructor's, and an
    unknown kind or key raises ``ValueError`` or ``TypeError`` too."""
    fields = {**d}
    kind = fields.pop("kind", None)
    if kind not in tuple(_FLOWS):
        raise ValueError(f"kind must be one of {'|'.join(_FLOWS)}, got {kind!r}")
    return _FLOWS[kind](**fields)


# ---------------------------------------------------------------------------
# reference integrator


@dataclass
class ReferencePath:
    """States sampled on a strictly increasing time grid in [0, 1], indexed
    [node, dim] for one path or [node, sample, dim] for a batch of them."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.states = np.atleast_2d(np.asarray(self.states, dtype=np.float64))
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError(
                f"path has {self.times.shape[0]} times but {self.states.shape[0]} states"
            )
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("path times must be strictly increasing")

    def state_at(self, t) -> np.ndarray:
        """Linear interpolation in t, one ``np.interp`` per state column; t
        may be scalar or array, and leads the shape of the result."""
        t = np.asarray(t, dtype=np.float64)
        lo, hi = self.times[0], self.times[-1]
        if np.any(t < lo - 1e-12) or np.any(t > hi + 1e-12):
            raise ValueError(
                f"query times outside the covered span [{lo}, {hi}]"
            )
        flat = self.states.reshape(self.times.shape[0], -1)
        cols = [np.interp(t, self.times, flat[:, j]) for j in range(flat.shape[1])]
        return np.stack(cols, axis=-1).reshape(*t.shape, *self.states.shape[1:])


def _rk4_step(v_fn, x, ti, h):
    k1 = v_fn(x, ti)
    k2 = v_fn(x + 0.5 * h * k1, ti + 0.5 * h)
    k3 = v_fn(x + 0.5 * h * k2, ti + 0.5 * h)
    k4 = v_fn(x + h * k3, ti + h)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_solve(v_fn, x_start, t_start: float, t_end: float, steps: int) -> ReferencePath:
    """Classical 4th-order Runge-Kutta with a uniform step.

    Integrates dx/dt = v(x, t) for one trajectory from t_start to t_end
    (backward allowed) and returns the path including both endpoints,
    stored in ascending time.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = np.asarray(x_start, dtype=np.float64).reshape(-1)
    h = (t_end - t_start) / steps
    times = [t_start]
    states = [x.copy()]
    for i in range(steps):
        x = _rk4_step(v_fn, x, t_start + i * h, h)
        times.append(t_start + (i + 1) * h)
        states.append(np.asarray(x, dtype=np.float64).reshape(-1))
    times = np.array(times)
    stacked = np.stack(states)
    if h < 0:
        times = times[::-1].copy()
        stacked = stacked[::-1].copy()
    return ReferencePath(times=times, states=stacked)


# ---------------------------------------------------------------------------
# the true average velocity


# intervals of the composite Simpson rule in ``average_velocity_oracle``; even
_SIMPSON_INTERVALS = 200
# gaps t - r at which ``limit_slope`` measures u(x, r, r + gap) against v(x, r)
_LIMIT_GAPS = (1e-2, 1e-3, 1e-4)


def average_velocity_oracle(flow: AnalyticFlow, x_t, r, t) -> np.ndarray:
    """True average velocity over [r, t] at the state x_t.

    Transports x_t backward along the flow and integrates the instantaneous
    velocity with composite Simpson quadrature over ``_SIMPSON_INTERVALS``
    intervals; the (t - r) normalization cancels against the step, so no
    small-gap division occurs.
    """
    x, r_arr, t_arr = _promote(x_t, r, t)
    if np.any(t_arr <= r_arr):
        raise ValueError("average velocity needs t > r")
    n = _SIMPSON_INTERVALS
    coeffs = np.ones(n + 1)
    coeffs[1:-1:2] = 4.0
    coeffs[2:-1:2] = 2.0
    acc = np.zeros_like(x)
    for i in range(n + 1):
        frac = i / n
        tau = (1.0 - frac) * r_arr + frac * t_arr
        xi = flow.trajectory(x, t_arr, tau)
        acc = acc + coeffs[i] * flow.velocity(xi, tau)
    squeeze = np.asarray(x_t).ndim == 1
    out = acc / (3.0 * n)
    return out[0] if squeeze else out


class OracleField:
    """The true average velocity packaged as an evaluable field u(x, r, t):
    the flow's closed form ``average_velocity_op``, which forward mode
    differentiates like any other field."""

    def __init__(self, flow: AnalyticFlow):
        self.flow = flow

    def forward(self, x, r, t):
        return self.flow.average_velocity_op(x, r, t)

    def __call__(self, x, r, t):
        return self.forward(x, r, t)

    def to_dict(self) -> dict:
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "kind": "analytic_oracle",
            "flow": self.flow.to_dict(),
        }


def average_velocity_field(flow: AnalyticFlow) -> OracleField:
    return OracleField(flow)


# ---------------------------------------------------------------------------
# residual calculators


def identity_residual(u_eval, flow: AnalyticFlow, x_t, r, t) -> np.ndarray:
    """Residual of v = u + (t-r) du/dt at (x_t, r, t), batched.

    The total derivative du/dt = d_t u + (grad_x u) v is obtained from a
    single forward-mode call with tangent (v, 0, 1) over (x, r, t).
    """
    x, r_arr, t_arr = _promote(x_t, r, t)
    if np.any(t_arr <= r_arr):
        raise ValueError("identity residual needs t > r")
    v = flow.velocity(x, t_arr)
    u, du = jvp(
        u_eval,
        [x, r_arr, t_arr],
        [v, np.zeros_like(r_arr), np.ones_like(t_arr)],
    )
    gap = (t_arr - r_arr)[:, None]
    return v - (u.data + gap * du.data)


def consistency_residual(u_eval, x_t, r, s, t) -> np.ndarray:
    """Interval-additivity defect across r < s < t.

    The midpoint state is recovered with the field's own inverse update
    x_s = x_t - (t-s) u(x_t, s, t), then the three weighted averages must
    telescope: (t-r) u(x_t,r,t) = (s-r) u(x_s,r,s) + (t-s) u(x_t,s,t).
    """
    x, r_arr, t_arr = _promote(x_t, r, t)
    _, s_arr, _ = _promote(x_t, s, t)
    if np.any(r_arr >= s_arr) or np.any(s_arr >= t_arr):
        raise ValueError("consistency residual needs r < s < t")
    u_ts = u_eval(as_tensor(x), as_tensor(s_arr), as_tensor(t_arr)).data
    x_s = x - (t_arr - s_arr)[:, None] * u_ts
    u_rt = u_eval(as_tensor(x), as_tensor(r_arr), as_tensor(t_arr)).data
    u_rs = u_eval(as_tensor(x_s), as_tensor(r_arr), as_tensor(s_arr)).data
    return (
        (t_arr - r_arr)[:, None] * u_rt
        - (s_arr - r_arr)[:, None] * u_rs
        - (t_arr - s_arr)[:, None] * u_ts
    )


def limit_slope(u_eval, flow: AnalyticFlow, x, r):
    """Shrinking-interval behavior: u(x, r, r+eps) must approach v(x, r).

    Returns (errors, slope) where errors[i] is the mean deviation norm at
    the gap ``_LIMIT_GAPS[i]`` and slope is the fitted log-log rate (1.0
    for a clean first-order approach). When every error is 0 (an exact
    field), the error falls faster than any power of the gap: slope is inf.
    """
    x, r_arr, _ = _promote(x, r, r)
    v = flow.velocity(x, r_arr)
    errors = []
    for eps in _LIMIT_GAPS:
        u = u_eval(as_tensor(x), as_tensor(r_arr), as_tensor(r_arr + eps)).data
        errors.append(float(np.mean(np.linalg.norm(u - v, axis=1))))
    if not any(errors):
        return np.array(errors), math.inf
    slope = float(np.polyfit(np.log(np.asarray(_LIMIT_GAPS)), np.log(np.asarray(errors)), 1)[0])
    return np.array(errors), slope
