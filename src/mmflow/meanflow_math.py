"""Closed-form reference flows and the residual calculators built on them.

Two analytic flows are provided: a constant drift and the gradient flow of
the quadratic potential (velocity -x, exponential decay paths). Each knows
its instantaneous velocity and trajectory in closed form as plain numpy,
and its average velocity in closed form as tape operations, so that the
analytic oracle ``OracleField`` can be differentiated with a
Jacobian-vector product. One Simpson rule, ``average_velocity_oracle``,
integrates the velocity along the numpy trajectory; it is the independent
reference that the closed forms are checked against.

The residual calculators measure how far a candidate field is from
satisfying the differential identity tying average to instantaneous
velocity (v = u + (t-r) du/dt) and the interval-additivity relation across
overlapping sub-intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import as_tensor, forward_fn, jvp

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
        self.dim = int(dim)

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
        c = np.asarray(c, dtype=np.float64).reshape(-1)
        super().__init__(c.shape[0])
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
        # u(x_t, r, t) = x_t (1 - e^{t-r}) / (t - r)
        gap = ad.sub(t, r)
        factor = ad.div(ad.sub(1.0, ad.exp(gap)), gap)
        return ad.scale_rows(x, factor)


def flow_from_dict(d: dict) -> AnalyticFlow:
    kind = d.get("kind")
    if kind == "constant":
        return ConstantFlow(d["c"])
    if kind == "harmonic":
        return HarmonicFlow(int(d["dim"]))
    raise ValueError(f"unknown analytic flow kind: {kind!r}")


# ---------------------------------------------------------------------------
# reference integrator


@dataclass
class ReferencePath:
    """States sampled on a strictly increasing time grid in [0, 1]."""

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

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def state_at(self, t) -> np.ndarray:
        """Linear interpolation in t; t may be scalar or array."""
        t = np.asarray(t, dtype=np.float64)
        lo, hi = self.times[0], self.times[-1]
        if np.any(t < lo - 1e-12) or np.any(t > hi + 1e-12):
            raise ValueError(
                f"query times outside the covered span [{lo}, {hi}]"
            )
        cols = [np.interp(t, self.times, self.states[:, j]) for j in range(self.dim)]
        return np.stack(cols, axis=-1)

    def write_csv(self, path):
        with open(path, "w") as fh:
            header = ",".join(["t"] + [f"x{j}" for j in range(self.dim)])
            fh.write(header + "\n")
            for ti, row in zip(self.times, self.states):
                cells = [f"{ti:.17g}"] + [f"{v:.17g}" for v in row]
                fh.write(",".join(cells) + "\n")

    @classmethod
    def read_csv(cls, path) -> "ReferencePath":
        raw = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=np.float64)
        raw = np.atleast_2d(raw)
        return cls(times=raw[:, 0], states=raw[:, 1:])


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


def _simpson_coeffs(n: int) -> np.ndarray:
    if n < 2 or n % 2 != 0:
        raise ValueError("Simpson rule needs an even interval count >= 2")
    c = np.ones(n + 1)
    c[1:-1:2] = 4.0
    c[2:-1:2] = 2.0
    return c


def average_velocity_oracle(flow: AnalyticFlow, x_t, r, t, num_intervals: int = 200) -> np.ndarray:
    """True average velocity over [r, t] at the state x_t.

    Transports x_t backward along the flow and integrates the instantaneous
    velocity with composite Simpson quadrature; the (t - r) normalization
    cancels against the step, so no small-gap division occurs.
    """
    x, r_arr, t_arr = _promote(x_t, r, t)
    if np.any(t_arr <= r_arr):
        raise ValueError("average velocity needs t > r")
    n = int(num_intervals)
    coeffs = _simpson_coeffs(n)
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

    __call__ = forward

    def to_dict(self) -> dict:
        return {
            "format": "mmflow-checkpoint",
            "version": 1,
            "kind": "analytic_oracle",
            "flow": self.flow.to_dict(),
        }


def average_velocity_field(flow: AnalyticFlow) -> OracleField:
    return OracleField(flow)


# ---------------------------------------------------------------------------
# residual calculators


def identity_residual(u_eval, flow: AnalyticFlow, x_t, r, t,
                      bracket_sign: float = 1.0) -> np.ndarray:
    """Residual of v = u + (t-r) du/dt at (x_t, r, t), batched.

    The total derivative du/dt = d_t u + (grad_x u) v is obtained from a
    single forward-mode call with tangent (v, 0, 1) over (x, r, t).
    ``bracket_sign`` is a diagnostics hook that flips the derivative term,
    used to prove the check actually bites.
    """
    x, r_arr, t_arr = _promote(x_t, r, t)
    if np.any(t_arr <= r_arr):
        raise ValueError("identity residual needs t > r")
    v = flow.velocity(x, t_arr)
    u, du = jvp(
        forward_fn(u_eval),
        [x, r_arr, t_arr],
        [v, np.zeros_like(r_arr), np.ones_like(t_arr)],
    )
    gap = (t_arr - r_arr)[:, None]
    return v - (u.data + gap * (float(bracket_sign) * du.data))


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
    fn = forward_fn(u_eval)
    u_ts = fn(as_tensor(x), as_tensor(s_arr), as_tensor(t_arr)).data
    x_s = x - (t_arr - s_arr)[:, None] * u_ts
    u_rt = fn(as_tensor(x), as_tensor(r_arr), as_tensor(t_arr)).data
    u_rs = fn(as_tensor(x_s), as_tensor(r_arr), as_tensor(s_arr)).data
    return (
        (t_arr - r_arr)[:, None] * u_rt
        - (s_arr - r_arr)[:, None] * u_rs
        - (t_arr - s_arr)[:, None] * u_ts
    )


def limit_slope(u_eval, flow: AnalyticFlow, x, r, eps_list=(1e-2, 1e-3, 1e-4)):
    """Shrinking-interval behavior: u(x, r, r+eps) must approach v(x, r).

    Returns (errors, slope) where errors[i] is the mean deviation norm at
    eps_list[i] and slope is the fitted log-log rate (1.0 for a clean
    first-order approach).
    """
    x, r_arr, _ = _promote(x, r, r)
    v = flow.velocity(x, r_arr)
    fn = forward_fn(u_eval)
    errors = []
    for eps in eps_list:
        u = fn(as_tensor(x), as_tensor(r_arr), as_tensor(r_arr + eps)).data
        errors.append(float(np.mean(np.linalg.norm(u - v, axis=1))))
    slope = float(np.polyfit(np.log(np.asarray(eps_list)), np.log(np.asarray(errors)), 1)[0])
    return np.array(errors), slope
