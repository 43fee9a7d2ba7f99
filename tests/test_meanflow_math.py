import math
import warnings

import numpy as np
import pytest

from mmflow.autodiff import as_tensor, jvp
from mmflow.meanflow_math import (
    ConstantFlow,
    HarmonicFlow,
    OracleField,
    ReferencePath,
    average_velocity_field,
    average_velocity_oracle,
    consistency_residual,
    flow_from_dict,
    identity_residual,
    limit_slope,
    rk4_solve,
)


def sample_rt(rng, b, min_gap=1e-3):
    r = rng.uniform(0.0, 1.0 - 2 * min_gap, b)
    t = r + min_gap + rng.uniform(0.0, 1.0, b) * (1.0 - r - min_gap)
    return r, t


# ---------------------------------------------------------------------------
# closed-form flows


def test_constant_velocity_everywhere():
    flow = ConstantFlow([2.0, 0.0])
    v = flow.velocity(np.array([[5.0, -3.0], [0.0, 0.0]]), 0.7)
    assert np.array_equal(v, [[2.0, 0.0], [2.0, 0.0]])


def test_harmonic_velocity_is_negative_state():
    flow = HarmonicFlow(1)
    assert flow.velocity(np.array([0.5]), 0.3) == pytest.approx(-0.5)
    assert flow.velocity(np.array([0.0]), 0.9) == pytest.approx(0.0)


def test_harmonic_trajectory_matches_rk4_oracle():
    flow = HarmonicFlow(1)
    end = flow.trajectory(np.array([1.0]), 0.0, 1.0)
    path = rk4_solve(flow.velocity, np.array([1.0]), 0.0, 1.0, steps=1000)
    assert abs(float(end[0]) - float(path.states[-1, 0])) < 1e-8
    assert float(end[0]) == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_trajectory_identity_at_equal_times():
    flow = HarmonicFlow(2)
    x = np.array([0.3, -1.2])
    assert np.array_equal(flow.trajectory(x, 0.4, 0.4), x)


def test_constant_trajectory_linear_motion():
    flow = ConstantFlow([1.0, 1.0])
    out = flow.trajectory(np.array([0.0, 0.0]), 0.0, 0.5)
    assert np.allclose(out, [0.5, 0.5])


def test_trajectory_backward_solve_allowed():
    flow = HarmonicFlow(1)
    fwd = flow.trajectory(np.array([1.0]), 0.0, 1.0)
    back = flow.trajectory(fwd, 1.0, 0.0)
    assert np.allclose(back, [1.0], atol=1e-12)


def test_flow_from_dict_roundtrip():
    c = ConstantFlow([1.5, -2.0])
    h = HarmonicFlow(3)
    assert np.array_equal(flow_from_dict(c.to_dict()).c, c.c)
    assert flow_from_dict(h.to_dict()).dim == 3
    with pytest.raises(ValueError):
        flow_from_dict({"kind": "vortex"})


# each used to construct: HarmonicFlow(2.7) as a 2-D flow, the rest as flows
# that a checkpoint could not hold
@pytest.mark.parametrize("make, arg, error", [
    (HarmonicFlow, 2.7, TypeError),
    (HarmonicFlow, True, TypeError),
    (HarmonicFlow, 0, ValueError),
    (HarmonicFlow, -3, ValueError),
    (ConstantFlow, [], ValueError),
    (ConstantFlow, [[0.5]], ValueError),
    (ConstantFlow, np.array([[0.5]]), ValueError),
    (ConstantFlow, [math.nan], ValueError),
    (ConstantFlow, [1.0, -math.inf], ValueError),
    (ConstantFlow, [True, 0.5], ValueError),
    (ConstantFlow, "05", ValueError),
])
def test_flow_constructor_rejects_what_no_flow_is(make, arg, error):
    with pytest.raises(error, match=r"^(dim|c)\b"):
        make(arg)


def test_flow_from_dict_rejects_an_unknown_key():
    with pytest.raises(TypeError, match="quad_intervals"):
        flow_from_dict({"kind": "harmonic", "dim": 2, "quad_intervals": 200})
    with pytest.raises(TypeError, match="dim"):
        flow_from_dict({"kind": "constant", "c": [0.5], "dim": 1})


# ---------------------------------------------------------------------------
# RK4 integrator


def test_rk4_zero_velocity_constant_path():
    path = rk4_solve(lambda x, t: np.zeros_like(x), np.array([1.0, 2.0]), 0.0, 1.0, 10)
    assert np.all(path.states == [1.0, 2.0])
    assert path.times[0] == 0.0 and path.times[-1] == 1.0


def test_rk4_harmonic_endpoint_accuracy():
    flow = HarmonicFlow(1)
    path = rk4_solve(flow.velocity, np.array([1.0]), 0.0, 1.0, steps=1000)
    assert abs(path.states[-1, 0] - np.exp(-1.0)) < 1e-10


def test_rk4_fourth_order_convergence():
    flow = HarmonicFlow(1)
    exact = np.exp(-1.0)

    def endpoint_error(steps):
        path = rk4_solve(flow.velocity, np.array([1.0]), 0.0, 1.0, steps)
        return abs(path.states[-1, 0] - exact)

    e1, e2 = endpoint_error(8), endpoint_error(16)
    assert 10.0 < e1 / e2 < 22.0  # order-4: halving the step cuts the error ~16x


def test_rk4_backward_solve_stored_ascending():
    flow = HarmonicFlow(1)
    path = rk4_solve(flow.velocity, np.array([np.exp(-1.0)]), 1.0, 0.0, steps=100)
    assert np.all(np.diff(path.times) > 0)
    assert path.states[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_rk4_rejects_zero_steps():
    with pytest.raises(ValueError):
        rk4_solve(lambda x, t: x, np.array([1.0]), 0.0, 1.0, 0)


# ---------------------------------------------------------------------------
# reference path container


def test_reference_path_validation():
    with pytest.raises(ValueError):
        ReferencePath(times=[0.0, 0.0, 1.0], states=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        ReferencePath(times=[0.0, 1.0], states=np.zeros((3, 1)))


def test_reference_path_interpolation_and_span_check():
    path = ReferencePath(times=[0.0, 0.5, 1.0], states=[[0.0], [1.0], [4.0]])
    assert path.state_at(0.25) == pytest.approx([0.5])
    with pytest.raises(ValueError):
        path.state_at(1.5)


# ---------------------------------------------------------------------------
# average velocity oracle


def test_average_velocity_constant_is_the_drift():
    flow = ConstantFlow([0.7, -0.1])
    u = average_velocity_oracle(flow, np.array([3.0, 3.0]), 0.2, 0.9)
    assert np.allclose(u, [0.7, -0.1], atol=1e-14)


def test_average_velocity_harmonic_closed_form_value():
    flow = HarmonicFlow(1)
    u = average_velocity_oracle(flow, np.array([1.0]), 0.0, 1.0)
    assert u[0] == pytest.approx(1.0 - np.e, abs=1e-6)


def test_average_velocity_tiny_gap_approaches_instantaneous():
    flow = HarmonicFlow(1)
    u = average_velocity_oracle(flow, np.array([0.5]), 0.0, 1e-6)
    assert abs(u[0] - (-0.5)) < 1e-5


def test_average_velocity_rejects_reversed_interval():
    flow = HarmonicFlow(1)
    with pytest.raises(ValueError):
        average_velocity_oracle(flow, np.array([1.0]), 0.5, 0.5)


def test_quadrature_agrees_with_closed_forms():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(64, 2))
    r, t = sample_rt(rng, 64)

    const = ConstantFlow([1.3, -0.4])
    u_quad = average_velocity_oracle(const, x, r, t)
    assert np.max(np.abs(u_quad - const.c)) < 1e-8

    harm = HarmonicFlow(2)
    u_quad = average_velocity_oracle(harm, x, r, t)
    gap = (t - r)[:, None]
    u_closed = x * (1.0 - np.exp(t - r))[:, None] / gap
    assert np.max(np.abs(u_quad - u_closed)) < 1e-6


def test_harmonic_oracle_at_zero_gap_is_the_velocity():
    # (1 - e^g) / g is 0/0 at g = 0; the factor is -expm1(g)/g with limit -1
    field = average_velocity_field(HarmonicFlow(1))
    x, r = np.array([[1.0]]), np.array([0.5])
    assert field.forward(as_tensor(x), as_tensor(r), as_tensor(r)).data[0, 0] == -1.0
    u, du = jvp(field.forward, [x, r, r], [np.zeros((1, 1)), np.zeros(1), np.ones(1)])
    assert u.data[0, 0] == -1.0
    assert np.isfinite(du.data).all()
    assert du.data[0, 0] == -0.5  # d/dt of -expm1(t - r)/(t - r) at t = r


def test_harmonic_oracle_keeps_its_digits_at_tiny_gaps():
    field = average_velocity_field(HarmonicFlow(1))
    for gap in (1e-9, 1e-12, -1e-9):
        u = field.forward(as_tensor([[1.0]]), as_tensor([0.5]), as_tensor([0.5 + gap])).data
        exact = -(1.0 + gap / 2.0 + gap * gap / 6.0)  # -expm1(g)/g to 3 terms
        assert abs(u[0, 0] - exact) <= 2.3e-16


def test_expm1_ratio_slope_is_smooth_across_the_series_switch():
    from mmflow.meanflow_math import _SERIES_BELOW, _expm1_ratio_slope, _expm1_ratio_value

    for g0 in (_SERIES_BELOW, -_SERIES_BELOW):
        # the series just inside the switch, the difference quotient just outside
        below, above = _expm1_ratio_slope(np.array([np.nextafter(g0, 0.0), g0]))
        assert abs(below - above) <= 1e-13
    g = np.array([-0.7, -1e-2, 5e-3, 0.3, 1.5])
    h = 1e-6
    central = (_expm1_ratio_value(g + h) - _expm1_ratio_value(g - h)) / (2 * h)
    assert np.max(np.abs(_expm1_ratio_slope(g) - central)) <= 1e-9


@pytest.mark.parametrize("flow", [ConstantFlow([1.3, -0.4]), HarmonicFlow(1), HarmonicFlow(2)],
                         ids=["constant", "harmonic1", "harmonic2"])
def test_oracle_field_matches_numpy_quadrature(flow):
    # the closed form against the one Simpson rule, an independent reference
    rng = np.random.default_rng(4)
    x = rng.normal(size=(32, flow.dim))
    r, t = sample_rt(rng, 32)
    field = average_velocity_field(flow)
    closed = field.forward(as_tensor(x), as_tensor(r), as_tensor(t)).data
    assert np.max(np.abs(closed - average_velocity_oracle(flow, x, r, t))) <= 1e-10


# ---------------------------------------------------------------------------
# identity residual (v = u + (t-r) du/dt)


def test_identity_residual_of_oracle_is_small():
    rng = np.random.default_rng(11)
    flow = HarmonicFlow(2)
    x = rng.normal(size=(200, 2))
    r, t = sample_rt(rng, 200)
    res = identity_residual(average_velocity_field(flow), flow, x, r, t)
    assert np.max(np.abs(res)) < 1e-5


def test_identity_residual_constant_flow_exactly_zero():
    rng = np.random.default_rng(12)
    flow = ConstantFlow([0.5, -1.5])
    x = rng.normal(size=(50, 2))
    r, t = sample_rt(rng, 50)
    res = identity_residual(average_velocity_field(flow), flow, x, r, t)
    assert np.all(res == 0.0)


def test_identity_residual_zero_field_equals_velocity():
    flow = HarmonicFlow(2)

    def zero_field(x, r, t):
        import mmflow.autodiff as ad

        return ad.mul(x, 0.0)

    x = np.array([[0.4, -0.9]])
    res = identity_residual(zero_field, flow, x, 0.2, 0.8)
    assert np.allclose(res, flow.velocity(x, 0.8), atol=1e-15)


def test_identity_residual_rejects_bad_interval():
    flow = HarmonicFlow(1)
    with pytest.raises(ValueError):
        identity_residual(average_velocity_field(flow), flow, np.array([1.0]), 0.5, 0.4)


# ---------------------------------------------------------------------------
# consistency residual (interval additivity)


def sample_rst(rng, b, min_gap=0.01):
    r = rng.uniform(0.0, 1.0 - 2 * min_gap, b)
    s = r + min_gap + rng.uniform(0.0, 1.0, b) * (1.0 - r - 2 * min_gap)
    t = s + min_gap + rng.uniform(0.0, 1.0, b) * (1.0 - s - min_gap)
    return r, s, t


def test_consistency_residual_of_oracle_small_over_random_triples():
    rng = np.random.default_rng(21)
    flow = HarmonicFlow(2)
    x = rng.normal(size=(1000, 2))
    r, s, t = sample_rst(rng, 1000)
    res = consistency_residual(average_velocity_field(flow), x, r, s, t)
    assert np.max(np.abs(res)) < 1e-5


def test_consistency_residual_constant_flow_exact_on_dyadic_times():
    flow = ConstantFlow([2.0])
    x = np.array([[1.0], [0.5]])
    res = consistency_residual(
        average_velocity_field(flow), x, np.array([0.25, 0.0]), np.array([0.5, 0.5]),
        np.array([0.75, 1.0])
    )
    assert np.all(res == 0.0)


def test_consistency_residual_degenerate_midpoint():
    flow = HarmonicFlow(1)
    x = np.array([[0.8]])
    t = 0.9
    s = t - 1e-9
    res = consistency_residual(average_velocity_field(flow), x, 0.1, s, t)
    assert np.max(np.abs(res)) < 1e-6


def test_consistency_residual_rejects_bad_ordering():
    flow = HarmonicFlow(1)
    with pytest.raises(ValueError):
        consistency_residual(average_velocity_field(flow), np.array([1.0]), 0.5, 0.4, 0.9)


# ---------------------------------------------------------------------------
# shrinking-interval limit


def test_limit_slope_is_linear_in_gap():
    rng = np.random.default_rng(31)
    flow = HarmonicFlow(2)
    x = rng.normal(size=(64, 2))
    r = rng.uniform(0.0, 0.9, 64)
    errors, slope = limit_slope(average_velocity_field(flow), flow, x, r)
    assert np.all(np.diff(errors) < 0)
    assert abs(slope - 1.0) < 0.1


def test_limit_slope_of_an_exact_field_is_infinite():
    # every error is 0: the fit would take log(0) and return nan with a
    # divide-by-zero warning
    flow = ConstantFlow([0.5, -1.0])
    rng = np.random.default_rng(32)
    x = rng.normal(size=(16, 2))
    r = rng.uniform(0.0, 0.9, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        errors, slope = limit_slope(OracleField(flow), flow, x, r)
    assert errors.tolist() == [0.0, 0.0, 0.0]
    assert slope == math.inf
