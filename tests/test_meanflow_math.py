import numpy as np
import pytest

from mmflow.autodiff import as_tensor
from mmflow.meanflow_math import (
    ConstantFlow,
    HarmonicFlow,
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


def test_reference_path_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    path = ReferencePath(
        times=np.sort(rng.uniform(0, 1, 9)), states=rng.normal(size=(9, 3))
    )
    f = tmp_path / "path.csv"
    path.write_csv(f)
    header = f.read_text().splitlines()[0]
    assert header == "t,x0,x1,x2"
    back = ReferencePath.read_csv(f)
    assert np.array_equal(back.times, path.times)
    assert np.array_equal(back.states, path.states)


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


def test_identity_residual_sign_hook_breaks_it():
    rng = np.random.default_rng(13)
    flow = HarmonicFlow(1)
    x = rng.normal(size=(20, 1))
    r, t = sample_rt(rng, 20)
    good = identity_residual(average_velocity_field(flow), flow, x, r, t)
    bad = identity_residual(average_velocity_field(flow), flow, x, r, t, bracket_sign=-1.0)
    assert np.max(np.abs(good)) < 1e-5
    assert np.max(np.abs(bad)) > 1e-2


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
