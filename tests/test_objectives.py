import numpy as np
import pytest

import mmflow.autodiff as ad
from mmflow.autodiff import Tape, Tensor, as_tensor, backward, jvp, stopgrad
from mmflow.field_model import FieldConfig, init_params
from mmflow.objectives import (
    ConstantSchedule,
    TimePairConfig,
    WarmupSchedule,
    build_batch,
    interpolate,
    loss_full,
    loss_lambda,
    sample_time_pairs,
    schedule_from_dict,
    target_velocity,
)

from helpers import central_difference, rel_err


SMALL = FieldConfig(
    input_dim=2, hidden_widths=(8, 8), time_embed_dim=8, base_frequency=30.0, seed=3
)


def make_batch(rng, b=8, d=2):
    x0 = rng.normal(size=(b, d))
    x1 = rng.normal(size=(b, d))
    r, t = sample_time_pairs(rng, b, TimePairConfig())
    return build_batch(x0, x1, r, t)


def constant_field(c, cfg=SMALL):
    """A field whose output is identically the vector c."""
    field = init_params(FieldConfig(**{**cfg.to_dict(), "zero_init_output": True}))
    params = field.params
    params[-1] = Tensor(np.asarray(c, dtype=np.float64), requires_grad=True)
    return field.with_params(params)


# ---------------------------------------------------------------------------
# time pairs


def test_time_pairs_honor_constraints():
    rng = np.random.default_rng(0)
    cfg = TimePairConfig(min_gap=1e-3, r_zero_prob=0.3)
    r, t = sample_time_pairs(rng, 5000, cfg)
    assert np.all(r >= 0) and np.all(t <= 1)
    assert np.all(t - r >= cfg.min_gap)
    assert np.all(1 - r >= cfg.min_gap)


def test_time_pairs_forced_zero_r_gives_uniform_t():
    rng = np.random.default_rng(1)
    cfg = TimePairConfig(r_zero_prob=1.0)
    r, t = sample_time_pairs(rng, 100_000, cfg)
    assert np.all(r == 0.0)
    # t is uniform conditioned on t >= min_gap: mean 1/2, not the 2/3 of a max
    assert abs(t.mean() - 0.5) < 0.01
    assert abs(np.quantile(t, 0.25) - 0.25) < 0.01


def test_time_pairs_mean_gap_is_one_third():
    rng = np.random.default_rng(2)
    cfg = TimePairConfig(min_gap=1e-3, r_zero_prob=0.0)
    r, t = sample_time_pairs(rng, 100_000, cfg)
    assert abs((t - r).mean() - 1.0 / 3.0) < 0.01


def test_time_pair_config_validation():
    with pytest.raises(ValueError):
        TimePairConfig(min_gap=1e-5)
    with pytest.raises(ValueError):
        TimePairConfig(r_zero_prob=1.2)


# ---------------------------------------------------------------------------
# interpolation and target


def test_interpolate_endpoints():
    x0 = np.array([[1.0, 1.0]])
    x1 = np.array([[3.0, -1.0]])
    assert np.array_equal(interpolate(x0, x1, 0.3, 0.3), x0)
    assert np.array_equal(interpolate(x0, x1, 0.0, 1.0), x1)
    assert np.allclose(
        interpolate(np.array([[0.0]]), np.array([[2.0]]), 0.0, 0.5), [[1.0]]
    )


def test_interpolate_rejects_r_near_one():
    with pytest.raises(ValueError):
        interpolate(np.zeros((1, 1)), np.ones((1, 1)), 0.9999, 1.0)


def test_interpolation_weight_stays_in_unit_interval():
    rng = np.random.default_rng(3)
    r, t = sample_time_pairs(rng, 2000, TimePairConfig())
    alpha = (t - r) / (1 - r)
    assert np.all(alpha >= 0) and np.all(alpha <= 1)


def test_absolute_time_convention_ignores_r():
    x0, x1 = np.array([[0.0]]), np.array([[2.0]])
    b1 = build_batch(x0, x1, np.array([0.0]), np.array([0.5]), convention="absolute_time")
    b2 = build_batch(x0, x1, np.array([0.3]), np.array([0.5]), convention="absolute_time")
    assert np.array_equal(b1.x_t, b2.x_t)
    with pytest.raises(ValueError):
        build_batch(x0, x1, np.array([0.0]), np.array([0.5]), convention="midpoint")


def test_target_velocity_examples():
    same = np.ones((1, 2))
    assert np.array_equal(target_velocity(same, same, 0.0, 0.5), np.zeros((1, 2)))
    out = target_velocity(np.zeros((1, 2)), np.array([[1.0, 0.0]]), 0.0, 0.5)
    assert np.allclose(out, [[2.0, 0.0]])
    # doubling displacement and gap together leaves the target unchanged
    a = target_velocity(np.zeros((1, 1)), np.array([[0.3]]), 0.0, 0.25)
    b = target_velocity(np.zeros((1, 1)), np.array([[0.6]]), 0.0, 0.5)
    assert np.allclose(a, b)


def test_target_velocity_rejects_small_gap():
    with pytest.raises(ValueError):
        target_velocity(np.zeros((1, 1)), np.ones((1, 1)), 0.5, 0.5004)


# ---------------------------------------------------------------------------
# schedules


def test_warmup_schedule_paper_horizon():
    sched = WarmupSchedule(t_warmup=100_000)
    assert sched.at(50_000) == pytest.approx(0.5)
    assert sched.at(0) == 0.0
    assert sched.at(200_000) == 1.0


def test_constant_schedule_and_dict_roundtrip():
    assert ConstantSchedule(0.25).at(123) == 0.25
    for sched in (ConstantSchedule(0.5), WarmupSchedule(10)):
        back = schedule_from_dict(sched.to_dict())
        assert back == sched
    with pytest.raises(ValueError):
        schedule_from_dict({"kind": "sawtooth"})
    with pytest.raises(ValueError):
        ConstantSchedule(1.5)


# ---------------------------------------------------------------------------
# loss_lambda


def gap_tied_batch(rng, c, b=8):
    """Pairs whose displacement equals c per unit of the drawn time gap."""
    d = len(c)
    x0 = rng.normal(size=(b, d))
    r, t = sample_time_pairs(rng, b, TimePairConfig())
    x1 = x0 + (t - r)[:, None] * np.asarray(c)
    return build_batch(x0, x1, r, t)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_loss_zero_at_exact_constant_field(lam):
    rng = np.random.default_rng(5)
    c = [0.7, -0.2]
    batch = gap_tied_batch(rng, c)
    field = constant_field(c)
    loss = loss_lambda(field, batch, lam)
    assert loss.data == pytest.approx(0.0, abs=1e-22)


def test_zero_field_loss_is_mean_squared_target():
    rng = np.random.default_rng(6)
    batch = make_batch(rng)
    field = init_params(FieldConfig(**{**SMALL.to_dict(), "zero_init_output": True}))
    loss = loss_lambda(field, batch, 0.5)
    target = (batch.x1 - batch.x0) / (batch.t - batch.r)[:, None]
    assert loss.data == pytest.approx(np.mean(np.sum(target**2, axis=1)))


def test_loss_value_bitwise_identical_across_lambda():
    rng = np.random.default_rng(7)
    batch = make_batch(rng)
    field = init_params(SMALL)
    values = [loss_lambda(field, batch, lam).data for lam in (0.0, 0.31, 0.5, 0.77, 1.0)]
    for v in values[1:]:
        assert np.array_equal(values[0], v)


def test_loss_lambda_rejects_out_of_range():
    rng = np.random.default_rng(8)
    batch = make_batch(rng)
    field = init_params(SMALL)
    with pytest.raises(ValueError):
        loss_lambda(field, batch, -0.2)


def grad_vector(field, batch, lam):
    with Tape():
        loss = loss_lambda(field, batch, lam)
    grads = backward(loss)
    return np.concatenate([grads.wrt(p).ravel() for p in field.params])


def test_gradient_at_lambda_zero_matches_manual_stopgrad():
    rng = np.random.default_rng(9)
    batch = make_batch(rng)
    field = init_params(SMALL)

    def manual_stopgrad_loss():
        target = (batch.x1 - batch.x0) / (batch.t - batch.r)[:, None]
        u, bracket = jvp(
            field.forward,
            [batch.x_t, batch.r, batch.t],
            [target, np.zeros_like(batch.r), np.ones_like(batch.t)],
            attach=True,
        )
        resid = ad.sub(
            ad.add(u, ad.scale_rows(stopgrad(bracket), as_tensor(batch.t - batch.r))),
            as_tensor(target),
        )
        return ad.div(ad.sum_all(ad.square(resid)), float(batch.size))

    with Tape():
        loss_ref = manual_stopgrad_loss()
    ref = backward(loss_ref)
    ref_vec = np.concatenate([ref.wrt(p).ravel() for p in field.params])
    got = grad_vector(field, batch, 0.0)
    assert np.max(np.abs(got - ref_vec)) < 1e-12


def test_gradient_affine_in_lambda():
    rng = np.random.default_rng(10)
    batch = make_batch(rng)
    field = init_params(SMALL)
    g0 = grad_vector(field, batch, 0.0)
    g1 = grad_vector(field, batch, 1.0)
    for lam in (0.25, 0.5, 0.8):
        gl = grad_vector(field, batch, lam)
        assert np.max(np.abs(gl - (g0 + lam * (g1 - g0)))) < 1e-10


def frozen_share_loss(field, batch, lam, base_bracket):
    """Value whose true derivative is the modulated gradient: the stopped
    (1 - lam) share of the bracket stays frozen at the base parameters."""
    target = (batch.x1 - batch.x0) / (batch.t - batch.r)[:, None]
    u, bracket = jvp(
        field.forward,
        [batch.x_t, batch.r, batch.t],
        [target, np.zeros_like(batch.r), np.ones_like(batch.t)],
    )
    mixed = lam * bracket.data + (1.0 - lam) * base_bracket
    resid = u.data + (batch.t - batch.r)[:, None] * mixed - target
    return float(np.mean(np.sum(resid**2, axis=1)))


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_loss_gradient_matches_finite_differences(lam):
    cfg = FieldConfig(
        input_dim=1, hidden_widths=(5, 4), time_embed_dim=4, base_frequency=10.0, seed=11
    )
    field = init_params(cfg)
    rng = np.random.default_rng(12)
    x0 = rng.normal(size=(4, 1))
    x1 = rng.normal(size=(4, 1))
    r, t = sample_time_pairs(rng, 4, TimePairConfig())
    batch = build_batch(x0, x1, r, t)

    with Tape():
        loss = loss_lambda(field, batch, lam)
    grads = backward(loss)

    target = (batch.x1 - batch.x0) / (batch.t - batch.r)[:, None]
    _, base_bracket = jvp(
        field.forward,
        [batch.x_t, batch.r, batch.t],
        [target, np.zeros_like(batch.r), np.ones_like(batch.t)],
    )
    base_bracket = base_bracket.data

    def f(arrs):
        probe = field.with_params([Tensor(a, requires_grad=True) for a in arrs])
        return frozen_share_loss(probe, batch, lam, base_bracket)

    assert f([p.data for p in field.params]) == pytest.approx(float(loss.data))
    fd = central_difference(f, [p.data for p in field.params])
    for p, g in zip(field.params, fd):
        assert rel_err(grads.wrt(p), g) < 1e-4


def test_gradient_vanishes_at_minimum():
    rng = np.random.default_rng(13)
    c = [0.4, -0.6]
    batch = gap_tied_batch(rng, c, b=16)
    field = constant_field(c)
    g = grad_vector(field, batch, 0.7)
    assert np.max(np.abs(g)) < 1e-10


# ---------------------------------------------------------------------------
# loss_full


def test_loss_full_zero_at_exact_constant_field():
    rng = np.random.default_rng(14)
    c = [0.3, 0.9]
    batch = gap_tied_batch(rng, c)
    field = constant_field(c)
    loss = loss_full(field, batch)
    assert loss.data == pytest.approx(0.0, abs=1e-22)


def test_loss_full_linear_field_hand_derivation():
    # for u(x) = x M the bracket is (x M) M and the time term vanishes
    M = np.array([[0.5, -0.3], [0.2, 0.1]])

    def linear_field(x, r, t):
        return ad.matmul(x, as_tensor(M))

    rng = np.random.default_rng(15)
    batch = make_batch(rng, b=6)
    loss = loss_full(linear_field, batch)
    u = batch.x_t @ M
    bracket = u @ M
    target = (batch.x1 - batch.x0) / (batch.t - batch.r)[:, None]
    resid = u + (batch.t - batch.r)[:, None] * bracket - target
    expected = np.mean(np.sum(resid**2, axis=1))
    assert loss.data == pytest.approx(expected, rel=1e-12)


def test_loss_full_with_target_bracket_equals_lambda_one():
    rng = np.random.default_rng(16)
    batch = make_batch(rng)
    field = init_params(SMALL)
    a = loss_full(field, batch, bracket_velocity="target")
    b = loss_lambda(field, batch, 1.0)
    assert np.array_equal(a.data, b.data)

    def gvec(loss_fn):
        with Tape():
            loss = loss_fn()
        grads = backward(loss)
        return np.concatenate([grads.wrt(p).ravel() for p in field.params])

    ga = gvec(lambda: loss_full(field, batch, bracket_velocity="target"))
    gb = gvec(lambda: loss_lambda(field, batch, 1.0))
    assert np.max(np.abs(ga - gb)) < 1e-12


def test_loss_full_gradients_flow_through_bracket_seed():
    cfg = FieldConfig(
        input_dim=1, hidden_widths=(4,), time_embed_dim=4, base_frequency=10.0, seed=17
    )
    field = init_params(cfg)
    rng = np.random.default_rng(18)
    x0 = rng.normal(size=(3, 1))
    x1 = rng.normal(size=(3, 1))
    r, t = sample_time_pairs(rng, 3, TimePairConfig())
    batch = build_batch(x0, x1, r, t)

    with Tape():
        loss = loss_full(field, batch)
    grads = backward(loss)

    def f(arrs):
        probe = field.with_params([Tensor(a, requires_grad=True) for a in arrs])
        return float(loss_full(probe, batch).data)

    fd = central_difference(f, [p.data for p in field.params])
    for p, g in zip(field.params, fd):
        assert rel_err(grads.wrt(p), g) < 1e-4


# ---------------------------------------------------------------------------
# target normalization variants


def test_pair_span_target_matches_span_of_the_convention():
    rng = np.random.default_rng(20)
    x0 = rng.normal(size=(4, 2))
    x1 = rng.normal(size=(4, 2))
    r = np.array([0.0, 0.2, 0.5, 0.8])
    t = np.array([0.5, 0.6, 0.9, 0.9])
    from mmflow.objectives import _loss_target

    ratio = build_batch(x0, x1, r, t, convention="interval_ratio")
    assert np.allclose(_loss_target(ratio, "pair_span"), (x1 - x0) / (1 - r)[:, None])
    absolute = build_batch(x0, x1, r, t, convention="absolute_time")
    assert np.array_equal(_loss_target(absolute, "pair_span"), x1 - x0)
    assert np.allclose(_loss_target(absolute, "sampled_gap"), (x1 - x0) / (t - r)[:, None])
    with pytest.raises(ValueError):
        _loss_target(absolute, "both")


def test_target_norms_coincide_on_full_interval_rows():
    rng = np.random.default_rng(21)
    x0 = rng.normal(size=(3, 2))
    x1 = rng.normal(size=(3, 2))
    r = np.zeros(3)
    t = np.ones(3)
    batch = build_batch(x0, x1, r, t)
    a = loss_lambda(init_params(SMALL), batch, 0.5, target_norm="sampled_gap")
    b = loss_lambda(init_params(SMALL), batch, 0.5, target_norm="pair_span")
    assert np.allclose(a.data, b.data)


def test_loss_lambda_invariants_hold_for_pair_span():
    rng = np.random.default_rng(22)
    batch = make_batch(rng)
    field = init_params(SMALL)
    values = [
        loss_lambda(field, batch, lam, target_norm="pair_span").data
        for lam in (0.0, 0.4, 1.0)
    ]
    assert np.array_equal(values[0], values[1])
    assert np.array_equal(values[0], values[2])

    def gvec(lam):
        with Tape():
            loss = loss_lambda(field, batch, lam, target_norm="pair_span")
        grads = backward(loss)
        return np.concatenate([grads.wrt(p).ravel() for p in field.params])

    g0, gl, g1 = gvec(0.0), gvec(0.4), gvec(1.0)
    assert np.max(np.abs(gl - (g0 + 0.4 * (g1 - g0)))) < 1e-10
