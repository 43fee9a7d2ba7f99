import numpy as np
import pytest

from mmflow.autodiff import Tape, Tensor, backward
from mmflow.field_model import FieldConfig, init_params
from mmflow.objectives import (
    ConstantSchedule,
    TimePairConfig,
    WarmupSchedule,
    build_batch,
    loss_lambda,
    sample_time_pairs,
)
from mmflow.tasks import OdeHarmonicTask
from mmflow.trainer import (
    NonFiniteGradientError,
    OptimizerState,
    TrainConfig,
    TrainLog,
    adam_step,
    cosine_lr,
    global_grad_norm,
    loss_variance,
    train,
)


SMALL_FIELD = FieldConfig(
    input_dim=2, hidden_widths=(16, 16), time_embed_dim=8, base_frequency=10.0, seed=0
)

DRIFT = np.array([0.5, -0.25])


def drift_batch_fn(data_rng, time_rng, batch_size, cfg):
    """Pairs displaced by DRIFT per unit of the drawn gap: the exactly
    representable optimum is the constant field DRIFT."""
    x0 = data_rng.normal(size=(batch_size, 2))
    r, t = sample_time_pairs(time_rng, batch_size, cfg)
    x1 = x0 + (t - r)[:, None] * DRIFT
    return build_batch(x0, x1, r, t)


# ---------------------------------------------------------------------------
# learning-rate schedule


def test_cosine_lr_endpoints_and_midpoint():
    assert cosine_lr(3e-4, 0, 1000) == pytest.approx(3e-4)
    assert cosine_lr(3e-4, 1000, 1000) == pytest.approx(0.0, abs=1e-19)
    assert cosine_lr(3e-4, 500, 1000) == pytest.approx(1.5e-4)


def test_cosine_lr_rejects_out_of_range_step():
    with pytest.raises(ValueError):
        cosine_lr(1e-3, 11, 10)


# ---------------------------------------------------------------------------
# Adam


def params_of(*arrays):
    return [Tensor(a, requires_grad=True) for a in arrays]


def test_adam_single_scalar_update_hand_value():
    params = params_of(np.array(1.0))
    state = OptimizerState.init(params)
    grads = [np.array(1.0)]
    state, params = adam_step(state, params, grads, lr=0.1)
    # one bias-corrected step: lr*sqrt(1-b2)/(1-b1) * m/(sqrt(v2)+eps)
    expected = 1.0 - 0.1 * np.sqrt(1 - 0.999) / (1 - 0.9) * 0.1 / (np.sqrt(0.001) + 1e-8)
    assert float(params[0].data) == pytest.approx(expected, rel=1e-14)
    assert float(params[0].data) == pytest.approx(0.9000000316, abs=1e-9)
    assert state.step == 1


def test_adam_zero_gradient_keeps_parameters():
    params = params_of(np.array([1.0, -2.0]))
    state = OptimizerState.init(params)
    state, params = adam_step(state, params, [np.zeros(2)], lr=0.1)
    assert np.array_equal(params[0].data, [1.0, -2.0])
    assert np.all(state.m[0] == 0.0) and np.all(state.v2[0] == 0.0)


def test_adam_deterministic():
    def run():
        params = params_of(np.array([0.3, 0.7]))
        state = OptimizerState.init(params)
        state, params = adam_step(state, params, [np.array([0.1, -0.2])], lr=0.05)
        state, params = adam_step(state, params, [np.array([0.4, 0.1])], lr=0.05)
        return params[0].data

    assert np.array_equal(run(), run())


def test_adam_aborts_on_non_finite_gradient():
    params = params_of(np.array([1.0]))
    state = OptimizerState.init(params)
    with pytest.raises(NonFiniteGradientError):
        adam_step(state, params, [np.array([np.nan])], lr=0.1)
    assert np.array_equal(params[0].data, [1.0])
    assert state.step == 0


# ---------------------------------------------------------------------------
# training loop


def test_train_zero_steps_returns_field_unchanged():
    field = init_params(SMALL_FIELD)
    cfg = TrainConfig(total_steps=0, batch_size=4, lr0=1e-3,
                      schedule=ConstantSchedule(0.0), seed=0, log_every=1)
    res = train(field, cfg, batch_fn=drift_batch_fn)
    assert len(res.log) == 0
    assert not res.halted
    for a, b in zip(field.params, res.field.params):
        assert np.array_equal(a.data, b.data)


def test_train_requires_task_or_batch_fn():
    field = init_params(SMALL_FIELD)
    cfg = TrainConfig(total_steps=5, batch_size=4, lr0=1e-3,
                      schedule=ConstantSchedule(0.0), seed=0, log_every=1)
    with pytest.raises(ValueError):
        train(field, cfg)


def test_smoke_run_reaches_exact_optimum_region():
    field = init_params(FieldConfig(
        input_dim=2, hidden_widths=(32, 32), time_embed_dim=8,
        base_frequency=10.0, seed=0,
    ))
    cfg = TrainConfig(total_steps=2000, batch_size=64, lr0=1e-2,
                      schedule=WarmupSchedule(250), seed=1, log_every=100)
    res = train(field, cfg, batch_fn=drift_batch_fn)
    assert not res.halted
    assert res.log.losses[-1] < 1e-3


def test_train_replay_is_bitwise_deterministic():
    cfg = TrainConfig(total_steps=40, batch_size=8, lr0=1e-3,
                      schedule=WarmupSchedule(10), seed=7, log_every=5)

    def run():
        field = init_params(SMALL_FIELD)
        return train(field, cfg, batch_fn=drift_batch_fn).log

    a, b = run(), run()
    assert a.steps == b.steps
    assert a.losses == b.losses
    assert a.grad_norms == b.grad_norms
    assert a.lambdas == b.lambdas
    assert a.lrs == b.lrs


def test_log_cadence_and_lambda_column():
    field = init_params(SMALL_FIELD)
    sched = WarmupSchedule(20)
    cfg = TrainConfig(total_steps=30, batch_size=4, lr0=1e-3,
                      schedule=sched, seed=3, log_every=7)
    res = train(field, cfg, batch_fn=drift_batch_fn)
    expected_steps = [6, 13, 20, 27, 29]
    assert res.log.steps == expected_steps
    for step, lam in zip(res.log.steps, res.log.lambdas):
        assert lam == sched.at(step)
    assert res.log.lambdas == sorted(res.log.lambdas)


def test_logged_grad_norm_matches_independent_accumulation():
    field = init_params(SMALL_FIELD)
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(8, 2))
    x1 = rng.normal(size=(8, 2))
    r, t = sample_time_pairs(rng, 8, TimePairConfig())
    batch = build_batch(x0, x1, r, t)
    with Tape():
        loss = loss_lambda(field, batch, 0.5)
    grads = backward(loss)
    glist = [grads.wrt(p) for p in field.params]
    direct = np.linalg.norm(np.concatenate([g.ravel() for g in glist]))
    assert abs(global_grad_norm(glist) - direct) < 1e-12


def test_train_halts_on_non_finite_loss_with_partial_log():
    field = init_params(SMALL_FIELD)

    def poisoned(data_rng, time_rng, batch_size, cfg):
        batch = drift_batch_fn(data_rng, time_rng, batch_size, cfg)
        if poisoned.step == 12:
            batch.x_t[0, 0] = np.nan
        poisoned.step += 1
        return batch

    poisoned.step = 0
    cfg = TrainConfig(total_steps=50, batch_size=4, lr0=1e-3,
                      schedule=ConstantSchedule(0.5), seed=2, log_every=2)
    res = train(field, cfg, batch_fn=poisoned)
    assert res.halted and res.halt_step == 12
    assert "non-finite" in res.halt_reason
    assert res.log.steps[-1] == 11  # rows before the halt survive


def test_train_with_task_and_checkpoints(tmp_path):
    task = OdeHarmonicTask(dim=1, endpoint_noise_std=0.0, seed=0)
    field = init_params(FieldConfig(
        input_dim=1, hidden_widths=(8,), time_embed_dim=4, base_frequency=10.0, seed=1
    ))
    cfg = TrainConfig(total_steps=20, batch_size=8, lr0=1e-3,
                      schedule=ConstantSchedule(0.0), seed=5, task=task,
                      log_every=5, checkpoint_every=10)
    res = train(field, cfg, out_dir=tmp_path)
    names = [p.split("/")[-1] for p in res.checkpoints]
    assert names == ["ckpt_10.json", "ckpt_20.json", "ckpt_final.json"]
    from mmflow.field_model import load_checkpoint

    loaded = load_checkpoint(res.checkpoints[-1])
    for a, b in zip(loaded.params, res.field.params):
        assert np.array_equal(a.data, b.data)


def test_grad_clip_caps_update_norm():
    field = init_params(SMALL_FIELD)
    cfg = TrainConfig(total_steps=5, batch_size=8, lr0=1e-3,
                      schedule=ConstantSchedule(1.0), seed=9, log_every=1,
                      grad_clip=1e-6)
    res = train(field, cfg, batch_fn=drift_batch_fn)
    # the recorded norm is pre-clip; training still proceeds finite
    assert not res.halted
    assert all(np.isfinite(v) for v in res.log.losses)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(total_steps=10, log_every=20, schedule=ConstantSchedule(0.0))
    with pytest.raises(ValueError):
        TrainConfig(lr0=0.0, schedule=ConstantSchedule(0.0))
    with pytest.raises(ValueError):
        TrainConfig(grad_clip=-1.0, schedule=ConstantSchedule(0.0))


# ---------------------------------------------------------------------------
# telemetry helpers


def make_log(losses):
    log = TrainLog()
    for i, v in enumerate(losses):
        log.append(i, v, 0.0, 0.0, 1e-4)
    return log


def test_loss_variance_constant_is_zero():
    assert loss_variance(make_log([2.0] * 10), 5) == 0.0


def test_loss_variance_alternating_hand_value():
    log = make_log([5.0, 0.0, 2.0, 0.0, 2.0])
    assert loss_variance(log, 4) == pytest.approx(4.0 / 3.0)


def test_loss_variance_translation_invariant():
    base = [0.3, 1.7, 0.9, 2.2, 1.1]
    a = loss_variance(make_log(base), 5)
    b = loss_variance(make_log([v + 10.0 for v in base]), 5)
    assert a == pytest.approx(b)


def test_loss_variance_window_validation():
    log = make_log([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        loss_variance(log, 1)
    with pytest.raises(ValueError):
        loss_variance(log, 4)


def test_trainlog_csv_roundtrip(tmp_path):
    log = make_log([0.5, 0.25, 0.125])
    f = tmp_path / "log.csv"
    log.write_csv(f)
    assert f.read_text().splitlines()[0] == "step,loss,grad_norm,lambda,lr"
    back = TrainLog.read_csv(f)
    assert back.steps == log.steps
    assert back.losses == log.losses
    assert back.lrs == log.lrs
