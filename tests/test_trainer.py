import numpy as np
import pytest

from mmflow.autodiff import Tape, backward
from mmflow.field_model import MAX_SIZE, FieldConfig, init_params
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
    _task_batch_fn,
    adam_step,
    cosine_lr,
    global_grad_norm,
    loss_variance,
    train,
)

from helpers import read_csv_columns, reference_train


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


def test_adam_single_scalar_update_hand_value():
    flat = np.array([1.0])
    state = OptimizerState.init(flat)
    m, v2 = state.m, state.v2
    assert adam_step(state, flat, np.array([1.0]), lr=0.1) is None
    # one bias-corrected step: lr*sqrt(1-b2)/(1-b1) * m/(sqrt(v2)+eps)
    expected = 1.0 - 0.1 * np.sqrt(1 - 0.999) / (1 - 0.9) * 0.1 / (np.sqrt(0.001) + 1e-8)
    assert flat[0] == pytest.approx(expected, rel=1e-14)
    assert flat[0] == pytest.approx(0.9000000316, abs=1e-9)
    assert state.step == 1
    assert state.m is m and state.v2 is v2  # updated in place


def test_adam_zero_gradient_keeps_parameters():
    flat = np.array([1.0, -2.0])
    state = OptimizerState.init(flat)
    adam_step(state, flat, np.zeros(2), lr=0.1)
    assert np.array_equal(flat, [1.0, -2.0])
    assert np.all(state.m == 0.0) and np.all(state.v2 == 0.0)


def test_adam_deterministic():
    def run():
        flat = np.array([0.3, 0.7])
        state = OptimizerState.init(flat)
        adam_step(state, flat, np.array([0.1, -0.2]), lr=0.05)
        adam_step(state, flat, np.array([0.4, 0.1]), lr=0.05)
        return flat

    assert np.array_equal(run(), run())


def test_adam_aborts_on_non_finite_gradient():
    flat = np.array([1.0])
    state = OptimizerState.init(flat)
    with pytest.raises(NonFiniteGradientError):
        adam_step(state, flat, np.array([np.nan]), lr=0.1)
    assert np.array_equal(flat, [1.0])
    assert state.step == 0


def test_adam_non_finite_gradient_leaves_moments_untouched():
    flat = np.array([1.0, 2.0, 3.0])
    state = OptimizerState.init(flat)
    adam_step(state, flat, np.array([0.1, 0.2, 0.3]), lr=0.1)
    before, m, v2 = flat.copy(), state.m.copy(), state.v2.copy()
    with pytest.raises(NonFiniteGradientError, match="entry 2") as err:
        adam_step(state, flat, np.array([0.1, 0.2, np.inf]), lr=0.1)
    assert err.value.index == 2
    assert np.array_equal(flat, before)
    assert np.array_equal(state.m, m) and np.array_equal(state.v2, v2)
    assert state.step == 1


# ---------------------------------------------------------------------------
# one parameter layout

# sha256 of save_checkpoint(init_params(...)) for the configs/decay.json field
DECAY_INIT_SHA256 = "5e9e13af12d3e9f3409ab6d988717eae48f78385ca8b6dd9c5d47da239a5fdfa"


def decay_field():
    import json
    import os

    from mmflow.cli import _build, canonicalize

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", "decay.json")) as fh:
        return _build(canonicalize(json.load(fh)))[1]


@pytest.mark.parametrize("make", ["init_params", "load_checkpoint", "with_params",
                                  "with_compute_dtype", "train"])
def test_every_field_views_its_own_flat_parameter_vector(tmp_path, make):
    import hashlib

    from mmflow.field_model import load_checkpoint, save_checkpoint

    source = decay_field()
    before = source.flat_params.copy()
    if make == "init_params":
        field = source
    elif make == "load_checkpoint":
        save_checkpoint(source, tmp_path / "init.json")
        text = (tmp_path / "init.json").read_bytes()
        assert hashlib.sha256(text).hexdigest() == DECAY_INIT_SHA256
        field = load_checkpoint(tmp_path / "init.json")
        save_checkpoint(field, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == text
    elif make == "with_params":
        field = source.with_params(source.params)
    elif make == "with_compute_dtype":
        field = source.with_compute_dtype(np.float32)
    else:
        cfg = TrainConfig(total_steps=3, batch_size=8, lr0=1e-3, schedule=WarmupSchedule(2),
                          seed=0, log_every=1)
        field = train(source, cfg, batch_fn=drift_batch_fn).field

    flat = field.flat_params
    assert flat.dtype == np.float64 and flat.ndim == 1
    offset = 0
    for p in field.params:  # read-only leaves over consecutive slices, in order
        assert p.requires_grad and not p.data.flags.writeable
        assert p.data.base is flat
        assert p.data.ctypes.data == flat.ctypes.data + flat.itemsize * offset
        offset += p.size
    assert offset == flat.size
    if make == "with_compute_dtype":
        assert flat is source.flat_params
    elif make != "init_params":
        assert not np.shares_memory(flat, source.flat_params)  # never aliases its input
    if make == "train":
        assert not np.array_equal(flat, before)
    else:
        assert np.array_equal(flat, before)
    assert np.array_equal(source.flat_params, before)  # the caller's field is unwritten


# ---------------------------------------------------------------------------
# training loop


def test_each_step_calls_the_traced_functions_once_in_order(monkeypatch):
    # per-layer step tracing opens a step at the batch draw and closes it at
    # adam_step, and attributes jvp/backward/grad-norm time in between
    import mmflow.objectives as objectives
    import mmflow.trainer as trainer_mod

    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(OdeHarmonicTask, "sample_pairs")
    counted(trainer_mod, "loss_lambda")
    counted(objectives, "jvp")
    counted(trainer_mod, "backward")
    counted(trainer_mod, "global_grad_norm")
    counted(trainer_mod, "adam_step")
    task = OdeHarmonicTask(dim=2, endpoint_noise_std=0.01)
    cfg = TrainConfig(total_steps=3, batch_size=8, lr0=1e-3, schedule=WarmupSchedule(2),
                      seed=0, task=task, log_every=1)
    train(init_params(SMALL_FIELD), cfg)
    step = ["sample_pairs", "loss_lambda", "jvp", "backward", "global_grad_norm", "adam_step"]
    assert calls == step * 3


@pytest.mark.parametrize("schedule, grad_clip, interpolation, target_norm", [
    (WarmupSchedule(20), None, "absolute_time", "pair_span"),
    (WarmupSchedule(20), 0.5, "absolute_time", "pair_span"),
    (ConstantSchedule(0.0), None, "absolute_time", "pair_span"),
    (ConstantSchedule(0.0), 0.5, "absolute_time", "pair_span"),
    (WarmupSchedule(20), 0.5, "interval_ratio", "sampled_gap"),
])
def test_train_matches_the_op_chain_step_byte_for_byte(tmp_path, schedule, grad_clip,
                                                        interpolation, target_norm):
    # the fused loss node, the flat parameter vector, in-place Adam and the
    # one-cast gradient change no bit against the step they replaced
    task = OdeHarmonicTask(dim=2, endpoint_noise_std=0.01, seed=3)
    cfg = TrainConfig(total_steps=60, batch_size=30, lr0=3e-3, schedule=schedule, seed=5,
                      task=task, log_every=1, grad_clip=grad_clip,
                      interpolation=interpolation, target_norm=target_norm)
    field = init_params(FieldConfig(input_dim=2, hidden_widths=(32, 32, 32), time_embed_dim=8,
                                    base_frequency=20.0, seed=2))
    res = train(field, cfg, out_dir=tmp_path)
    ref_field, ref_log = reference_train(field, cfg, _task_batch_fn(task, interpolation))
    ref_log.write_csv(tmp_path / "reference.csv")
    assert not res.halted
    assert res.log.lambdas[0] == schedule.at(0) and res.log.lambdas[-1] == schedule.at(59)
    if grad_clip is not None:
        assert max(res.log.grad_norms) > grad_clip  # the clip is exercised
    res.log.write_csv(tmp_path / "trainlog.csv")
    assert (tmp_path / "trainlog.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    for a, b in zip(res.field.params, ref_field.params):
        assert a.data.dtype == b.data.dtype == np.float64
        assert a.data.tobytes() == b.data.tobytes()


def test_train_config_rejects_zero_steps():
    with pytest.raises(ValueError, match="^total_steps "):
        TrainConfig(total_steps=0, batch_size=4, lr0=1e-3,
                    schedule=ConstantSchedule(0.0), seed=0, log_every=1)


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
    direct = np.sqrt(sum(float(np.sum(grads.wrt(p) ** 2)) for p in field.params))
    flat = grads.wrt_flat(field.params, out=np.empty(field.flat_params.size))
    assert abs(global_grad_norm(flat) - direct) < 1e-12


def test_global_grad_norm_does_not_depend_on_blas_threads():
    # OpenBLAS splits a dot product longer than 10k entries across threads
    import ctypes
    from mmflow.field_model import _openblas

    get_threads, set_threads = _openblas("get_num_threads"), _openblas("set_num_threads")
    if get_threads is None or set_threads is None:
        pytest.skip("numpy is not linked against OpenBLAS here")
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    rng = np.random.default_rng(7)
    grads = [rng.normal(size=37_000) * scale for scale in np.geomspace(1e-3, 10.0, 20)]
    before = get_threads()
    try:
        set_threads(1)
        one = [global_grad_norm(g) for g in grads]
        set_threads(2)
        two = [global_grad_norm(g) for g in grads]
    finally:
        set_threads(before)
    assert one == two


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
    assert res.halt_parameter is None
    assert res.last_loss == res.log.losses[-1]
    assert res.last_grad_norm == res.log.grad_norms[-1]
    assert res.halt_lambda == 0.5 and res.halt_lr == cosine_lr(1e-3, 12, 50)


def test_train_halt_names_the_layer_of_a_non_finite_gradient():
    # a state beyond float32's range (~3.4e38) is infinite in the float32
    # step: tanh saturates, so the loss stays finite, but the first layer's
    # weight gradient is inf * 0; in float64 the same step is finite
    field = init_params(FieldConfig(input_dim=1, hidden_widths=(8, 8), time_embed_dim=4,
                                    base_frequency=10.0, seed=0))

    def huge_state(data_rng, time_rng, batch_size, cfg):
        x0 = data_rng.normal(size=(batch_size, 1))
        r, t = sample_time_pairs(time_rng, batch_size, cfg)
        batch = build_batch(x0, x0 + (t - r)[:, None], r, t)
        if huge_state.step == 5:
            batch.x_t[:] = 1e41
        huge_state.step += 1
        return batch

    huge_state.step = 0
    sched = WarmupSchedule(10)
    cfg = TrainConfig(total_steps=20, batch_size=8, lr0=1e-3, schedule=sched, seed=4,
                      log_every=1)
    with np.errstate(over="ignore", invalid="ignore"):
        res = train(field, cfg, batch_fn=huge_state)
    assert res.halted and res.halt_step == 5
    assert res.halt_parameter == "layer 0 weight"
    assert res.halt_reason == "non-finite gradient in layer 0 weight at step 5"
    assert np.isfinite(res.last_loss) and res.last_loss != res.log.losses[-1]
    assert res.last_grad_norm == res.log.grad_norms[-1] and res.log.steps[-1] == 4
    assert res.halt_lambda == sched.at(5) and res.halt_lr == cosine_lr(1e-3, 5, 20)
    assert set(res.halt_report()) == {"halt_step", "reason", "parameter", "last_finite_loss",
                                      "last_finite_grad_norm", "lambda", "lr"}


def test_train_steps_in_float32_and_returns_a_float64_field(tmp_path, monkeypatch):
    import mmflow.trainer as trainer_mod
    from mmflow.field_model import load_checkpoint
    from mmflow.sampler_eval import one_step_sample

    seen = []

    def recording(field, *args, **kwargs):
        seen.append(field.compute_dtype)
        return loss_lambda(field, *args, **kwargs)

    monkeypatch.setattr(trainer_mod, "loss_lambda", recording)
    field = init_params(SMALL_FIELD)
    cfg = TrainConfig(total_steps=10, batch_size=8, lr0=1e-3, schedule=WarmupSchedule(5),
                      seed=3, log_every=5)
    res = train(field, cfg, batch_fn=drift_batch_fn, out_dir=tmp_path)
    assert seen == [np.float32] * 10
    assert field.compute_dtype == res.field.compute_dtype == np.float64
    x1 = np.random.default_rng(0).normal(size=(64, 2))
    loaded = load_checkpoint(tmp_path / "ckpt_final.json")
    assert np.array_equal(one_step_sample(res.field, x1), one_step_sample(loaded, x1))


def test_train_decay_recipe_reaches_a_low_one_step_mse():
    # a seconds-long guard on training quality: the 400-step decay recipe of
    # the benchmark's train_decay workload (the 20k-step run is criterion 7)
    import json
    import os

    from mmflow.cli import _build, canonicalize
    from mmflow.sampler_eval import one_step_mse

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", "decay.json")) as fh:
        doc = json.load(fh)
    doc["task"]["seed"] = doc["field"]["seed"] = 1
    doc["train"].update(total_steps=400, lr0=3e-3, seed=1, log_every=50, checkpoint_every=0)
    doc["schedule"] = {"kind": "warmup", "t_warmup": 50}
    task, field, cfg = _build(canonicalize(doc))
    res = train(field, cfg)
    assert not res.halted
    assert one_step_mse(res.field, task, 4096, np.random.default_rng(1)) <= 1e-2


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


@pytest.mark.parametrize("kwargs, key", [
    ({"total_steps": 10, "log_every": 20}, "log_every"),
    ({"lr0": 0.0}, "lr0"),
    ({"grad_clip": -1.0}, "grad_clip"),
    ({"batch_size": MAX_SIZE + 1}, "batch_size"),
    ({"seed": -1}, "seed"),
    ({"interpolation": "linear"}, "interpolation"),
    ({"target_norm": "unit"}, "target_norm"),
])
def test_train_config_rejects_a_value_leading_with_its_key(kwargs, key):
    with pytest.raises(ValueError, match=f"^{key} "):
        TrainConfig(schedule=ConstantSchedule(0.0), **kwargs)


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
    back = read_csv_columns(f)
    assert back["step"] == log.steps
    assert back["loss"] == log.losses
    assert back["lr"] == log.lrs
