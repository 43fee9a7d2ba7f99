"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-6 and 10 are oracle-backed checks that run in seconds. Criterion
7 runs the full 20,000-step reference recipe (a few minutes). Criteria 8-9
share one 5-seed, 3-variant, 2-task training campaign through a session
fixture, whose 30 independent runs share two worker processes.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

import mmflow.cli as cli
from mmflow.autodiff import Tape, Tensor, as_tensor, backward, jvp
from mmflow.field_model import FieldConfig, init_params
from mmflow.meanflow_math import (
    HarmonicFlow,
    average_velocity_field,
    consistency_residual,
    identity_residual,
    limit_slope,
)
from mmflow.objectives import (
    ConstantSchedule,
    TimePairConfig,
    WarmupSchedule,
    build_batch,
    loss_lambda,
    sample_time_pairs,
)
from mmflow.sampler_eval import (
    energy_distance,
    few_step_sample,
    one_step_mse,
    one_step_sample,
    path_deviation,
    smoothness,
)
from mmflow.tasks import Gmm2dTask, OdeHarmonicTask, SamplePair
from mmflow.trainer import TrainConfig, loss_variance, train

from helpers import central_difference, rel_err


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:>2} {name:<38} {status}  {detail}")
    return ok


def sample_rt(rng, b, min_gap=1e-3):
    r = rng.uniform(0.0, 1.0 - 2 * min_gap, b)
    t = r + min_gap + rng.uniform(0.0, 1.0, b) * (1.0 - r - min_gap)
    return r, t


# ---------------------------------------------------------------------------
# criteria 1-3: oracle conformance of the flow identities


def test_criterion_1_identity_conformance():
    rng = np.random.default_rng(10)
    flow = HarmonicFlow(2)
    oracle = average_velocity_field(flow)
    x = rng.standard_normal((1000, 2))
    r, t = sample_rt(rng, 1000)
    t0 = time.monotonic()
    res = identity_residual(oracle, flow, x, r, t)
    elapsed = time.monotonic() - t0
    worst = float(np.max(np.abs(res)))
    ok = worst <= 1e-5 and elapsed < 10.0
    assert report(1, "identity conformance", ok,
                  f"max residual {worst:.2e} (tol 1e-5), {elapsed:.2f}s (<10s)")


def test_criterion_2_consistency_conformance():
    rng = np.random.default_rng(20)
    flow = HarmonicFlow(2)
    oracle = average_velocity_field(flow)
    x = rng.standard_normal((1000, 2))
    g = 0.01
    r = rng.uniform(0.0, 1.0 - 2 * g, 1000)
    s = r + g + rng.uniform(0.0, 1.0, 1000) * (1.0 - r - 2 * g)
    t = s + g + rng.uniform(0.0, 1.0, 1000) * (1.0 - s - g)
    t0 = time.monotonic()
    res = consistency_residual(oracle, x, r, s, t)
    elapsed = time.monotonic() - t0
    worst = float(np.max(np.abs(res)))
    ok = worst <= 1e-5 and elapsed < 10.0
    assert report(2, "path-consistency conformance", ok,
                  f"max residual {worst:.2e} (tol 1e-5), {elapsed:.2f}s (<10s)")


def test_criterion_3_limiting_behavior():
    rng = np.random.default_rng(30)
    flow = HarmonicFlow(2)
    oracle = average_velocity_field(flow)
    x = rng.standard_normal((128, 2))
    r = rng.uniform(0.0, 0.9, 128)
    _, slope = limit_slope(oracle, flow, x, r)
    ok = abs(slope - 1.0) <= 0.1
    assert report(3, "shrinking-interval limit", ok,
                  f"log-log slope {slope:.4f} (1.0 +/- 0.1)")


# ---------------------------------------------------------------------------
# criteria 4-5: the modulated loss family


def _grad_check_setup():
    cfg = FieldConfig(input_dim=1, hidden_widths=(6, 5), time_embed_dim=4,
                      base_frequency=10.0, seed=40)
    field = init_params(cfg)
    rng = np.random.default_rng(41)
    x0 = rng.normal(size=(4, 1))
    x1 = rng.normal(size=(4, 1))
    r, t = sample_time_pairs(rng, 4, TimePairConfig())
    return field, build_batch(x0, x1, r, t)


def test_criterion_4_gradient_correctness():
    field, batch = _grad_check_setup()
    target = (batch.x1 - batch.x0) / (batch.t - batch.r)[:, None]

    _, base_bracket = jvp(
        field.forward, [batch.x_t, batch.r, batch.t],
        [target, np.zeros_like(batch.r), np.ones_like(batch.t)],
    )
    base_bracket = base_bracket.data

    def frozen_share_value(arrs, lam):
        probe = field.with_params([Tensor(a, requires_grad=True) for a in arrs])
        u, bracket = jvp(
            probe.forward, [batch.x_t, batch.r, batch.t],
            [target, np.zeros_like(batch.r), np.ones_like(batch.t)],
        )
        mixed = lam * bracket.data + (1.0 - lam) * base_bracket
        resid = u.data + (batch.t - batch.r)[:, None] * mixed - target
        return float(np.mean(np.sum(resid**2, axis=1)))

    worst = 0.0
    grads_by_lam = {}
    for lam in (0.0, 0.5, 1.0):
        with Tape():
            loss = loss_lambda(field, batch, lam)
        grads = backward(loss)
        grads_by_lam[lam] = np.concatenate(
            [grads.wrt(p).ravel() for p in field.params]
        )
        fd = central_difference(lambda arrs: frozen_share_value(arrs, lam),
                                [p.data for p in field.params])
        for p, g in zip(field.params, fd):
            worst = max(worst, rel_err(grads.wrt(p), g))

    affine_gap = float(np.max(np.abs(
        grads_by_lam[0.5] - (grads_by_lam[0.0]
                            + 0.5 * (grads_by_lam[1.0] - grads_by_lam[0.0]))
    )))
    ok = worst < 1e-4 and affine_gap < 1e-10
    assert report(4, "loss gradient correctness", ok,
                  f"max FD rel err {worst:.2e} (tol 1e-4), "
                  f"affine-in-modulation gap {affine_gap:.2e} (tol 1e-10)")


def test_criterion_5_value_invariance():
    field, batch = _grad_check_setup()
    values = [loss_lambda(field, batch, lam).data
              for lam in (0.0, 0.125, 0.3, 0.5, 0.9, 1.0)]
    ok = all(np.array_equal(values[0], v) for v in values[1:])
    assert report(5, "loss value invariance (bitwise)", ok,
                  f"loss {float(values[0]):.12g} across 6 modulation factors")


# ---------------------------------------------------------------------------
# criterion 6: one-step exactness on the analytic field


def test_criterion_6_one_step_exactness():
    flow = HarmonicFlow(2)
    oracle = average_velocity_field(flow)
    task = OdeHarmonicTask(dim=2, endpoint_noise_std=0.0, seed=60)
    mse = one_step_mse(oracle, task, 512, np.random.default_rng(61))
    ok = mse <= 1e-8
    assert report(6, "one-step inversion exactness", ok,
                  f"mse {mse:.2e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# criterion 7: the full desk-scale training recipe


@pytest.mark.slow
def test_criterion_7_desk_scale_training():
    task = OdeHarmonicTask(dim=2, endpoint_noise_std=0.01, seed=100)
    field = init_params(FieldConfig(
        input_dim=2, base_frequency=20.0, seed=1, zero_init_output=True,
    ))
    cfg = TrainConfig(
        total_steps=20_000, batch_size=128, lr0=1e-4,
        schedule=WarmupSchedule(2_500), seed=7, task=task, log_every=50,
        interpolation="absolute_time", target_norm="pair_span",
    )
    t0 = time.monotonic()
    result = train(field, cfg)
    elapsed = time.monotonic() - t0
    mse = one_step_mse(result.field, task, 4096, np.random.default_rng(999))
    ok = (not result.halted) and mse <= 1e-2 and elapsed < 900.0
    assert report(7, "desk-scale training, decay task", ok,
                  f"held-out 1-step mse {mse:.2e} (tol 1e-2), "
                  f"{elapsed / 60:.1f} min (<15)")


# ---------------------------------------------------------------------------
# criteria 8-9: the modulation ablation campaign


ABLATION_STEPS = 3000
ABLATION_SEEDS = (1, 2, 3, 4, 5)


def _train_variant(task, schedule, seed, steps=ABLATION_STEPS):
    field = init_params(FieldConfig(
        input_dim=2, base_frequency=20.0, seed=seed + 1000, zero_init_output=True,
    ))
    cfg = TrainConfig(
        total_steps=steps, batch_size=128, lr0=3e-4, schedule=schedule,
        seed=seed, task=task, log_every=50,
        interpolation="absolute_time", target_norm="pair_span",
    )
    result = train(field, cfg)
    rows = sum(1 for s in result.log.steps if s >= steps - 2000)
    out = {
        "field": result.field,
        "halted": result.halted,
        "loss_variance": loss_variance(result.log, rows),
    }
    rng = np.random.default_rng((seed, 12345))
    out["one_step_mse"] = one_step_mse(result.field, task, 4096, rng)
    x0, x1 = task.sample_pairs(rng, 4096)
    out["energy_distance"] = energy_distance(
        one_step_sample(result.field, x1), x0
    )
    return out


def _ode_path_metrics(entry, task, seed):
    rng = np.random.default_rng((seed, 777))
    x0, x1 = task.sample_pairs(rng, 16)
    ref = task.reference_path(SamplePair(x0=x0, x1=x1), grid_len=257)
    paths = few_step_sample(entry["field"], x1, 8)
    zero = few_step_sample(lambda x, r, t: as_tensor(np.zeros(x.shape)), x1, 8)
    entry["d_path"] = float(np.mean(path_deviation(paths, ref)))
    entry["smoothness"] = float(np.mean(smoothness(paths)))
    entry["d_path_zero_field"] = float(np.mean(path_deviation(zero, ref)))


VARIANTS = {
    "lambda0": lambda steps: ConstantSchedule(0.0),
    "lambda1": lambda steps: ConstantSchedule(1.0),
    "curriculum": lambda steps: WarmupSchedule(steps // 8),
}

CAMPAIGN_TASKS = {
    "ode": lambda s: OdeHarmonicTask(dim=2, endpoint_noise_std=0.01, seed=s),
    "gmm": lambda s: Gmm2dTask(seed=s),
}


def _campaign_run(task_name, seed, variant, steps):
    """Train and score one (task, seed, variant) run; its metrics. The
    trained field stays behind: the campaign compares metrics only, so
    only they are sent back from a worker process."""
    task = CAMPAIGN_TASKS[task_name](seed + 500)
    entry = _train_variant(task, VARIANTS[variant](steps), seed, steps)
    if task_name == "ode":
        _ode_path_metrics(entry, task, seed)
    del entry["field"]
    return entry


def _run_campaign(seeds=ABLATION_SEEDS, steps=ABLATION_STEPS, workers=2):
    """Every (task, seed, variant) run, in ``workers`` processes of one BLAS
    thread each; ``campaign[task][variant]`` lists the metrics by seed."""
    jobs = [(task_name, seed, variant) for task_name in CAMPAIGN_TASKS
            for seed in seeds for variant in VARIANTS]
    args = [*zip(*jobs), [steps] * len(jobs)]
    if workers == 1:
        entries = list(map(_campaign_run, *args))
    else:
        with cli._pool(workers) as pool:
            entries = list(pool.map(_campaign_run, *args))
    campaign = {task_name: {v: [] for v in VARIANTS} for task_name in CAMPAIGN_TASKS}
    for (task_name, _, variant), entry in zip(jobs, entries):
        campaign[task_name][variant].append(entry)
    return campaign


@pytest.fixture(scope="session")
def ablation_campaign():
    return _run_campaign()


def test_campaign_in_two_workers_equals_serial():
    serial = _run_campaign(seeds=(1, 2), steps=200, workers=1)
    pooled = _run_campaign(seeds=(1, 2), steps=200, workers=2)
    assert len(serial["ode"]["curriculum"]) == 2
    # repr writes each float's shortest round-trip digits, so equal reprs
    # are equal bits (NaN included)
    assert repr(pooled) == repr(serial)


def _median(campaign, task, variant, key):
    return float(np.median([e[key] for e in campaign[task][variant]]))


@pytest.mark.slow
def test_criterion_8_ablation_ordering(ablation_campaign):
    lines = []
    ok = True
    for task in ("ode", "gmm"):
        med = {v: {k: _median(ablation_campaign, task, v, k)
                   for k in ("one_step_mse", "energy_distance", "loss_variance")}
               for v in VARIANTS}
        mse_ok = (med["curriculum"]["one_step_mse"] <= med["lambda0"]["one_step_mse"]
                  and med["curriculum"]["one_step_mse"] <= med["lambda1"]["one_step_mse"])
        en_ok = (med["curriculum"]["energy_distance"] <= med["lambda0"]["energy_distance"]
                 and med["curriculum"]["energy_distance"] <= med["lambda1"]["energy_distance"])
        var_ok = med["curriculum"]["loss_variance"] < med["lambda1"]["loss_variance"]
        ok = ok and mse_ok and en_ok and var_ok
        lines.append(
            f"[{task}] mse c/0/1 = {med['curriculum']['one_step_mse']:.3e}/"
            f"{med['lambda0']['one_step_mse']:.3e}/{med['lambda1']['one_step_mse']:.3e} "
            f"({'ok' if mse_ok else 'VIOLATED'}); "
            f"energy c/0/1 = {med['curriculum']['energy_distance']:.3e}/"
            f"{med['lambda0']['energy_distance']:.3e}/"
            f"{med['lambda1']['energy_distance']:.3e} ({'ok' if en_ok else 'VIOLATED'}); "
            f"variance c/1 = {med['curriculum']['loss_variance']:.3e}/"
            f"{med['lambda1']['loss_variance']:.3e} ({'ok' if var_ok else 'VIOLATED'})"
        )
    report(8, "modulation ablation ordering", ok, " | ".join(lines))
    assert ok, (
        "curriculum does not dominate on every (task, metric) pair. On the "
        "independently-coupled mixture task, full-gradient variants collapse "
        "one-step outputs toward conditional means (low mse, high energy "
        "distance) while pure stop-gradient keeps distributional transport "
        "(high mse, low energy distance); no point on the modulation path "
        "satisfies both orderings simultaneously. Details: " + " | ".join(lines)
    )


@pytest.mark.slow
def test_criterion_9_path_quality(ablation_campaign):
    ode = ablation_campaign["ode"]
    d_curr = float(np.median([e["d_path"] for e in ode["curriculum"]]))
    d_zero = float(np.median([e["d_path_zero_field"] for e in ode["curriculum"]]))
    s_curr = float(np.median([e["smoothness"] for e in ode["curriculum"]]))
    s_full = float(np.median([e["smoothness"] for e in ode["lambda1"]]))
    ratio_ok = d_curr * 10.0 <= d_zero
    smooth_ok = np.isfinite(s_curr) and s_curr < s_full
    ok = ratio_ok and smooth_ok
    assert report(9, "few-step path quality", ok,
                  f"8-step deviation {d_curr:.2e} vs zero-field {d_zero:.2e} "
                  f"({d_zero / max(d_curr, 1e-300):.0f}x, need >=10x); "
                  f"smoothness curriculum {s_curr:.2e} vs full-grad {s_full:.2e}")


# ---------------------------------------------------------------------------
# criterion 10: run-level determinism


def test_criterion_10_determinism(tmp_path):
    import json

    from mmflow.cli import cmd_train

    doc = {
        "task": {"kind": "ode_harmonic", "dim": 1, "endpoint_noise_std": 0.01, "seed": 3},
        "field": {"hidden_widths": [16, 16], "time_embed_dim": 8,
                  "base_frequency": 20.0, "seed": 4, "zero_init_output": True},
        "train": {"total_steps": 200, "batch_size": 32, "lr0": 3e-4, "seed": 5,
                  "log_every": 10, "interpolation": "absolute_time",
                  "target_norm": "pair_span"},
        "schedule": {"kind": "warmup", "t_warmup": 25},
        "output_dir": None,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert cmd_train(str(cfg), out=str(tmp_path / "a")) == 0
    assert cmd_train(str(cfg), out=str(tmp_path / "b")) == 0
    a = (tmp_path / "a" / "trainlog.csv").read_bytes()
    b = (tmp_path / "b" / "trainlog.csv").read_bytes()
    ok = a == b
    assert report(10, "replay determinism (bitwise)", ok,
                  f"{len(a)} bytes, logs identical: {ok}")
