"""Per-layer metrics derived from the spans of a traced run.

Step-level metrics come from spans under a ``trainer.step``; the step's
modulation factor (set by its ``loss_lambda``) labels it lam0 (lambda = 0)
or lam_pos (lambda > 0). Shape-dependent timings keep only calls at the
reference size named in the metric's description, so they compare across
workloads.
"""

from __future__ import annotations

import statistics


def _ms(spans, attr="duration"):
    return [getattr(s, attr) * 1e3 for s in spans]


def _step_lam(span):
    while span is not None and span.name != "trainer.step":
        span = span.parent
    return None if span is None else span.attrs.get("lam")


def percentile(values, q):
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[k]


# name -> (unit, description)
LAYER_METRICS = {
    "tasks.sample_pairs_ms": ("ms", "task batch draw inside a training step"),
    "tasks.reference_path_ms": ("ms", "reference_path at grid 257"),
    "objectives.sample_time_pairs_ms": ("ms", "time-pair draw inside a training step"),
    "objectives.build_batch_ms": ("ms", "build_batch inside a training step"),
    "objectives.loss_lambda_self_ms_lam0": ("ms", "loss_lambda minus its jvp, lambda = 0"),
    "objectives.loss_lambda_self_ms_lam_pos": ("ms", "loss_lambda minus its jvp, lambda > 0"),
    "autodiff.jvp_ms_lam0": ("ms", "jvp of a training loss, lambda = 0"),
    "autodiff.jvp_ms_lam_pos": ("ms", "jvp of a training loss, lambda > 0"),
    "autodiff.backward_ms_lam0": ("ms", "reverse sweep of a training step, lambda = 0"),
    "autodiff.backward_ms_lam_pos": ("ms", "reverse sweep of a training step, lambda > 0"),
    "autodiff.tape_nodes_lam0": ("count", "nodes one loss_lambda records at lambda = 0"),
    "autodiff.tape_nodes_lam_pos": ("count", "nodes one loss_lambda records at lambda = 0.5"),
    "autodiff.foreign_nodes_per_request": (
        "count", "nodes a one-step request on another thread leaves on an open Tape"),
    "field_model.forward_ms": ("ms", "VelocityField.forward at 4096 rows, no tangent"),
    "field_model.save_checkpoint_ms": ("ms", "save_checkpoint of a reference-shape MLP"),
    "field_model.load_checkpoint_ms": ("ms", "load_checkpoint"),
    "field_model.checkpoint_bytes": ("bytes", "size of a reference-shape MLP checkpoint"),
    "trainer.step_ms_p50": ("ms", "training step, median"),
    "trainer.step_ms_p99": ("ms", "training step, 99th percentile"),
    "trainer.adam_step_ms": ("ms", "adam_step inside a training step"),
    "trainer.grad_norm_ms": ("ms", "global_grad_norm inside a training step"),
    "trainer.self_ms": ("ms", "training step minus its traced children"),
    "sampler_eval.one_step_sample_ms": ("ms", "one_step_sample at 4096 rows"),
    "sampler_eval.few_step_sample_ms": ("ms", "few_step_sample at 4096 rows, n = 4"),
    "sampler_eval.energy_distance_ms": ("ms", "energy_distance at 2048 x 2048"),
    "sampler_eval.one_step_mse_ms": ("ms", "one_step_mse at 2048 rows"),
    "sampler_eval.path_metrics_ms": ("ms", "path_deviation plus smoothness, one path"),
    "meanflow_math.oracle_forward_ms": ("ms", "quadrature oracle forward at 1000 rows"),
    "meanflow_math.identity_residual_ms": ("ms", "identity_residual"),
    "meanflow_math.consistency_residual_ms": ("ms", "consistency_residual"),
    "meanflow_math.limit_slope_ms": ("ms", "limit_slope"),
    "cli.load_config_ms": ("ms", "load_config"),
    "cli.self_ms": ("ms", "mmf command minus its traced children"),
    "trace.overhead_s": ("s", "traced minus untraced median round wall time"),
}


def layer_samples(spans, counts):
    """Every per-layer metric's samples (a list) from spans and counts."""
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def named(name, **attrs):
        return [s for s in by.get(name, [])
                if all(s.attrs.get(k) == v for k, v in attrs.items())]

    def in_step(name, lam=None):
        out = []
        for s in named(name):
            step_lam = _step_lam(s)
            if step_lam is None:
                continue
            if lam is None or (step_lam == 0.0) == (lam == 0.0):
                out.append(s)
        return out

    loss_spans = {lam: in_step("objectives.loss_lambda", lam) for lam in (0.0, 0.5)}
    jvp_spans = {lam: [s for s in in_step("autodiff.jvp", lam)
                       if s.parent.name == "objectives.loss_lambda"] for lam in (0.0, 0.5)}
    steps = named("trainer.step")
    path_dev = _ms(named("sampler_eval.path_deviation"))
    smooth = _ms(named("sampler_eval.smoothness"))

    return {
        "tasks.sample_pairs_ms": _ms(in_step("tasks.sample_pairs")),
        "tasks.reference_path_ms": _ms(named("tasks.reference_path")),
        "objectives.sample_time_pairs_ms": _ms(in_step("objectives.sample_time_pairs")),
        "objectives.build_batch_ms": _ms(in_step("objectives.build_batch")),
        "objectives.loss_lambda_self_ms_lam0": _ms(loss_spans[0.0], "self_s"),
        "objectives.loss_lambda_self_ms_lam_pos": _ms(loss_spans[0.5], "self_s"),
        "autodiff.jvp_ms_lam0": _ms(jvp_spans[0.0]),
        "autodiff.jvp_ms_lam_pos": _ms(jvp_spans[0.5]),
        "autodiff.backward_ms_lam0": _ms(in_step("autodiff.backward", 0.0)),
        "autodiff.backward_ms_lam_pos": _ms(in_step("autodiff.backward", 0.5)),
        "autodiff.tape_nodes_lam0": [counts["tape_nodes_lam0"]],
        "autodiff.tape_nodes_lam_pos": [counts["tape_nodes_lam_pos"]],
        "autodiff.foreign_nodes_per_request": counts["foreign_nodes"],
        "field_model.forward_ms": _ms(named("field_model.forward", rows=4096, dual=False)),
        "field_model.save_checkpoint_ms": _ms(named("field_model.save_checkpoint")),
        "field_model.load_checkpoint_ms": _ms(named("field_model.load_checkpoint")),
        "field_model.checkpoint_bytes": [s.attrs["bytes"]
                                         for s in named("field_model.save_checkpoint")],
        "trainer.step_ms_p50": _ms(steps),
        "trainer.step_ms_p99": _ms(steps),
        "trainer.adam_step_ms": _ms(in_step("trainer.adam_step")),
        "trainer.grad_norm_ms": _ms(in_step("trainer.global_grad_norm")),
        "trainer.self_ms": _ms(steps, "self_s"),
        "sampler_eval.one_step_sample_ms": _ms(named("sampler_eval.one_step_sample", rows=4096)),
        "sampler_eval.few_step_sample_ms": _ms(named("sampler_eval.few_step_sample",
                                                     rows=4096, n=4)),
        "sampler_eval.energy_distance_ms": _ms(named("sampler_eval.energy_distance",
                                                     rows=2048, rows_b=2048)),
        "sampler_eval.one_step_mse_ms": _ms(named("sampler_eval.one_step_mse", rows=2048)),
        "sampler_eval.path_metrics_ms": (
            [statistics.median(path_dev) + statistics.median(smooth)]
            if path_dev and smooth else []),
        "meanflow_math.oracle_forward_ms": _ms(named("meanflow_math.oracle_forward",
                                                     rows=1000, dual=False)),
        "meanflow_math.identity_residual_ms": _ms(named("meanflow_math.identity_residual")),
        "meanflow_math.consistency_residual_ms": _ms(
            named("meanflow_math.consistency_residual")),
        "meanflow_math.limit_slope_ms": _ms(named("meanflow_math.limit_slope")),
        "cli.load_config_ms": _ms(named("cli.load_config")),
        "cli.self_ms": _ms(named("cli.main"), "self_s"),
    }


def reduce(name, values):
    if name == "trainer.step_ms_p99":
        return percentile(values, 99)
    return statistics.median(values)
