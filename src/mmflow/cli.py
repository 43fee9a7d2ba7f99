"""Experiment orchestration: ``mmf train|eval|sample|diagnose|ablation``.

Configs are strict JSON: unknown keys are rejected with their path, every
default is materialized during canonicalization, and the canonical document
is hashed into the run manifest. Every file a command writes is listed in
that manifest.

Exit codes are a stable contract: 0 success, 1 check failure, 2 config or
compatibility error, 3 numerical halt.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import functools
import hashlib
import inspect
import json
import os
import reprlib
import sys

import numpy as np

from . import __version__
from .autodiff import as_tensor
from .field_model import (
    ConfigError,
    FieldConfig,
    VelocityField,
    _check_seed,
    _check_size,
    _checked,
    _on_one_blas_thread,
    _read_json,
    _set_blas_threads,
    init_params,
    load_checkpoint,
    write_atomic,
    write_csv,
)
from .meanflow_math import (
    ConstantFlow,
    HarmonicFlow,
    average_velocity_field,
    average_velocity_oracle,
    consistency_residual,
    identity_residual,
    limit_slope,
)
from .objectives import ConstantSchedule, TimePairConfig, WarmupSchedule
from .sampler_eval import (
    energy_distance,
    few_step_sample,
    one_step_mse,
    one_step_sample,
    path_deviation,
    smoothness,
)
from .tasks import (
    Gmm2dTask,
    NoReferencePathError,
    OdeHarmonicTask,
    PointMassTask,
    SamplePair,
)
from .trainer import TrainConfig, loss_variance, train

__all__ = [
    "ConfigError",
    "load_config",
    "config_hash",
    "cmd_train",
    "cmd_eval",
    "cmd_sample",
    "cmd_diagnose",
    "cmd_ablation",
    "run_ablation",
    "main",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# config schema
#
# One table entry per section (and per task or schedule kind) names the
# constructor the section feeds and the JSON type of each key. A missing key
# takes the constructor's keyword default, so no default is written twice,
# and every value rule is the constructor's: canonicalization builds each
# section once through ``_checked``, as ``load_checkpoint`` builds a
# checkpoint's, and a value its constructor rejects is a ConfigError at the
# section, the message led by the key. ``eval`` and ``diagnose`` feed no
# library object; their constructors below only hold their rules.

_JSON_TYPES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string"}


def _eval(n_samples: int = 1024, few_step_ns=(1, 2, 4, 8)) -> None:
    _check_size("n_samples", n_samples)
    for n in few_step_ns:
        _check_size("few_step_ns", n)


def _diagnose(seed: int = 0) -> None:
    _check_seed(seed)


@functools.cache  # inspect.signature takes most of a canonicalization
def _defaults(make) -> dict:
    """Keyword defaults of a constructor, tuples as JSON arrays; callers
    copy the dict and never mutate it."""
    return {name: list(p.default) if isinstance(p.default, tuple) else p.default
            for name, p in inspect.signature(make).parameters.items()
            if p.default is not p.empty}


_SCHEMA = {
    "task": {
        "ode_harmonic": (OdeHarmonicTask, {"dim": int, "endpoint_noise_std": float,
                                           "seed": int}),
        "gmm2d": (Gmm2dTask, {"components": int, "ring_radius": float,
                              "component_std": float, "seed": int}),
        "point_mass": (PointMassTask, {"target_mean": [float], "target_std": float,
                                       "seed": int}),
    },
    "field": (FieldConfig, {"input_dim": int, "hidden_widths": [int], "time_embed_dim": int,
                            "base_frequency": float, "seed": int, "zero_init_output": bool}),
    "train": (TrainConfig, {"total_steps": int, "batch_size": int, "lr0": float, "seed": int,
                            "checkpoint_every": int, "log_every": int,
                            "grad_clip": (float, None), "interpolation": str,
                            "target_norm": str}),
    "schedule": {
        "constant": (ConstantSchedule, {"value": float}),
        "warmup": (WarmupSchedule, {"t_warmup": int}),
    },
    "time_pairs": (TimePairConfig, {"min_gap": float, "r_zero_prob": float}),
    "eval": (_eval, {"n_samples": int, "few_step_ns": [int]}),
    "diagnose": (_diagnose, {"seed": int}),
}


def _make(section: str, values: dict, **objects):
    """What the canonical section ``values`` describes, built by the
    constructor its schema entry names, with ``objects`` as extra keywords."""
    spec, kwargs = _SCHEMA[section], dict(values)
    if isinstance(spec, dict):
        spec = spec[kwargs.pop("kind")]
    return _checked(section, spec[0], **kwargs, **objects)


def _convert(value, kind, path: str):
    """``value`` as JSON type ``kind``; ``[kind]`` is a non-empty array of it and
    ``(kind, None)`` also admits null. Integers are accepted as numbers, and a
    number must be finite (``json`` reads ``NaN`` and ``Infinity``)."""
    if isinstance(kind, list):
        if isinstance(value, list) and value:
            return [_convert(v, kind[0], path) for v in value]
        raise ConfigError(path, f"expected a non-empty array, got {reprlib.repr(value)}")
    if isinstance(kind, tuple):
        return None if value is None else _convert(value, kind[0], path)
    if kind is bool:
        ok = isinstance(value, bool)
    else:
        ok = (isinstance(value, (int, float) if kind is float else kind)
              and not isinstance(value, bool))
    if not ok:
        raise ConfigError(path, f"expected {_JSON_TYPES[kind]}, got {reprlib.repr(value)}")
    if kind is not float:
        return value
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = float("inf")
    if not np.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {reprlib.repr(value)}")
    return value


def _key_path(path: str, key: str) -> str:
    """``path.key``, the key as ``reprlib`` abridges it, without its quotes."""
    return f"{path}.{reprlib.repr(key)[1:-1]}"


def _section(doc, path: str, **extra_defaults) -> dict:
    """Check one config section's JSON types against ``_SCHEMA[path]``;
    returns it with every default filled in, ``extra_defaults`` taking
    precedence."""
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected an object, got {reprlib.repr(doc)}")
    spec, out = _SCHEMA[path], {}
    if isinstance(spec, dict):  # a kinded section: the kind picks the entry
        kind = doc.get("kind")
        if kind not in tuple(spec):
            raise ConfigError(f"{path}.kind",
                              f"expected one of {'|'.join(spec)}, got {reprlib.repr(kind)}")
        spec, out = spec[kind], {"kind": kind}
        doc = {k: v for k, v in doc.items() if k != "kind"}
    make, keys = spec
    defaults = {**_defaults(make), **extra_defaults}
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ConfigError(_key_path(path, unknown[0]), "unknown key")
    for key, kind in keys.items():
        where = f"{path}.{key}"
        if key not in doc and key not in defaults:
            raise ConfigError(where, "missing required key")
        out[key] = _convert(doc[key] if key in doc else defaults[key], kind, where)
    return out


def _default_schedule(total_steps: int) -> dict:
    # the warmup horizon keeps the full-run ratio of 8:1
    return {"kind": "warmup", "t_warmup": max(1, total_steps // 8)}


def canonicalize(doc: dict) -> dict:
    """Materialize every default and validate; returns the canonical config."""
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    unknown = sorted(set(doc) - set(_SCHEMA) - {"output_dir"})
    if unknown:
        raise ConfigError(_key_path("<root>", unknown[0]), "unknown key")
    if "task" not in doc:
        raise ConfigError("task", "missing required section")
    out = {"task": _section(doc["task"], "task")}
    dim = _make("task", out["task"]).dim
    out["field"] = _section(doc.get("field", {}), "field", input_dim=dim)
    if out["field"]["input_dim"] != dim:
        raise ConfigError("field.input_dim",
                          f"{out['field']['input_dim']} does not match the task dimension {dim}")
    out["train"] = _section(doc.get("train", {}), "train")
    schedule = doc.get("schedule")
    out["schedule"] = (_default_schedule(out["train"]["total_steps"]) if schedule is None
                       else _section(schedule, "schedule"))
    for name in ("time_pairs", "eval", "diagnose"):
        out[name] = _section(doc.get(name, {}), name)
    for name in ("field", "train", "schedule", "time_pairs", "eval", "diagnose"):
        _make(name, out[name])
    out["eval"]["few_step_ns"] = sorted(set(out["eval"]["few_step_ns"]))
    out["output_dir"] = doc.get("output_dir")
    if out["output_dir"] is not None and not isinstance(out["output_dir"], str):
        raise ConfigError("output_dir", "expected a string path")
    return out


def load_config(path) -> dict:
    return canonicalize(_read_json(path, "<config>"))


def config_hash(canonical: dict) -> str:
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# run assembly


def _build(config: dict):
    task = _make("task", config["task"])
    field = init_params(_make("field", config["field"]))
    train_cfg = _make("train", config["train"], task=task,
                      schedule=_make("schedule", config["schedule"]),
                      time_pairs=_make("time_pairs", config["time_pairs"]))
    return task, field, train_cfg


class _Run:
    """Tracks artifacts written to an output directory and seals a manifest.
    The directory is made when the first artifact path is asked for."""

    def __init__(self, out_dir, config: dict):
        self.out_dir = out_dir
        self.config = config
        self.artifacts = []
        self.started_at = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def path(self, *rel) -> str:
        full = os.path.join(self.out_dir, *rel)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        self.artifacts.append(os.path.join(*rel))
        return full

    def adopt(self, full_path: str):
        self.artifacts.append(os.path.relpath(full_path, self.out_dir))

    def seal(self):
        path = self.path("run_manifest.json")
        manifest = {
            "config_hash": config_hash(self.config),
            "seed": self.config["train"]["seed"],
            "started_at": self.started_at,
            "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "artifacts": sorted(set(self.artifacts)),
            "tool_version": __version__,
        }
        write_atomic(path, lambda fh: json.dump(manifest, fh, indent=2))
        return manifest


def _train_into(run: _Run, config: dict):
    """Train a canonical config into ``run``'s directory: the checkpoints,
    ``trainlog.csv`` and, on a numerical halt, ``halt.json``. Returns the
    task and the ``TrainResult``."""
    task, field, train_cfg = _build(config)
    os.makedirs(run.out_dir, exist_ok=True)
    result = train(field, train_cfg, out_dir=run.out_dir)
    for ckpt in result.checkpoints:
        run.adopt(ckpt)
    result.log.write_csv(run.path("trainlog.csv"))
    if result.halted:
        halt = result.halt_report()
        write_atomic(run.path("halt.json"), lambda fh: json.dump(halt, fh))
    return task, result


def _override_seed(config: dict, seed):
    """Apply a ``--seed`` flag to ``train.seed`` under the seed rule."""
    if seed is not None:
        config["train"]["seed"] = _checked("--seed", _check_seed, seed)


def _resolve_out(config: dict, out) -> str:
    """The output directory: ``--out``, else the config's ``output_dir``.
    It is rejected before any work when it is, or lies under, an existing
    path that is not a directory."""
    name = "--out" if out else "output_dir"
    out = out or config.get("output_dir")
    if not out:
        raise ConfigError("output_dir", "no output directory given (config or --out)")
    existing = os.path.abspath(out)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(name, f"cannot write into {out}: {existing} is not a directory")
    return out


# ---------------------------------------------------------------------------
# evaluation helpers shared by eval and ablation


def _eval_rng(seed: int):
    return np.random.default_rng(np.random.SeedSequence((seed, 0x6576616C)))


def _load_field(checkpoint, task):
    """The checkpoint's field, or None (the reason on stderr) if it cannot
    be read or does not fit the task's dimension."""
    try:
        field = load_checkpoint(checkpoint)
    except ValueError as err:
        print(f"checkpoint error: {err}", file=sys.stderr)
        return None
    if isinstance(field, VelocityField):
        fits = field.config.input_dim == task.dim
    else:
        fits = field.flow.dim == task.dim
    if not fits:
        print("checkpoint is not shape-compatible with the configured task", file=sys.stderr)
        return None
    return field


def _path_metrics(field, task, pairs, n_steps: int):
    """Mean over the samples of their few-step paths' deviation from the
    pairs' ground-truth paths, and of their smoothness."""
    x0, x1 = pairs
    paths = few_step_sample(field, x1, n_steps)
    smooth = float(np.mean(smoothness(paths))) if n_steps >= 2 else None
    try:
        ref = task.reference_path(SamplePair(x0=x0, x1=x1), grid_len=257)
    except NoReferencePathError:
        return None, smooth
    return float(np.mean(path_deviation(paths, ref))), smooth


def _evaluate_field(field, task, eval_cfg: dict, seed: int):
    rng = _eval_rng(seed)
    mse = one_step_mse(field, task, eval_cfg["n_samples"], rng)
    x0, x1 = task.sample_pairs(rng, eval_cfg["n_samples"])
    generated = one_step_sample(field, x1)
    energy = energy_distance(generated, x0)
    path_n = max(eval_cfg["few_step_ns"])
    subset = min(32, eval_cfg["n_samples"])
    d_path, smooth = _path_metrics(field, task, (x0[:subset], x1[:subset]), path_n)
    return {
        "d_path": d_path,
        "smoothness": smooth,
        "one_step_mse": mse,
        "energy_distance": energy,
        "nfe": 1,
    }


def _write_sample_paths(run, field, x1, few_step_ns):
    """Per ``n`` in ``few_step_ns``, the n-step path of ``x1[0]`` as ``sample_path_n{n}.csv``."""
    header = ["t"] + [f"x{j}" for j in range(x1.shape[1])]
    for n in few_step_ns:
        paths = few_step_sample(field, x1[:1], n)
        rows = zip(paths.times.tolist(), paths.states[:, 0].tolist())
        write_csv(run.path(f"sample_path_n{n}.csv"), header, ([t, *row] for t, row in rows))


# ---------------------------------------------------------------------------
# commands


def cmd_train(config_path, out=None, seed=None) -> int:
    config = load_config(config_path)
    _override_seed(config, seed)
    run = _Run(_resolve_out(config, out), config)
    with _on_one_blas_thread():
        _, result = _train_into(run, config)
    run.seal()
    if result.halted:
        print(f"training halted at step {result.halt_step}: {result.halt_reason}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"trained {config['train']['total_steps']} steps; final loss "
          f"{result.log.losses[-1]:.6g}")
    return EXIT_OK


def cmd_eval(config_path, checkpoint, out=None) -> int:
    config = load_config(config_path)
    out_dir = _resolve_out(config, out)
    task = _make("task", config["task"])
    field = _load_field(checkpoint, task)
    if field is None:
        return EXIT_CONFIG
    run = _Run(out_dir, config)
    with _on_one_blas_thread():
        metrics = _evaluate_field(field, task, config["eval"], config["train"]["seed"])
        # JSON has no NaN or infinity: such a metric is written as null
        bad = [key for key, value in metrics.items()
               if value is not None and not np.isfinite(value)]
        metrics.update(dict.fromkeys(bad))
        write_atomic(run.path("metrics.json"), lambda fh: json.dump(metrics, fh, indent=2))
        rng = _eval_rng(config["train"]["seed"])
        _, x1 = task.sample_pairs(rng, 1)
        _write_sample_paths(run, field, x1, config["eval"]["few_step_ns"])
    run.seal()
    print(json.dumps(metrics))
    if bad:
        print("non-finite metrics: " + ", ".join(bad), file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_sample(config_path, checkpoint, out=None, seed=None, n_samples=None) -> int:
    if n_samples is not None:
        _checked("--n-samples", _eval, n_samples=n_samples)
    config = load_config(config_path)
    _override_seed(config, seed)
    out_dir = _resolve_out(config, out)
    task = _make("task", config["task"])
    field = _load_field(checkpoint, task)
    if field is None:
        return EXIT_CONFIG
    run = _Run(out_dir, config)
    n = config["eval"]["n_samples"] if n_samples is None else n_samples
    rng = _eval_rng(config["train"]["seed"])
    _, x1 = task.sample_pairs(rng, n)
    with _on_one_blas_thread():
        samples = one_step_sample(field, x1)
        bad = np.flatnonzero(~np.isfinite(samples).all(axis=1))
        if bad.size:
            print(f"one-step sample row {bad[0]} is not finite ({bad.size} of {n} rows); "
                  "nothing written", file=sys.stderr)
            return EXIT_NUMERICAL
        # one row's list at a time: samples.tolist() at 4096 rows would hold
        # 0.5 MB of float objects at once and raise the peak RSS by that much
        write_csv(run.path("samples.csv"), [f"x{j}" for j in range(samples.shape[1])],
                  (row.tolist() for row in samples))
        _write_sample_paths(run, field, x1, config["eval"]["few_step_ns"])
    run.seal()
    print(f"wrote {n} one-step samples to {out_dir}")
    return EXIT_OK


def cmd_diagnose(config_path=None) -> int:
    """Run the oracle residual suite against its fixed tolerances."""
    diag = (_section({}, "diagnose") if config_path is None
            else load_config(config_path)["diagnose"])
    rng = np.random.default_rng(diag["seed"])
    n = 1000

    def sample_rt(b, min_gap=1e-3):
        r = rng.uniform(0.0, 1.0 - 2 * min_gap, b)
        t = r + min_gap + rng.uniform(0.0, 1.0, b) * (1.0 - r - min_gap)
        return r, t

    def sample_rst(b, min_gap=0.01):
        r = rng.uniform(0.0, 1.0 - 2 * min_gap, b)
        s = r + min_gap + rng.uniform(0.0, 1.0, b) * (1.0 - r - 2 * min_gap)
        t = s + min_gap + rng.uniform(0.0, 1.0, b) * (1.0 - s - min_gap)
        return r, s, t

    harmonic = HarmonicFlow(2)
    constant = ConstantFlow([0.8, -0.5])
    oracle = average_velocity_field(harmonic)
    checks = []

    x = rng.standard_normal((n, 2))
    r, t = sample_rt(n)
    res = identity_residual(oracle, harmonic, x, r, t)
    checks.append(("identity_harmonic", float(np.max(np.abs(res))), 1e-5))

    res = identity_residual(average_velocity_field(constant), constant, x, r, t)
    checks.append(("identity_constant", float(np.max(np.abs(res))), 1e-5))

    x = rng.standard_normal((n, 2))
    r, s, t = sample_rst(n)
    res = consistency_residual(oracle, x, r, s, t)
    checks.append(("consistency_harmonic", float(np.max(np.abs(res))), 1e-5))

    x = rng.standard_normal((64, 2))
    r = rng.uniform(0.0, 0.9, 64)
    _, slope = limit_slope(oracle, harmonic, x, r)
    checks.append(("limit_slope_deviation", abs(slope - 1.0), 0.1))

    # the Simpson rule is the independent reference for the closed form
    x = rng.standard_normal((64, 2))
    r, t = sample_rt(64)
    gapd = np.max(np.abs(
        average_velocity_oracle(harmonic, x, r, t)
        - oracle.forward(as_tensor(x), as_tensor(r), as_tensor(t)).data
    ))
    checks.append(("quadrature_vs_closed_form", float(gapd), 1e-6))

    failures = []
    print(f"{'check':<28}{'value':>14}{'tolerance':>12}  status")
    for name, value, tol in checks:
        ok = value <= tol
        if not ok:
            failures.append(name)
        print(f"{name:<28}{value:>14.3e}{tol:>12.1e}  {'PASS' if ok else 'FAIL'}")
    if failures:
        print("failed checks: " + ", ".join(failures), file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# variant name -> schedule; None is the config's warmup schedule, or the
# default one when the config's is constant
ABLATION_VARIANTS = {
    "lambda0": {"kind": "constant", "value": 0.0},
    "lambda05": {"kind": "constant", "value": 0.5},
    "lambda1": {"kind": "constant", "value": 1.0},
    "curriculum": None,
}


def _worker_count(raw, jobs: int, cpus: int) -> int:
    """Processes for ``jobs`` ablation variants: MMF_THREADS (unset or empty
    means 1), never more than the jobs or the CPUs."""
    try:
        requested = int(raw or "1")
    except ValueError:
        raise ConfigError("MMF_THREADS",
                          f"expected an integer, got {reprlib.repr(raw)}") from None
    return max(1, min(requested, jobs, cpus))


def _pool(workers: int):
    # a forked worker keeps the parent's BLAS thread count, so workers
    # would share the cores between them
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_set_blas_threads, initargs=(1,))


def _ablation_variant(config: dict, name: str, out_dir: str) -> dict:
    """Train and score one variant in ``out_dir/name``; its metric row."""
    schedule = ABLATION_VARIANTS[name]
    if schedule is None:
        schedule = (config["schedule"] if config["schedule"]["kind"] == "warmup"
                    else _default_schedule(config["train"]["total_steps"]))
    run = _Run(os.path.join(out_dir, name), config)
    task, result = _train_into(run, {**config, "schedule": schedule})
    tail_start = config["train"]["total_steps"] - 2000
    window = sum(1 for step in result.log.steps if step >= tail_start)
    metrics = _evaluate_field(result.field, task, config["eval"], config["train"]["seed"])
    return {
        "variant": name,
        "final_loss": result.log.losses[-1] if len(result.log) else float("nan"),
        "halted": result.halted,
        "loss_variance": (loss_variance(result.log, window)
                          if window >= 2 and not result.halted else float("nan")),
        **{key: metrics[key] for key in ("one_step_mse", "d_path", "energy_distance")},
        "artifacts": [os.path.join(name, rel) for rel in run.artifacts],
    }


def run_ablation(config: dict, out_dir) -> list:
    """Train and score every ``ABLATION_VARIANTS`` entry of a canonical config
    into ``out_dir/<variant>``, in up to ``MMF_THREADS`` worker processes.
    Returns one metric row per variant, in order; each row lists its files
    under ``artifacts``, relative to ``out_dir``."""
    names = list(ABLATION_VARIANTS)
    workers = _worker_count(os.environ.get("MMF_THREADS"), len(names), os.cpu_count() or 1)
    jobs = ([config] * len(names), names, [out_dir] * len(names))
    if workers == 1:
        with _on_one_blas_thread():
            return list(map(_ablation_variant, *jobs))
    with _pool(workers) as pool:
        return list(pool.map(_ablation_variant, *jobs))


def cmd_ablation(config_path, out=None, seed=None) -> int:
    """Train the four modulation variants from one seed family and compare."""
    config = load_config(config_path)
    _override_seed(config, seed)
    run = _Run(_resolve_out(config, out), config)
    rows = run_ablation(config, run.out_dir)
    for row in rows:
        run.artifacts += row.pop("artifacts")
    columns = ("variant", "final_loss", "loss_variance", "one_step_mse", "d_path",
               "energy_distance")
    csv_path = run.path("ablation.csv")
    write_csv(csv_path, columns, ([row[key] for key in columns] for row in rows))
    run.seal()
    halted = [r["variant"] for r in rows if r["halted"]]
    if halted:
        print("halted variants: " + ", ".join(halted), file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mmf",
        description="train, evaluate, and diagnose one-step average-velocity models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flag_options = {
        "--checkpoint": {"required": True},
        "--out": {"default": None},
        "--seed": {"type": int, "default": None},
        "--n-samples": {"type": int, "default": None},
    }

    def command(name, *flags, config_optional=False):
        p = sub.add_parser(name)
        p.add_argument("--config", required=not config_optional, default=None)
        for flag in flags:
            p.add_argument(flag, **flag_options[flag])

    # each command registers only the flags it reads
    command("train", "--out", "--seed")
    command("eval", "--checkpoint", "--out")
    command("sample", "--checkpoint", "--out", "--seed", "--n-samples")
    command("diagnose", config_optional=True)
    command("ablation", "--out", "--seed")

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args.config, out=args.out, seed=args.seed)
        if args.command == "eval":
            return cmd_eval(args.config, args.checkpoint, out=args.out)
        if args.command == "sample":
            return cmd_sample(args.config, args.checkpoint, out=args.out,
                              seed=args.seed, n_samples=args.n_samples)
        if args.command == "diagnose":
            return cmd_diagnose(args.config)
        if args.command == "ablation":
            return cmd_ablation(args.config, out=args.out, seed=args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
