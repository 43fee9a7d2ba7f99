"""The three workloads and the reference probe of the traced run.

Each workload derives its configs from ``configs/*.json`` and the seed,
builds its inputs in ``setup`` and then serves rounds: one closed-loop
client issues the round's requests back to back. A round returns the
wall time of every request it timed; the benchmark's own checks run
outside those timings.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import threading
import time

import numpy as np

import mmflow
from mmflow import cli, field_model, meanflow_math, objectives, sampler_eval, trainer
from mmflow.autodiff import Tape, Tensor, backward

import oracles
from oracles import require


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _base_config(root, name):
    return _read_json(os.path.join(root, "configs", name))


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


def mmf(*argv):
    """Run one ``mmf`` command in process, its chatter kept off stdout."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _ok(code, err, what):
    require(code == 0, f"{what} exited {code}: {err.strip()[-300:]}")


def _steps_per_s(spans, steps):
    """Training steps per second of ``train`` time, checkpoint writes
    excluded: one figure per round, over all of the round's ``train`` calls."""
    busy, calls = {}, {}
    for s in spans:
        if s.name == "trainer.train":
            ckpt = sum(c.duration for c in spans
                       if c.name == "field_model.save_checkpoint" and c.parent is s)
            busy[s.request] = busy.get(s.request, 0.0) + s.duration - ckpt
            calls[s.request] = calls.get(s.request, 0) + 1
    return [steps * calls[r] / busy[r] for r in busy]


class Workload:
    name = ""
    ops_per_round = 1
    # span names the untraced run records, needed by its end-to-end metrics
    timed_spans = ()

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        self.work = os.path.join(root, ".perfbench_work", self.name)
        self.checked_once = False

    def fresh_workdir(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def round_dir(self, index):
        # keep only the latest round's artifacts on disk
        shutil.rmtree(os.path.join(self.work, f"round_{index - 1}"), ignore_errors=True)
        return os.path.join(self.work, f"round_{index}")


# ---------------------------------------------------------------------------
# train_decay


class TrainDecay(Workload):
    """``mmf train`` on the shortened decay recipe, then a held-out check."""

    name = "train_decay"
    ops_per_round = 2
    timed_spans = ("trainer.train", "field_model.save_checkpoint")
    STEPS = 400
    HELD_OUT = 4096

    def derive_config(self, steps):
        doc = _base_config(self.root, "decay.json")
        doc["task"]["seed"] = self.seed
        doc["field"]["seed"] = self.seed
        doc["train"].update(total_steps=steps, lr0=3e-3, seed=self.seed,
                            log_every=min(50, steps), checkpoint_every=steps // 4)
        doc["schedule"] = {"kind": "warmup", "t_warmup": max(1, steps // 8)}
        doc["output_dir"] = None
        return doc

    def setup(self):
        self.fresh_workdir()
        self.config = _write_json(os.path.join(self.work, "decay.json"),
                                  self.derive_config(self.STEPS))
        rng = np.random.default_rng((self.seed, 1))
        self.x0, self.x1 = oracles.decay_pairs(rng, self.HELD_OUT)
        self.grad_batch = _decay_batch(rng, 128)
        warm = _write_json(os.path.join(self.work, "warmup.json"), self.derive_config(8))
        _ok(*mmf("train", "--config", warm, "--out", os.path.join(self.work, "warmup")),
            "warm-up mmf train")
        self.trainlog = None

    def round(self, index):
        out = self.round_dir(index)
        (code, err), t_train = _timed(mmf, "train", "--config", self.config, "--out", out)
        _ok(code, err, "mmf train")
        ckpt = os.path.join(out, "ckpt_final.json")
        t0 = time.perf_counter()
        field = mmflow.load_checkpoint(ckpt)
        x0_hat = mmflow.one_step_sample(field, self.x1)
        t_check = time.perf_counter() - t0

        require(not os.path.exists(os.path.join(out, "halt.json")), "training halted")
        mse = float(np.mean(np.sum((x0_hat - self.x0) ** 2, axis=1)))
        require(mse <= 1e-2, f"held-out one-step mse {mse:.3e} > 1e-2")
        mlp = oracles.mlp_from_checkpoint(ckpt)
        err_np = oracles.rel_err(x0_hat, oracles.mlp_one_step(mlp, self.x1))
        require(err_np <= 1e-12, f"one-step samples off the numpy forward by {err_np:.2e}")
        with open(os.path.join(out, "trainlog.csv"), "rb") as fh:
            log = fh.read()
        if self.trainlog is None:
            self.trainlog = log
        require(log == self.trainlog, "trainlog.csv bytes differ between rounds")
        if not self.checked_once:
            check_gradients(field, mlp, self.grad_batch)
            self.checked_once = True
        return {"wall": [t_train + t_check]}, 0

    @staticmethod
    def throughput(spans, times):
        return _steps_per_s(spans, TrainDecay.STEPS), "train_steps_per_s", "steps/s"


def _decay_batch(rng, n):
    """A decay-task batch drawn by the benchmark (absolute-time convention)."""
    x0 = rng.standard_normal((n, 2))
    x1 = x0 * np.exp(-1.0) + 0.01 * rng.standard_normal((n, 2))
    r = rng.uniform(0.0, 0.6, n)
    t = r + rng.uniform(0.01, 1.0, n) * (1.0 - r)
    return objectives.build_batch(x0, x1, r, t, convention="absolute_time")


def _numpy_loss(mlp, batch, bracket=None):
    """Modulated-loss value; with ``bracket`` given it is held fixed."""
    target = batch.x1 - batch.x0
    gap = (batch.t - batch.r)[:, None]
    u, du = oracles.mlp_jvp(mlp, batch.x_t, batch.r, batch.t, target, np.ones_like(batch.t))
    if bracket is not None:
        du = bracket
    return float(np.sum((u + gap * du - target) ** 2) / batch.size), du


def check_gradients(field, mlp, batch, h=1e-6):
    """Loss invariance in lambda and directional central differences.

    At lambda = 1 the gradient is the full derivative of the loss; at
    lambda = 0 it is the derivative with the bracket frozen at its value.
    """
    values = {}
    grads = {}
    for lam in (0.0, 0.5, 1.0):
        with Tape():
            loss = mmflow.loss_lambda(field, batch, lam, target_norm="pair_span")
        values[lam] = loss.data.tobytes()
        g = backward(loss)
        grads[lam] = [g.wrt(p) for p in field.params]
    require(values[0.0] == values[0.5] == values[1.0],
            "loss value changes with the modulation factor")
    value, bracket = _numpy_loss(mlp, batch)
    program = float(np.frombuffer(values[1.0])[0])
    require(abs(program - value) <= 1e-12 * abs(value),
            f"loss {program!r} differs from the numpy value {value!r}")

    rng = np.random.default_rng(12345)
    direction = [rng.standard_normal(p.shape) for p in field.params]
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction))
    direction = [d / norm for d in direction]

    def shifted(step):
        arrays = [p.data + step * d for p, d in zip(field.params, direction)]
        return {"config": mlp["config"], "weights": arrays[0::2], "biases": arrays[1::2]}

    for lam, frozen in ((1.0, None), (0.0, bracket)):
        analytic = sum(float(np.sum(g * d)) for g, d in zip(grads[lam], direction))
        fd = (_numpy_loss(shifted(h), batch, frozen)[0]
              - _numpy_loss(shifted(-h), batch, frozen)[0]) / (2 * h)
        require(abs(analytic - fd) <= 1e-6 * abs(fd) + 1e-10,
                f"lambda={lam}: directional gradient {analytic:.12e} vs central "
                f"difference {fd:.12e}")


# ---------------------------------------------------------------------------
# ablation_point_mass


class AblationPointMass(Workload):
    """``mmf ablation`` over the four modulation variants on point mass."""

    name = "ablation_point_mass"
    ops_per_round = 1
    timed_spans = ("trainer.train", "field_model.save_checkpoint")
    STEPS = 300
    CHECK_ROWS = 2048

    def derive_config(self, steps, n_samples=2048):
        doc = _base_config(self.root, "point_mass.json")
        doc["task"]["seed"] = self.seed
        doc["field"]["seed"] = self.seed
        doc["train"].update(total_steps=steps, lr0=1e-3, seed=self.seed,
                            log_every=min(10, steps), checkpoint_every=0)
        doc["schedule"] = {"kind": "warmup", "t_warmup": max(1, steps // 8)}
        doc["eval"]["n_samples"] = n_samples
        doc["output_dir"] = None
        return doc

    def setup(self):
        self.fresh_workdir()
        doc = self.derive_config(self.STEPS)
        self.config = _write_json(os.path.join(self.work, "point_mass.json"), doc)
        rng = np.random.default_rng((self.seed, 2))
        mean = np.asarray(doc["task"]["target_mean"], dtype=np.float64)
        self.data = mean + doc["task"]["target_std"] * rng.standard_normal((self.CHECK_ROWS, 2))
        self.prior = rng.standard_normal((self.CHECK_ROWS, 2))
        self.data_self = oracles.mean_distance(self.data, self.data, same=True)
        self.ed_prior = (2.0 * oracles.mean_distance(self.prior, self.data)
                         - oracles.mean_distance(self.prior, self.prior, same=True)
                         - self.data_self)
        warm = _write_json(os.path.join(self.work, "warmup.json"),
                           self.derive_config(8, n_samples=64))
        _ok(*mmf("ablation", "--config", warm, "--out", os.path.join(self.work, "warmup")),
            "warm-up mmf ablation")
        self.trainlogs = None

    def round(self, index):
        out = self.round_dir(index)
        (code, err), t_ablation = _timed(mmf, "ablation", "--config", self.config, "--out", out)
        _ok(code, err, "mmf ablation")
        with open(os.path.join(out, "ablation.csv")) as fh:
            variants = [line.split(",")[0] for line in fh.read().splitlines()[1:]]
        require(variants == list(cli.ABLATION_VARIANTS), f"ablation.csv rows: {variants}")
        logs = []
        for variant in cli.ABLATION_VARIANTS:
            sub = os.path.join(out, variant)
            require(not os.path.exists(os.path.join(sub, "halt.json")), f"{variant} halted")
            ckpt = os.path.join(sub, "ckpt_final.json")
            field = mmflow.load_checkpoint(ckpt)
            samples = mmflow.one_step_sample(field, self.prior)
            mlp = oracles.mlp_from_checkpoint(ckpt)
            err_np = oracles.rel_err(samples, oracles.mlp_one_step(mlp, self.prior))
            require(err_np <= 1e-12, f"{variant}: one-step off the numpy forward by {err_np:.2e}")
            ed = (2.0 * oracles.mean_distance(samples, self.data)
                  - oracles.mean_distance(samples, samples, same=True) - self.data_self)
            require(ed <= 0.1 * self.ed_prior,
                    f"{variant}: ED(samples, data) {ed:.4f} > ED(prior, data)/10 "
                    f"= {self.ed_prior / 10:.4f}")
            with open(os.path.join(sub, "trainlog.csv"), "rb") as fh:
                logs.append(fh.read())
            if not self.checked_once:
                check_energy_distance(samples, self.data)
                self.checked_once = True
        if self.trainlogs is None:
            self.trainlogs = logs
        require(logs == self.trainlogs, "trainlog.csv bytes differ between rounds")
        return {"wall": [t_ablation]}, 0

    @staticmethod
    def throughput(spans, times):
        return _steps_per_s(spans, AblationPointMass.STEPS), "train_steps_per_s", "steps/s"


def check_energy_distance(a, b):
    program = mmflow.energy_distance(a, b)
    reference = oracles.energy_distance(a, b)
    require(abs(program - reference) <= 1e-9 * max(abs(reference), 1e-3),
            f"energy_distance {program!r} vs all-pairs reference {reference!r}")
    require(mmflow.energy_distance(a, a) == 0.0, "energy_distance(a, a) != 0")


# ---------------------------------------------------------------------------
# sample_eval


class SampleEval(Workload):
    """A stream of inference requests against set-up checkpoints."""

    name = "sample_eval"
    ROWS = 4096
    FEW_STEP_NS = (1, 2, 4, 8)
    DIRECT = 3       # one-step requests on the main thread per round
    CONCURRENT = 1   # one-step requests on a second thread per round
    ops_per_round = DIRECT + CONCURRENT + len(FEW_STEP_NS) + 4

    def setup(self):
        self.fresh_workdir()
        pm = _base_config(self.root, "point_mass.json")
        pm["task"]["seed"] = self.seed
        pm["train"]["seed"] = self.seed
        pm["output_dir"] = None
        self.pm_config = _write_json(os.path.join(self.work, "point_mass.json"), pm)
        decay = _base_config(self.root, "decay.json")
        decay["task"].update(seed=self.seed, endpoint_noise_std=0.0)
        decay["train"]["seed"] = self.seed
        decay["diagnose"] = {"seed": self.seed}
        decay["output_dir"] = None
        self.oracle_config = _write_json(os.path.join(self.work, "decay_exact.json"), decay)

        f = pm["field"]
        field = mmflow.init_params(mmflow.FieldConfig(
            input_dim=2, hidden_widths=tuple(f["hidden_widths"]),
            time_embed_dim=f["time_embed_dim"], base_frequency=f["base_frequency"],
            seed=self.seed, zero_init_output=False))
        self.mlp_ckpt = os.path.join(self.work, "mlp.json")
        mmflow.save_checkpoint(field, self.mlp_ckpt)
        oracle = mmflow.average_velocity_field(mmflow.HarmonicFlow(2))
        self.oracle_ckpt = _write_json(os.path.join(self.work, "oracle.json"), oracle.to_dict())

        self.field = mmflow.load_checkpoint(self.mlp_ckpt)
        self.oracle = mmflow.load_checkpoint(self.oracle_ckpt)
        self.mlp = oracles.mlp_from_checkpoint(self.mlp_ckpt)
        rng = np.random.default_rng((self.seed, 4))
        self.x1 = rng.standard_normal((self.ROWS, 2))
        self.decay_x0, self.decay_x1 = oracles.decay_pairs(rng, 1024)
        mmflow.one_step_sample(self.field, self.x1)  # warm-up
        self.foreign_nodes = []

    def concurrent_one_step(self):
        """One-step sample on a second thread while this thread holds a Tape.

        Returns the samples and the nodes the request left on that tape.
        """
        result = {}

        def request():
            result["x0"] = mmflow.one_step_sample(self.field, self.x1)

        with Tape() as tape:
            worker = threading.Thread(target=request)
            worker.start()
            worker.join(timeout=60)
        require(not worker.is_alive() and "x0" in result, "concurrent request did not finish")
        return result["x0"], len(tape)

    def round(self, index):
        out = self.round_dir(index)
        times = {"one_step": [], "concurrent": [], "few_step": [], "wall": []}
        failed = 0

        direct = []
        for _ in range(self.DIRECT):
            x0, dt = _timed(mmflow.one_step_sample, self.field, self.x1)
            direct.append(x0)
            times["one_step"].append(dt)
        for _ in range(self.CONCURRENT):
            (x0, nodes), dt = _timed(self.concurrent_one_step)
            times["concurrent"].append(dt)
            self.foreign_nodes.append(nodes)
            require(np.array_equal(x0, direct[0]), "concurrent one-step samples differ")
            failed += nodes > 0
        paths = {}
        for n in self.FEW_STEP_NS:
            paths[n], dt = _timed(mmflow.few_step_sample, self.field, self.x1, n)
            times["few_step"].append(dt)

        samples_dir = os.path.join(out, "sample")
        (code, err), times["sample"] = _timed(
            mmf, "sample", "--config", self.pm_config, "--checkpoint", self.mlp_ckpt,
            "--out", samples_dir, "--seed", self.seed, "--n-samples", self.ROWS)
        _ok(code, err, "mmf sample")
        (code, err), times["eval"] = _timed(
            mmf, "eval", "--config", self.pm_config, "--checkpoint", self.mlp_ckpt,
            "--out", os.path.join(out, "eval"))
        _ok(code, err, "mmf eval (mlp)")
        (code, err), times["oracle_eval"] = _timed(
            mmf, "eval", "--config", self.oracle_config, "--checkpoint", self.oracle_ckpt,
            "--out", os.path.join(out, "oracle_eval"))
        _ok(code, err, "mmf eval (oracle)")
        (code, err), times["diagnose"] = _timed(mmf, "diagnose", "--config", self.oracle_config)
        _ok(code, err, "mmf diagnose")
        times["wall"] = [sum(times["one_step"]) + sum(times["concurrent"])
                         + sum(times["few_step"]) + times["sample"] + times["eval"]
                         + times["oracle_eval"] + times["diagnose"]]
        for key in ("sample", "eval", "oracle_eval", "diagnose"):
            times[key] = [times[key]]

        self.check_direct(direct, paths)
        self.check_artifacts(out)
        if not self.checked_once:
            x0_hat = mmflow.one_step_sample(self.oracle, self.decay_x1)
            mse = float(np.mean(np.sum((x0_hat - self.decay_x0) ** 2, axis=1)))
            require(mse <= 1e-8, f"oracle one-step mse {mse:.3e} > 1e-8")
            pm = _read_json(self.pm_config)
            mean = np.asarray(pm["task"]["target_mean"])
            data = mean + pm["task"]["target_std"] * np.random.default_rng(
                (self.seed, 5)).standard_normal((2048, 2))
            check_energy_distance(direct[0][:2048], data)
            self.checked_once = True
        return times, failed

    def check_direct(self, direct, paths):
        reference = oracles.mlp_one_step(self.mlp, self.x1)
        err = oracles.rel_err(direct[0], reference)
        require(err <= 1e-12, f"one-step samples off the numpy forward by {err:.2e}")
        for x0 in direct[1:]:
            require(np.array_equal(x0, direct[0]), "repeated one-step requests differ")
        require(np.array_equal(paths[1].endpoints, direct[0]),
                "few_step_sample(n=1) is not bitwise one_step_sample")
        for n, p in paths.items():
            _, states = oracles.mlp_few_step(self.mlp, self.x1, n)
            err = oracles.rel_err(p.states, states)
            require(err <= 1e-12, f"few-step n={n} off the numpy sampler by {err:.2e}")

    def check_artifacts(self, out):
        samples = oracles.read_csv(os.path.join(out, "sample", "samples.csv"))
        require(samples.shape == (self.ROWS, 2) and np.all(np.isfinite(samples)),
                f"samples.csv holds {samples.shape} values")
        for n in self.FEW_STEP_NS:
            for cmd in ("sample", "eval"):
                path = oracles.read_csv(os.path.join(out, cmd, f"sample_path_n{n}.csv"))
                times, states = oracles.mlp_few_step(self.mlp, path[:1, 1:], n)
                require(np.array_equal(path[:, 0], times), f"{cmd} path n={n}: time grid")
                err = oracles.rel_err(path[:, 1:], states[:, 0, :])
                require(err <= 1e-12, f"{cmd} path n={n} off the numpy sampler by {err:.2e}")
                if cmd == "sample" and n == 1:
                    err = oracles.rel_err(samples[:1], path[-1:, 1:])
                    require(err <= 1e-12, "samples.csv row 0 disagrees with its n=1 path")
        with open(os.path.join(out, "eval", "metrics.json")) as fh:
            mlp_metrics = json.load(fh)
        require(all(np.isfinite(mlp_metrics[k]) for k in
                    ("one_step_mse", "energy_distance", "d_path", "smoothness")),
                f"mmf eval metrics not finite: {mlp_metrics}")
        with open(os.path.join(out, "oracle_eval", "metrics.json")) as fh:
            oracle_metrics = json.load(fh)
        require(oracle_metrics["one_step_mse"] <= 1e-8,
                f"oracle one-step mse {oracle_metrics['one_step_mse']:.3e} > 1e-8")

    @staticmethod
    def throughput(spans, times):
        """Samples per second of the main-thread one-step requests, one
        figure per round."""
        per_round = times["one_step"]
        k = SampleEval.DIRECT
        return ([k * SampleEval.ROWS / sum(per_round[i:i + k])
                 for i in range(0, len(per_round), k)],
                "one_step_samples_per_s", "samples/s")


WORKLOADS = {w.name: w for w in (TrainDecay, AblationPointMass, SampleEval)}


# ---------------------------------------------------------------------------
# reference probe (traced run only)


def probe(root, seed, work, steps=20):
    """Call every traced layer once or a few times at the reference shape.

    Every per-layer metric then has samples on every workload, including
    the layers the workload itself never calls. Returns the counts that are
    not spans: tape nodes per loss and foreign nodes per concurrent request.
    """
    doc = _base_config(root, "decay.json")
    f = doc["field"]
    cfg = mmflow.FieldConfig(input_dim=2, hidden_widths=tuple(f["hidden_widths"]),
                             time_embed_dim=f["time_embed_dim"],
                             base_frequency=f["base_frequency"], seed=seed)
    task = mmflow.OdeHarmonicTask(dim=2, endpoint_noise_std=0.01, seed=seed)
    field = mmflow.init_params(cfg)
    for lam in (0.0, 0.5):
        tc = mmflow.TrainConfig(
            total_steps=steps, batch_size=doc["train"]["batch_size"], lr0=1e-3,
            schedule=mmflow.ConstantSchedule(lam), seed=seed, task=task, log_every=steps,
            interpolation="absolute_time", target_norm="pair_span")
        field = trainer.train(field, tc).field

    rng = np.random.default_rng((seed, 6))
    batch = _decay_batch(rng, doc["train"]["batch_size"])
    nodes = {}
    for lam in (0.0, 0.5):
        with Tape() as tape:
            objectives.loss_lambda(field, batch, lam, target_norm="pair_span")
        nodes[lam] = len(tape)

    path = os.path.join(work, "probe_ckpt.json")
    for _ in range(3):
        field_model.save_checkpoint(field, path)
        field_model.load_checkpoint(path)
    cli.load_config(os.path.join(root, "configs", "decay.json"))

    x1 = rng.standard_normal((4096, 2))
    for _ in range(3):
        sampler_eval.one_step_sample(field, x1)
    sampler_eval.few_step_sample(field, x1, 4)
    x0_data, x1_data = task.sample_pairs(rng, 2048)
    sampler_eval.energy_distance(sampler_eval.one_step_sample(field, x1_data), x0_data)
    sampler_eval.one_step_mse(field, task, 2048, rng)
    paths = sampler_eval.few_step_sample(field, x1_data[:32], 8)
    for i in range(32):
        ref = task.reference_path(mmflow.SamplePair(x0=x0_data[i], x1=x1_data[i]), grid_len=257)
        sampler_eval.path_deviation(paths.path(i), ref)
        sampler_eval.smoothness(paths.path(i))

    harmonic = mmflow.HarmonicFlow(2)
    oracle = mmflow.average_velocity_field(harmonic)
    x = rng.standard_normal((1000, 2))
    r = rng.uniform(0.0, 0.5, 1000)
    t = r + rng.uniform(0.01, 1.0, 1000) * (1.0 - r)
    for _ in range(3):
        oracle.forward(Tensor(x), Tensor(r), Tensor(t))
    meanflow_math.identity_residual(oracle, harmonic, x, r, t)
    s = r + 0.5 * (t - r)
    meanflow_math.consistency_residual(oracle, x, r, s, t)
    meanflow_math.limit_slope(oracle, harmonic, x[:64], r[:64])

    with Tape() as tape:
        worker = threading.Thread(target=sampler_eval.one_step_sample, args=(field, x1))
        worker.start()
        worker.join(timeout=60)
    return {"tape_nodes_lam0": nodes[0.0], "tape_nodes_lam_pos": nodes[0.5],
            "foreign_nodes": len(tape)}
