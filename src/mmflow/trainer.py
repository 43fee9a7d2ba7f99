"""Optimization loop: Adam with cosine decay, scheduled gradient modulation,
and per-step telemetry (loss, gradient norm, modulation factor, lr).

Reproducibility contract: a (seed, config) pair fully determines every
logged number. The seed is split hierarchically into independent streams
for initialization, time-pair sampling, and data sampling, so changing the
logging cadence can never perturb the trajectory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .autodiff import Tape, Tensor, backward
from .field_model import save_checkpoint
from .objectives import (
    TimePairConfig,
    build_batch,
    loss_lambda,
    sample_time_pairs,
)

__all__ = [
    "TrainConfig",
    "OptimizerState",
    "TrainLog",
    "TrainResult",
    "NonFiniteGradientError",
    "cosine_lr",
    "adam_step",
    "global_grad_norm",
    "train",
    "loss_variance",
]


class NonFiniteGradientError(RuntimeError):
    """A gradient contained NaN or infinity; the step was aborted."""


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int = 20_000
    batch_size: int = 128
    lr0: float = 1e-4
    schedule: object = None  # ConstantSchedule | WarmupSchedule
    seed: int = 0
    task: object = None
    checkpoint_every: int = 0  # 0 disables intermediate checkpoints
    log_every: int = 50
    time_pairs: TimePairConfig = dc_field(default_factory=TimePairConfig)
    grad_clip: Optional[float] = None  # off by default; opt-in global-norm clip
    interpolation: str = "interval_ratio"
    target_norm: str = "sampled_gap"

    def __post_init__(self):
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lr0 <= 0:
            raise ValueError("lr0 must be positive")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")
        if self.total_steps and self.log_every > self.total_steps:
            raise ValueError("log_every must not exceed total_steps")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive when set")


@dataclass
class OptimizerState:
    m: list
    v2: list
    step: int
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, params, beta1=0.9, beta2=0.999, eps=1e-8) -> "OptimizerState":
        return cls(
            m=[np.zeros(p.shape) for p in params],
            v2=[np.zeros(p.shape) for p in params],
            step=0,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
        )


def cosine_lr(lr0: float, step: int, total_steps: int) -> float:
    """Half-cosine decay from lr0 at step 0 to 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr0 * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))


def adam_step(state: OptimizerState, params, grads, lr: float):
    """One bias-corrected Adam update; returns (new state, new params).

    The bias correction is folded into the step size
    (lr * sqrt(1 - b2^t) / (1 - b1^t)) with eps added to the uncorrected
    root. Non-finite gradients abort the step: the exception carries the
    event and both state and parameters stay untouched.
    """
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in parameter {i}")
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    step_size = lr * np.sqrt(1.0 - b2**t) / (1.0 - b1**t)
    new_m, new_v2, new_params = [], [], []
    for p, g, m, v2 in zip(params, grads, state.m, state.v2):
        m = b1 * m + (1.0 - b1) * g
        v2 = b2 * v2 + (1.0 - b2) * g * g
        new_m.append(m)
        new_v2.append(v2)
        new_params.append(
            Tensor(p.data - step_size * m / (np.sqrt(v2) + state.eps), requires_grad=True)
        )
    new_state = OptimizerState(
        m=new_m, v2=new_v2, step=t, beta1=b1, beta2=b2, eps=state.eps
    )
    return new_state, new_params


def global_grad_norm(grads) -> float:
    """2-norm over the concatenation of all gradient tensors."""
    total = 0.0
    for g in grads:
        total += float(np.sum(np.square(g)))
    return float(np.sqrt(total))


@dataclass
class TrainLog:
    """Telemetry rows (step, loss, grad_norm, lambda, lr), strictly increasing."""

    steps: list = dc_field(default_factory=list)
    losses: list = dc_field(default_factory=list)
    grad_norms: list = dc_field(default_factory=list)
    lambdas: list = dc_field(default_factory=list)
    lrs: list = dc_field(default_factory=list)

    def append(self, step, loss, grad_norm, lam, lr):
        if self.steps and step <= self.steps[-1]:
            raise ValueError("log steps must be strictly increasing")
        self.steps.append(int(step))
        self.losses.append(float(loss))
        self.grad_norms.append(float(grad_norm))
        self.lambdas.append(float(lam))
        self.lrs.append(float(lr))

    def __len__(self):
        return len(self.steps)

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("step,loss,grad_norm,lambda,lr\n")
            for row in zip(self.steps, self.losses, self.grad_norms, self.lambdas, self.lrs):
                fh.write(f"{row[0]}," + ",".join(f"{v:.17g}" for v in row[1:]) + "\n")

    @classmethod
    def read_csv(cls, path) -> "TrainLog":
        log = cls()
        with open(path) as fh:
            next(fh)
            for line in fh:
                cells = line.strip().split(",")
                log.append(int(cells[0]), *map(float, cells[1:]))
        return log


@dataclass
class TrainResult:
    field: object
    log: TrainLog
    checkpoints: list
    halted: bool = False
    halt_step: Optional[int] = None
    halt_reason: Optional[str] = None


def _task_batch_fn(task, convention):
    def batch_fn(data_rng, time_rng, batch_size, cfg):
        x0, x1 = task.sample_pairs(data_rng, batch_size)
        r, t = sample_time_pairs(time_rng, batch_size, cfg)
        return build_batch(x0, x1, r, t, convention=convention)

    return batch_fn


def _should_log(step, total_steps, every):
    return (step + 1) % every == 0 or step == total_steps - 1


def train(field, config: TrainConfig, batch_fn: Optional[Callable] = None,
          out_dir=None) -> TrainResult:
    """Run the optimization loop.

    ``batch_fn(data_rng, time_rng, batch_size, time_cfg) -> TrainingBatch``
    overrides the task-driven batch assembly when supplied. Checkpoints are
    written to ``out_dir`` (ckpt_{step}.json, plus a final one) when a
    directory is given. A non-finite loss or gradient halts training and
    returns the partial log.
    """
    if batch_fn is None:
        if config.task is None:
            raise ValueError("train needs either config.task or an explicit batch_fn")
        batch_fn = _task_batch_fn(config.task, config.interpolation)

    # stream 0 is reserved for parameter init (fields arrive pre-initialized)
    _, time_ss, data_ss = np.random.SeedSequence(config.seed).spawn(3)
    time_rng = np.random.default_rng(time_ss)
    data_rng = np.random.default_rng(data_ss)

    params = field.params
    state = OptimizerState.init(params)
    log = TrainLog()
    checkpoints = []

    def write_ckpt(step_label):
        if out_dir is None:
            return
        path = os.path.join(out_dir, f"ckpt_{step_label}.json")
        save_checkpoint(field, path)
        checkpoints.append(path)

    for step in range(config.total_steps):
        batch = batch_fn(data_rng, time_rng, config.batch_size, config.time_pairs)
        lam = config.schedule.at(step)
        lr = cosine_lr(config.lr0, step, config.total_steps)

        with Tape():
            loss = loss_lambda(field, batch, lam, target_norm=config.target_norm)
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            return TrainResult(
                field, log, checkpoints, halted=True, halt_step=step,
                halt_reason=f"non-finite loss at step {step}",
            )
        grads = backward(loss)
        grad_list = [grads.wrt(p) for p in params]
        grad_norm = global_grad_norm(grad_list)
        if config.grad_clip is not None and grad_norm > config.grad_clip:
            scale = config.grad_clip / grad_norm
            grad_list = [g * scale for g in grad_list]
        try:
            state, params = adam_step(state, params, grad_list, lr)
        except NonFiniteGradientError as err:
            return TrainResult(
                field, log, checkpoints, halted=True, halt_step=step,
                halt_reason=str(err),
            )
        field = field.with_params(params)

        if _should_log(step, config.total_steps, config.log_every):
            log.append(step, loss_val, grad_norm, lam, lr)
        if config.checkpoint_every and (step + 1) % config.checkpoint_every == 0:
            write_ckpt(step + 1)

    if config.total_steps:
        write_ckpt("final")
    return TrainResult(field, log, checkpoints)


def loss_variance(log: TrainLog, window: int) -> float:
    """Sample variance (ddof=1) of the last ``window`` logged losses."""
    if window < 2:
        raise ValueError("variance window must be >= 2")
    if window > len(log):
        raise ValueError(f"window {window} exceeds {len(log)} logged rows")
    tail = np.asarray(log.losses[-window:])
    return float(np.var(tail, ddof=1))
