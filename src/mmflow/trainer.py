"""Optimization loop: Adam with cosine decay, scheduled gradient modulation,
and per-step telemetry (loss, gradient norm, modulation factor, lr).

Reproducibility contract: a (seed, config) pair fully determines every
logged number on a given machine and BLAS build. The seed is split
hierarchically into independent streams for initialization, time-pair
sampling, and data sampling, so changing the logging cadence can never
perturb the trajectory. The MLP computes in float32 during training, so
its rounding differs from a float64 step; the logged numbers, the
parameters and the checkpoints are float64.
"""

from __future__ import annotations

import math
import os
import reprlib
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .autodiff import Tape, backward
from .field_model import (_check_seed, _check_size, _integer, save_checkpoint, write_atomic,
                          write_csv)
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


# Adam's moment decay rates and the epsilon added to the root of the second moment
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class NonFiniteGradientError(RuntimeError):
    """A gradient contained NaN or infinity; the step was aborted.

    ``index`` is the position of the first offending entry of the flat
    gradient vector."""

    def __init__(self, index: int):
        super().__init__(f"non-finite gradient in entry {index}")
        self.index = index


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
        for key in ("total_steps", "log_every", "checkpoint_every"):
            object.__setattr__(self, key, _integer(key, getattr(self, key)))
        object.__setattr__(self, "batch_size", _check_size("batch_size", self.batch_size))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")
        if not 0 < self.lr0 < math.inf:
            raise ValueError(f"lr0 must be finite and positive, got {self.lr0}")
        if not 1 <= self.log_every <= self.total_steps:
            raise ValueError(f"log_every must lie in [1, total_steps = {self.total_steps}], "
                             f"got {self.log_every}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.grad_clip is not None and not 0 < self.grad_clip < math.inf:
            raise ValueError(f"grad_clip must be finite and positive, got {self.grad_clip}")
        for key, choices in (("interpolation", ("interval_ratio", "absolute_time")),
                             ("target_norm", ("sampled_gap", "pair_span"))):
            if getattr(self, key) not in choices:
                raise ValueError(f"{key} must be one of {'|'.join(choices)}, "
                                 f"got {reprlib.repr(getattr(self, key))}")


@dataclass
class OptimizerState:
    """Adam moments as float64 vectors laid out as the flat parameter
    vector, and the step count. ``adam_step`` updates the moments in place
    and reuses ``work`` for its temporaries: a fresh temporary of this size
    is fresh memory from the allocator, and its page faults cost more than
    the arithmetic."""

    m: np.ndarray
    v2: np.ndarray
    step: int
    work: Optional[np.ndarray] = dc_field(default=None, repr=False, compare=False)

    @classmethod
    def init(cls, flat: np.ndarray) -> "OptimizerState":
        """Zero moments for the flat parameter vector ``flat``."""
        return cls(m=np.zeros(flat.size), v2=np.zeros(flat.size), step=0)


def cosine_lr(lr0: float, step: int, total_steps: int) -> float:
    """Half-cosine decay from lr0 at step 0 to 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr0 * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))


def adam_step(state: OptimizerState, flat: np.ndarray, grad: np.ndarray, lr: float) -> None:
    """One bias-corrected Adam update of the flat float64 parameter vector
    ``flat``, in place, from the gradient vector ``grad`` laid out alike
    (``train`` passes its field's ``flat_params``). The moments in
    ``state`` are updated in place too. The bias correction is folded into
    the step size (lr * sqrt(1 - b2^t) / (1 - b1^t)) with ``EPS`` added to
    the uncorrected root. A non-finite gradient entry aborts the step
    before anything is written: ``NonFiniteGradientError`` names the
    first such entry, and both state and parameters stay untouched.
    """
    finite = np.isfinite(grad)
    if not finite.all():
        raise NonFiniteGradientError(int(np.argmin(finite)))
    t = state.step + 1
    step_size = lr * np.sqrt(1.0 - BETA2**t) / (1.0 - BETA1**t)
    m, v2 = state.m, state.v2
    if state.work is None:
        state.work = np.empty((2, m.size))
    # in place, with the rounding of m = b1*m + (1-b1)*g,
    # v2 = b2*v2 + (1-b2)*g*g and p - step_size*m / (sqrt(v2) + eps)
    work, denom = state.work
    np.multiply(grad, 1.0 - BETA1, out=work)
    m *= BETA1
    m += work
    np.multiply(grad, 1.0 - BETA2, out=work)
    work *= grad
    v2 *= BETA2
    v2 += work
    np.sqrt(v2, out=denom)
    denom += EPS
    np.multiply(m, step_size, out=work)
    work /= denom
    flat -= work
    state.step = t


def global_grad_norm(grad: np.ndarray) -> float:
    """2-norm of the flat gradient vector ``grad``, summed by ``einsum``:
    OpenBLAS splits a long dot across its threads, so ``g @ g`` rounds by
    the BLAS thread count."""
    return float(np.sqrt(np.einsum("i,i->", grad, grad)))


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
        write_csv(path, ("step", "loss", "grad_norm", "lambda", "lr"),
                  zip(self.steps, self.losses, self.grad_norms, self.lambdas, self.lrs))


@dataclass
class TrainResult:
    """What ``train`` returns. On a halt, ``halt_parameter`` names the
    parameter with the first non-finite gradient (``None`` for a
    non-finite loss), ``last_loss`` and ``last_grad_norm`` are the last
    finite values computed (``None`` if there were none), and
    ``halt_lambda`` and ``halt_lr`` are the halted step's."""

    field: object
    log: TrainLog
    checkpoints: list
    halted: bool = False
    halt_step: Optional[int] = None
    halt_reason: Optional[str] = None
    halt_parameter: Optional[str] = None
    last_loss: Optional[float] = None
    last_grad_norm: Optional[float] = None
    halt_lambda: Optional[float] = None
    halt_lr: Optional[float] = None

    def halt_report(self) -> dict:
        """The content of ``halt.json``."""
        return {
            "halt_step": self.halt_step,
            "reason": self.halt_reason,
            "parameter": self.halt_parameter,
            "last_finite_loss": self.last_loss,
            "last_finite_grad_norm": self.last_grad_norm,
            "lambda": self.halt_lambda,
            "lr": self.halt_lr,
        }


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

    The field stepped here computes its MLP in float32 (mixed precision:
    the parameters, the Adam moments, the gradient vector, the loss and
    the grad norm stay float64). It is a copy (``with_params``), so the
    caller's field is never written; ``adam_step`` updates the copy's
    ``flat_params`` in place. When the last periodic checkpoint falls on
    the final step, the final one is a byte copy of it. The returned field
    computes in float64 again, like one loaded from the final checkpoint.
    """
    if batch_fn is None:
        if config.task is None:
            raise ValueError("train needs either config.task or an explicit batch_fn")
        batch_fn = _task_batch_fn(config.task, config.interpolation)
    if config.schedule is None:
        raise ValueError("train needs config.schedule")

    # stream 0 is reserved for parameter init (fields arrive pre-initialized)
    _, time_ss, data_ss = np.random.SeedSequence(config.seed).spawn(3)
    time_rng = np.random.default_rng(time_ss)
    data_rng = np.random.default_rng(data_ss)

    field = field.with_params(field.params).with_compute_dtype(np.float32)
    params, flat = field.params, field.flat_params
    ends = np.cumsum([p.size for p in params])  # flat entry -> parameter index
    state = OptimizerState.init(flat)
    grad = np.empty_like(flat)  # every step's gradient, reused (see OptimizerState)
    log = TrainLog()
    checkpoints = []
    last_loss = last_grad_norm = None

    def write_ckpt(step_label):
        path = os.path.join(out_dir, f"ckpt_{step_label}.json")
        save_checkpoint(field, path)
        checkpoints.append(path)

    def halt(step, lam, lr, reason, parameter=None):
        return TrainResult(
            field.with_compute_dtype(np.float64), log, checkpoints, halted=True,
            halt_step=step, halt_reason=reason, halt_parameter=parameter,
            last_loss=last_loss, last_grad_norm=last_grad_norm,
            halt_lambda=float(lam), halt_lr=float(lr),
        )

    every = config.checkpoint_every if out_dir is not None else 0
    for step in range(config.total_steps):
        batch = batch_fn(data_rng, time_rng, config.batch_size, config.time_pairs)
        lam = config.schedule.at(step)
        lr = cosine_lr(config.lr0, step, config.total_steps)

        with Tape():
            loss = loss_lambda(field, batch, lam, target_norm=config.target_norm)
        loss_val = float(loss.data)
        if not math.isfinite(loss_val):
            return halt(step, lam, lr, f"non-finite loss at step {step}")
        last_loss = loss_val
        grads = backward(loss)
        grads.wrt_flat(params, out=grad)
        grad_norm = global_grad_norm(grad)
        if math.isfinite(grad_norm):
            last_grad_norm = grad_norm
        if config.grad_clip is not None and grad_norm > config.grad_clip:
            grad *= config.grad_clip / grad_norm
        try:
            adam_step(state, flat, grad, lr)  # steps ``field`` in place
        except NonFiniteGradientError as err:
            label = field.param_labels[int(np.searchsorted(ends, err.index, side="right"))]
            return halt(step, lam, lr, f"non-finite gradient in {label} at step {step}", label)

        if _should_log(step, config.total_steps, config.log_every):
            log.append(step, loss_val, grad_norm, lam, lr)
        if every and (step + 1) % every == 0:
            write_ckpt(step + 1)

    if out_dir is not None:
        if every and config.total_steps % every == 0:
            # the last periodic checkpoint already holds the final parameters;
            # its JSON is one ASCII line, so a text copy is a byte copy
            final = os.path.join(out_dir, "ckpt_final.json")
            with open(checkpoints[-1]) as fh:
                text = fh.read()
            write_atomic(final, lambda fh: fh.write(text))
            checkpoints.append(final)
        else:
            write_ckpt("final")
    return TrainResult(field.with_compute_dtype(np.float64), log, checkpoints)


def loss_variance(log: TrainLog, window: int) -> float:
    """Sample variance (ddof=1) of the last ``window`` logged losses."""
    if window < 2:
        raise ValueError("variance window must be >= 2")
    if window > len(log):
        raise ValueError(f"window {window} exceeds {len(log)} logged rows")
    tail = np.asarray(log.losses[-window:])
    return float(np.var(tail, ddof=1))
