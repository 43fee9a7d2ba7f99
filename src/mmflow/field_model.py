"""The learned average-velocity field: an MLP over (state, both times).

Both time arguments get their own sinusoidal embedding and are concatenated
with the state before the first layer. The forward pass is written entirely
in tape operations, so it is differentiable in reverse mode (parameters)
and in forward mode (state/time tangents) alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, as_tensor

__all__ = [
    "TimeEmbedding",
    "FieldConfig",
    "VelocityField",
    "init_params",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = "mmflow-checkpoint"


@dataclass(frozen=True)
class TimeEmbedding:
    """Sinusoidal encoding of a scalar time in [0, 1].

    Component 2k is sin(w_k t) and component 2k+1 is cos(w_k t), with the
    frequencies w_k forming a geometric ladder spanning [1, base_frequency].
    """

    dim: int
    base_frequency: float = 1.0e4

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2 != 0:
            raise ValueError(f"time embedding dim must be even and >= 2, got {self.dim}")
        if self.base_frequency <= 0:
            raise ValueError("base_frequency must be positive")

    def frequencies(self) -> np.ndarray:
        half = self.dim // 2
        if half == 1:
            return np.array([1.0])
        return np.geomspace(1.0, self.base_frequency, half)

    def embed(self, t: float) -> np.ndarray:
        """Plain numpy embedding of a single scalar time."""
        phases = self.frequencies() * float(t)
        out = np.empty(self.dim)
        out[0::2] = np.sin(phases)
        out[1::2] = np.cos(phases)
        return out

    def embed_batch(self, t):
        """Tape-op embedding of a batch of times (Tensor or DualTensor [b])."""
        primal = t.primal if isinstance(t, ad.DualTensor) else as_tensor(t)
        b = primal.shape[0]
        ladder = ad.expand_rows(as_tensor(self.frequencies()), b)
        phases = ad.scale_rows(ladder, t)
        return ad.interleave_cols(ad.sin(phases), ad.cos(phases))


@dataclass(frozen=True)
class FieldConfig:
    input_dim: int
    hidden_widths: tuple = (128, 128, 128)
    time_embed_dim: int = 32
    base_frequency: float = 1.0e4
    seed: int = 0
    zero_init_output: bool = False

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if not self.hidden_widths or any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden_widths must be non-empty positive integers")
        TimeEmbedding(self.time_embed_dim, self.base_frequency)  # validates

    @property
    def layer_sizes(self) -> list:
        first = self.input_dim + 2 * self.time_embed_dim
        return [first, *self.hidden_widths, self.input_dim]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden_widths"] = list(self.hidden_widths)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FieldConfig":
        return cls(**{**d, "hidden_widths": tuple(d["hidden_widths"])})


class VelocityField:
    """Parameterized average-velocity model u(x, r, t).

    Parameters are immutable tensors; an update produces a new field via
    ``with_params``. Forward evaluation is deterministic given the
    parameters and inputs, and may run concurrently on shared parameters.
    """

    def __init__(self, config: FieldConfig, weights, biases):
        self.config = config
        self.weights = list(weights)
        self.biases = list(biases)
        self._embedding = TimeEmbedding(config.time_embed_dim, config.base_frequency)

    @property
    def params(self) -> list:
        """Flat parameter list, alternating weight and bias per layer."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def with_params(self, params) -> "VelocityField":
        weights = [params[2 * i] for i in range(len(self.weights))]
        biases = [params[2 * i + 1] for i in range(len(self.biases))]
        return VelocityField(self.config, weights, biases)

    def forward(self, x, r, t):
        """Evaluate u(x, r, t) for a batch: x [b, d], r [b], t [b]."""
        primal = x.primal if isinstance(x, ad.DualTensor) else as_tensor(x)
        if primal.ndim != 2 or primal.shape[1] != self.config.input_dim:
            raise ad.ShapeMismatchError(
                f"field forward: expected x of shape [b, {self.config.input_dim}], "
                f"got {primal.shape}"
            )
        b = primal.shape[0]
        h = ad.concat_cols(x, self._embedding.embed_batch(r), self._embedding.embed_batch(t))
        last = len(self.weights) - 1
        for i, (w, bias) in enumerate(zip(self.weights, self.biases)):
            h = ad.add(ad.matmul(h, w), ad.expand_rows(bias, b))
            if i != last:
                h = ad.tanh(h)
        return h

    __call__ = forward


def init_params(config: FieldConfig) -> VelocityField:
    """Uniform init scaled by 1/sqrt(fan_in); biases zero; seed-determined."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    sizes = config.layer_sizes
    weights, biases = [], []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        bound = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        if config.zero_init_output and i == len(sizes) - 2:
            w = np.zeros((fan_in, fan_out))
        weights.append(Tensor(w, requires_grad=True))
        biases.append(Tensor(np.zeros(fan_out), requires_grad=True))
    return VelocityField(config, weights, biases)


# ---------------------------------------------------------------------------
# checkpoints
#
# JSON with full-precision decimal floats (json round-trips float64 exactly).
# Two kinds are understood: "mlp" carries config + parameter arrays, and
# "analytic_oracle" names a closed-form reference flow to be used as the
# field, which is handy for exactness baselines in evaluation.


def _state_dict(field: VelocityField) -> dict:
    params = []
    for p in field.params:
        params.append({"shape": list(p.shape), "data": p.data.reshape(-1).tolist()})
    return {
        "format": CHECKPOINT_FORMAT,
        "version": 1,
        "kind": "mlp",
        "config": field.config.to_dict(),
        "params": params,
    }


def save_checkpoint(field: VelocityField, path):
    with open(path, "w") as fh:
        json.dump(_state_dict(field), fh)


def load_checkpoint(path):
    """Load a checkpoint; returns a VelocityField or an oracle field adapter."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a recognized checkpoint file: {path}")
    kind = doc.get("kind", "mlp")
    if kind == "mlp":
        config = FieldConfig.from_dict(doc["config"])
        field = init_params(config)
        stored = doc["params"]
        if len(stored) != len(field.params):
            raise ValueError(
                f"checkpoint has {len(stored)} parameter tensors, "
                f"expected {len(field.params)}"
            )
        params = []
        for p, item in zip(field.params, stored):
            shape = tuple(item["shape"])
            if shape != p.shape:
                raise ValueError(
                    f"checkpoint parameter shape {shape} does not match model "
                    f"shape {p.shape}"
                )
            arr = np.array(item["data"], dtype=np.float64).reshape(shape)
            params.append(Tensor(arr, requires_grad=True))
        return field.with_params(params)
    if kind == "analytic_oracle":
        from . import meanflow_math as mm

        flow = mm.flow_from_dict(doc["flow"])
        return mm.average_velocity_field(
            flow, num_intervals=int(doc.get("quad_intervals", 200))
        )
    raise ValueError(f"unknown checkpoint kind: {kind!r}")
