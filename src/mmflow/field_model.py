"""The learned average-velocity field: an MLP over (state, both times).

Both time arguments get their own sinusoidal embedding and are concatenated
with the state before the first layer. The forward pass is closed-form
numpy that carries forward-mode tangents itself and records the whole MLP
as one tape node with a hand-written reverse pass, so it is differentiable
in reverse mode (parameters) and in forward mode (state/time tangents)
alike.
"""

from __future__ import annotations

import copy
import json
import os
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
    "write_atomic",
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
        self._freqs = self._embedding.frequencies()

    @property
    def params(self) -> list:
        """Flat parameter list, alternating weight and bias per layer."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def with_params(self, params) -> "VelocityField":
        field = copy.copy(self)  # shares the config and the frequency ladder
        field.weights = list(params[0::2])
        field.biases = list(params[1::2])
        return field

    def forward(self, x, r, t):
        """Evaluate u(x, r, t) for a batch: x [b, d], r [b], t [b].

        A closed-form numpy pass. With ``DualTensor`` inputs it returns
        ``DualTensor(u, du)`` and carries the tangent layer by layer,
        skipping each block of the first-layer input (x, r embedding,
        t embedding) whose tangent is all zero. While a tape records, the
        whole MLP is one node over ``params`` (and x and its tangent, when
        attached) with a hand-written reverse pass; its outputs are ``u``
        and, inside ``jvp(..., attach=True)``, ``du``. The primal is
        bit-for-bit the op-by-op pass of ``_forward_ops``.

        The times are never differentiated in reverse mode: ``ValueError``
        is raised when ``r`` or ``t`` is attached to the recording tape, or,
        inside ``jvp(..., attach=True)``, when their tangent is.
        """
        (xp, dx), (rp, dr), (tp, dt) = (ad._unpack(v) for v in (x, r, t))
        b = self._check_inputs(xp, rp, tp)
        dual = dx is not None or dr is not None or dt is not None
        attach = dual and ad._DUAL_ATTACH.get()
        tape = ad._active_tape()
        if tape is not None and (
            _attached(tape, rp) or _attached(tape, tp)
            or attach and (_attached(tape, dr) or _attached(tape, dt))
        ):
            raise ValueError(
                "field forward: r, t and their tangents must not be attached "
                "to the recording tape"
            )
        if tape is not None:
            in_gids = tuple(ad._gid_on(tape, p) for p in self.params) + (
                ad._gid_on(tape, xp),
                ad._gid_on(tape, dx) if attach and dx is not None else None,
            )
            if all(g is None for g in in_gids):
                tape = None
        record = tape is not None
        keep_tangent = record and attach

        d, k = self.config.input_dim, self.config.time_embed_dim
        h = np.empty((b, d + 2 * k))
        h[:, :d] = xp.data
        self._embed(rp.data, h[:, d:d + k])
        self._embed(tp.data, h[:, d + k:])
        blocks = []  # (first row of W0, tangent block) for non-zero blocks
        if dual:
            if dx is not None and dx.data.any():
                blocks.append((0, dx.data))
            for lo, tv in ((d, dr), (d + k, dt)):
                if tv is not None and tv.data.any():
                    blocks.append((lo, self._embed_tangent(h[:, lo:lo + k], tv.data)))

        # layer inputs, their tangents, tanh slopes 1 - a^2 and pre-activation
        # tangents, kept only while recording
        hs, dhs, ss, dzs = [], [], [], []
        last = len(self.weights) - 1
        dz = dh = None
        for i, (w, bias) in enumerate(zip(self.weights, self.biases)):
            W = w.data
            z = h @ W
            z += bias.data
            if dual:
                if i == 0:
                    dz = np.zeros_like(z)
                    for lo, blk in blocks:
                        dz += blk @ W[lo:lo + blk.shape[1]]
                else:
                    dz = dh @ W
            if record:
                hs.append(h)
                if keep_tangent:
                    dhs.append(dh)
            if i != last:
                np.tanh(z, out=z)
                if dual:
                    s = z * z
                    np.subtract(1.0, s, out=s)
                    dh = s * dz
                    if record:
                        ss.append(s)
                    if keep_tangent:
                        dzs.append(dz)
            h = z

        u = Tensor._wrap(h)
        du = Tensor._wrap(dz) if dual else None
        if record:
            weights = [w.data for w in self.weights]

            def bwd(gu, gdu=None):
                gz = gu if gu is not None else np.zeros_like(h)
                gdz = gdu
                out = [None] * len(in_gids)
                for i in range(last, -1, -1):
                    gw = hs[i].T @ gz
                    if gdz is not None:
                        if i:
                            gw += dhs[i].T @ gdz
                        else:
                            for lo, blk in blocks:
                                gw[lo:lo + blk.shape[1]] += blk.T @ gdz
                    out[2 * i] = gw
                    out[2 * i + 1] = gz.sum(axis=0)
                    if i == 0:
                        break
                    gh = gz @ weights[i].T
                    a = hs[i]
                    if ss:
                        s = ss[i - 1]
                    else:
                        s = a * a
                        np.subtract(1.0, s, out=s)
                    if gdz is not None:
                        # through dh = s * dz with s = 1 - a^2 and ds/dz = -2 a s
                        gdh = gdz @ weights[i].T
                        curv = a * dzs[i - 1]
                        curv *= gdh
                        curv *= 2.0
                        gh -= curv
                        gdh *= s
                        gdz = gdh
                    gh *= s
                    gz = gh
                if in_gids[-2] is not None:
                    out[-2] = gz @ weights[0][:d].T
                if in_gids[-1] is not None and gdz is not None:
                    out[-1] = gdz @ weights[0][:d].T
                return out

            ad._emit_multi(tape, "mlp", (u, du) if attach else (u,), in_gids, bwd)
        return ad.DualTensor(u, du) if dual else u

    __call__ = forward

    def _check_inputs(self, x: Tensor, r: Tensor, t: Tensor) -> int:
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise ad.ShapeMismatchError(
                f"field forward: expected x of shape [b, {self.config.input_dim}], "
                f"got {x.shape}"
            )
        b = x.shape[0]
        if r.shape != (b,) or t.shape != (b,):
            raise ad.ShapeMismatchError(
                f"field forward: expected r and t of shape [{b}], "
                f"got {r.shape} and {t.shape}"
            )
        return b

    def _embed(self, tv: np.ndarray, out: np.ndarray):
        """Numpy ``TimeEmbedding.embed_batch`` into ``out``, same rounding."""
        phases = tv[:, None] * self._freqs
        out[:, 0::2] = np.sin(phases)
        out[:, 1::2] = np.cos(phases)

    def _embed_tangent(self, emb: np.ndarray, dtv: np.ndarray) -> np.ndarray:
        """Tangent of an embedding block ``emb`` under a time tangent ``dtv``."""
        dphases = dtv[:, None] * self._freqs
        out = np.empty_like(emb)
        out[:, 0::2] = emb[:, 1::2] * dphases
        out[:, 1::2] = -(emb[:, 0::2] * dphases)
        return out

    def _forward_ops(self, x, r, t):
        """The same MLP written in tape operations; the oracle of ``forward``."""
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


def _attached(tape, v) -> bool:
    """Whether ``v`` has, or on use would get, a graph id on ``tape``."""
    return v is not None and (v.requires_grad or (v._tape is tape and v._gid is not None))


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


def write_atomic(path, write):
    """Write a text file through ``write(fh)`` so that ``path`` holds its old
    content or all of the new one, never a part: the text goes to a
    temporary file in the same directory, which then replaces ``path``.
    If ``write`` raises, the temporary file is removed and ``path`` is left
    as it was."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_checkpoint(field: VelocityField, path):
    state = _state_dict(field)
    # one dumps + write: json.dump would run the pure-Python iterencode
    write_atomic(path, lambda fh: fh.write(json.dumps(state)))


def _load_section(name, build, *args):
    """``build(*args)``; a malformed value surfaces as a ``ValueError`` that
    names the checkpoint section ``name``."""
    try:
        return build(*args)
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        detail = f"missing key {err}" if isinstance(err, KeyError) else err
        raise ValueError(f"checkpoint {name}: malformed ({detail})") from None


def _param_arrays(stored, config: FieldConfig) -> list:
    """The stored parameter arrays, checked against ``config.layer_sizes``."""
    sizes = config.layer_sizes
    shapes = [s for n_in, n_out in zip(sizes, sizes[1:]) for s in ((n_in, n_out), (n_out,))]
    if not isinstance(stored, list) or len(stored) != len(shapes):
        raise ValueError(f"expected a list of {len(shapes)} parameter tensors")
    arrays = []
    for shape, item in zip(shapes, stored):
        if tuple(item["shape"]) != shape:
            raise ValueError(f"shape {item['shape']} does not match model shape {shape}")
        arrays.append(np.array(item["data"], dtype=np.float64).reshape(shape))
    return arrays


def load_checkpoint(path):
    """Load a checkpoint; returns a VelocityField or an oracle field adapter.

    A malformed file raises ``ValueError`` naming the bad section.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a recognized checkpoint file: {path}")
    kind = doc.get("kind", "mlp")
    if kind == "mlp":
        config = _load_section("config", FieldConfig.from_dict, doc.get("config"))
        arrays = _load_section("params", _param_arrays, doc.get("params"), config)
        params = [Tensor(a, requires_grad=True) for a in arrays]
        return VelocityField(config, params[0::2], params[1::2])
    if kind == "analytic_oracle":
        from . import meanflow_math as mm

        # any other entry is ignored, so files from older versions still load
        return mm.OracleField(_load_section("flow", mm.flow_from_dict, doc.get("flow")))
    raise ValueError(f"unknown checkpoint kind: {kind!r}")
