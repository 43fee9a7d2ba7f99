"""The learned average-velocity field: an MLP over (state, both times).

Both time arguments get their own sinusoidal embedding and are concatenated
with the state before the first layer. The forward pass is closed-form
numpy that carries forward-mode tangents itself and records the whole MLP
as one tape node with a hand-written reverse pass, so it is differentiable
in reverse mode (parameters) and in forward mode (state/time tangents)
alike.
"""

from __future__ import annotations

import contextlib
import contextvars
import copy
import ctypes
import functools
import json
import math
import operator
import os
import threading
from dataclasses import dataclass, field, asdict, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "MAX_SIZE",
    "ConfigError",
    "FieldConfig",
    "VelocityField",
    "init_params",
    "save_checkpoint",
    "load_checkpoint",
    "write_atomic",
    "write_csv",
]

CHECKPOINT_FORMAT = "mmflow-checkpoint"
CHECKPOINT_VERSION = 1

# rows per block of the forward pass without tape or tangent; at the
# reference shape each row range's two float64 buffers take 512 KB, and 128
# to 1024 rows time alike on a 4096-row one-step sample. Ranges of whole
# blocks run on separate threads, so a block's size, and with it every
# result bit, does not depend on how many ranges there are.
_BLOCK_ROWS = 256

# the largest array extent (a dimension, width, sample or step count) a
# config or flag may ask for: 16x the largest desk-scale run, and small
# enough that numpy accepts every shape built from it
MAX_SIZE = 1 << 16


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class FieldConfig:
    input_dim: int
    hidden_widths: tuple = (128, 128, 128)
    time_embed_dim: int = 32
    base_frequency: float = 1.0e4
    seed: int = 0
    zero_init_output: bool = False

    def __post_init__(self):
        for name in ("input_dim", "time_embed_dim", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "hidden_widths",
                           tuple(_integer("hidden_widths", w) for w in self.hidden_widths))
        if not isinstance(self.zero_init_output, bool):
            raise TypeError(f"zero_init_output must be a bool, got {self.zero_init_output!r}")
        _check_size("input_dim", self.input_dim)
        _check_seed(self.seed)
        if not self.hidden_widths:
            raise ValueError("hidden_widths must be non-empty")
        for w in self.hidden_widths:
            _check_size("hidden_widths", w)
        k = self.time_embed_dim
        _check_size("time_embed_dim", k)
        if k % 2:
            raise ValueError(f"time_embed_dim must be even, got {k}")
        f = self.base_frequency
        if isinstance(f, bool) or not (math.isfinite(f) and f > 0):
            raise ValueError(f"base_frequency must be finite and positive, got {f!r}")
        # np.geomspace cannot take a Python int beyond int64
        object.__setattr__(self, "base_frequency", float(f))

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
        """The config that ``to_dict`` wrote. Every field must be present:
        a checkpoint that lacks one raises ``ValueError`` naming it, rather
        than loading the default, which the stored parameters were not
        trained with."""
        for f in fields(cls):
            if f.name not in d:
                raise ValueError(f"missing key {f.name!r}")
        return cls(**{**d, "hidden_widths": tuple(d["hidden_widths"])})


def _check_size(name: str, value: int) -> None:
    """Raise ``ValueError`` unless the array extent ``value`` lies in [1, ``MAX_SIZE``]."""
    if not 1 <= value <= MAX_SIZE:
        raise ValueError(f"{name} must lie in [1, {MAX_SIZE}], got {value}")


def _check_seed(seed: int) -> None:
    if seed < 0:  # np.random.SeedSequence needs it
        raise ValueError(f"seed must be >= 0, got {seed}")


def _checked(path: str, make, /, *args, **kwargs):
    """``make(*args, **kwargs)``; a ``ValueError``, ``TypeError`` or
    ``OverflowError`` it raises becomes a ``ConfigError`` at ``path``."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError, OverflowError) as err:
        raise ConfigError(path, str(err)) from None


def _read_json(path, name: str):
    """The JSON in the file ``path``; a file that cannot be read, is not UTF-8
    or JSON, or nests too deeply to decode is a ``ConfigError`` at ``name``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as err:
        raise ConfigError(name, f"cannot read {path}: {err}") from None


def _integer(name: str, value) -> int:
    """``value`` through ``operator.index``; a bool, float or str raises ``TypeError``."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{name}: expected an integer, got {value!r}")
    return operator.index(value)


class VelocityField:
    """Parameterized average-velocity model u(x, r, t).

    The parameters live in one flat float64 vector, ``flat_params``, laid
    out in ``params`` order; ``weights`` and ``biases`` are read-only views
    into it that require grad. ``with_params`` copies values into a new
    field; ``train`` steps its own copy by writing into ``flat_params``.
    ``compute_dtype`` is the dtype the MLP
    computes in: float64 by default, float32 on the copy that ``train``
    steps (``with_compute_dtype``). Inputs, outputs, tangents and gradients
    are float64 either way. Forward evaluation is deterministic given the
    parameters and inputs, and may run concurrently on shared parameters.
    A sampler call of two or more ``_BLOCK_ROWS`` blocks, on one BLAS
    thread, splits its rows over the CPUs by itself (``_infer``), with the
    same result bits.
    """

    def __init__(self, config: FieldConfig, flat: np.ndarray):
        shapes = _param_shapes(config)
        n = sum(math.prod(s) for s in shapes)
        if flat.dtype != np.float64 or flat.shape != (n,):
            raise ValueError(f"expected a float64 vector of {n} parameters")
        self.config = config
        self.flat_params = flat
        params = _leaf_views(flat, shapes)
        self.weights = params[0::2]
        self.biases = params[1::2]
        self.compute_dtype = np.float64
        self._freqs = np.geomspace(1.0, config.base_frequency, config.time_embed_dim // 2)

    @property
    def params(self) -> list:
        """Flat parameter list, alternating weight and bias per layer."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    @property
    def param_labels(self) -> list:
        """``params`` by layer and role: "layer 0 weight", "layer 0 bias", ..."""
        return [f"layer {i} {role}" for i in range(len(self.weights))
                for role in ("weight", "bias")]

    def with_params(self, params) -> "VelocityField":
        """A field over a new flat vector that holds the values of
        ``params``, tensors shaped and ordered as ``self.params``."""
        if [p.shape for p in params] != [p.shape for p in self.params]:
            raise ad.ShapeMismatchError("with_params: shapes differ from the field's params")
        field = VelocityField(self.config, np.concatenate([p.data.ravel() for p in params]))
        field.compute_dtype = self.compute_dtype
        return field

    def with_compute_dtype(self, dtype) -> "VelocityField":
        """The same field, over the same flat vector, computing its MLP in
        ``dtype``."""
        field = copy.copy(self)
        field.compute_dtype = dtype
        return field

    def forward(self, x, r, t):
        """Evaluate u(x, r, t) for a batch: x [b, d], r [b], t [b].

        A closed-form numpy pass. With ``DualTensor`` inputs it returns
        ``DualTensor(u, du)`` and carries the tangent layer by layer,
        skipping each block of the first-layer input (x, r embedding,
        t embedding) whose tangent is all zero. While a tape records, the
        whole MLP is one node over ``params`` (and the tangent of x, when
        attached) with a hand-written reverse pass; its outputs are ``u``
        and, inside ``jvp(..., attach=True)``, ``du``. A float64 call that
        neither records nor carries a tangent, and whose ``r`` and ``t`` are
        each constant over the batch (as in the samplers), takes the blocked
        primal pass of ``_infer``, whose ranges of whole blocks run on one
        thread per CPU while OpenBLAS runs on one thread: only there does
        memory not grow with the batch beyond the input and output (each
        thread adds 512 KB at the reference shape), and only there does
        the primal agree with the same MLP written in generic tape
        operations (the test oracle) to 1e-12 relative rather than bit for
        bit. Every other call's float64 primal is bit-for-bit that of the
        oracle.

        The first-layer input (the embeddings are computed in float64 and
        rounded), the tangent blocks, every matmul, ``tanh`` and the
        reverse pass run in ``compute_dtype``; the weights are cast once
        per call. ``u`` and ``du`` are float64, the reverse pass casts the
        incoming adjoints down, and ``Gradients`` hands out float64.
        In float32 an input or adjoint beyond its range (about 3.4e38)
        becomes infinite when it is cast.

        Only the parameters and the tangent of x get adjoints: ``ValueError``
        is raised when ``x``, ``r`` or ``t`` is attached to the recording tape,
        or, inside ``jvp(..., attach=True)``, when the tangent of ``r`` or ``t`` is.
        """
        xp, dx = ad._unpack(x)
        rp, dr = ad._unpack(r)
        tp, dt = ad._unpack(t)
        b = self._check_inputs(xp, rp, tp)
        dual = dx is not None or dr is not None or dt is not None
        attach = dual and ad._DUAL_ATTACH.get()
        tape = ad._active_tape()
        record = tape is not None
        if record:
            if (_attached(tape, xp) or _attached(tape, rp) or _attached(tape, tp)
                    or attach and (_attached(tape, dr) or _attached(tape, dt))):
                raise ValueError(
                    "field forward: x, r, t and the tangents of r and t must not be "
                    "attached to the recording tape"
                )
            in_gids = [ad._gid_on(tape, p) for p in self.params]
            in_gids.append(ad._gid_on(tape, dx) if attach and dx is not None else None)
        ct = self.compute_dtype
        r0, t0 = rp.data[:1], tp.data[:1]
        if (not (record or dual) and ct == np.float64
                and (rp.data == r0).all() and (tp.data == t0).all()):
            return Tensor._wrap(self._infer(xp.data, r0, t0))
        keep_tangent = record and attach

        weights = [w.data.astype(ct, copy=False) for w in self.weights]
        biases = [bias.data.astype(ct, copy=False) for bias in self.biases]
        d, k = self.config.input_dim, self.config.time_embed_dim
        h = np.empty((b, d + 2 * k), dtype=ct)
        h[:, :d] = xp.data
        self._embed(rp.data, h[:, d:d + k])
        self._embed(tp.data, h[:, d + k:])
        blocks = []  # (first row of W0, tangent block) for non-zero blocks
        if dual:
            if dx is not None and dx.data.any():
                blocks.append((0, dx.data.astype(ct, copy=False)))
            for lo, tv in ((d, dr), (d + k, dt)):
                if tv is not None and tv.data.any():
                    blocks.append((lo, self._embed_tangent(h[:, lo:lo + k], tv.data)))

        # layer inputs, their tangents, tanh slopes 1 - a^2 and pre-activation
        # tangents, kept only while recording
        hs, dhs, ss, dzs = [], [], [], []
        last = len(weights) - 1
        dz = dh = None
        for i, (W, bias) in enumerate(zip(weights, biases)):
            z = h @ W
            z += bias
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

            def bwd(gu, gdu=None):
                # adjoints arrive in float64; the reverse pass runs in the
                # forward's dtype, and ``Gradients`` hands out float64
                gz = gu.astype(ct, copy=False) if gu is not None else np.zeros_like(h)
                gdz = None if gdu is None else gdu.astype(ct, copy=False)
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
                if in_gids[-1] is not None and gdz is not None:
                    out[-1] = gdz @ weights[0][:d].T
                return out

            ad._emit_multi(tape, "mlp", (u, du) if attach else (u,), in_gids, bwd)
        return ad.DualTensor(u, du) if dual else u

    def __call__(self, x, r, t):
        return self.forward(x, r, t)

    def _infer(self, x: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The primal of ``forward`` with no tape and no tangent at one time
        pair: u [b, d] for x [b, d], r [1] and t [1]. It computes in float64
        only; ``forward`` sends a float32 field the fused pass instead.

        The embeddings of ``r`` and ``t`` are computed once and folded with
        the first-layer bias into one row ``c``, so layer 0 is
        ``x @ W0[:d] + c``. Rows then go through the MLP in blocks of
        ``_BLOCK_ROWS``. Each hidden layer writes into one of two
        ``[block, width]`` buffers with ``np.matmul(..., out=)``, an in-place
        bias and an in-place ``tanh``; the output layer writes into the
        result.

        The blocks are split into ``_range_count(b)`` contiguous ranges of
        whole blocks. The caller's thread runs the first range and a thread
        of its own runs each other one, with its own two buffers. Every
        block has the shape it has in one range, so the result is bit for
        bit the same however many ranges there are.
        """
        weights = [w.data for w in self.weights]
        biases = [bias.data for bias in self.biases]
        d, k = self.config.input_dim, self.config.time_embed_dim
        b = x.shape[0]
        out = np.empty((b, d))
        if b == 0:
            return out
        emb = np.empty((1, 2 * k))
        self._embed(r, emb[:, :k])
        self._embed(t, emb[:, k:])
        c = emb @ weights[0][d:]
        c += biases[0]
        rows = min(b, _BLOCK_ROWS)
        size = rows * max(self.config.layer_sizes[1:])
        last = len(weights) - 1

        def run(start, stop):
            bufs = np.empty((2, size))
            for lo in range(start, stop, rows):
                n = min(rows, stop - lo)
                h = x[lo:lo + n]
                for i, (W, bias) in enumerate(zip(weights, biases)):
                    width = W.shape[1]
                    z = out[lo:lo + n] if i == last else bufs[i % 2, :n * width].reshape(n, width)
                    if i == 0:
                        np.matmul(h, W[:d], out=z)
                        z += c
                    else:
                        np.matmul(h, W, out=z)
                        z += bias
                    if i != last:
                        np.tanh(z, out=z)
                    h = z

        blocks, parts = -(-b // rows), _range_count(b)
        bounds = [min(b, rows * (blocks * i // parts)) for i in range(parts + 1)]
        _run_ranges(run, list(zip(bounds, bounds[1:])))
        return out

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
        """The sinusoidal embedding of the times ``tv`` [b] into ``out``
        [b, k]: column 2j is sin(w_j t) and column 2j+1 is cos(w_j t), with
        the k/2 frequencies ``_freqs`` geometric from 1 to
        ``base_frequency``. ``sin`` and ``cos`` run in float64 and round to
        ``out``'s dtype as they store, with no float64 temporary."""
        phases = tv[:, None] * self._freqs
        np.sin(phases, out=out[:, 0::2])
        np.cos(phases, out=out[:, 1::2])

    def _embed_tangent(self, emb: np.ndarray, dtv: np.ndarray) -> np.ndarray:
        """Tangent of an embedding block ``emb`` under a time tangent ``dtv``."""
        dphases = dtv[:, None] * self._freqs
        out = np.empty_like(emb)
        out[:, 0::2] = emb[:, 1::2] * dphases
        out[:, 1::2] = -(emb[:, 0::2] * dphases)
        return out


def _range_count(b: int) -> int:
    """How many row ranges ``_infer`` splits ``b`` rows into: one per CPU
    this process may run on, at most one per full block, when OpenBLAS runs
    on one thread; else 1. Threaded BLAS already keeps the CPUs busy, and
    splitting on top of it made a 4096-row sample 1.4-2x slower on two
    CPUs."""
    if _blas_threads() != 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), b // _BLOCK_ROWS))


def _run_ranges(run, ranges):
    """``run(*ranges[0])`` on the calling thread, and ``run(*rng)`` for
    every other range on a thread of its own. Each thread starts in a copy
    of the caller's context, so ``np.errstate`` holds there too. Every
    thread is joined before this returns or raises, and the exception of
    the first helper range that raised is re-raised here."""
    errors = [None] * len(ranges)

    def helper(i):
        try:
            run(*ranges[i])
        except BaseException as err:  # re-raised on the calling thread
            errors[i] = err

    threads = []
    try:
        for i in range(1, len(ranges)):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(helper, i))
            thread.start()
            threads.append(thread)
        run(*ranges[0])
    finally:
        for thread in threads:
            thread.join()
    for err in errors:
        if err is not None:
            raise err


@functools.lru_cache(maxsize=None)
def _openblas(name: str):
    """The function ``openblas_<name>`` of the OpenBLAS this process has
    loaded, or None when none is found. The lookup scans the process's
    memory map, so its result is cached."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:  # e.g. a library replaced on disk: "<path> (deleted)"
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return fn
    return None


def _blas_threads():
    """OpenBLAS's thread count, or None without OpenBLAS."""
    get_threads = _openblas("get_num_threads")
    if get_threads is None:
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return get_threads()


def _set_blas_threads(n: int):
    """Set OpenBLAS's thread count to ``n``; returns the count it had, or
    None (and changes nothing) without OpenBLAS."""
    set_threads = _openblas("set_num_threads")
    before = _blas_threads()
    if before is None or set_threads is None:
        return None
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(n)
    return before


@contextlib.contextmanager
def _on_one_blas_thread():
    """Run the block on one BLAS thread, then restore the count. At the
    reference shape a training step is faster on one thread than on two
    (the matmuls are too small to split), inference splits its rows over
    the CPUs itself (``_range_count``), and training and sampling give the
    same bits at either count."""
    before = _set_blas_threads(1)
    try:
        yield
    finally:
        if before is not None:
            _set_blas_threads(before)


def _attached(tape, v) -> bool:
    """Whether ``v`` has, or on use would get, a graph id on ``tape``."""
    return v is not None and (v.requires_grad or (v._tape is tape and v._gid is not None))


def _param_shapes(config: FieldConfig) -> list:
    """The shapes of ``params``: weight then bias, per layer."""
    sizes = config.layer_sizes
    return [s for n_in, n_out in zip(sizes, sizes[1:]) for s in ((n_in, n_out), (n_out,))]


def _leaf_views(flat: np.ndarray, shapes) -> list:
    """Read-only views of the flat vector ``flat`` with ``shapes``, in
    order; each is a leaf that requires grad."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        view = flat[offset:offset + size].reshape(shape)
        view.flags.writeable = False
        leaf = Tensor._wrap(view)
        leaf.requires_grad = True
        views.append(leaf)
        offset += size
    return views


def init_params(config: FieldConfig) -> VelocityField:
    """Uniform init scaled by 1/sqrt(fan_in); biases zero; seed-determined."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    sizes = config.layer_sizes
    parts = []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        bound = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=fan_in * fan_out)
        if config.zero_init_output and i == len(sizes) - 2:
            w[:] = 0.0
        parts += [w, np.zeros(fan_out)]
    return VelocityField(config, np.concatenate(parts))


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
        "version": CHECKPOINT_VERSION,
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


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_csv(path, header, rows):
    """Write ``path`` through ``write_atomic``: a line of ``header`` names,
    then one line per row of ``rows``. A float cell is written as ``%.17g``
    (it reads back as the same float), an int or a str as it is, and
    ``None`` as an empty cell."""
    def write(fh):
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([_csv_cell(v) for v in row]) + "\n")

    write_atomic(path, write)


def save_checkpoint(field: VelocityField, path):
    state = _state_dict(field)
    # one dumps + write: json.dump would run the pure-Python iterencode
    write_atomic(path, lambda fh: fh.write(json.dumps(state)))


def _field_from_params(stored, config: FieldConfig) -> VelocityField:
    """The field of ``config`` over the stored parameters, checked against
    the model's shapes; every value must be finite."""
    shapes = _param_shapes(config)
    if not isinstance(stored, list) or len(stored) != len(shapes):
        raise ValueError(f"expected a list of {len(shapes)} parameter tensors")
    parts = []
    for i, (shape, item) in enumerate(zip(shapes, stored)):
        if not isinstance(item, dict) or tuple(item.get("shape", ())) != shape:
            raise ValueError(f"tensor {i} does not have the model shape {shape}")
        part = np.array(item.get("data"), dtype=np.float64).reshape(shape).ravel()
        if not np.isfinite(part).all():
            raise ValueError(f"layer {i // 2} {('weight', 'bias')[i % 2]} "
                             "holds a non-finite value")
        parts.append(part)
    return VelocityField(config, np.concatenate(parts))


def load_checkpoint(path):
    """Load a checkpoint; returns a VelocityField or an oracle field adapter.

    It is read like a config, each section built through ``_checked``: a
    malformed file raises ``ConfigError`` naming the bad section. A ``version``
    other than 1, the only one, is rejected; a missing one reads as 1.
    """
    doc = _read_json(path, "checkpoint")
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError("checkpoint", f"not a recognized checkpoint file: {path}")
    version = doc.get("version", CHECKPOINT_VERSION)
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ConfigError("checkpoint version", f"expected {CHECKPOINT_VERSION}, got {version!r}")
    kind = doc.get("kind", "mlp")
    if kind == "mlp":
        config = _checked("checkpoint config", FieldConfig.from_dict, doc.get("config"))
        return _checked("checkpoint params", _field_from_params, doc.get("params"), config)
    if kind == "analytic_oracle":
        from . import meanflow_math as mm

        # any other entry is ignored, so files from older versions still load
        return mm.OracleField(_checked("checkpoint flow", mm.flow_from_dict, doc.get("flow")))
    raise ConfigError("checkpoint kind", f"expected mlp|analytic_oracle, got {kind!r}")
