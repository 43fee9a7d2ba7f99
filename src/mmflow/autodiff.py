"""Minimal dense-tensor autodiff: reverse-mode tape + forward-mode JVP.

Everything is float64. A ``Tape`` records operations whenever at least one
input is attached to it (parameters are attached lazily via their
``requires_grad`` flag). ``backward`` walks the tape once in reverse and
returns a gradient map. ``jvp`` runs the same operations on dual numbers;
its tangent arithmetic is itself expressed in tape operations, so a caller
may ask for the directional derivative to stay attached to the reverse
graph (reverse-over-forward). By default the tangent is detached.

Partial gradient stopping is a first-class citizen here: ``stopgrad``
passes values through and blocks all adjoints; ``sg_lambda`` passes values
through bit-for-bit and scales adjoints by a factor in [0, 1].
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Tensor",
    "DualTensor",
    "Tape",
    "Gradients",
    "ShapeMismatchError",
    "as_tensor",
    "forward_fn",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "square",
    "tanh",
    "exp",
    "sin",
    "cos",
    "matmul",
    "sum_all",
    "concat_cols",
    "expand_rows",
    "scale_rows",
    "interleave_cols",
    "stopgrad",
    "sg_lambda",
    "backward",
    "jvp",
]


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


# ---------------------------------------------------------------------------
# tensors and the tape


class Tensor:
    """Immutable float64 array, optionally attached to a recording tape.

    A tensor with no graph id behaves as a constant: it receives zero
    gradient from any backward pass.
    """

    __slots__ = ("data", "requires_grad", "_tape", "_gid")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        arr.flags.writeable = False
        self.data = arr
        self.requires_grad = requires_grad
        self._tape = None
        self._gid = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        """Wrap a freshly computed array without copying."""
        t = cls.__new__(cls)
        arr = np.asarray(arr, dtype=np.float64)
        if arr.flags.writeable and arr.flags.owndata:
            arr.flags.writeable = False
        t.data = arr
        t.requires_grad = False
        t._tape = None
        t._gid = None
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = ", grad" if self._gid is not None else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    # arithmetic sugar; all dispatch through the module-level ops
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class DualTensor:
    """A (primal, tangent) pair for forward-mode differentiation."""

    __slots__ = ("primal", "tangent")

    def __init__(self, primal: Tensor, tangent: Tensor):
        if primal.shape != tangent.shape:
            raise ShapeMismatchError(
                f"dual tensor: primal shape {primal.shape} does not match "
                f"tangent shape {tangent.shape}"
            )
        self.primal = primal
        self.tangent = tangent

    @property
    def shape(self):
        return self.primal.shape

    def __repr__(self):
        return f"DualTensor(shape={self.primal.shape})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    """Coerce scalars/arrays to a constant Tensor; pass Tensors through."""
    if isinstance(x, Tensor):
        return x
    if isinstance(x, DualTensor):
        raise TypeError("as_tensor does not accept DualTensor")
    return Tensor._wrap(np.array(x, dtype=np.float64))


def forward_fn(field) -> Callable:
    """The evaluation function u(x, r, t) of a field object or plain callable.

    ``forward`` is looked up on every call of this function rather than
    through ``__call__``, so a ``forward`` replaced on the class after it
    was defined is the one that runs.
    """
    return field.forward if hasattr(field, "forward") else field


class _Node:
    """One recorded operation: (kind, input ids, output id, adjoint closure).

    ``grad_scale`` multiplies the adjoint flowing through this node; it is
    1.0 for ordinary operations and the modulation factor for ``sg_lambda``.
    """

    __slots__ = ("kind", "in_gids", "out_gid", "backward_fn", "grad_scale")

    def __init__(self, kind, in_gids, out_gid, backward_fn, grad_scale=1.0):
        self.kind = kind
        self.in_gids = in_gids
        self.out_gid = out_gid
        self.backward_fn = backward_fn
        self.grad_scale = grad_scale


class Tape:
    """Append-only computation record for one training step.

    Nodes are stored in execution order, which is a topological order, so a
    single reverse sweep visits every node exactly once. A tape is consumed
    by ``backward`` and cannot be recorded on afterwards.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False
        self._next_gid = 0
        self._leaves: dict[int, Tensor] = {}

    def _new_gid(self) -> int:
        gid = self._next_gid
        self._next_gid += 1
        return gid

    def watch(self, tensor: Tensor) -> int:
        """Attach a leaf tensor to this tape, assigning it a graph id."""
        if tensor._tape is not self:
            tensor._tape = self
            tensor._gid = self._new_gid()
            self._leaves[tensor._gid] = tensor
        return tensor._gid

    def __enter__(self):
        if self.consumed:
            raise RuntimeError("tape already consumed by a backward pass")
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self

    def __len__(self):
        return len(self.nodes)


_TAPE_STACK: list[Tape] = []
_PAUSE_DEPTH = 0
_DUAL_ATTACH = False


def _active_tape():
    if _PAUSE_DEPTH or not _TAPE_STACK:
        return None
    return _TAPE_STACK[-1]


@contextlib.contextmanager
def pause_recording():
    """Suspend recording; operations executed inside produce constants."""
    global _PAUSE_DEPTH
    _PAUSE_DEPTH += 1
    try:
        yield
    finally:
        _PAUSE_DEPTH -= 1


def _tangent_ctx():
    # Tangent arithmetic is recorded only when a jvp caller asked for it.
    if _DUAL_ATTACH:
        return contextlib.nullcontext()
    return pause_recording()


def _gid_on(tape: Tape, t: Tensor):
    if t._tape is tape and t._gid is not None:
        return t._gid
    if t.requires_grad and tape is not None:
        return tape.watch(t)
    return None


def _emit(kind: str, out: Tensor, inputs: Iterable[Tensor], backward_fn,
          grad_scale: float = 1.0) -> Tensor:
    """Record ``out`` on the active tape if any input participates."""
    tape = _active_tape()
    if tape is None:
        return out
    in_gids = tuple(_gid_on(tape, t) for t in inputs)
    if all(g is None for g in in_gids):
        return out
    out._tape = tape
    out._gid = tape._new_gid()
    tape.nodes.append(_Node(kind, in_gids, out._gid, backward_fn, grad_scale))
    return out


# ---------------------------------------------------------------------------
# dual-number plumbing


def _is_dual(x) -> bool:
    return isinstance(x, DualTensor)


def _unpack(x):
    """Split into (primal Tensor, tangent Tensor or None)."""
    if isinstance(x, DualTensor):
        return x.primal, x.tangent
    return as_tensor(x), None


def _zeros_const(shape) -> Tensor:
    return Tensor._wrap(np.zeros(shape))


def _dual(primal: Tensor, tangent) -> DualTensor:
    if tangent is None:
        tangent = _zeros_const(primal.shape)
    elif tangent.ndim == 0 and primal.ndim != 0:
        # scalar broadcast in the primal implies the same broadcast of the tangent
        with _tangent_ctx():
            tangent = add(_zeros_const(primal.shape), tangent)
    return DualTensor(primal, tangent)


# ---------------------------------------------------------------------------
# elementwise operations (exact shape match or 0-d scalar broadcast)


def _check_elementwise(kind: str, a: Tensor, b: Tensor):
    if a.shape == b.shape or a.ndim == 0 or b.ndim == 0:
        return
    raise ShapeMismatchError(
        f"{kind}: shapes {a.shape} and {b.shape} are neither an exact match "
        f"nor a scalar broadcast"
    )


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    # adjoint of a scalar broadcast collapses back to the scalar
    if shape == () and np.ndim(g) != 0:
        return np.sum(g)
    return g


def add(a, b):
    if _is_dual(a) or _is_dual(b):
        ap, at = _unpack(a)
        bp, bt = _unpack(b)
        y = add(ap, bp)
        with _tangent_ctx():
            if at is None:
                dt = bt
            elif bt is None:
                dt = at
            else:
                dt = add(at, bt)
        return _dual(y, dt)
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("add", a, b)
    out = Tensor._wrap(a.data + b.data)
    ash, bsh = a.shape, b.shape

    def bwd(g):
        return _reduce_to(g, ash), _reduce_to(g, bsh)

    return _emit("add", out, (a, b), bwd)


def sub(a, b):
    if _is_dual(a) or _is_dual(b):
        ap, at = _unpack(a)
        bp, bt = _unpack(b)
        y = sub(ap, bp)
        with _tangent_ctx():
            if at is None:
                dt = neg(bt)
            elif bt is None:
                dt = at
            else:
                dt = sub(at, bt)
        return _dual(y, dt)
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("sub", a, b)
    out = Tensor._wrap(a.data - b.data)
    ash, bsh = a.shape, b.shape

    def bwd(g):
        return _reduce_to(g, ash), _reduce_to(-g, bsh)

    return _emit("sub", out, (a, b), bwd)


def mul(a, b):
    if _is_dual(a) or _is_dual(b):
        ap, at = _unpack(a)
        bp, bt = _unpack(b)
        y = mul(ap, bp)
        with _tangent_ctx():
            terms = []
            if at is not None:
                terms.append(mul(at, bp))
            if bt is not None:
                terms.append(mul(ap, bt))
            dt = terms[0] if len(terms) == 1 else add(terms[0], terms[1])
        return _dual(y, dt)
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("mul", a, b)
    out = Tensor._wrap(a.data * b.data)
    ad, bd = a.data, b.data

    def bwd(g):
        return _reduce_to(g * bd, ad.shape), _reduce_to(g * ad, bd.shape)

    return _emit("mul", out, (a, b), bwd)


def div(a, b):
    if _is_dual(a) or _is_dual(b):
        ap, at = _unpack(a)
        bp, bt = _unpack(b)
        y = div(ap, bp)
        with _tangent_ctx():
            # d(a/b) = da/b - (a/b) * db/b
            terms = []
            if at is not None:
                terms.append(div(at, bp))
            if bt is not None:
                terms.append(neg(div(mul(y, bt), bp)))
            dt = terms[0] if len(terms) == 1 else add(terms[0], terms[1])
        return _dual(y, dt)
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("div", a, b)
    out = Tensor._wrap(a.data / b.data)
    ad, bd, od = a.data, b.data, out.data

    def bwd(g):
        return _reduce_to(g / bd, ad.shape), _reduce_to(-g * od / bd, bd.shape)

    return _emit("div", out, (a, b), bwd)


def _unary(kind, a, value_fn, grad_fn, tangent_fn):
    if _is_dual(a):
        ap, at = _unpack(a)
        y = _unary(kind, ap, value_fn, grad_fn, tangent_fn)
        with _tangent_ctx():
            dt = tangent_fn(ap, y, at)
        return _dual(y, dt)
    a = as_tensor(a)
    out = Tensor._wrap(value_fn(a.data))
    ad, od = a.data, out.data

    def bwd(g):
        return (grad_fn(g, ad, od),)

    return _emit(kind, out, (a,), bwd)


def neg(a):
    return _unary("neg", a, lambda x: -x, lambda g, x, y: -g,
                  lambda ap, y, at: neg(at))


def square(a):
    return _unary("square", a, np.square, lambda g, x, y: 2.0 * x * g,
                  lambda ap, y, at: mul(mul(2.0, ap), at))


def tanh(a):
    return _unary("tanh", a, np.tanh, lambda g, x, y: (1.0 - y * y) * g,
                  lambda ap, y, at: mul(sub(1.0, square(y)), at))


def exp(a):
    return _unary("exp", a, np.exp, lambda g, x, y: y * g,
                  lambda ap, y, at: mul(y, at))


def sin(a):
    return _unary("sin", a, np.sin, lambda g, x, y: np.cos(x) * g,
                  lambda ap, y, at: mul(cos(ap), at))


def cos(a):
    return _unary("cos", a, np.cos, lambda g, x, y: -np.sin(x) * g,
                  lambda ap, y, at: neg(mul(sin(ap), at)))


# ---------------------------------------------------------------------------
# structural operations


def matmul(a, b):
    if _is_dual(a) or _is_dual(b):
        ap, at = _unpack(a)
        bp, bt = _unpack(b)
        y = matmul(ap, bp)
        with _tangent_ctx():
            terms = []
            if at is not None:
                terms.append(matmul(at, bp))
            if bt is not None:
                terms.append(matmul(ap, bt))
            dt = terms[0] if len(terms) == 1 else add(terms[0], terms[1])
        return _dual(y, dt)
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatchError(
            f"matmul: expects 2-d operands, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(
            f"matmul: inner dimensions disagree for shapes {a.shape} and {b.shape}"
        )
    out = Tensor._wrap(a.data @ b.data)
    ad, bd = a.data, b.data

    def bwd(g):
        return g @ bd.T, ad.T @ g

    return _emit("matmul", out, (a, b), bwd)


def sum_all(a):
    """Sum every element down to a 0-d scalar."""
    if _is_dual(a):
        ap, at = _unpack(a)
        y = sum_all(ap)
        with _tangent_ctx():
            dt = sum_all(at)
        return _dual(y, dt)
    a = as_tensor(a)
    out = Tensor._wrap(np.sum(a.data))
    shape = a.shape

    def bwd(g):
        return (np.full(shape, g),)

    return _emit("sum_all", out, (a,), bwd)


def concat_cols(*parts):
    """Concatenate 2-d blocks with equal row counts along columns."""
    if any(_is_dual(p) for p in parts):
        unpacked = [_unpack(p) for p in parts]
        y = concat_cols(*(p for p, _ in unpacked))
        with _tangent_ctx():
            tangents = [
                t if t is not None else _zeros_const(p.shape)
                for p, t in unpacked
            ]
            dt = concat_cols(*tangents)
        return _dual(y, dt)
    parts = [as_tensor(p) for p in parts]
    if len(parts) < 2:
        raise ValueError("concat_cols needs at least two blocks")
    rows = parts[0].shape[0] if parts[0].ndim == 2 else None
    for p in parts:
        if p.ndim != 2 or p.shape[0] != rows:
            raise ShapeMismatchError(
                "concat_cols: all blocks must be 2-d with equal row counts, "
                f"got {[p.shape for p in parts]}"
            )
    out = Tensor._wrap(np.concatenate([p.data for p in parts], axis=1))
    widths = [p.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def bwd(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(widths)))

    return _emit("concat_cols", out, tuple(parts), bwd)


def expand_rows(v, m: int):
    """Repeat a 1-d vector as m identical rows; adjoint sums over rows."""
    if _is_dual(v):
        vp, vt = _unpack(v)
        y = expand_rows(vp, m)
        with _tangent_ctx():
            dt = expand_rows(vt, m)
        return _dual(y, dt)
    v = as_tensor(v)
    if v.ndim != 1:
        raise ShapeMismatchError(f"expand_rows: expects a 1-d vector, got shape {v.shape}")
    out = Tensor._wrap(np.broadcast_to(v.data, (m, v.shape[0])))

    def bwd(g):
        return (g.sum(axis=0),)

    return _emit("expand_rows", out, (v,), bwd)


def scale_rows(a, s):
    """Multiply each row of a [m, n] tensor by the matching entry of s [m]."""
    if _is_dual(a) or _is_dual(s):
        ap, at = _unpack(a)
        sp, st = _unpack(s)
        y = scale_rows(ap, sp)
        with _tangent_ctx():
            terms = []
            if at is not None:
                terms.append(scale_rows(at, sp))
            if st is not None:
                terms.append(scale_rows(ap, st))
            dt = terms[0] if len(terms) == 1 else add(terms[0], terms[1])
        return _dual(y, dt)
    a, s = as_tensor(a), as_tensor(s)
    if a.ndim != 2 or s.ndim != 1 or a.shape[0] != s.shape[0]:
        raise ShapeMismatchError(
            f"scale_rows: expects shapes [m, n] and [m], got {a.shape} and {s.shape}"
        )
    out = Tensor._wrap(a.data * s.data[:, None])
    ad, sd = a.data, s.data

    def bwd(g):
        return g * sd[:, None], np.sum(g * ad, axis=1)

    return _emit("scale_rows", out, (a, s), bwd)


def interleave_cols(a, b):
    """Zip two [m, k] blocks into [m, 2k] with alternating columns."""
    if _is_dual(a) or _is_dual(b):
        ap, at = _unpack(a)
        bp, bt = _unpack(b)
        y = interleave_cols(ap, bp)
        with _tangent_ctx():
            at = at if at is not None else _zeros_const(ap.shape)
            bt = bt if bt is not None else _zeros_const(bp.shape)
            dt = interleave_cols(at, bt)
        return _dual(y, dt)
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or a.shape != b.shape:
        raise ShapeMismatchError(
            f"interleave_cols: expects equal 2-d shapes, got {a.shape} and {b.shape}"
        )
    m, k = a.shape
    buf = np.empty((m, 2 * k))
    buf[:, 0::2] = a.data
    buf[:, 1::2] = b.data
    out = Tensor._wrap(buf)

    def bwd(g):
        return g[:, 0::2], g[:, 1::2]

    return _emit("interleave_cols", out, (a, b), bwd)


# ---------------------------------------------------------------------------
# gradient control


def stopgrad(z):
    """Identity on values; blocks every adjoint into z's ancestors."""
    if _is_dual(z):
        zp, _ = _unpack(z)
        return _dual(stopgrad(zp), None)
    z = as_tensor(z)
    # a detached twin sharing the same array; it carries no graph id
    return Tensor._wrap(z.data)


def sg_lambda(z, lam: float):
    """Partial stop-gradient: value passes through bit-for-bit, the adjoint
    into z is scaled by ``lam``; ``lam`` must lie in [0, 1].

    Equivalent to mixing ``lam`` parts of the live branch with ``1 - lam``
    parts of the stopped branch; realized as a pass-through node whose
    adjoint scale is ``lam`` so the value is shared rather than recombined
    in floating point.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"sg_lambda: modulation factor {lam} outside [0, 1]")
    if _is_dual(z):
        zp, zt = _unpack(z)
        y = sg_lambda(zp, lam)
        with _tangent_ctx():
            dt = None if zt is None else mul(lam, zt)
        return _dual(y, dt)
    z = as_tensor(z)
    out = Tensor._wrap(z.data)

    def bwd(g):
        return (g,)

    return _emit("sg_lambda", out, (z,), bwd, grad_scale=lam)


# ---------------------------------------------------------------------------
# reverse and forward drivers


class Gradients:
    """Gradient map produced by ``backward``, keyed by graph id."""

    def __init__(self, by_gid: dict, tape: Tape):
        self._by_gid = by_gid
        self._tape = tape

    def wrt(self, tensor: Tensor) -> np.ndarray:
        """Gradient for a tensor; zeros when it never entered the graph."""
        if tensor._tape is self._tape and tensor._gid in self._by_gid:
            return self._by_gid[tensor._gid]
        return np.zeros(tensor.shape)

    def __getitem__(self, gid: int) -> Tensor:
        return Tensor._wrap(self._by_gid[gid])

    def __contains__(self, gid: int) -> bool:
        return gid in self._by_gid

    def __len__(self):
        return len(self._by_gid)


def backward(loss: Tensor) -> Gradients:
    """Reverse sweep from a scalar loss; consumes the owning tape."""
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor loss")
    if loss.ndim != 0:
        raise ShapeMismatchError(
            f"backward: loss must be a scalar, got shape {loss.shape}"
        )
    tape = loss._tape
    if tape is None or loss._gid is None:
        raise ValueError("backward: loss is not attached to any tape")
    if tape.consumed:
        raise RuntimeError("backward: tape already consumed")
    tape.consumed = True

    grads: dict[int, np.ndarray] = {loss._gid: np.ones(())}
    for node in reversed(tape.nodes):
        g = grads.pop(node.out_gid, None)
        if g is None:
            continue
        if node.grad_scale != 1.0:
            if node.grad_scale == 0.0:
                continue
            g = g * node.grad_scale
        contribs = node.backward_fn(g)
        for gid, c in zip(node.in_gids, contribs):
            if gid is None:
                continue
            prev = grads.get(gid)
            grads[gid] = c if prev is None else prev + c
    # anything left belongs to leaves (constants never acquire ids)
    return Gradients({k: np.asarray(v, dtype=np.float64) for k, v in grads.items()}, tape)


def jvp(f: Callable, inputs, tangents, attach: bool = False):
    """Forward-mode directional derivative of ``f`` at ``inputs``.

    Returns ``(value, directional_derivative)``. The value is exactly
    ``f(inputs)`` (same operations, same order). The derivative is a
    detached constant unless ``attach`` is true, in which case its
    computation is recorded so reverse mode can differentiate through it.
    """
    global _DUAL_ATTACH
    inputs = [as_tensor(x) for x in inputs]
    tangents = [as_tensor(v) for v in tangents]
    if len(inputs) != len(tangents):
        raise ValueError(
            f"jvp: {len(inputs)} inputs but {len(tangents)} tangents"
        )
    duals = []
    for i, (x, v) in enumerate(zip(inputs, tangents)):
        if x.shape != v.shape:
            raise ShapeMismatchError(
                f"jvp: input {i} has shape {x.shape} but its tangent has "
                f"shape {v.shape}"
            )
        duals.append(DualTensor(x, v))
    prev = _DUAL_ATTACH
    _DUAL_ATTACH = bool(attach)
    try:
        out = f(*duals)
    finally:
        _DUAL_ATTACH = prev
    if isinstance(out, DualTensor):
        return out.primal, out.tangent
    out = as_tensor(out)
    return out, _zeros_const(out.shape)
