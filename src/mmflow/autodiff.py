"""Minimal dense-tensor autodiff: reverse-mode tape + forward-mode JVP.

Every tensor and tape value is float64. A ``Tape`` records operations
whenever at least one input is attached to it (parameters are attached
lazily via their ``requires_grad`` flag). Every node has one shape: a
tuple of outputs and a closure mapping one adjoint per output (``None``
for an output that got none) to one contribution per input. ``backward``
walks the tape once in reverse and returns a gradient map. A hand-written
node (``_emit_multi``) may compute in another dtype inside, as the
velocity MLP does in float32 while ``train`` steps it; ``Gradients`` hands
every gradient out as float64.

``jvp`` runs the same operations on dual numbers. Every op lifts to them
through one rule, ``_lift``: the op on the primals, then its tangent rule
in tape operations, so a caller may ask for the directional derivative to
stay attached to the reverse graph (reverse-over-forward). By default the
tangent is detached. A field is any callable ``u(x, r, t)``.

Partial gradient stopping is a first-class citizen here: ``stopgrad``
passes values through and blocks all adjoints; ``sg_lambda`` passes values
through bit-for-bit and is an ordinary node whose closure scales the
adjoint by a factor in [0, 1].
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Tensor",
    "DualTensor",
    "Tape",
    "Gradients",
    "ShapeMismatchError",
    "as_tensor",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "square",
    "tanh",
    "matmul",
    "sum_all",
    "expand_rows",
    "scale_rows",
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

    def __repr__(self):
        tag = ", grad" if self._gid is not None else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    # scaling sugar for plain-callable fields such as ``lambda x, r, t: 0.0 * x``
    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__


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

    def __repr__(self):
        return f"DualTensor(shape={self.primal.shape})"


def as_tensor(x) -> Tensor:
    """Coerce scalars/arrays to a constant Tensor; pass Tensors through."""
    if isinstance(x, Tensor):
        return x
    if isinstance(x, DualTensor):
        raise TypeError("as_tensor does not accept DualTensor")
    return Tensor._wrap(np.array(x, dtype=np.float64))


class _Node:
    """One recorded operation: kind, input ids, output ids and the adjoint
    closure ``backward_fn(*gs)``, one adjoint per output in, one
    contribution per input out."""

    __slots__ = ("kind", "in_gids", "out_gids", "backward_fn")

    def __init__(self, kind, in_gids, out_gids, backward_fn):
        self.kind = kind
        self.in_gids = in_gids
        self.out_gids = out_gids
        self.backward_fn = backward_fn


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

    def _new_gid(self) -> int:
        gid = self._next_gid
        self._next_gid += 1
        return gid

    def watch(self, tensor: Tensor) -> int:
        """Attach a leaf tensor to this tape, assigning it a graph id."""
        if tensor._tape is not self:
            tensor._tape = self
            tensor._gid = self._new_gid()
        return tensor._gid

    def __enter__(self):
        if self.consumed:
            raise RuntimeError("tape already consumed by a backward pass")
        _TAPE_STACK.set(_TAPE_STACK.get() + (self,))
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _TAPE_STACK.get()
        assert stack[-1] is self
        _TAPE_STACK.set(stack[:-1])

    def __len__(self):
        return len(self.nodes)


# Recording state is per execution context (so per thread): a tape opened
# on one thread never sees the operations of another.
_TAPE_STACK: contextvars.ContextVar[tuple] = contextvars.ContextVar("tape_stack", default=())
_PAUSED = contextvars.ContextVar("paused", default=False)
_DUAL_ATTACH = contextvars.ContextVar("dual_attach", default=False)


def _active_tape():
    stack = _TAPE_STACK.get()
    if _PAUSED.get() or not stack:
        return None
    return stack[-1]


@contextlib.contextmanager
def _tangent_ctx():
    """Tangent arithmetic is recorded only when a jvp caller asked for it;
    otherwise operations inside produce constants."""
    if _DUAL_ATTACH.get():
        yield
        return
    token = _PAUSED.set(True)
    try:
        yield
    finally:
        _PAUSED.reset(token)


def _gid_on(tape: Tape, t: Tensor):
    if t._tape is tape and t._gid is not None:
        return t._gid
    if t.requires_grad and tape is not None:
        return tape.watch(t)
    return None


def _emit(kind: str, out: Tensor, inputs: Iterable[Tensor], backward_fn) -> Tensor:
    """Record ``out`` on the active tape if any input participates."""
    tape = _active_tape()
    if tape is None:
        return out
    in_gids = tuple(_gid_on(tape, t) for t in inputs)
    if all(g is None for g in in_gids):
        return out
    _emit_multi(tape, kind, (out,), in_gids, backward_fn)
    return out


def _emit_multi(tape: Tape, kind: str, outs: tuple, in_gids: tuple, backward_fn):
    """Record one node with outputs ``outs`` on ``tape``, the active tape.

    This is the one place a node is appended, and the hook for a
    hand-written op: ``in_gids`` come from ``_gid_on(tape, ...)``, and
    ``backward_fn(*gs)`` takes one adjoint per output (``None`` for an
    output that got none) and returns one contribution per input (``None``
    to contribute nothing).
    """
    for out in outs:
        out._tape = tape
        out._gid = tape._new_gid()
    tape.nodes.append(_Node(kind, in_gids, tuple(o._gid for o in outs), backward_fn))


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


def _lift(op, tangent_rule, *args):
    """The one forward-mode rule: ``op`` on the primals of ``args``, then
    ``tangent_rule(y, *primals, *tangents)`` for the tangent of ``y``.

    A constant operand's tangent is ``None``, and a rule that returns
    ``None`` gives a zero tangent. The rule runs in tape operations,
    recorded only inside ``jvp(..., attach=True)``.
    """
    primals, tangents = zip(*[_unpack(a) for a in args])
    y = op(*primals)
    with _tangent_ctx():
        dt = tangent_rule(y, *primals, *tangents)
    return _dual(y, dt)


def _plus(a, b):
    """``add(a, b)``, where a term that is ``None`` is left out."""
    if a is None:
        return b
    if b is None:
        return a
    return add(a, b)


def _bilinear(op):
    """The tangent rule of a bilinear ``op``: ``op(at, bp) + op(ap, bt)``."""

    def rule(y, ap, bp, at, bt):
        left = None if at is None else op(at, bp)
        right = None if bt is None else op(ap, bt)
        return _plus(left, right)

    return rule


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
        return _lift(add, lambda y, ap, bp, at, bt: _plus(at, bt), a, b)
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("add", a, b)
    out = Tensor._wrap(a.data + b.data)
    ash, bsh = a.shape, b.shape

    def bwd(g):
        return _reduce_to(g, ash), _reduce_to(g, bsh)

    return _emit("add", out, (a, b), bwd)


def _sub_tangent(y, ap, bp, at, bt):
    if at is None:
        return neg(bt)
    if bt is None:
        return at
    return sub(at, bt)


def sub(a, b):
    if _is_dual(a) or _is_dual(b):
        return _lift(sub, _sub_tangent, a, b)
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("sub", a, b)
    out = Tensor._wrap(a.data - b.data)
    ash, bsh = a.shape, b.shape

    def bwd(g):
        return _reduce_to(g, ash), _reduce_to(-g, bsh)

    return _emit("sub", out, (a, b), bwd)


def mul(a, b):
    if _is_dual(a) or _is_dual(b):
        return _lift(mul, _bilinear(mul), a, b)
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("mul", a, b)
    out = Tensor._wrap(a.data * b.data)
    ad, bd = a.data, b.data

    def bwd(g):
        return _reduce_to(g * bd, ad.shape), _reduce_to(g * ad, bd.shape)

    return _emit("mul", out, (a, b), bwd)


def _div_tangent(y, ap, bp, at, bt):
    # d(a/b) = da/b - (a/b) * db/b
    left = None if at is None else div(at, bp)
    right = None if bt is None else neg(div(mul(y, bt), bp))
    return _plus(left, right)


def div(a, b):
    if _is_dual(a) or _is_dual(b):
        return _lift(div, _div_tangent, a, b)
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("div", a, b)
    out = Tensor._wrap(a.data / b.data)
    ad, bd, od = a.data, b.data, out.data

    def bwd(g):
        return _reduce_to(g / bd, ad.shape), _reduce_to(-g * od / bd, bd.shape)

    return _emit("div", out, (a, b), bwd)


def _unary(kind, a, value_fn, grad_fn, tangent_fn):
    """An elementwise op: ``value_fn(x)``, adjoint ``grad_fn(g, x, y)`` and
    tangent rule ``tangent_fn(y, ap, at)``."""
    if _is_dual(a):
        return _lift(lambda ap: _unary(kind, ap, value_fn, grad_fn, tangent_fn),
                     tangent_fn, a)
    a = as_tensor(a)
    out = Tensor._wrap(value_fn(a.data))
    ad, od = a.data, out.data

    def bwd(g):
        return (grad_fn(g, ad, od),)

    return _emit(kind, out, (a,), bwd)


def neg(a):
    return _unary("neg", a, lambda x: -x, lambda g, x, y: -g,
                  lambda y, ap, at: neg(at))


def square(a):
    return _unary("square", a, np.square, lambda g, x, y: 2.0 * x * g,
                  lambda y, ap, at: mul(mul(2.0, ap), at))


def tanh(a):
    return _unary("tanh", a, np.tanh, lambda g, x, y: (1.0 - y * y) * g,
                  lambda y, ap, at: mul(sub(1.0, square(y)), at))


# ---------------------------------------------------------------------------
# structural operations


def matmul(a, b):
    if _is_dual(a) or _is_dual(b):
        return _lift(matmul, _bilinear(matmul), a, b)
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
        return _lift(sum_all, lambda y, ap, at: sum_all(at), a)
    a = as_tensor(a)
    out = Tensor._wrap(np.sum(a.data))
    shape = a.shape

    def bwd(g):
        return (np.full(shape, g),)

    return _emit("sum_all", out, (a,), bwd)


def expand_rows(v, m: int):
    """Repeat a 1-d vector as m identical rows; adjoint sums over rows."""
    if _is_dual(v):
        return _lift(lambda vp: expand_rows(vp, m), lambda y, vp, vt: expand_rows(vt, m), v)
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
        return _lift(scale_rows, _bilinear(scale_rows), a, s)
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


# ---------------------------------------------------------------------------
# gradient control


def stopgrad(z):
    """Identity on values; blocks every adjoint into z's ancestors."""
    if _is_dual(z):
        return _lift(stopgrad, lambda y, zp, zt: None, z)
    z = as_tensor(z)
    # a detached twin sharing the same array; it carries no graph id
    return Tensor._wrap(z.data)


def sg_lambda(z, lam: float):
    """Partial stop-gradient: value passes through bit-for-bit, the adjoint
    into z is scaled by ``lam``; ``lam`` must lie in [0, 1].

    Equivalent to mixing ``lam`` parts of the live branch with ``1 - lam``
    parts of the stopped branch; realized as an ordinary pass-through node
    whose closure scales the adjoint by ``lam`` (none at all at 0, the
    adjoint itself at 1), so the value is shared rather than recombined in
    floating point.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"sg_lambda: modulation factor {lam} outside [0, 1]")
    if _is_dual(z):
        return _lift(lambda zp: sg_lambda(zp, lam), lambda y, zp, zt: mul(lam, zt), z)
    z = as_tensor(z)
    out = Tensor._wrap(z.data)

    def bwd(g):
        if lam == 0.0:
            return (None,)
        if lam == 1.0:
            return (g,)
        return (g * lam,)

    return _emit("sg_lambda", out, (z,), bwd)


# ---------------------------------------------------------------------------
# reverse and forward drivers


class Gradients:
    """Gradient map produced by ``backward``, keyed by graph id.

    A hand-written node may leave its contributions in the dtype it
    computes in (the fused MLP node's float32 pass); ``wrt`` and
    ``wrt_flat`` hand them out as float64.
    """

    def __init__(self, by_gid: dict, tape: Tape):
        self._by_gid = by_gid
        self._tape = tape

    def _raw(self, tensor: Tensor):
        if tensor._tape is self._tape:
            return self._by_gid.get(tensor._gid)
        return None

    def wrt(self, tensor: Tensor) -> np.ndarray:
        """Gradient for a tensor; zeros when it never entered the graph."""
        g = self._raw(tensor)
        if g is None:
            return np.zeros(tensor.shape)
        return np.asarray(g, dtype=np.float64)

    def wrt_flat(self, tensors, out: np.ndarray) -> np.ndarray:
        """The gradients of ``tensors``, raveled and concatenated in order
        into the float64 vector ``out`` by one ``concatenate`` that casts as
        it copies; returns ``out``."""
        parts = []
        for t in tensors:
            g = self._raw(t)
            parts.append(np.zeros(t.size) if g is None else g.reshape(-1))
        return np.concatenate(parts, out=out)


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
        gs = [grads.pop(gid, None) for gid in node.out_gids]
        if all(g is None for g in gs):
            continue
        for gid, c in zip(node.in_gids, node.backward_fn(*gs)):
            if gid is None or c is None:
                continue
            prev = grads.get(gid)
            grads[gid] = c if prev is None else prev + c
    # a consumed tape never runs its closures again; drop them and the
    # activations they hold now rather than when the garbage collector
    # breaks the tape <-> leaf reference cycle
    for node in tape.nodes:
        node.backward_fn = None
    # anything left belongs to leaves (constants never acquire ids)
    return Gradients(grads, tape)


def _view(x) -> Tensor:
    """``as_tensor`` without a copy for a float64 array: a constant over a
    read-only view of it."""
    if isinstance(x, np.ndarray) and x.dtype == np.float64:
        view = x.view()
        view.flags.writeable = False
        return Tensor._wrap(view)
    return as_tensor(x)


def jvp(f: Callable, inputs, tangents, attach: bool = False):
    """Forward-mode directional derivative of ``f`` at ``inputs``.

    Returns ``(value, directional_derivative)``. The value is exactly
    ``f(inputs)`` (same operations, same order). The derivative is a
    detached constant unless ``attach`` is true, in which case its
    computation is recorded so reverse mode can differentiate through it.

    A tangent of ``None`` holds its input fixed: ``f`` receives that input
    as a plain ``Tensor``. Float64 arrays are read in place, not copied, so
    they must not be written to until the result (and any gradient taken
    through it) has been used.
    """
    if len(inputs) != len(tangents):
        raise ValueError(
            f"jvp: {len(inputs)} inputs but {len(tangents)} tangents"
        )
    args = []
    for i, (x, v) in enumerate(zip(inputs, tangents)):
        x = _view(x)
        if v is None:
            args.append(x)
            continue
        v = _view(v)
        if x.shape != v.shape:
            raise ShapeMismatchError(
                f"jvp: input {i} has shape {x.shape} but its tangent has "
                f"shape {v.shape}"
            )
        dual = DualTensor.__new__(DualTensor)  # shapes checked just above
        dual.primal, dual.tangent = x, v
        args.append(dual)
    token = _DUAL_ATTACH.set(bool(attach))
    try:
        out = f(*args)
    finally:
        _DUAL_ATTACH.reset(token)
    if isinstance(out, DualTensor):
        return out.primal, out.tangent
    out = as_tensor(out)
    return out, _zeros_const(out.shape)
