"""Minimal dense-tensor autodiff: reverse-mode tape + forward-mode JVP.

Every tensor and tape value is float64. A ``Tape`` records operations
whenever at least one input is attached to it (parameters are attached
lazily via their ``requires_grad`` flag). The tape keeps each leaf's graph
id itself, so a leaf recorded on several tapes, nested or on other
threads, keeps its gradient on every one. Every node has one shape: a
tuple of outputs and a closure mapping one adjoint per output (``None``
for an output that got none) to one contribution per input. ``backward``
walks the tape once in reverse and returns a gradient map. A hand-written
node (``_emit_multi``) may compute in another dtype inside, as the
velocity MLP does in float32 while ``train`` steps it; ``Gradients`` hands
every gradient out as float64.

Every op but ``stopgrad`` is one call of ``_op``, the one op constructor:
value, adjoint and tangent rule in, the shape check, node and scalar
broadcast reduction done once. ``jvp`` runs the same operations on dual
numbers. Every op lifts to them through one rule, ``_lift``: the op on the
primals, then its tangent rule in tape operations, so a caller may ask for
the directional derivative to stay attached to the reverse graph
(reverse-over-forward). By default the tangent is detached. A field is any
callable ``u(x, r, t)``.

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
        tag = ", grad" if self.requires_grad or self._gid is not None else ""
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
        # id(leaf) -> (leaf, graph id); holding the leaf keeps its id from reuse
        self._leaves: dict[int, tuple] = {}

    def _new_gid(self) -> int:
        gid = self._next_gid
        self._next_gid += 1
        return gid

    def watch(self, tensor: Tensor) -> int:
        """The graph id of a leaf tensor on this tape, assigned on first use.
        The id lives in the tape, not the leaf, so every tape that records a
        leaf keeps its own."""
        if id(tensor) not in self._leaves:
            self._leaves[id(tensor)] = (tensor, self._new_gid())
        return self._leaves[id(tensor)][1]

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
# the one op constructor


def _op(kind, args, value_fn, grad_fn, tangent_rule, check=None):
    """Build one op ``kind`` on ``args``; every op but ``stopgrad`` is one
    call of this.

    On a dual operand the op lifts through ``_lift`` with
    ``tangent_rule(y, *primals, *tangents)``. Otherwise the operands are
    coerced with ``as_tensor``, ``check(kind, *operands)`` may reject
    their shapes, and the value ``value_fn(*arrays)`` is recorded as a
    node whose adjoint closure returns ``grad_fn(g, *arrays, out)``, one
    contribution per operand. A contribution to a 0-d operand that
    broadcast against a larger one is summed back to a scalar.
    """
    if any(isinstance(a, DualTensor) for a in args):
        return _lift(lambda *ps: _op(kind, ps, value_fn, grad_fn, tangent_rule, check),
                     tangent_rule, *args)
    ts = tuple(as_tensor(a) for a in args)
    if check is not None:
        check(kind, *ts)
    arrays = tuple(t.data for t in ts)
    out = Tensor._wrap(value_fn(*arrays))
    od = out.data  # the closure holds arrays, never a tensor tied to the tape

    def bwd(g):
        return tuple(np.sum(c) if x.ndim == 0 and np.ndim(c) != 0 else c
                     for x, c in zip(arrays, grad_fn(g, *arrays, od)))

    return _emit(kind, out, ts, bwd)


# ---------------------------------------------------------------------------
# elementwise operations (exact shape match or 0-d scalar broadcast)


def _check_elementwise(kind: str, a: Tensor, b: Tensor):
    if a.shape == b.shape or a.ndim == 0 or b.ndim == 0:
        return
    raise ShapeMismatchError(
        f"{kind}: shapes {a.shape} and {b.shape} are neither an exact match "
        f"nor a scalar broadcast"
    )


def add(a, b):
    return _op("add", (a, b), np.add, lambda g, ad, bd, od: (g, g),
               lambda y, ap, bp, at, bt: _plus(at, bt), _check_elementwise)


def _sub_tangent(y, ap, bp, at, bt):
    if at is None:
        return neg(bt)
    if bt is None:
        return at
    return sub(at, bt)


def sub(a, b):
    return _op("sub", (a, b), np.subtract, lambda g, ad, bd, od: (g, -g),
               _sub_tangent, _check_elementwise)


def mul(a, b):
    return _op("mul", (a, b), np.multiply, lambda g, ad, bd, od: (g * bd, g * ad),
               _bilinear(mul), _check_elementwise)


def _div_tangent(y, ap, bp, at, bt):
    # d(a/b) = da/b - (a/b) * db/b
    left = None if at is None else div(at, bp)
    right = None if bt is None else neg(div(mul(y, bt), bp))
    return _plus(left, right)


def div(a, b):
    return _op("div", (a, b), np.divide, lambda g, ad, bd, od: (g / bd, -g * od / bd),
               _div_tangent, _check_elementwise)


def neg(a):
    return _op("neg", (a,), np.negative, lambda g, x, y: (-g,),
               lambda y, ap, at: neg(at))


def square(a):
    return _op("square", (a,), np.square, lambda g, x, y: (2.0 * x * g,),
               lambda y, ap, at: mul(mul(2.0, ap), at))


def tanh(a):
    return _op("tanh", (a,), np.tanh, lambda g, x, y: ((1.0 - y * y) * g,),
               lambda y, ap, at: mul(sub(1.0, square(y)), at))


# ---------------------------------------------------------------------------
# structural operations


def _check_matmul(kind: str, a: Tensor, b: Tensor):
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatchError(
            f"{kind}: expects 2-d operands, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(
            f"{kind}: inner dimensions disagree for shapes {a.shape} and {b.shape}"
        )


def matmul(a, b):
    return _op("matmul", (a, b), np.matmul, lambda g, ad, bd, od: (g @ bd.T, ad.T @ g),
               _bilinear(matmul), _check_matmul)


def sum_all(a):
    """Sum every element down to a 0-d scalar."""
    return _op("sum_all", (a,), np.sum, lambda g, x, y: (np.full(x.shape, g),),
               lambda y, ap, at: sum_all(at))


def _check_vector(kind: str, v: Tensor):
    if v.ndim != 1:
        raise ShapeMismatchError(f"{kind}: expects a 1-d vector, got shape {v.shape}")


def expand_rows(v, m: int):
    """Repeat a 1-d vector as m identical rows; adjoint sums over rows."""
    return _op("expand_rows", (v,), lambda x: np.broadcast_to(x, (m, x.shape[0])),
               lambda g, x, y: (g.sum(axis=0),),
               lambda y, vp, vt: expand_rows(vt, m), _check_vector)


def _check_rows(kind: str, a: Tensor, s: Tensor):
    if a.ndim != 2 or s.ndim != 1 or a.shape[0] != s.shape[0]:
        raise ShapeMismatchError(
            f"{kind}: expects shapes [m, n] and [m], got {a.shape} and {s.shape}"
        )


def scale_rows(a, s):
    """Multiply each row of a [m, n] tensor by the matching entry of s [m]."""
    return _op("scale_rows", (a, s), lambda ad, sd: ad * sd[:, None],
               lambda g, ad, sd, od: (g * sd[:, None], np.sum(g * ad, axis=1)),
               _bilinear(scale_rows), _check_rows)


# ---------------------------------------------------------------------------
# gradient control


def stopgrad(z):
    """Identity on values; blocks every adjoint into z's ancestors."""
    if isinstance(z, DualTensor):
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
    return _op("sg_lambda", (z,), lambda x: x,
               lambda g, x, y: (None if lam == 0.0 else g if lam == 1.0 else g * lam,),
               lambda y, zp, zt: mul(lam, zt))


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
        leaf = self._tape._leaves.get(id(tensor))
        return None if leaf is None else self._by_gid.get(leaf[1])

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
    # activations they hold now rather than when the tape itself is freed
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
