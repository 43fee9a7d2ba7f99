"""Minimal dense-tensor autodiff: reverse-mode tape + forward-mode JVP.

Every tensor and tape value is float64. A ``Tape`` records operations
whenever at least one input is attached to it (parameters are attached
lazily via their ``requires_grad`` flag). The tape keeps each leaf's graph
id itself, so a leaf recorded on several tapes, nested or on other
threads, keeps its gradient on every one. Every node has one shape: a
tuple of outputs and a closure mapping one adjoint per output (``None``
for an output that got none) to one contribution per input. ``backward``
walks the tape once in reverse and returns a gradient map.

The library records hand-written nodes only (``_emit``, ``_emit_multi``):
the velocity MLP, which computes in float32 inside while ``train`` steps
it (``Gradients`` hands every gradient out as float64), and the residual
loss. ``jvp`` hands a function ``DualTensor`` inputs and reads its value
and directional derivative; the MLP carries its tangents itself, and asks
for its tangent to stay attached to the reverse graph
(reverse-over-forward) only inside ``jvp(..., attach=True)``. A field is
any callable ``u(x, r, t)``.
"""

from __future__ import annotations

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
_DUAL_ATTACH = contextvars.ContextVar("dual_attach", default=False)


def _active_tape():
    stack = _TAPE_STACK.get()
    return stack[-1] if stack else None


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
