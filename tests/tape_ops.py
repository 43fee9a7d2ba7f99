"""The generic tape operations: the oracle of the fused nodes.

The library records two hand-written nodes per training step, the velocity
MLP and the residual loss, and the analytic flows compute their average
velocity and its tangent in numpy. These ops are the general path those
specialised ones are checked against: ``helpers.forward_ops`` writes the
MLP in them, ``helpers.op_chain_loss`` the loss, and
``test_meanflow_math`` each analytic flow's average velocity (the harmonic
one with ``expm1_ratio``).

Every op but ``stopgrad`` is one call of ``_op``, the one op constructor:
value, adjoint and tangent rule in, the shape check, node and scalar
broadcast reduction done once. ``jvp`` runs the same operations on dual
numbers. Every op lifts to them through one rule, ``_lift``: the op on the
primals, then its tangent rule in tape operations, so a caller may ask for
the directional derivative to stay attached to the reverse graph
(reverse-over-forward). By default the tangent is detached.

Partial gradient stopping: ``stopgrad`` passes values through and blocks
all adjoints; ``sg_lambda`` passes values through bit-for-bit and is an
ordinary node whose closure scales the adjoint by a factor in [0, 1].

The names of ``mmflow.autodiff`` these ops build on are imported here, so
``tape_ops.Tensor``, ``tape_ops.as_tensor`` and so on name the library's own.
"""

from __future__ import annotations

import contextlib

import numpy as np

from mmflow.autodiff import (  # noqa: F401  (re-exported for the tests)
    _DUAL_ATTACH,
    _TAPE_STACK,
    DualTensor,
    ShapeMismatchError,
    Tensor,
    _emit,
    _unpack,
    _zeros_const,
    as_tensor,
)
from mmflow.meanflow_math import _expm1_ratio_slope, _expm1_ratio_value

__all__ = [
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
]


@contextlib.contextmanager
def _tangent_ctx():
    """Tangent arithmetic is recorded only when a jvp caller asked for it;
    otherwise operations inside see no tape and produce constants."""
    if _DUAL_ATTACH.get():
        yield
        return
    token = _TAPE_STACK.set(())
    try:
        yield
    finally:
        _TAPE_STACK.reset(token)


# ---------------------------------------------------------------------------
# dual-number plumbing


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
# the op the harmonic flow's average velocity was written with


def expm1_ratio(g):
    """Tape op for expm1(g) / g, exact at and near g = 0. Its slope enters
    forward mode as a constant, so the op is differentiable once."""
    return _op(
        "expm1_ratio", (g,), _expm1_ratio_value,
        lambda grad, x, y: (grad * _expm1_ratio_slope(x),),
        lambda y, gp, gt: mul(as_tensor(_expm1_ratio_slope(gp.data)), gt),
    )
