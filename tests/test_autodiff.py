import itertools
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmflow import autodiff as ad
from mmflow.autodiff import (
    Tape,
    Tensor,
    ShapeMismatchError,
    as_tensor,
    backward,
    jvp,
    sg_lambda,
    stopgrad,
)

from helpers import central_difference, rel_err


def param(arr):
    return Tensor(arr, requires_grad=True)


# ---------------------------------------------------------------------------
# elementwise basics


def test_add_componentwise():
    out = ad.add(as_tensor([1.0, 2.0]), as_tensor([3.0, 4.0]))
    assert np.array_equal(out.data, [4.0, 6.0])


def test_mul_and_neg_componentwise():
    a, b = as_tensor([1.0, -2.0]), as_tensor([0.5, 4.0])
    assert np.array_equal(ad.mul(a, b).data, (a.data * b.data))
    assert np.array_equal(ad.neg(a).data, -a.data)


def test_mul_by_zero_tensor_is_annihilator_with_zero_backward():
    x = param([1.5, -2.0])
    zeros = as_tensor([0.0, 0.0])
    with Tape():
        out = ad.sum_all(ad.mul(x, zeros))
    grads = backward(out)
    assert np.array_equal(out.data, 0.0)
    assert np.array_equal(grads.wrt(x), [0.0, 0.0])
    # the zero constant never joins the graph, so its gradient is zero too
    assert np.array_equal(grads.wrt(zeros), [0.0, 0.0])


def test_square_gradient():
    x = param([3.0])
    with Tape():
        loss = ad.sum_all(ad.square(x))
    grads = backward(loss)
    assert np.array_equal(grads.wrt(x), [6.0])


def test_elementwise_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeMismatchError) as err:
        ad.add(as_tensor(np.zeros((2, 3))), as_tensor(np.zeros(3)))
    assert "(2, 3)" in str(err.value) and "(3,)" in str(err.value)


SCALAR_CASES = list(itertools.product(["add", "sub", "mul", "div"], ["left", "right"]))


@pytest.mark.parametrize("name, side", SCALAR_CASES, ids=[f"{n}-{s}" for n, s in SCALAR_CASES])
def test_scalar_broadcast_allowed_and_reduced_in_backward(name, side):
    op = getattr(ad, name)
    rng = np.random.default_rng(zlib.crc32(f"{name}-{side}".encode()))
    arr, c0 = rng.uniform(0.5, 2.0, (2, 3)), np.array(1.3)
    w = rng.uniform(-1, 1, (2, 3))

    def loss_of(x, c):
        y = op(c, x) if side == "left" else op(x, c)
        return ad.sum_all(ad.mul(y, as_tensor(w)))

    x, c = param(arr), param(c0)
    with Tape():
        loss = loss_of(x, c)
    grads = backward(loss)
    fd_x, fd_c = central_difference(
        lambda xs: float(loss_of(as_tensor(xs[0]), as_tensor(xs[1])).data), [arr, c0])
    assert grads.wrt(c).shape == ()
    assert rel_err(grads.wrt(c), fd_c) < 1e-6
    assert rel_err(grads.wrt(x), fd_x) < 1e-6


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    v = as_tensor([[1.0, -2.0, 0.5]])
    out = ad.matmul(v, as_tensor(np.eye(3)))
    assert np.array_equal(out.data, v.data)


def test_matmul_1x1_reduces_to_scalar_mul():
    a = param([[3.0]])
    b = param([[4.0]])
    with Tape():
        loss = ad.sum_all(ad.matmul(a, b))
    grads = backward(loss)
    assert loss.data == pytest.approx(12.0)
    assert np.allclose(grads.wrt(a), [[4.0]])
    assert np.allclose(grads.wrt(b), [[3.0]])


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a0 = rng.uniform(-2, 2, (3, 2))
    b0 = rng.uniform(-2, 2, (2, 4))
    w = rng.uniform(-1, 1, (3, 4))

    def f(arrs):
        return float(np.sum((arrs[0] @ arrs[1]) * w))

    a, b = param(a0), param(b0)
    with Tape():
        loss = ad.sum_all(ad.mul(ad.matmul(a, b), as_tensor(w)))
    grads = backward(loss)
    fd = central_difference(f, [a0, b0])
    assert rel_err(grads.wrt(a), fd[0]) < 1e-4
    assert rel_err(grads.wrt(b), fd[1]) < 1e-4


def test_matmul_dimension_mismatch():
    with pytest.raises(ShapeMismatchError):
        ad.matmul(as_tensor(np.zeros((2, 3))), as_tensor(np.zeros((2, 3))))


# ---------------------------------------------------------------------------
# finite-difference oracle across every differentiable op


OPS = {
    "add": (lambda x, y: ad.add(x, y), 2),
    "sub": (lambda x, y: ad.sub(x, y), 2),
    "mul": (lambda x, y: ad.mul(x, y), 2),
    "div": (lambda x, y: ad.div(x, ad.add(ad.square(y), 0.5)), 2),
    "neg": (lambda x: ad.neg(x), 1),
    "square": (lambda x: ad.square(x), 1),
    "tanh": (lambda x: ad.tanh(x), 1),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_reverse_mode_matches_central_differences(name):
    op, nargs = OPS[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    arrs = [rng.uniform(-2, 2, (4,)) for _ in range(nargs)]
    w = rng.uniform(-1, 1, (4,))

    def f(xs):
        ts = [as_tensor(x) for x in xs]
        return float(ad.sum_all(ad.mul(op(*ts), as_tensor(w))).data)

    params = [param(a) for a in arrs]
    with Tape():
        loss = ad.sum_all(ad.mul(op(*params), as_tensor(w)))
    grads = backward(loss)
    fd = central_difference(f, arrs)
    for p, g in zip(params, fd):
        assert rel_err(grads.wrt(p), g) < 1e-4


@pytest.mark.parametrize("name", sorted(OPS))
def test_forward_tangent_transpose_consistent_with_reverse(name):
    # <w, J v> computed forward must equal <J^T w, v> computed in reverse
    op, nargs = OPS[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    arrs = [rng.uniform(-2, 2, (3,)) for _ in range(nargs)]
    tans = [rng.uniform(-1, 1, (3,)) for _ in range(nargs)]
    w = rng.uniform(-1, 1, (3,))

    value, tangent = jvp(lambda *xs: op(*xs), arrs, tans)
    forward_side = float(np.sum(tangent.data * w))

    params = [param(a) for a in arrs]
    with Tape():
        loss = ad.sum_all(ad.mul(op(*params), as_tensor(w)))
    grads = backward(loss)
    reverse_side = sum(float(np.sum(grads.wrt(p) * v)) for p, v in zip(params, tans))
    assert forward_side == pytest.approx(reverse_side, rel=1e-10)


STRUCTURAL = {
    "matmul": (lambda a, b: ad.matmul(a, b), [(2, 3), (3, 2)]),
    "scale_rows": (lambda a, s: ad.scale_rows(a, s), [(3, 2), (3,)]),
    "expand_rows": (lambda v: ad.expand_rows(v, 3), [(4,)]),
    "sum_all": (lambda a: ad.sum_all(a), [(2, 3)]),
}


@pytest.mark.parametrize("name", sorted(STRUCTURAL))
def test_structural_ops_transpose_consistency(name):
    op, shapes = STRUCTURAL[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    arrs = [rng.uniform(-2, 2, s) for s in shapes]
    tans = [rng.uniform(-1, 1, s) for s in shapes]

    value, tangent = jvp(lambda *xs: op(*xs), arrs, tans)
    w = rng.uniform(-1, 1, value.shape)
    forward_side = float(np.sum(tangent.data * w))

    params = [param(a) for a in arrs]
    with Tape():
        loss = ad.sum_all(ad.mul(op(*params), as_tensor(w)))
    grads = backward(loss)
    reverse_side = sum(float(np.sum(grads.wrt(p) * v)) for p, v in zip(params, tans))
    assert forward_side == pytest.approx(reverse_side, rel=1e-10)


def test_fan_out_accumulates_gradients_once_per_node():
    # x used four times through a diamond: d/dx (x + x)^2 = 8x
    x = param(1.5)
    with Tape() as tape:
        y = ad.add(x, x)
        loss = ad.mul(y, y)
    nodes_before = len(tape)
    grads = backward(loss)
    assert grads.wrt(x) == pytest.approx(8 * 1.5)
    assert len(tape) == nodes_before  # backward appends nothing


# ---------------------------------------------------------------------------
# structural ops


def test_expand_rows_adjoint_sums_rows():
    v = param([1.0, 2.0])
    with Tape():
        loss = ad.sum_all(ad.expand_rows(v, 3))
    grads = backward(loss)
    assert np.array_equal(grads.wrt(v), [3.0, 3.0])


def test_scale_rows_value_and_gradients():
    a0 = np.arange(6.0).reshape(3, 2)
    s0 = np.array([1.0, -2.0, 0.5])
    a, s = param(a0), param(s0)
    with Tape():
        out = ad.scale_rows(a, s)
        loss = ad.sum_all(out)
    assert np.array_equal(out.data, a0 * s0[:, None])
    grads = backward(loss)
    assert np.array_equal(grads.wrt(a), np.repeat(s0[:, None], 2, axis=1))
    assert np.array_equal(grads.wrt(s), a0.sum(axis=1))


# ---------------------------------------------------------------------------
# stopgrad / sg_lambda


def test_stopgrad_detaches_value_path():
    x = param(3.0)
    with Tape():
        loss = ad.square(stopgrad(x))
    assert loss.data == pytest.approx(9.0)
    with pytest.raises(ValueError):
        backward(loss)  # nothing attached: loss is a pure constant


def test_stopgrad_product_rule_keeps_live_branch_only():
    x = param(2.0)
    with Tape():
        loss = ad.mul(x, stopgrad(x))
    grads = backward(loss)
    assert loss.data == pytest.approx(4.0)
    assert grads.wrt(x) == pytest.approx(2.0)


def test_stopgrad_idempotent():
    x = param([1.0, -1.0])
    once = stopgrad(x)
    twice = stopgrad(stopgrad(x))
    assert np.array_equal(once.data, twice.data)
    with Tape():
        loss = ad.sum_all(ad.add(ad.square(ad.add(x, 0.0)), ad.square(twice)))
    grads = backward(loss)
    assert np.array_equal(grads.wrt(x), 2.0 * x.data)


def test_stopgrad_backward_is_exactly_zero():
    x = param([0.3, -0.7])
    with Tape():
        live = ad.sum_all(ad.square(x))
        dead = ad.sum_all(ad.square(stopgrad(x)))
        loss = ad.add(live, ad.mul(0.0, dead))
    grads = backward(loss)
    assert np.all(grads.wrt(x) == 2.0 * x.data)


def test_sg_lambda_endpoints():
    x = param([1.3, -0.4])
    with Tape():
        loss1 = ad.sum_all(ad.square(sg_lambda(ad.add(x, 0.0), 1.0)))
    g1 = backward(loss1).wrt(x)
    with Tape():
        loss0 = ad.sum_all(ad.square(sg_lambda(ad.add(x, 0.0), 0.0)))
    # lam=0 behaves like stopgrad: value intact, gradient exactly zero
    assert np.array_equal(loss0.data, loss1.data)
    g0 = backward(loss0).wrt(x)
    assert np.all(g0 == 0.0)
    assert np.array_equal(g1, 2.0 * x.data)


def test_sg_lambda_zero_contributes_nothing_to_its_input():
    # the closure returns no adjoint at all, not a zero array
    z = param([0.5, -1.5])
    with Tape():
        loss = ad.sum_all(ad.square(sg_lambda(z, 0.0)))
    grads = backward(loss)
    assert grads._raw(z) is None
    assert np.array_equal(grads.wrt(z), [0.0, 0.0])
    assert not np.signbit(grads.wrt(z)).any()


def test_sg_lambda_half_scales_gradient():
    x = param(3.0)
    with Tape():
        loss = sg_lambda(ad.square(x), 0.5)
    grads = backward(loss)
    assert grads.wrt(x) == pytest.approx(3.0)


def test_sg_lambda_rejects_out_of_range():
    with pytest.raises(ValueError):
        sg_lambda(as_tensor(1.0), 1.5)
    with pytest.raises(ValueError):
        sg_lambda(as_tensor(1.0), -0.1)


@given(lam=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_sg_lambda_value_is_bitwise_lambda_independent(lam):
    z = np.array([0.1, -2.7, 3.3e-5])
    ref = sg_lambda(as_tensor(z), 1.0).data
    out = sg_lambda(as_tensor(z), lam).data
    assert np.array_equal(ref, out)


@pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.9, 1.0])
def test_sg_lambda_gradient_scales_exactly_linearly(lam):
    x0 = np.array([0.7, -1.2, 0.03])
    x = param(x0)

    def run(l):
        with Tape():
            inner = ad.square(ad.add(x, 0.0))
            loss = ad.sum_all(sg_lambda(inner, l))
        return backward(loss).wrt(x)

    full = run(1.0)
    scaled = run(lam)
    assert np.array_equal(scaled, lam * full)


# ---------------------------------------------------------------------------
# backward driver


def test_backward_linear_loss_gradient_is_coefficient():
    x = np.array([2.0, -1.0, 0.5])
    w = param([1.0, 1.0, 1.0])
    with Tape():
        loss = ad.sum_all(ad.mul(w, as_tensor(x)))
    grads = backward(loss)
    assert np.array_equal(grads.wrt(w), x)


def test_backward_deterministic_across_records():
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=(4, 3))
    w0 = rng.normal(size=(3, 2))

    def run():
        w = param(w0)
        with Tape():
            h = ad.tanh(ad.matmul(as_tensor(x0), w))
            loss = ad.sum_all(ad.square(h))
        return backward(loss).wrt(w)

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_backward_rejects_non_scalar_loss():
    x = param([1.0, 2.0])
    with Tape():
        y = ad.square(x)
    with pytest.raises(ShapeMismatchError):
        backward(y)


def test_backward_releases_the_adjoint_closures():
    # they hold the forward activations; a consumed tape never runs them again
    x = param([1.0, 2.0])
    with Tape() as tape:
        loss = ad.sum_all(ad.square(ad.tanh(x)))
    backward(loss)
    assert len(tape) == 3
    assert all(node.backward_fn is None for node in tape.nodes)


def test_backward_consumes_tape():
    x = param(1.0)
    with Tape():
        loss = ad.square(x)
    backward(loss)
    with pytest.raises(RuntimeError):
        backward(loss)


def test_mlp_composite_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-1, 1, (3, 2))
    w1_0 = rng.uniform(-1, 1, (2, 4))
    b1_0 = rng.uniform(-0.5, 0.5, (4,))
    w2_0 = rng.uniform(-1, 1, (4, 1))

    def f(arrs):
        w1, b1, w2 = arrs
        h = np.tanh(x0 @ w1 + b1)
        return float(np.sum((h @ w2) ** 2))

    w1, b1, w2 = param(w1_0), param(b1_0), param(w2_0)
    with Tape():
        h = ad.tanh(ad.add(ad.matmul(as_tensor(x0), w1), ad.expand_rows(b1, 3)))
        loss = ad.sum_all(ad.square(ad.matmul(h, w2)))
    grads = backward(loss)
    fd = central_difference(f, [w1_0, b1_0, w2_0])
    assert rel_err(grads.wrt(w1), fd[0]) < 1e-4
    assert rel_err(grads.wrt(b1), fd[1]) < 1e-4
    assert rel_err(grads.wrt(w2), fd[2]) < 1e-4


def test_unused_parameter_gets_zero_gradient():
    x = param([1.0])
    unused = param([5.0, 5.0])
    with Tape():
        loss = ad.sum_all(ad.square(x))
    grads = backward(loss)
    assert np.array_equal(grads.wrt(unused), [0.0, 0.0])


# ---------------------------------------------------------------------------
# jvp


def test_jvp_square_example():
    value, tangent = jvp(lambda x: ad.square(x), [np.array(3.0)], [np.array(1.0)])
    assert value.data == pytest.approx(9.0)
    assert tangent.data == pytest.approx(6.0)


def test_jvp_zero_tangent_gives_zero_derivative():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5,))
    value, tangent = jvp(
        lambda t: ad.tanh(ad.mul(t, t)), [x], [np.zeros_like(x)]
    )
    assert np.all(tangent.data == 0.0)


def test_jvp_matches_central_differences_on_mlp():
    rng = np.random.default_rng(9)
    x0 = rng.uniform(-1, 1, (2, 3))
    v = rng.uniform(-1, 1, (2, 3))
    w1 = as_tensor(rng.uniform(-1, 1, (3, 5)))
    w2 = as_tensor(rng.uniform(-1, 1, (5, 2)))

    def net(x):
        return ad.matmul(ad.tanh(ad.matmul(x, w1)), w2)

    _, tangent = jvp(net, [x0], [v])
    eps = 1e-5
    plus = np.tanh((x0 + eps * v) @ w1.data) @ w2.data
    minus = np.tanh((x0 - eps * v) @ w1.data) @ w2.data
    fd = (plus - minus) / (2 * eps)
    assert rel_err(tangent.data, fd) < 1e-4


CONSTANT = np.array([0.4, -1.1, 2.0])

ONE_CONSTANT_OPERAND = {
    "constant+dual": lambda x: ad.add(as_tensor(CONSTANT), x),
    "constant-dual": lambda x: ad.sub(as_tensor(CONSTANT), x),
    "dual-constant": lambda x: ad.sub(x, as_tensor(CONSTANT)),
}


@pytest.mark.parametrize("shape", [(3,), ()], ids=["vector", "scalar-broadcast"])
@pytest.mark.parametrize("name", sorted(ONE_CONSTANT_OPERAND))
def test_jvp_with_one_constant_operand_matches_central_differences(name, shape):
    # a 0-d input against the vector constant leaves a 0-d tangent, which
    # the dual output broadcasts to the primal's shape
    op = ONE_CONSTANT_OPERAND[name]
    rng = np.random.default_rng(11)
    x0 = rng.uniform(-1, 1, shape)
    v = rng.uniform(-1, 1, shape)
    value, tangent = jvp(op, [x0], [v])
    assert value.shape == tangent.shape == (3,)
    eps = 1e-6
    fd = (op(as_tensor(x0 + eps * v)).data - op(as_tensor(x0 - eps * v)).data) / (2 * eps)
    assert rel_err(tangent.data, fd) < 1e-6


def test_jvp_value_equals_plain_forward_bitwise():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(4, 2))
    w = as_tensor(rng.normal(size=(2, 2)))

    def net(x):
        return ad.tanh(ad.matmul(x, w))

    value, _ = jvp(net, [x0], [np.ones_like(x0)])
    plain = net(as_tensor(x0))
    assert np.array_equal(value.data, plain.data)


def test_jvp_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatchError):
        jvp(lambda x: x, [np.zeros(3)], [np.zeros(2)])


def test_jvp_detached_by_default_attached_on_request():
    w = param(np.array([[0.5]]))

    def f(x):
        return ad.matmul(x, w)

    x0 = np.array([[2.0]])
    with Tape():
        _, tangent = jvp(f, [x0], [np.ones_like(x0)])
        assert tangent._gid is None  # constant: not part of the record
    with Tape():
        _, tangent = jvp(f, [x0], [np.ones_like(x0)], attach=True)
        loss = ad.sum_all(tangent)
    grads = backward(loss)
    # d/dw of (d f / dx = w) is 1
    assert np.allclose(grads.wrt(w), [[1.0]])


def test_jvp_through_stopgrad_kills_tangent():
    x0 = np.array([1.0, 2.0])
    _, tangent = jvp(lambda x: ad.square(stopgrad(x)), [x0], [np.ones_like(x0)])
    assert np.all(tangent.data == 0.0)


def test_jvp_through_sg_lambda_scales_tangent():
    x0 = np.array([1.0, 2.0])
    _, tangent = jvp(lambda x: sg_lambda(ad.square(x), 0.25), [x0], [np.ones_like(x0)])
    assert tangent.data == pytest.approx(0.25 * 2.0 * x0)


def _product(op, ap, bp, at, bt):
    # op(at, bp) + op(ap, bt), a missing term left out
    if at is None:
        return op(ap, bt)
    if bt is None:
        return op(at, bp)
    return op(at, bp) + op(ap, bt)


def _div_rule(y, ap, bp, at, bt):
    if at is None:
        return -((y * bt) / bp)
    if bt is None:
        return at / bp
    return at / bp + -((y * bt) / bp)


def _add_rule(y, ap, bp, at, bt):
    if at is None:
        return bt
    if bt is None:
        return at
    return at + bt


def _sub_rule(y, ap, bp, at, bt):
    if at is None:
        return -bt
    if bt is None:
        return at
    return at - bt


# op, operand shapes, and its tangent rule in numpy, term for term in the
# order the op computes it: (y, *primals, *tangents), a constant's tangent None
TANGENT_RULES = {
    "add": (ad.add, [(3, 4), (3, 4)], _add_rule),
    "sub": (ad.sub, [(3, 4), (3, 4)], _sub_rule),
    "mul": (ad.mul, [(3, 4), (3, 4)],
            lambda y, ap, bp, at, bt: _product(np.multiply, ap, bp, at, bt)),
    "div": (ad.div, [(3, 4), (3, 4)], _div_rule),
    "neg": (ad.neg, [(3, 4)], lambda y, ap, at: -at),
    "square": (ad.square, [(3, 4)], lambda y, ap, at: (2.0 * ap) * at),
    "tanh": (ad.tanh, [(3, 4)], lambda y, ap, at: (1.0 - np.square(y)) * at),
    "matmul": (ad.matmul, [(3, 4), (4, 2)],
               lambda y, ap, bp, at, bt: _product(np.matmul, ap, bp, at, bt)),
    "sum_all": (ad.sum_all, [(3, 4)], lambda y, ap, at: np.sum(at)),
    "expand_rows": (lambda v: ad.expand_rows(v, 3), [(4,)],
                    lambda y, vp, vt: np.broadcast_to(vt, (3, 4))),
    "scale_rows": (ad.scale_rows, [(3, 4), (3,)],
                   lambda y, ap, sp, at, st: _product(lambda m, v: m * v[:, None],
                                                      ap, sp, at, st)),
    "stopgrad": (stopgrad, [(3, 4)], lambda y, zp, zt: np.zeros_like(zp)),
    "sg_lambda": (lambda z: sg_lambda(z, 0.3), [(3, 4)], lambda y, zp, zt: 0.3 * zt),
}


def test_every_op_has_a_tangent_rule():
    # an op added to ``__all__`` cannot skip the bitwise tangent check below
    not_ops = {"Tensor", "DualTensor", "Tape", "Gradients", "ShapeMismatchError",
               "as_tensor", "backward", "jvp"}
    assert set(ad.__all__) - not_ops == set(TANGENT_RULES)


TANGENT_CASES = [
    (name, dual)
    for name, (_, shapes, _) in sorted(TANGENT_RULES.items())
    for dual in itertools.product([False, True], repeat=len(shapes))
    if any(dual)
]


@pytest.mark.parametrize("attach", [False, True], ids=["detached", "attached"])
@pytest.mark.parametrize(
    "name, dual", TANGENT_CASES,
    ids=[f"{n}-" + "".join("d" if d else "c" for d in dual) for n, dual in TANGENT_CASES],
)
def test_jvp_tangent_is_the_rule_bit_for_bit(name, dual, attach):
    # each term in the op's own order: a reordered or dropped term changes bits
    op, shapes, rule = TANGENT_RULES[name]
    rng = np.random.default_rng(len(name) * 7 + sum(dual))
    primals = [rng.uniform(0.5, 2.0, s) for s in shapes]
    tangents = [rng.uniform(-1, 1, s) if d else None for s, d in zip(shapes, dual)]
    with Tape():
        value, tangent = jvp(op, [param(p) for p in primals],
                             [None if t is None else param(t) for t in tangents],
                             attach=attach)
    expected = np.asarray(rule(value.data, *primals, *tangents), dtype=np.float64)
    assert tangent.shape == expected.shape
    assert tangent.data.tobytes() == np.ascontiguousarray(expected).tobytes()


def test_reverse_over_forward_second_order():
    # f(x) = x^3 via square*x; jvp gives 3x^2; reverse over it gives 6x
    x = param(2.0)
    with Tape():
        _, tangent = jvp(
            lambda t: ad.mul(ad.square(t), t), [x], [np.array(1.0)], attach=True
        )
        loss = ad.add(tangent, 0.0)
    grads = backward(loss)
    assert grads.wrt(x) == pytest.approx(12.0)


# ---------------------------------------------------------------------------
# recording state is per thread


def test_tape_on_one_thread_does_not_record_another_threads_work():
    import threading

    from mmflow.field_model import FieldConfig, init_params
    from mmflow.sampler_eval import one_step_sample

    field = init_params(FieldConfig(input_dim=2, hidden_widths=(8, 8), time_embed_dim=4,
                                    base_frequency=10.0, seed=0))
    x1 = np.random.default_rng(0).normal(size=(16, 2))
    expected = one_step_sample(field, x1)
    entered, release = threading.Event(), threading.Event()
    seen = {}

    def worker():
        entered.wait(timeout=10)
        seen["x0"] = one_step_sample(field, x1)
        x = param([1.0, 2.0])
        ad.sum_all(ad.square(x))  # recorded nowhere: this thread has no tape
        seen["gid"] = x._gid
        release.set()

    thread = threading.Thread(target=worker)
    thread.start()
    with Tape() as tape:
        entered.set()
        release.wait(timeout=10)
        seen["len"] = len(tape)
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen["len"] == 0
    assert seen["gid"] is None
    assert tape._leaves == {}
    assert np.array_equal(seen["x0"], expected)


def test_jvp_attach_flag_does_not_leak_across_threads():
    import threading

    seen = {}
    started, done = threading.Event(), threading.Event()

    def other():
        started.wait(timeout=10)
        seen["attached"] = ad._DUAL_ATTACH.get()
        done.set()

    def f(x):
        started.set()
        done.wait(timeout=10)
        return ad.square(x)

    thread = threading.Thread(target=other)
    thread.start()
    jvp(f, [np.array([1.0])], [np.array([1.0])], attach=True)
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen["attached"] is False


def test_concurrent_tapes_each_see_only_their_own_thread():
    import sys
    import threading

    results, errors = {}, []

    def worker(k):
        try:
            for _ in range(50):
                x = param(np.full(3, float(k)))
                with Tape() as tape:
                    loss = ad.sum_all(ad.square(ad.mul(x, x)))
                assert len(tape) == 3
                g = backward(loss).wrt(x)  # d/dx sum x^4 = 4 x^3
                assert np.array_equal(g, np.full(3, 4.0 * k**3))
            results[k] = True
        except Exception as err:  # reported below with the thread's index
            errors.append((k, err))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(1, 7)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == [] and sorted(results) == list(range(1, 7))


# ---------------------------------------------------------------------------
# a leaf keeps its gradient on every tape that records it


def _small_field_and_batch():
    from mmflow.field_model import FieldConfig, init_params
    from mmflow.objectives import TimePairConfig, build_batch, sample_time_pairs

    field = init_params(FieldConfig(input_dim=2, hidden_widths=(8, 8), time_embed_dim=4,
                                    base_frequency=10.0, seed=0))
    rng = np.random.default_rng(11)
    x0, x1 = rng.normal(size=(16, 2)), rng.normal(size=(16, 2))
    r, t = sample_time_pairs(rng, 16, TimePairConfig())
    return field, build_batch(x0, x1, r, t)


def _param_grads(loss, field):
    grads = backward(loss)
    return np.concatenate([grads.wrt(p).ravel() for p in field.params])


def _alone(field, batch, lam):
    from mmflow.objectives import loss_lambda

    with Tape():
        loss = loss_lambda(field, batch, lam)
    return _param_grads(loss, field)


def test_leaf_keeps_its_gradient_on_an_earlier_tape():
    from mmflow.objectives import loss_lambda

    field, batch = _small_field_and_batch()
    expected = _alone(field, batch, 0.5)
    with Tape():
        first = loss_lambda(field, batch, 0.5)
    with Tape():
        second = loss_lambda(field, batch, 0.0)
    assert np.linalg.norm(expected) > 0.0
    assert np.array_equal(_param_grads(first, field), expected)
    assert np.array_equal(_param_grads(second, field), _alone(field, batch, 0.0))


def test_leaf_keeps_its_gradient_while_another_thread_records_it():
    import threading

    from mmflow.objectives import loss_lambda

    field, batch = _small_field_and_batch()
    expected = _alone(field, batch, 0.5)
    recorded = threading.Event()
    seen = {}

    def worker():
        with Tape():
            other = loss_lambda(field, batch, 0.0)
        seen["grads"] = _param_grads(other, field)
        recorded.set()

    thread = threading.Thread(target=worker)
    with Tape():
        first = loss_lambda(field, batch, 0.5)
        thread.start()
        recorded.wait(timeout=30)
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert np.array_equal(_param_grads(first, field), expected)
    assert np.array_equal(seen["grads"], _alone(field, batch, 0.0))


def test_leaf_used_on_a_nested_tape_keeps_its_outer_gradient():
    x = param(2.0)
    with Tape():
        y = x * x
        with Tape():
            inner = ad.mul(x, 3.0)
        loss = ad.add(y, x)
    assert backward(loss).wrt(x) == 5.0  # d/dx (x^2 + x) at 2
    assert backward(inner).wrt(x) == 3.0
