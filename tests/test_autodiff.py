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


def test_scalar_broadcast_allowed_and_reduced_in_backward():
    x = param(np.ones((2, 2)))
    c = param(2.0)
    with Tape():
        loss = ad.sum_all(ad.mul(x, c))
    grads = backward(loss)
    assert grads.wrt(c).shape == ()
    assert grads.wrt(c) == pytest.approx(4.0)
    assert np.array_equal(grads.wrt(x), np.full((2, 2), 2.0))


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
    "exp": (lambda x: ad.exp(x), 1),
    "sin": (lambda x: ad.sin(x), 1),
    "cos": (lambda x: ad.cos(x), 1),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_reverse_mode_matches_central_differences(name):
    op, nargs = OPS[name]
    rng = np.random.default_rng(hash(name) % (2**32))
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
    rng = np.random.default_rng(hash(name) % (2**31))
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
    "concat_cols": (lambda a, b: ad.concat_cols(a, b), [(2, 2), (2, 3)]),
    "scale_rows": (lambda a, s: ad.scale_rows(a, s), [(3, 2), (3,)]),
    "interleave_cols": (lambda a, b: ad.interleave_cols(a, b), [(2, 2), (2, 2)]),
    "expand_rows": (lambda v: ad.expand_rows(v, 3), [(4,)]),
    "sum_all": (lambda a: ad.sum_all(a), [(2, 3)]),
}


@pytest.mark.parametrize("name", sorted(STRUCTURAL))
def test_structural_ops_transpose_consistency(name):
    op, shapes = STRUCTURAL[name]
    rng = np.random.default_rng(abs(hash(name)) % (2**31))
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


def test_concat_cols_roundtrip_gradients():
    a = param(np.arange(6.0).reshape(2, 3))
    b = param(np.ones((2, 2)))
    w = np.arange(10.0).reshape(2, 5)
    with Tape():
        loss = ad.sum_all(ad.mul(ad.concat_cols(a, b), as_tensor(w)))
    grads = backward(loss)
    assert np.array_equal(grads.wrt(a), w[:, :3])
    assert np.array_equal(grads.wrt(b), w[:, 3:])


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


def test_interleave_cols_alternates_and_splits_gradient():
    a = param(np.array([[1.0, 2.0]]))
    b = param(np.array([[10.0, 20.0]]))
    with Tape():
        out = ad.interleave_cols(a, b)
        loss = ad.sum_all(ad.mul(out, as_tensor([[1.0, 2.0, 3.0, 4.0]])))
    assert np.array_equal(out.data, [[1.0, 10.0, 2.0, 20.0]])
    grads = backward(loss)
    assert np.array_equal(grads.wrt(a), [[1.0, 3.0]])
    assert np.array_equal(grads.wrt(b), [[2.0, 4.0]])


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
