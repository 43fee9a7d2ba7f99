"""The fused MLP node of ``VelocityField.forward`` against its op-by-op oracle.

``helpers.forward_ops`` writes the same MLP in generic tape operations, so
the generic tape differentiates it. Every quantity the training step reads
(loss, ``u``, the bracket ``du`` and each parameter gradient) must agree
with it to 1e-12 relative, and the primal must agree bit for bit. The
float32 node, the precision ``train`` steps in, is judged against the
float64 node at float32 tolerances.
"""

import contextlib
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mmflow.autodiff as ad
from mmflow.autodiff import Tape, Tensor, as_tensor, backward, jvp
from mmflow.field_model import _BLOCK_ROWS, FieldConfig, VelocityField, init_params
from mmflow.objectives import (
    TimePairConfig,
    _loss_target,
    _residual_loss,
    build_batch,
    loss_full,
    loss_lambda,
    sample_time_pairs,
)
from mmflow.sampler_eval import few_step_sample, one_step_sample

from helpers import central_difference, forward_ops, op_chain_loss, op_chain_residual_loss

TOL = 1e-12

CFG = FieldConfig(input_dim=2, hidden_widths=(16, 12, 16), time_embed_dim=8,
                  base_frequency=50.0, seed=7)


@contextlib.contextmanager
def op_by_op():
    """Route ``VelocityField.forward`` through the op-by-op pass."""
    fused = VelocityField.forward
    VelocityField.forward = forward_ops
    try:
        yield
    finally:
        VelocityField.forward = fused


def rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def make_batch(rng, b, d, convention):
    x0 = rng.normal(size=(b, d))
    x1 = rng.normal(size=(b, d))
    r, t = sample_time_pairs(rng, b, TimePairConfig())
    return build_batch(x0, x1, r, t, convention=convention)


def with_offsets(field, rng):
    """``field`` with every parameter shifted, so the biases are non-zero."""
    return field.with_params([Tensor(p.data + 0.1 * rng.normal(size=p.shape), requires_grad=True)
                              for p in field.params])


def value_and_grads(field, loss_fn):
    with Tape():
        loss = loss_fn()
    grads = backward(loss)
    return float(loss.data), [grads.wrt(p) for p in field.params]


def assert_matches_oracle(field, loss_fn):
    fused_loss, fused_grads = value_and_grads(field, loss_fn)
    with op_by_op():
        ref_loss, ref_grads = value_and_grads(field, loss_fn)
    assert abs(fused_loss - ref_loss) <= TOL * abs(ref_loss)
    for g, ref in zip(fused_grads, ref_grads):
        assert rel(g, ref) <= TOL


# ---------------------------------------------------------------------------
# losses and gradients


@pytest.mark.parametrize("convention", ["interval_ratio", "absolute_time"])
@pytest.mark.parametrize("target_norm", ["sampled_gap", "pair_span"])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_loss_lambda_matches_op_by_op(convention, target_norm, lam):
    field = init_params(CFG)
    batch = make_batch(np.random.default_rng(1), 16, 2, convention)
    assert_matches_oracle(field, lambda: loss_lambda(field, batch, lam, target_norm=target_norm))


@pytest.mark.parametrize("convention", ["interval_ratio", "absolute_time"])
@pytest.mark.parametrize("target_norm", ["sampled_gap", "pair_span"])
def test_loss_full_matches_op_by_op(convention, target_norm):
    field = init_params(CFG)
    batch = make_batch(np.random.default_rng(2), 16, 2, convention)
    assert_matches_oracle(field, lambda: loss_full(field, batch, target_norm=target_norm))


@given(widths=st.lists(st.integers(1, 24), min_size=1, max_size=4),
       dim=st.integers(1, 3), embed=st.sampled_from([2, 4, 8]),
       batch_size=st.integers(1, 20), lam=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_drawn_shapes_match_op_by_op(widths, dim, embed, batch_size, lam, seed):
    cfg = FieldConfig(input_dim=dim, hidden_widths=tuple(widths), time_embed_dim=embed,
                      base_frequency=20.0, seed=seed)
    rng = np.random.default_rng(seed)
    # non-zero biases exercise the bias adjoints as well
    field = with_offsets(init_params(cfg), rng)
    batch = make_batch(rng, batch_size, dim, "interval_ratio")
    assert_matches_oracle(field, lambda: loss_lambda(field, batch, lam))


@pytest.mark.parametrize("attach", [False, True])
def test_value_and_bracket_match_op_by_op(attach):
    field = init_params(CFG)
    rng = np.random.default_rng(3)
    x, v = rng.normal(size=(2, 16, 2))
    r, t = sample_time_pairs(rng, 16, TimePairConfig())
    for dr in (np.zeros(16), rng.normal(size=16)):
        args = ([x, r, t], [v, dr, np.ones(16)])
        with Tape():
            u, du = jvp(field.forward, *args, attach=attach)
        with op_by_op(), Tape():
            u_ref, du_ref = jvp(field.forward, *args, attach=attach)
        assert np.array_equal(u.data, u_ref.data)
        assert rel(du.data, du_ref.data) <= TOL


@pytest.mark.parametrize("b", [64, _BLOCK_ROWS + 1, 4096])
def test_inference_primal_is_bitwise_the_op_by_op_primal(b):
    field = init_params(CFG)
    rng = np.random.default_rng(4)
    x = as_tensor(rng.normal(size=(b, 2)))
    r, t = (as_tensor(a) for a in sample_time_pairs(rng, b, TimePairConfig()))
    assert np.array_equal(field.forward(x, r, t).data, forward_ops(field, x, r, t).data)


def test_input_adjoints_of_the_state_tangent():
    # the tangent of x may be attached (loss_full feeds u back as the
    # tangent); x itself is a constant
    field = init_params(CFG)
    rng = np.random.default_rng(5)
    x = as_tensor(rng.normal(size=(8, 2)))
    v = Tensor(rng.normal(size=(8, 2)), requires_grad=True)
    r, t = sample_time_pairs(rng, 8, TimePairConfig())
    w = as_tensor(rng.normal(size=(8, 2)))

    def run():
        with Tape():
            u, du = jvp(field.forward, [x, r, t], [v, np.zeros(8), np.ones(8)], attach=True)
            loss = ad.sum_all(ad.mul(ad.add(u, du), w))
        grads = backward(loss)
        return [grads.wrt(a) for a in (v, *field.params)]

    fused = run()
    with op_by_op():
        ref = run()
    for g, g_ref in zip(fused, ref):
        assert rel(g, g_ref) <= TOL


def test_op_by_op_tangent_matches_central_differences():
    # the oracle's time tangent is hand-written numpy, as the node's is, so
    # a sign error shared by both would pass every comparison above
    rng = np.random.default_rng(21)
    field = with_offsets(init_params(CFG), rng)
    x = rng.normal(size=(6, 2))
    r, t = sample_time_pairs(rng, 6, TimePairConfig())
    w = rng.normal(size=(6, 2))

    def f(arrays):
        return float(np.sum(w * forward_ops(field, *arrays).data))

    grads = central_difference(f, [x, r, t])
    for tangents in ([rng.normal(size=(6, 2)), np.zeros(6), np.zeros(6)],
                     [np.zeros((6, 2)), np.ones(6), np.zeros(6)],
                     [np.zeros((6, 2)), np.zeros(6), np.ones(6)]):
        _, du = jvp(lambda *a: forward_ops(field, *a), [x, r, t], tangents)
        expected = sum(float(np.sum(g * v)) for g, v in zip(grads, tangents))
        assert float(np.sum(w * du.data)) == pytest.approx(expected, rel=1e-6)


# ---------------------------------------------------------------------------
# attached times and node counts


def test_attached_time_raises():
    field = init_params(CFG)
    rng = np.random.default_rng(6)
    x = as_tensor(rng.normal(size=(4, 2)))
    r = Tensor(rng.uniform(0.0, 0.4, 4), requires_grad=True)
    t = as_tensor(rng.uniform(0.6, 1.0, 4))
    with Tape() as tape:
        with pytest.raises(ValueError, match="must not be attached"):
            field.forward(x, r, t)
        with pytest.raises(ValueError, match="must not be attached"):
            field.forward(x, t, r)
        with pytest.raises(ValueError, match="must not be attached"):
            field.forward(Tensor(x.data, requires_grad=True), as_tensor(r.data), t)
    assert len(tape) == 0


def test_attached_time_tangent_raises_inside_attached_jvp():
    field = init_params(CFG)
    rng = np.random.default_rng(7)
    dt = Tensor(np.ones(4), requires_grad=True)
    r, t = sample_time_pairs(rng, 4, TimePairConfig())
    x = rng.normal(size=(4, 2))
    with Tape() as tape:
        with pytest.raises(ValueError, match="must not be attached"):
            jvp(field.forward, [x, r, t], [np.zeros((4, 2)), np.zeros(4), dt], attach=True)
        assert len(tape) == 0
        # a detached jvp never differentiates the tangent, so it runs
        jvp(field.forward, [x, r, t], [np.zeros((4, 2)), np.zeros(4), dt])


@pytest.mark.parametrize("lam, nodes", [(0.0, 2), (0.5, 2), (1.0, 2)])
def test_tape_nodes_per_loss_lambda(lam, nodes):
    field = init_params(CFG)
    batch = make_batch(np.random.default_rng(8), 16, 2, "absolute_time")
    with Tape() as tape:
        loss_lambda(field, batch, lam, target_norm="pair_span")
    assert len(tape) == nodes
    assert [node.kind for node in tape.nodes] == ["mlp", "residual_loss"]


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("target_norm", ["sampled_gap", "pair_span"])
@pytest.mark.parametrize("convention", ["interval_ratio", "absolute_time"])
def test_residual_loss_node_matches_the_op_chain_bitwise(lam, target_norm, convention):
    # value and both adjoints of the fused loss node, at float64, against the
    # sg_lambda/scale_rows/add/sub/square/sum_all/div chain it replaces; the
    # batch size and one lambda are not powers of two, so 1/b and lam round
    # and any reordering of the products shows
    rng = np.random.default_rng(17)
    field = with_offsets(init_params(CFG), rng)
    batch = make_batch(rng, 13, 2, convention)
    target = _loss_target(batch, target_norm)
    u0, bracket0 = jvp(field.forward, [batch.x_t, batch.r, batch.t],
                       [target, np.zeros_like(batch.r), np.ones_like(batch.t)])

    def adjoints(loss_fn):
        u = Tensor(u0.data, requires_grad=True)
        bracket = Tensor(bracket0.data, requires_grad=True)
        with Tape():
            loss = loss_fn(u, bracket, batch.t - batch.r, target, lam)
        grads = backward(loss)
        return loss.data, grads.wrt(u), grads.wrt(bracket)

    fused, chain = adjoints(_residual_loss), adjoints(op_chain_residual_loss)
    for a, b in zip(fused, chain):
        assert a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()
    assert np.any(fused[2]) == (lam > 0.0)

    # and through the field: the loss value and every parameter gradient
    def through_field(loss_fn):
        with Tape():
            loss = loss_fn(field, batch, lam, target_norm=target_norm)
        grads = backward(loss)
        return [loss.data] + [grads.wrt(p) for p in field.params]

    for a, b in zip(through_field(loss_lambda), through_field(op_chain_loss)):
        assert a.tobytes() == b.tobytes()


def test_lambda_zero_drops_the_tangent_adjoint():
    # at lambda = 0 the bracket is detached, so the MLP node has one output
    field = init_params(CFG)
    batch = make_batch(np.random.default_rng(9), 16, 2, "interval_ratio")
    with Tape() as tape:
        loss_lambda(field, batch, 0.0)
    (node,) = [n for n in tape.nodes if n.kind == "mlp"]
    assert len(node.out_gids) == 1
    with Tape() as tape:
        loss_lambda(field, batch, 0.5)
    (node,) = [n for n in tape.nodes if n.kind == "mlp"]
    assert len(node.out_gids) == 2


# ---------------------------------------------------------------------------
# float32 compute, the precision ``train`` steps in

REFERENCE = FieldConfig(input_dim=2, base_frequency=20.0, seed=1)


@pytest.mark.parametrize("convention", ["interval_ratio", "absolute_time"])
@pytest.mark.parametrize("target_norm", ["sampled_gap", "pair_span"])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_float32_node_matches_the_float64_node(convention, target_norm, lam):
    field = init_params(REFERENCE)
    low = field.with_compute_dtype(np.float32)
    batch = make_batch(np.random.default_rng(10), 128, 2, convention)
    ref_loss, ref_grads = value_and_grads(
        field, lambda: loss_lambda(field, batch, lam, target_norm=target_norm))
    loss, grads = value_and_grads(
        low, lambda: loss_lambda(low, batch, lam, target_norm=target_norm))
    assert abs(loss - ref_loss) <= 1e-6 * abs(ref_loss)
    for g, ref in zip(grads, ref_grads):
        assert g.dtype == np.float64
        assert rel(g, ref) <= 1e-5


def test_float32_node_emits_float64_values_and_tangents():
    field = init_params(CFG)
    low = field.with_compute_dtype(np.float32)
    rng = np.random.default_rng(11)
    x, v = rng.normal(size=(2, 16, 2))
    r, t = sample_time_pairs(rng, 16, TimePairConfig())
    with Tape():
        u, du = jvp(low.forward, [x, r, t], [v, np.zeros(16), np.ones(16)], attach=True)
    with Tape():
        u_ref, du_ref = jvp(field.forward, [x, r, t], [v, np.zeros(16), np.ones(16)],
                            attach=True)
    assert u.data.dtype == du.data.dtype == np.float64
    assert rel(u.data, u_ref.data) <= 1e-6 and rel(du.data, du_ref.data) <= 1e-5
    assert field.compute_dtype == np.float64  # the copy leaves the original as it was


def test_float32_adjoint_beyond_its_range_gives_a_non_finite_gradient():
    # the float64 adjoint 1e39 becomes inf when the float32 reverse pass casts it
    field = init_params(CFG)
    rng = np.random.default_rng(12)
    x = as_tensor(rng.normal(size=(8, 2)))
    r, t = (as_tensor(a) for a in sample_time_pairs(rng, 8, TimePairConfig()))
    for f, finite in ((field, True), (field.with_compute_dtype(np.float32), False)):
        with Tape(), np.errstate(over="ignore", invalid="ignore"):
            loss = ad.sum_all(ad.mul(f.forward(x, r, t), 1e39))
            grads = backward(loss)
        assert np.isfinite(float(loss.data))
        assert all(np.isfinite(grads.wrt(p)).all() for p in f.params) == finite


# ---------------------------------------------------------------------------
# the blocked pass of a forward that neither records nor carries a tangent

BATCHES = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7]


def inference_inputs(rng, b, constant):
    """x, r, t of ``b`` rows; ``constant`` holds each time fixed (folded)."""
    x = rng.normal(size=(b, 2))
    if constant:
        return x, np.full(b, 0.25), np.full(b, 0.75)
    return (x, *sample_time_pairs(rng, b, TimePairConfig()))


@pytest.mark.parametrize("constant", [True, False])
@pytest.mark.parametrize("b", BATCHES)
def test_blocked_pass_matches_op_by_op(b, constant):
    rng = np.random.default_rng(13)
    field = with_offsets(init_params(CFG), rng)
    args = [as_tensor(a) for a in inference_inputs(rng, b, constant)]
    u = field.forward(*args).data
    ref = forward_ops(field, *args).data
    assert u.shape == ref.shape == (b, 2) and u.dtype == np.float64
    if b:
        assert rel(u, ref) <= TOL


@pytest.mark.parametrize("constant", [True, False])
@pytest.mark.parametrize("b", BATCHES[1:])
def test_float32_inference_takes_the_fused_pass_and_matches_float64(b, constant, monkeypatch):
    rng = np.random.default_rng(14)
    field = with_offsets(init_params(CFG), rng)
    args = [as_tensor(a) for a in inference_inputs(rng, b, constant)]
    expected = field.forward(*args).data

    def blocked(*_):
        raise AssertionError("a float32 call reached the blocked pass")

    monkeypatch.setattr(VelocityField, "_infer", blocked)
    u = field.with_compute_dtype(np.float32).forward(*args).data
    assert u.dtype == np.float64
    assert rel(u, expected) <= 1e-5


@pytest.mark.parametrize("constant", [True, False])
def test_nan_in_one_row_stays_in_that_row(constant):
    rng = np.random.default_rng(15)
    field = with_offsets(init_params(CFG), rng)
    b = 3 * _BLOCK_ROWS + 7
    x, r, t = inference_inputs(rng, b, constant)
    bad = _BLOCK_ROWS + 3
    x[bad, 1] = np.nan
    u = field.forward(as_tensor(x), as_tensor(r), as_tensor(t)).data
    assert np.isnan(u[bad]).all()
    assert np.isfinite(np.delete(u, bad, axis=0)).all()


def test_one_step_on_threads_beside_an_open_tape_is_the_serial_result():
    field = with_offsets(init_params(CFG), np.random.default_rng(16))
    x1 = np.random.default_rng(17).normal(size=(3 * _BLOCK_ROWS + 7, 2))
    serial = one_step_sample(field, x1)
    results = [None] * 4

    def request(i):
        results[i] = one_step_sample(field, x1)

    with Tape() as tape:
        workers = [threading.Thread(target=request, args=(i,)) for i in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    assert not any(w.is_alive() for w in workers)
    assert len(tape) == 0
    assert all(res is not None and np.array_equal(res, serial) for res in results)


def test_few_step_single_step_is_bitwise_one_step_beyond_one_block():
    field = with_offsets(init_params(CFG), np.random.default_rng(18))
    x1 = np.random.default_rng(19).normal(size=(3 * _BLOCK_ROWS + 7, 2))
    assert np.array_equal(few_step_sample(field, x1, 1).endpoints, one_step_sample(field, x1))


@pytest.mark.parametrize("sample, limit_mb", [
    (one_step_sample, 16),
    (lambda field, x1: few_step_sample(field, x1, 4), 24),
], ids=["one_step", "few_step_n4"])
def test_sampler_memory_does_not_grow_with_width_times_rows(sample, limit_mb):
    # at 65 536 rows one [rows, 128] float64 activation alone is 64 MB
    field = init_params(REFERENCE)
    x1 = np.random.default_rng(20).normal(size=(65536, 2))
    tracemalloc.start()
    try:
        sample(field, x1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 2**20
