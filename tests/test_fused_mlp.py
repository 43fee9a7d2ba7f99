"""The fused MLP node of ``VelocityField.forward`` against its op-by-op oracle.

``VelocityField._forward_ops`` writes the same MLP in tape operations, so
the generic tape differentiates it. Every quantity the training step reads
(loss, ``u``, the bracket ``du`` and each parameter gradient) must agree
with it to 1e-12 relative, and the primal must agree bit for bit.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mmflow.autodiff as ad
from mmflow.autodiff import Tape, Tensor, as_tensor, backward, jvp
from mmflow.field_model import FieldConfig, VelocityField, init_params
from mmflow.objectives import (
    TimePairConfig,
    build_batch,
    loss_full,
    loss_lambda,
    sample_time_pairs,
)

TOL = 1e-12

CFG = FieldConfig(input_dim=2, hidden_widths=(16, 12, 16), time_embed_dim=8,
                  base_frequency=50.0, seed=7)


@contextlib.contextmanager
def op_by_op():
    """Route ``VelocityField.forward`` through the op-by-op pass."""
    fused = VelocityField.forward
    VelocityField.forward = VelocityField._forward_ops
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
@pytest.mark.parametrize("source", ["field", "target"])
def test_loss_full_matches_op_by_op(convention, target_norm, source):
    field = init_params(CFG)
    batch = make_batch(np.random.default_rng(2), 16, 2, convention)
    assert_matches_oracle(field, lambda: loss_full(field, batch, source, target_norm=target_norm))


@given(widths=st.lists(st.integers(1, 24), min_size=1, max_size=4),
       dim=st.integers(1, 3), embed=st.sampled_from([2, 4, 8]),
       batch_size=st.integers(1, 20), lam=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_drawn_shapes_match_op_by_op(widths, dim, embed, batch_size, lam, seed):
    cfg = FieldConfig(input_dim=dim, hidden_widths=tuple(widths), time_embed_dim=embed,
                      base_frequency=20.0, seed=seed)
    field = init_params(cfg)
    rng = np.random.default_rng(seed)
    # non-zero biases exercise the bias adjoints as well
    field = field.with_params([Tensor(p.data + 0.1 * rng.normal(size=p.shape), requires_grad=True)
                               for p in field.params])
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


def test_inference_primal_is_bitwise_the_op_by_op_primal():
    field = init_params(CFG)
    rng = np.random.default_rng(4)
    x = as_tensor(rng.normal(size=(64, 2)))
    r, t = (as_tensor(a) for a in sample_time_pairs(rng, 64, TimePairConfig()))
    assert np.array_equal(field.forward(x, r, t).data, field._forward_ops(x, r, t).data)


def test_input_adjoints_of_state_and_its_tangent():
    # x and its tangent may be attached (loss_full feeds u back as the tangent)
    field = init_params(CFG)
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(8, 2)), requires_grad=True)
    v = Tensor(rng.normal(size=(8, 2)), requires_grad=True)
    r, t = sample_time_pairs(rng, 8, TimePairConfig())
    w = as_tensor(rng.normal(size=(8, 2)))

    def run():
        with Tape():
            u, du = jvp(field.forward, [x, r, t], [v, np.zeros(8), np.ones(8)], attach=True)
            loss = ad.sum_all(ad.mul(ad.add(u, du), w))
        grads = backward(loss)
        return [grads.wrt(a) for a in (x, v, *field.params)]

    fused = run()
    with op_by_op():
        ref = run()
    for g, g_ref in zip(fused, ref):
        assert rel(g, g_ref) <= TOL


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


@pytest.mark.parametrize("lam, nodes", [(0.0, 6), (0.5, 8), (1.0, 8)])
def test_tape_nodes_per_loss_lambda(lam, nodes):
    field = init_params(CFG)
    batch = make_batch(np.random.default_rng(8), 16, 2, "absolute_time")
    with Tape() as tape:
        loss_lambda(field, batch, lam, target_norm="pair_span")
    assert len(tape) == nodes
    assert [node.kind for node in tape.nodes].count("mlp") == 1


def test_lambda_zero_drops_the_tangent_adjoint():
    # at lambda = 0 the bracket is detached, so the MLP node has one output
    field = init_params(CFG)
    batch = make_batch(np.random.default_rng(9), 16, 2, "interval_ratio")
    with Tape() as tape:
        loss_lambda(field, batch, 0.0)
    (node,) = [n for n in tape.nodes if n.kind == "mlp"]
    assert len(node.out_gid) == 1
    with Tape() as tape:
        loss_lambda(field, batch, 0.5)
    (node,) = [n for n in tape.nodes if n.kind == "mlp"]
    assert len(node.out_gid) == 2
