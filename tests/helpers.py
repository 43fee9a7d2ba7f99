"""Shared numeric oracles for the test suite."""

import numpy as np


def central_difference(f, arrays, h=1e-5):
    """Central finite differences of a scalar function of several arrays.

    ``f`` maps a list of numpy arrays to a float. Returns one gradient array
    per input, computed independently of any autodiff machinery.
    """
    grads = []
    for i, a in enumerate(arrays):
        g = np.zeros_like(a, dtype=np.float64)
        flat = g.reshape(-1)
        base = [np.array(x, dtype=np.float64) for x in arrays]
        for j in range(a.size):
            plus = [x.copy() for x in base]
            minus = [x.copy() for x in base]
            plus[i].reshape(-1)[j] += h
            minus[i].reshape(-1)[j] -= h
            flat[j] = (f(plus) - f(minus)) / (2.0 * h)
        grads.append(g)
    return grads


def read_csv_columns(path) -> dict:
    """The columns of a CSV file written by ``write_csv``, by header name,
    each a list of floats."""
    with open(path) as fh:
        header = next(fh).strip().split(",")
        rows = [[float(cell) for cell in line.split(",")] for line in fh]
    return dict(zip(header, (list(col) for col in zip(*rows))))


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


class EvalCounter:
    """Wraps a field and counts evaluations (one batched call = one NFE)."""

    def __init__(self, field):
        self._field = field
        self.calls = 0

    def __call__(self, x, r, t):
        self.calls += 1
        return self._field(x, r, t)


# ---------------------------------------------------------------------------
# the velocity MLP in generic tape operations: the oracle of the fused node


def forward_ops(field, x, r, t):
    """``field.forward(x, r, t)`` written in generic tape operations, so the
    generic tape differentiates it.

    The layers are ``matmul``, ``add``, ``expand_rows`` and ``tanh``. The
    embeddings of ``r`` and ``t`` (column 2j is sin(w_j t), 2j+1 is
    cos(w_j t)) and their tangents are plain numpy constants. ``x`` enters
    the first-layer input through a ``matmul`` with the first rows of an
    identity, which copies finite values exactly, so its tangent and its
    adjoint go through the tape.
    """
    from mmflow import autodiff as ad

    d, k = field.config.input_dim, field.config.time_embed_dim
    freqs = np.geomspace(1.0, field.config.base_frequency, k // 2)
    (rp, dr), (tp, dt) = ad._unpack(r), ad._unpack(t)
    b = rp.shape[0]
    emb, demb = np.zeros((b, d + 2 * k)), np.zeros((b, d + 2 * k))
    for lo, tv, dtv in ((d, rp, dr), (d + k, tp, dt)):
        phases = tv.data[:, None] * freqs
        emb[:, lo:lo + k:2] = np.sin(phases)
        emb[:, lo + 1:lo + k:2] = np.cos(phases)
        if dtv is not None:
            dphases = dtv.data[:, None] * freqs
            demb[:, lo:lo + k:2] = np.cos(phases) * dphases
            demb[:, lo + 1:lo + k:2] = -(np.sin(phases) * dphases)
    if dr is not None or dt is not None:
        emb = ad.DualTensor(ad.as_tensor(emb), ad.as_tensor(demb))
    h = ad.add(ad.matmul(x, ad.as_tensor(np.eye(d, d + 2 * k))), emb)
    last = len(field.weights) - 1
    for i, (w, bias) in enumerate(zip(field.weights, field.biases)):
        h = ad.add(ad.matmul(h, w), ad.expand_rows(bias, b))
        if i != last:
            h = ad.tanh(h)
    return h


# ---------------------------------------------------------------------------
# the training step as it was before the fused loss node and the flat
# parameter vector: the oracle that ``train`` must match byte for byte


def op_chain_loss(field, batch, lam, target_norm="sampled_gap"):
    """``loss_lambda`` written as a chain of generic tape operations:
    ``sg_lambda``, ``scale_rows``, ``add``, ``sub``, ``square``, ``sum_all``
    and ``div`` after the jvp (6 tape nodes at lambda = 0, 8 above)."""
    from mmflow import autodiff as ad
    from mmflow.objectives import _loss_target

    target = _loss_target(batch, target_norm)
    gap = batch.t - batch.r
    u, bracket = ad.jvp(
        field,
        [batch.x_t, batch.r, batch.t],
        [target, np.zeros_like(batch.r), np.ones_like(batch.t)],
        attach=lam > 0.0,
    )
    return op_chain_residual_loss(u, bracket, gap, target, lam)


def op_chain_residual_loss(u, bracket, gap, target, lam):
    """Mean squared residual ``|u + gap * SG_lam[bracket] - target|^2 / b``
    in generic tape operations."""
    from mmflow import autodiff as ad

    residual = ad.sub(
        ad.add(u, ad.scale_rows(ad.sg_lambda(bracket, lam), ad.as_tensor(gap))),
        ad.as_tensor(target),
    )
    return ad.div(ad.sum_all(ad.square(residual)), float(u.shape[0]))


def copying_adam_step(state, params, grads, lr):
    """Adam over a list of tensors that copies the parameters into a new
    flat vector each step and returns read-only views of it."""
    from mmflow.autodiff import Tensor
    from mmflow.trainer import BETA1 as b1, BETA2 as b2, EPS as eps

    g = np.concatenate([np.ravel(a) for a in grads]) if isinstance(grads, list) else grads
    t = state.step + 1
    step_size = lr * np.sqrt(1.0 - b2**t) / (1.0 - b1**t)
    m, v2 = state.m, state.v2
    m *= b1
    m += g * (1.0 - b1)
    v2 *= b2
    v2 += g * (1.0 - b2) * g
    flat = np.concatenate([p.data.ravel() for p in params])
    flat -= m * step_size / (np.sqrt(v2) + eps)
    flat.flags.writeable = False
    state.step = t
    new_params, offset = [], 0
    for p in params:
        view = Tensor._wrap(flat[offset:offset + p.size].reshape(p.shape))
        view.requires_grad = True
        new_params.append(view)
        offset += p.size
    return state, new_params


def reference_train(field, config, batch_fn):
    """The training loop of ``train`` with ``op_chain_loss`` and
    ``copying_adam_step``: a new field per step, the float32 copy cast
    tensor by tensor inside each forward. No halts, no checkpoints.
    Returns the final float64 field and the ``TrainLog``."""
    from mmflow.autodiff import Tape, backward
    from mmflow.trainer import (
        OptimizerState,
        TrainLog,
        _should_log,
        cosine_lr,
        global_grad_norm,
    )

    _, time_ss, data_ss = np.random.SeedSequence(config.seed).spawn(3)
    time_rng = np.random.default_rng(time_ss)
    data_rng = np.random.default_rng(data_ss)
    field = field.with_compute_dtype(np.float32)
    params = field.params
    state = OptimizerState.init(field.flat_params)
    log = TrainLog()
    for step in range(config.total_steps):
        batch = batch_fn(data_rng, time_rng, config.batch_size, config.time_pairs)
        lam = config.schedule.at(step)
        lr = cosine_lr(config.lr0, step, config.total_steps)
        with Tape():
            loss = op_chain_loss(field, batch, lam, target_norm=config.target_norm)
        grads = backward(loss)
        grad = np.concatenate([grads.wrt(p).ravel() for p in params])
        grad_norm = global_grad_norm(grad)
        if config.grad_clip is not None and grad_norm > config.grad_clip:
            grad *= config.grad_clip / grad_norm
        state, params = copying_adam_step(state, params, grad, lr)
        field = field.with_params(params)
        params = field.params  # a copy: gradients are taken on its own tensors
        if _should_log(step, config.total_steps, config.log_every):
            log.append(step, float(loss.data), grad_norm, lam, lr)
    return field.with_compute_dtype(np.float64), log
