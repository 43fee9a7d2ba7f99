"""Tour of the autodiff behind the training loss: one forward-mode call for
the derivative bracket, the partial stop-gradient that modulates it, and
what each part costs.

``loss_lambda(field, batch, lam)`` is the mean square of
u + (t - r) SG_lam[d_t u + (grad_x u) v] - v, with v the regression target.
A jvp of the field along (v, 0, 1) gives u and the bracket in one call; the
modulation factor lam scales only the bracket's adjoint, so the loss value
does not depend on it and the gradient is g_u + lam * g_bracket.

Run:  python demos/01_autodiff_and_partial_stopgrad.py
"""

import time

import numpy as np

from mmflow import (
    FieldConfig,
    OdeHarmonicTask,
    Tape,
    TimePairConfig,
    as_tensor,
    backward,
    build_batch,
    init_params,
    jvp,
    loss_lambda,
    sample_time_pairs,
)

rng = np.random.default_rng(0)
task = OdeHarmonicTask(dim=2)
# the reference shape, with a random output layer so that the bracket is not zero
field = init_params(FieldConfig(input_dim=2, hidden_widths=(128, 128, 128),
                                time_embed_dim=32, base_frequency=20.0, seed=1))
x0, x1 = task.sample_pairs(rng, 128)
r, t = sample_time_pairs(rng, 128, TimePairConfig())
batch = build_batch(x0, x1, r, t)
v = (batch.x1 - batch.x0) / (batch.t - batch.r)[:, None]  # the regression target


def flat_gradient(lam):
    with Tape():
        loss = loss_lambda(field, batch, lam)
    grads = backward(loss)
    return loss, np.concatenate([grads.wrt(p).ravel() for p in field.params])


# --- the bracket is a directional derivative of the field -------------------
u, bracket = jvp(field, [batch.x_t, batch.r, batch.t], [v, None, np.ones(128)])
eps = 1e-6
plus = field(as_tensor(batch.x_t + eps * v), as_tensor(batch.r), as_tensor(batch.t + eps)).data
minus = field(as_tensor(batch.x_t - eps * v), as_tensor(batch.r), as_tensor(batch.t - eps)).data
central = (plus - minus) / (2 * eps)
print("bracket d_t u + (grad_x u) v, jvp against central differences:")
print(f"  max |difference| {np.max(np.abs(bracket.data - central)):.1e}"
      f"  (bracket scale {np.max(np.abs(central)):.1e})")

# --- the modulation factor scales gradients, never values -------------------
loss0, g_u = flat_gradient(0.0)  # lam = 0: the bracket is a constant
loss1, g_full = flat_gradient(1.0)
g_bracket = g_full - g_u
print("\n lam   loss (same bits?)          |g - (g_u + lam g_bracket)| / |g|")
for lam in (0.0, 0.25, 0.5, 1.0):
    loss, g = flat_gradient(lam)
    same = loss.data.tobytes() == loss0.data.tobytes()
    split = np.linalg.norm(g - (g_u + lam * g_bracket)) / np.linalg.norm(g)
    print(f"{lam:5.2f}  {float(loss.data):.12f} ({'yes' if same else 'NO'})   {split:.1e}")
print(f"|g_bracket| / |g_u| = {np.linalg.norm(g_bracket) / np.linalg.norm(g_u):.3f}")

# --- what the forward-mode pass costs ---------------------------------------
def per_call_ms(fn, reps=40):
    fn()
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps * 1e3


args = (as_tensor(batch.x_t), as_tensor(batch.r), as_tensor(batch.t))
plain = per_call_ms(lambda: field(*args))
dual = per_call_ms(lambda: jvp(field, [batch.x_t, batch.r, batch.t], [v, None, np.ones(128)]))
print(f"\nfield forward, 128 rows      : {plain:.2f} ms")
print(f"jvp (value and bracket)      : {dual:.2f} ms  ({dual / plain:.1f}x)")
for lam in (0.0, 0.5):
    step = per_call_ms(lambda: flat_gradient(lam))
    print(f"loss and gradient, lam = {lam:3.1f}: {step:.2f} ms  ({step / plain:.1f}x)")
print("(lam > 0 keeps the bracket attached, so the reverse sweep also runs "
      "through the tangent pass)")
