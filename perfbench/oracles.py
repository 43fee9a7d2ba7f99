"""Computations made apart from mmflow, used to check its outputs.

Each function here reads plain arrays or checkpoint JSON and uses numpy
only, so a fault in mmflow cannot hide in the reference it is judged by.
"""

from __future__ import annotations

import json

import numpy as np


class CheckFailed(AssertionError):
    """A program output disagreed with its independent reference."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def mlp_from_checkpoint(path):
    """Read an ``mlp`` checkpoint's JSON into plain numpy arrays."""
    with open(path) as fh:
        doc = json.load(fh)
    require(doc.get("kind") == "mlp", f"{path}: not an mlp checkpoint")
    arrays = [np.array(p["data"], dtype=np.float64).reshape(p["shape"]) for p in doc["params"]]
    return {"config": doc["config"], "weights": arrays[0::2], "biases": arrays[1::2]}


def _embed(times, dim, base_frequency):
    half = dim // 2
    freqs = np.array([1.0]) if half == 1 else base_frequency ** (np.arange(half) / (half - 1))
    phases = times[:, None] * freqs[None, :]
    out = np.empty((times.shape[0], dim))
    out[:, 0::2] = np.sin(phases)
    out[:, 1::2] = np.cos(phases)
    return out


def mlp_velocity(mlp, x, r, t):
    """u(x, r, t): sinusoidal embeddings of r and t, tanh hidden layers."""
    cfg = mlp["config"]
    dim, base = cfg["time_embed_dim"], cfg["base_frequency"]
    h = np.concatenate([x, _embed(r, dim, base), _embed(t, dim, base)], axis=1)
    last = len(mlp["weights"]) - 1
    for i, (w, b) in enumerate(zip(mlp["weights"], mlp["biases"])):
        h = h @ w + b
        if i != last:
            h = np.tanh(h)
    return h


def mlp_jvp(mlp, x, r, t, dx, dt):
    """(u, du) for the tangent (dx, 0, dt) of (x, r, t), by forward mode."""
    cfg = mlp["config"]
    dim, base = cfg["time_embed_dim"], cfg["base_frequency"]
    half = dim // 2
    freqs = np.array([1.0]) if half == 1 else base ** (np.arange(half) / (half - 1))
    phases = t[:, None] * freqs[None, :]
    d_emb_t = np.empty((t.shape[0], dim))
    d_emb_t[:, 0::2] = np.cos(phases) * freqs * dt[:, None]
    d_emb_t[:, 1::2] = -np.sin(phases) * freqs * dt[:, None]
    h = np.concatenate([x, _embed(r, dim, base), _embed(t, dim, base)], axis=1)
    dh = np.concatenate([dx, np.zeros((r.shape[0], dim)), d_emb_t], axis=1)
    last = len(mlp["weights"]) - 1
    for i, (w, b) in enumerate(zip(mlp["weights"], mlp["biases"])):
        h, dh = h @ w + b, dh @ w
        if i != last:
            h = np.tanh(h)
            dh = (1.0 - h * h) * dh
    return h, dh


def mlp_one_step(mlp, x1):
    b = x1.shape[0]
    return x1 - mlp_velocity(mlp, x1, np.zeros(b), np.ones(b))


def mlp_few_step(mlp, x1, n_steps):
    """States on the uniform grid 1 -> 0 under x <- x - (t_hi - t_lo) u."""
    times = np.linspace(1.0, 0.0, n_steps + 1)
    x = x1
    states = [x]
    for t_hi, t_lo in zip(times[:-1], times[1:]):
        b = x.shape[0]
        x = x - (t_hi - t_lo) * mlp_velocity(mlp, x, np.full(b, t_lo), np.full(b, t_hi))
        states.append(x)
    return times, np.stack(states)


def rel_err(a, b):
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


def mean_distance(p, q, same=False, chunk=512):
    """Mean Euclidean distance over all pairs (p_i, q_j), from Gram matrices.

    Squared distances come from |p|^2 + |q|^2 - 2 p.q rather than from
    coordinate differences, so the arithmetic differs from the program's.
    With ``same`` the diagonal (p is q) is exactly zero.
    """
    pp = np.einsum("ij,ij->i", p, p)
    qq = np.einsum("ij,ij->i", q, q)
    total = 0.0
    for i in range(0, p.shape[0], chunk):
        sq = pp[i:i + chunk, None] + qq[None, :] - 2.0 * (p[i:i + chunk] @ q.T)
        np.maximum(sq, 0.0, out=sq)
        if same:
            rows = np.arange(sq.shape[0])
            sq[rows, i + rows] = 0.0
        total += float(np.sqrt(sq).sum())
    return total / (p.shape[0] * q.shape[0])


def energy_distance(a, b):
    """2 E|A-B| - E|A-A'| - E|B-B'| over all pairs."""
    return 2.0 * mean_distance(a, b) - mean_distance(a, a, True) - mean_distance(b, b, True)


def decay_pairs(rng, n, dim=2):
    """Noise-free endpoints of x' = -x: x1 = x0 e^-1, so x0 = e x1 exactly."""
    x0 = rng.standard_normal((n, dim))
    return x0, x0 * np.exp(-1.0)


def read_csv(path):
    """Numeric rows of a CSV file with one header line."""
    with open(path) as fh:
        fh.readline()
        return np.array([[float(v) for v in line.split(",")] for line in fh if line.strip()])
