"""Shared numeric oracles for the test suite."""

import numpy as np

from mmflow.autodiff import forward_fn


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


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


class EvalCounter:
    """Wraps a field and counts evaluations (one batched call = one NFE)."""

    def __init__(self, field):
        self._fn = forward_fn(field)
        self.calls = 0

    def forward(self, x, r, t):
        self.calls += 1
        return self._fn(x, r, t)
