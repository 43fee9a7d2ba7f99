"""In-memory span recording around calls into mmflow's public functions.

A ``Tracer`` replaces each traced function by a wrapper in every mmflow
module namespace that holds it (the place where callers look it up), and
each traced method on its class. Wrappers record one span per call:
name, start, end, parent span, request id and a few attributes such as the
row count. Nothing inside the program is edited; ``uninstall`` restores
the original objects.

Training steps have no function of their own, so a synthetic
``trainer.step`` span opens with the first batch draw that ``train`` makes
and closes when the step's ``adam_step`` returns.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np

import mmflow
from mmflow import autodiff, cli, field_model, meanflow_math, objectives
from mmflow import sampler_eval, tasks, trainer

MODULES = (mmflow, autodiff, cli, field_model, meanflow_math, objectives,
           sampler_eval, tasks, trainer)


def _rows(x):
    x = getattr(x, "primal", x)
    x = getattr(x, "data", x)
    return int(np.shape(x)[0]) if np.ndim(x) else 1


def _is_dual(x):
    return isinstance(x, autodiff.DualTensor)


# (defining module, attribute, span name, attributes from (args, kwargs, result))
FUNCTIONS = [
    (objectives, "sample_time_pairs", "objectives.sample_time_pairs", None),
    (objectives, "build_batch", "objectives.build_batch", None),
    (objectives, "loss_lambda", "objectives.loss_lambda",
     lambda a, k, r: {"lam": float(a[2] if len(a) > 2 else k["lam"])}),
    (autodiff, "jvp", "autodiff.jvp", None),
    (autodiff, "backward", "autodiff.backward", None),
    (field_model, "init_params", "field_model.init_params", None),
    (field_model, "save_checkpoint", "field_model.save_checkpoint",
     lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    (field_model, "load_checkpoint", "field_model.load_checkpoint", None),
    (trainer, "adam_step", "trainer.adam_step", None),
    (trainer, "global_grad_norm", "trainer.global_grad_norm", None),
    (trainer, "train", "trainer.train", None),
    (sampler_eval, "one_step_sample", "sampler_eval.one_step_sample",
     lambda a, k, r: {"rows": _rows(a[1])}),
    (sampler_eval, "few_step_sample", "sampler_eval.few_step_sample",
     lambda a, k, r: {"rows": _rows(a[1]), "n": int(a[2])}),
    (sampler_eval, "energy_distance", "sampler_eval.energy_distance",
     lambda a, k, r: {"rows": _rows(a[0]), "rows_b": _rows(a[1])}),
    (sampler_eval, "one_step_mse", "sampler_eval.one_step_mse",
     lambda a, k, r: {"rows": int(a[2])}),
    (sampler_eval, "path_deviation", "sampler_eval.path_deviation", None),
    (sampler_eval, "smoothness", "sampler_eval.smoothness", None),
    (meanflow_math, "identity_residual", "meanflow_math.identity_residual", None),
    (meanflow_math, "consistency_residual", "meanflow_math.consistency_residual", None),
    (meanflow_math, "limit_slope", "meanflow_math.limit_slope", None),
    (cli, "load_config", "cli.load_config", None),
    (cli, "main", "cli.main", None),
]

_FORWARD_ATTRS = (lambda a, k, r: {"rows": _rows(a[1]), "dual": _is_dual(a[1])})

METHODS = [
    (field_model.VelocityField, "forward", "field_model.forward", _FORWARD_ATTRS),
    (meanflow_math.OracleField, "forward", "meanflow_math.oracle_forward", _FORWARD_ATTRS),
    (tasks.OdeHarmonicTask, "sample_pairs", "tasks.sample_pairs", None),
    (tasks.PointMassTask, "sample_pairs", "tasks.sample_pairs", None),
    (tasks.Gmm2dTask, "sample_pairs", "tasks.sample_pairs", None),
    (tasks.OdeHarmonicTask, "reference_path", "tasks.reference_path", None),
    (tasks.PointMassTask, "reference_path", "tasks.reference_path", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs", "child_s")

    def __init__(self, name, parent, request, attrs=None):
        self.name = name
        self.start = time.perf_counter()
        self.end = None
        self.parent = parent
        self.request = request
        self.attrs = attrs or {}
        self.child_s = 0.0  # time covered by child spans (children never overlap)

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Records spans for the traced functions; ``names`` limits which."""

    def __init__(self, names=None):
        self.names = names
        self.spans = []
        self.request = None
        self._local = threading.local()
        self._restore = []

    # -- span stack (one per thread) ----------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, attrs=None):
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, self.request, attrs)
        stack.append(span)
        return span

    def close(self, span):
        stack = self._stack()
        while stack[-1] is not span:  # a raised or halted call leaves inner spans open
            self.close(stack[-1])
        span.end = time.perf_counter()
        stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def top(self):
        stack = self._stack()
        return stack[-1] if stack else None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name, attrs_fn):
        tracer = self

        def wrapper(*args, **kwargs):
            top = tracer.top()
            if name == "tasks.sample_pairs" and top is not None and top.name == "trainer.train":
                top = tracer.open("trainer.step")
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if attrs_fn is not None:
                span.attrs.update(attrs_fn(args, kwargs, result))
            parent = span.parent
            if parent is not None and parent.name == "trainer.step":
                if name == "objectives.loss_lambda":
                    parent.attrs["lam"] = span.attrs["lam"]
                elif name == "trainer.adam_step":
                    tracer.close(parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for module, attr, name, attrs_fn in FUNCTIONS:
            if self.names is not None and name not in self.names:
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, attrs_fn)
            for m in MODULES:
                if getattr(m, attr, None) is original:
                    self._restore.append((m, attr, original))
                    setattr(m, attr, wrapper)
        for cls, attr, name, attrs_fn in METHODS:
            if self.names is not None and name not in self.names:
                continue
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, attrs_fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path):
        """Write every closed span as one JSON line (index-linked parents)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)), "request": s.request,
                    "self_s": s.self_s, **s.attrs,
                }) + "\n")
