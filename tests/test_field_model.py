import io
import json

import numpy as np
import pytest

from mmflow import autodiff as ad
from mmflow.autodiff import Tape, as_tensor, backward, jvp
from mmflow.field_model import (
    FieldConfig,
    TimeEmbedding,
    VelocityField,
    _state_dict,
    init_params,
    load_checkpoint,
    save_checkpoint,
    write_atomic,
)

from helpers import central_difference, rel_err


SMALL = FieldConfig(
    input_dim=2, hidden_widths=(8, 8), time_embed_dim=8, base_frequency=30.0, seed=42
)


# ---------------------------------------------------------------------------
# time embedding


def test_embedding_at_zero_alternates_zero_one():
    cfg = TimeEmbedding(dim=10)
    e = cfg.embed(0.0)
    assert np.array_equal(e, np.tile([0.0, 1.0], 5))


def test_embedding_rejects_odd_dim():
    with pytest.raises(ValueError):
        TimeEmbedding(dim=7)


def test_embedding_deterministic():
    cfg = TimeEmbedding(dim=16, base_frequency=100.0)
    assert np.array_equal(cfg.embed(0.37), cfg.embed(0.37))


def test_embeddings_distinct_on_fine_grid():
    cfg = TimeEmbedding(dim=8, base_frequency=1000.0)
    grid = np.round(np.arange(0, 1001) * 1e-3, 9)
    rows = np.stack([cfg.embed(t) for t in grid])
    assert np.unique(rows, axis=0).shape[0] == rows.shape[0]


def test_embedding_lipschitz_bounded_by_max_frequency():
    cfg = TimeEmbedding(dim=12, base_frequency=1e4)
    w_max = cfg.frequencies().max()
    delta = 1e-6
    for t in (0.0, 0.1, 0.5, 0.93):
        diff = np.linalg.norm(cfg.embed(t + delta) - cfg.embed(t))
        assert diff <= w_max * delta * np.sqrt(cfg.dim / 2) * (1 + 1e-9)


def test_embedding_frequency_ladder_spans_one_to_base():
    cfg = TimeEmbedding(dim=16, base_frequency=500.0)
    freqs = cfg.frequencies()
    assert freqs[0] == pytest.approx(1.0)
    assert freqs[-1] == pytest.approx(500.0)
    assert np.all(np.diff(freqs) > 0)


def test_batch_embedding_matches_scalar_embedding():
    cfg = TimeEmbedding(dim=8, base_frequency=50.0)
    ts = np.array([0.0, 0.25, 0.8])
    batch = cfg.embed_batch(as_tensor(ts)).data
    single = np.stack([cfg.embed(t) for t in ts])
    assert np.allclose(batch, single, atol=1e-15)


# ---------------------------------------------------------------------------
# initialization


def test_init_same_seed_bitwise_identical():
    f1, f2 = init_params(SMALL), init_params(SMALL)
    for a, b in zip(f1.params, f2.params):
        assert np.array_equal(a.data, b.data)


def test_init_different_seed_differs():
    other = FieldConfig(**{**SMALL.to_dict(), "seed": 43})
    f1, f2 = init_params(SMALL), init_params(other)
    assert any(not np.array_equal(a.data, b.data) for a, b in zip(f1.params, f2.params))


def test_init_weight_magnitudes_bounded():
    field = init_params(SMALL)
    sizes = SMALL.layer_sizes
    for i, w in enumerate(field.weights):
        bound = np.sqrt(6.0 / sizes[i])
        assert np.max(np.abs(w.data)) <= bound
    for b in field.biases:
        assert np.all(b.data == 0.0)


def test_zero_init_output_gives_zero_field():
    cfg = FieldConfig(
        input_dim=3, hidden_widths=(4,), time_embed_dim=4, seed=1, zero_init_output=True
    )
    field = init_params(cfg)
    rng = np.random.default_rng(0)
    out = field.forward(
        as_tensor(rng.normal(size=(5, 3))),
        as_tensor(rng.uniform(0, 0.5, 5)),
        as_tensor(rng.uniform(0.5, 1, 5)),
    )
    assert np.all(out.data == 0.0)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        FieldConfig(input_dim=2, hidden_widths=())
    with pytest.raises(ValueError):
        FieldConfig(input_dim=2, hidden_widths=(4, 0))
    with pytest.raises(ValueError):
        FieldConfig(input_dim=2, time_embed_dim=5)


# ---------------------------------------------------------------------------
# forward


def test_forward_output_shape_matches_input():
    field = init_params(SMALL)
    x = np.zeros((7, 2))
    out = field.forward(as_tensor(x), as_tensor(np.zeros(7)), as_tensor(np.ones(7)))
    assert out.shape == (7, 2)


def test_forward_rejects_wrong_width():
    field = init_params(SMALL)
    with pytest.raises(ad.ShapeMismatchError):
        field.forward(as_tensor(np.zeros((3, 5))), as_tensor(np.zeros(3)), as_tensor(np.ones(3)))


def test_forward_reproducible():
    field = init_params(SMALL)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 2))
    r = rng.uniform(0, 0.4, 4)
    t = rng.uniform(0.6, 1.0, 4)
    o1 = field.forward(as_tensor(x), as_tensor(r), as_tensor(t)).data
    o2 = field.forward(as_tensor(x), as_tensor(r), as_tensor(t)).data
    assert np.array_equal(o1, o2)


def test_forward_jvp_matches_central_differences_in_x_and_t():
    field = init_params(SMALL)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 2))
    r = rng.uniform(0.0, 0.3, 3)
    t = rng.uniform(0.5, 1.0, 3)
    v = rng.normal(size=(3, 2))

    _, tangent = jvp(
        field.forward, [x, r, t], [v, np.zeros(3), np.ones(3)]
    )

    eps = 1e-5

    def f_np(xx, tt):
        return field.forward(as_tensor(xx), as_tensor(r), as_tensor(tt)).data

    fd = (f_np(x + eps * v, t + eps) - f_np(x - eps * v, t - eps)) / (2 * eps)
    assert rel_err(tangent.data, fd) < 1e-4


def test_forward_parameter_gradients_match_finite_differences():
    field = init_params(SMALL)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 2))
    r = rng.uniform(0, 0.3, 3)
    t = rng.uniform(0.6, 1.0, 3)
    w = rng.normal(size=(3, 2))

    with Tape():
        out = field.forward(as_tensor(x), as_tensor(r), as_tensor(t))
        loss = ad.sum_all(ad.mul(out, as_tensor(w)))
    grads = backward(loss)

    arrays = [p.data for p in field.params]

    def f(arrs):
        from mmflow.autodiff import Tensor

        params = [Tensor(a) for a in arrs]
        probe = field.with_params(params)
        return float(np.sum(probe.forward(as_tensor(x), as_tensor(r), as_tensor(t)).data * w))

    fd = central_difference(f, arrays)
    for p, g in zip(field.params, fd):
        assert rel_err(grads.wrt(p), g) < 1e-4


def test_forward_is_smooth_in_t():
    # normalized second differences converge under grid refinement,
    # which rules out activation kinks
    cfg = FieldConfig(
        input_dim=1, hidden_widths=(16, 16), time_embed_dim=8, base_frequency=20.0, seed=5
    )
    field = init_params(cfg)
    x = np.full((1, 1), 0.3)

    def u_of_t(ts):
        b = len(ts)
        return field.forward(
            as_tensor(np.repeat(x, b, axis=0)), as_tensor(np.zeros(b)), as_tensor(ts)
        ).data[:, 0]

    def norm_second_diff(delta):
        ts = np.arange(0.2, 0.8, delta)
        u = u_of_t(ts)
        return np.abs(np.diff(u, 2)) / delta**2

    coarse = norm_second_diff(1e-3)
    fine = norm_second_diff(5e-4)
    assert np.max(fine) < 2.0 * max(np.max(coarse), 1e-6)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    field = init_params(SMALL)
    path = tmp_path / "ckpt.json"
    save_checkpoint(field, path)
    loaded = load_checkpoint(path)
    assert isinstance(loaded, VelocityField)
    assert loaded.config == field.config
    for a, b in zip(field.params, loaded.params):
        assert np.array_equal(a.data, b.data)


def test_checkpoint_bytes_are_the_stdlib_json_dump_of_the_state(tmp_path):
    field = init_params(FieldConfig(input_dim=2, seed=7))
    path = tmp_path / "ckpt.json"
    save_checkpoint(field, path)
    expected = io.StringIO()
    json.dump(_state_dict(field), expected)
    assert path.read_bytes() == expected.getvalue().encode()


def test_write_atomic_never_leaves_a_partial_file(tmp_path):
    path = tmp_path / "doc.txt"

    def failing(fh):
        fh.write("partial")
        raise RuntimeError("write failed")

    with pytest.raises(RuntimeError):
        write_atomic(path, failing)
    assert list(tmp_path.iterdir()) == []
    write_atomic(path, lambda fh: fh.write("old"))
    with pytest.raises(RuntimeError):
        write_atomic(path, failing)
    assert path.read_text() == "old"
    assert list(tmp_path.iterdir()) == [path]


def test_failed_checkpoint_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    import mmflow.field_model as fm

    field = init_params(SMALL)
    path = tmp_path / "ckpt.json"
    save_checkpoint(field, path)
    before = path.read_bytes()

    def broken_dumps(obj, **kwargs):
        raise RuntimeError("serializer failed")

    monkeypatch.setattr(fm.json, "dumps", broken_dumps)
    with pytest.raises(RuntimeError):
        save_checkpoint(field, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_oracle_checkpoint_loads_as_field(tmp_path):
    from mmflow.meanflow_math import HarmonicFlow, OracleField

    doc = OracleField(HarmonicFlow(2)).to_dict()
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(doc))
    loaded = load_checkpoint(path)
    out = loaded.forward(
        as_tensor(np.ones((2, 2))), as_tensor(np.zeros(2)), as_tensor(np.ones(2))
    )
    assert np.allclose(out.data, (1 - np.e) * np.ones((2, 2)), atol=1e-6)


def test_oracle_checkpoint_with_stored_quad_intervals_loads_as_closed_form(tmp_path):
    # earlier files carry a "quad_intervals" entry, which is now unused
    from mmflow.meanflow_math import HarmonicFlow

    doc = {"format": "mmflow-checkpoint", "version": 1, "kind": "analytic_oracle",
           "flow": {"kind": "harmonic", "dim": 2}, "quad_intervals": 200}
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(doc))
    loaded = load_checkpoint(path)
    x, r, t = np.array([[1.0, -2.0], [0.5, 3.0]]), np.array([0.0, 0.2]), np.array([1.0, 0.9])
    closed = HarmonicFlow(2).average_velocity_op(x, r, t)
    assert np.array_equal(loaded.forward(as_tensor(x), as_tensor(r), as_tensor(t)).data,
                          closed.data)


def test_checkpoint_load_builds_the_field_from_the_stored_arrays(tmp_path, monkeypatch):
    import mmflow.field_model as fm

    field = init_params(SMALL)
    path = tmp_path / "ckpt.json"
    save_checkpoint(field, path)
    monkeypatch.setattr(fm, "init_params", None)  # loading draws no initialisation
    loaded = load_checkpoint(path)
    assert all(p.requires_grad for p in loaded.params)
    for a, b in zip(field.params, loaded.params):
        assert np.array_equal(a.data, b.data)
