import numpy as np
import pytest

from mmflow.sampler_eval import smoothness
from mmflow.tasks import (
    Gmm2dTask,
    NoReferencePathError,
    OdeHarmonicTask,
    PointMassTask,
    SamplePair,
    pairs_to_csv,
    task_from_dict,
)


def test_ode_harmonic_noiseless_ratio_is_decay_factor():
    task = OdeHarmonicTask(dim=3, endpoint_noise_std=0.0, seed=0)
    rng = np.random.default_rng(0)
    x0, x1 = task.sample_pairs(rng, 200)
    mask = x0 != 0
    assert np.allclose((x1 / x0)[mask], np.exp(-1.0))


def test_ode_harmonic_noisy_pairs_center_on_decay():
    task = OdeHarmonicTask(dim=1, endpoint_noise_std=0.05, seed=0)
    rng = np.random.default_rng(1)
    x0, x1 = task.sample_pairs(rng, 50_000)
    resid = x1 - x0 * np.exp(-1.0)
    assert abs(resid.mean()) < 3 * 0.05 / np.sqrt(50_000)
    assert resid.std() == pytest.approx(0.05, rel=0.05)


def test_gmm_single_component_at_origin_is_degenerate():
    task = Gmm2dTask(components=1, ring_radius=0.0, component_std=0.0, seed=0)
    rng = np.random.default_rng(2)
    x0, x1 = task.sample_pairs(rng, 100)
    assert np.all(x0 == 0.0)
    assert x1.shape == (100, 2)


def test_point_mass_empirical_mean_hits_target():
    task = PointMassTask(target_mean=(3.0, -1.0), target_std=0.5, seed=0)
    rng = np.random.default_rng(3)
    x0, _ = task.sample_pairs(rng, 100_000)
    se = 0.5 / np.sqrt(100_000)
    assert np.all(np.abs(x0.mean(axis=0) - [3.0, -1.0]) < 3 * se)


def test_generators_deterministic_under_seeded_rng():
    task = Gmm2dTask(seed=0)
    a = task.sample_pairs(np.random.default_rng(42), 16)
    b = task.sample_pairs(np.random.default_rng(42), 16)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_gmm_component_occupancy_uniform_chi_square():
    task = Gmm2dTask(components=8, ring_radius=4.0, component_std=0.3, seed=0)
    rng = np.random.default_rng(4)
    x0, _ = task.sample_pairs(rng, 100_000)
    # assign to nearest center; separation >> component std makes this exact
    d2 = ((x0[:, None, :] - task.centers[None, :, :]) ** 2).sum(axis=2)
    counts = np.bincount(d2.argmin(axis=1), minlength=8)
    expected = 100_000 / 8
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 18.475  # df=7 critical value at significance 0.01


def test_ode_harmonic_average_velocity_closed_form_identity():
    task = OdeHarmonicTask(dim=2, endpoint_noise_std=0.0, seed=0)
    rng = np.random.default_rng(5)
    x0, x1 = task.sample_pairs(rng, 64)
    # displacement over the full interval equals x1 (1 - e) for exact pairs
    assert np.allclose((x1 - x0) / 1.0, x1 * (1.0 - np.e), atol=1e-12)


def test_sample_pair_single_draw():
    x0, x1 = OdeHarmonicTask(dim=2, endpoint_noise_std=0.0).sample_pairs(
        np.random.default_rng(0), 1)
    assert x0.shape == x1.shape == (1, 2)


# ---------------------------------------------------------------------------
# reference paths


def test_ode_reference_path_endpoint():
    pair = SamplePair(x0=np.array([2.0, -1.0]), x1=None)
    path = OdeHarmonicTask(dim=2).reference_path(pair, grid_len=11)
    assert np.allclose(path.states[-1], pair.x0 * np.exp(-1.0))
    assert np.allclose(path.states[0], pair.x0)


def test_point_mass_reference_is_straight_line():
    pair = SamplePair(x0=np.array([0.0, 0.0]), x1=np.array([2.0, 4.0]))
    path = PointMassTask().reference_path(pair, grid_len=5)
    assert np.allclose(path.state_at(0.5), [1.0, 2.0])
    assert smoothness(path) == 0.0


def test_gmm_has_no_reference_path():
    pair = SamplePair(x0=np.zeros(2), x1=np.zeros(2))
    with pytest.raises(NoReferencePathError):
        Gmm2dTask().reference_path(pair, grid_len=5)


def test_reference_path_grid_validation():
    pair = SamplePair(x0=np.zeros(2), x1=np.ones(2))
    with pytest.raises(ValueError):
        PointMassTask().reference_path(pair, grid_len=1)


# ---------------------------------------------------------------------------
# config plumbing


def test_task_dict_roundtrip():
    for task in (
        Gmm2dTask(components=5, ring_radius=2.0, component_std=0.1, seed=9),
        OdeHarmonicTask(dim=4, endpoint_noise_std=0.02, seed=8),
        PointMassTask(target_mean=(1.0, 1.0), target_std=0.3, seed=7),
    ):
        clone = task_from_dict(task.to_dict())
        assert clone.to_dict() == task.to_dict()
    with pytest.raises(ValueError):
        task_from_dict({"kind": "spiral"})


def test_pairs_csv_export(tmp_path):
    rng = np.random.default_rng(6)
    x0, x1 = OdeHarmonicTask(dim=2).sample_pairs(rng, 3)
    f = tmp_path / "pairs.csv"
    pairs_to_csv(x0, x1, f)
    lines = f.read_text().splitlines()
    assert lines[0] == "x0_0,x0_1,x1_0,x1_1"
    assert len(lines) == 4
    back = np.genfromtxt(f, delimiter=",", skip_header=1)
    assert np.array_equal(back[:, :2], x0)
    assert np.array_equal(back[:, 2:], x1)
