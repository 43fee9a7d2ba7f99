import math
import tracemalloc

import numpy as np
import pytest

import mmflow.autodiff as ad
from mmflow.meanflow_math import (
    HarmonicFlow,
    ConstantFlow,
    ReferencePath,
    average_velocity_field,
    rk4_solve,
)
from mmflow.sampler_eval import (
    SamplePath,
    energy_distance,
    few_step_sample,
    one_step_mse,
    one_step_sample,
    path_deviation,
    smoothness,
)
from mmflow.tasks import OdeHarmonicTask

from helpers import EvalCounter


def zero_field(x, r, t):
    return ad.mul(x, 0.0)


HARMONIC_ORACLE = average_velocity_field(HarmonicFlow(1))


# ---------------------------------------------------------------------------
# one-step sampling


def test_one_step_zero_field_returns_prior():
    x1 = np.array([[0.3], [-1.1]])
    assert np.array_equal(one_step_sample(zero_field, x1), x1)


def test_one_step_harmonic_oracle_inverts_the_flow():
    x1 = np.array([[0.5]])
    x0 = one_step_sample(HARMONIC_ORACLE, x1)
    assert x0[0, 0] == pytest.approx(0.5 * np.e, abs=1e-6)
    # cross-check against a backward RK4 solve of the same dynamics
    back = rk4_solve(HarmonicFlow(1).velocity, np.array([0.5]), 1.0, 0.0, steps=1000)
    assert x0[0, 0] == pytest.approx(back.states[0, 0], abs=1e-6)


def test_one_step_constant_field_subtracts_drift():
    c = np.array([1.5, -2.0])
    field = average_velocity_field(ConstantFlow(c))
    x1 = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert np.allclose(one_step_sample(field, x1), x1 - c)


def test_one_step_is_single_evaluation():
    counter = EvalCounter(HARMONIC_ORACLE)
    one_step_sample(counter, np.ones((16, 1)))
    assert counter.calls == 1


# ---------------------------------------------------------------------------
# few-step sampling


def test_few_step_single_step_bitwise_matches_one_step():
    rng = np.random.default_rng(0)
    x1 = rng.normal(size=(8, 1))
    paths = few_step_sample(HARMONIC_ORACLE, x1, 1)
    assert np.array_equal(paths.endpoints, one_step_sample(HARMONIC_ORACLE, x1))
    assert paths.times.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_few_step_oracle_exact_on_every_subinterval(n):
    x1 = np.array([[0.5]])
    paths = few_step_sample(HARMONIC_ORACLE, x1, n)
    assert paths.endpoints[0, 0] == pytest.approx(0.5 * np.e, abs=1e-6)


def test_few_step_zero_field_constant_path():
    x1 = np.array([[0.7, -0.2]])
    paths = few_step_sample(zero_field, x1, 4)
    assert np.all(paths.states == x1[None])


def test_few_step_counts_evaluations():
    counter = EvalCounter(HARMONIC_ORACLE)
    few_step_sample(counter, np.ones((4, 1)), 8)
    assert counter.calls == 8


def test_few_step_rejects_zero_steps():
    with pytest.raises(ValueError):
        few_step_sample(zero_field, np.ones((1, 1)), 0)


def test_euler_lifted_instantaneous_field_converges_monotonically():
    # feeding the instantaneous velocity as if it were an average velocity
    # turns the sampler into explicit Euler; refinement must improve it
    def lifted(x, r, t):
        return ad.neg(x)

    x1 = np.array([[0.5]])
    exact = 0.5 * np.e
    errors = []
    for n in (1, 2, 4, 8, 16):
        endpoint = few_step_sample(lifted, x1, n).endpoints[0, 0]
        errors.append(abs(endpoint - exact))
    assert all(a > b for a, b in zip(errors, errors[1:]))


# ---------------------------------------------------------------------------
# path containers and metrics


def test_sample_path_validation():
    with pytest.raises(ValueError):
        SamplePath(times=np.array([0.5, 0.0]), states=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        SamplePath(times=np.array([1.0, 0.5, 0.5, 0.0]), states=np.zeros((4, 1)))


def test_sample_path_csv(tmp_path):
    path = SamplePath(times=np.array([1.0, 0.5, 0.0]), states=np.arange(6.0).reshape(3, 2))
    f = tmp_path / "path.csv"
    path.write_csv(f)
    lines = f.read_text().splitlines()
    assert lines[0] == "t,x0,x1"
    assert len(lines) == 4


def test_path_deviation_zero_against_itself():
    times = np.linspace(1.0, 0.0, 9)
    states = np.exp(-times)[:, None]
    path = SamplePath(times=times, states=states)
    ref = ReferencePath(times=times[::-1].copy(), states=states[::-1].copy())
    assert path_deviation(path, ref) == 0.0


def test_path_deviation_constant_offset():
    times = np.linspace(1.0, 0.0, 5)
    base = np.stack([times, 2 * times], axis=1)
    path = SamplePath(times=times, states=base + np.array([0.3, -0.4]))
    ref = ReferencePath(times=times[::-1].copy(), states=base[::-1].copy())
    assert path_deviation(path, ref) == pytest.approx(0.3**2 + 0.4**2)


def test_path_deviation_oracle_path_vs_rk4_reference():
    x0 = np.array([1.3])
    x1 = x0 * np.exp(-1.0)
    flow = HarmonicFlow(1)
    paths = few_step_sample(average_velocity_field(flow), x1[None, :], 8)
    ref = rk4_solve(flow.velocity, x0, 0.0, 1.0, steps=1024)
    assert path_deviation(paths.path(0), ref) < 1e-10


def test_path_deviation_rejects_uncovered_reference():
    path = SamplePath(times=np.array([1.0, 0.0]), states=np.zeros((2, 1)))
    ref = ReferencePath(times=np.array([0.2, 0.8]), states=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        path_deviation(path, ref)


def test_smoothness_straight_line_is_zero():
    times = np.array([1.0, 0.75, 0.5, 0.25, 0.0])  # dyadic: exact arithmetic
    states = np.stack([3 * times - 1, -times], axis=1)
    assert smoothness(SamplePath(times=times, states=states)) == 0.0


def test_smoothness_zig_scales_quadratically():
    def zig(h):
        # unit-spaced grid with a single spike of height h
        return smoothness(
            SamplePath(times=np.array([1.0, 0.5, 0.0]),
                       states=np.array([[0.0], [h], [0.0]]))
        )

    assert zig(2.0) / zig(1.0) == pytest.approx(4.0)
    assert zig(4.0) / zig(2.0) == pytest.approx(4.0)


def test_smoothness_exponential_path_shrinks_with_refinement():
    def value(n):
        times = np.linspace(1.0, 0.0, n + 1)
        return smoothness(SamplePath(times=times, states=np.exp(-times)[:, None]))

    coarse, fine = value(8), value(64)
    assert 0 < fine < coarse


def test_smoothness_needs_three_nodes():
    with pytest.raises(ValueError):
        smoothness(SamplePath(times=np.array([1.0, 0.0]), states=np.zeros((2, 1))))


# ---------------------------------------------------------------------------
# one-step reconstruction error


def test_one_step_mse_oracle_field_noiseless_task():
    task = OdeHarmonicTask(dim=1, endpoint_noise_std=0.0, seed=0)
    err = one_step_mse(HARMONIC_ORACLE, task, 256, np.random.default_rng(0))
    assert err < 1e-10


def test_one_step_mse_zero_field_is_pair_distance():
    task = OdeHarmonicTask(dim=2, endpoint_noise_std=0.0, seed=0)
    rng = np.random.default_rng(1)
    err = one_step_mse(zero_field, task, 512, rng)
    x0, x1 = task.sample_pairs(np.random.default_rng(1), 512)
    assert err == pytest.approx(np.mean(np.sum((x1 - x0) ** 2, axis=1)))


def test_one_step_mse_stable_under_sample_doubling():
    task = OdeHarmonicTask(dim=1, endpoint_noise_std=0.1, seed=0)
    a = one_step_mse(HARMONIC_ORACLE, task, 2000, np.random.default_rng(2))
    b = one_step_mse(HARMONIC_ORACLE, task, 4000, np.random.default_rng(3))
    # estimates of the same quantity: apart by a few Monte-Carlo sigmas
    sigma = a * np.sqrt(2.0) / np.sqrt(2000)  # chi-square-ish spread
    assert abs(a - b) < 6 * sigma


# ---------------------------------------------------------------------------
# energy distance


def test_energy_distance_identical_sets_is_zero():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(64, 2))
    assert energy_distance(a, a.copy()) == 0.0


def test_energy_distance_two_point_masses():
    a = np.tile([0.0, 0.0], (5, 1))
    b = np.tile([3.0, 4.0], (7, 1))
    assert energy_distance(a, b) == pytest.approx(10.0)  # 2 * distance 5


def test_energy_distance_symmetric_nonnegative_discriminating():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(100, 2))
    b = rng.normal(size=(120, 2)) + 0.5
    assert energy_distance(a, b) == pytest.approx(energy_distance(b, a))
    assert energy_distance(a, b) > 0


def test_energy_distance_matches_closed_form_gaussians():
    # X ~ N(0,1), Y ~ N(3,1): E|X-Y| has a closed form via the folded normal
    def folded_mean(mu, sigma):
        return (
            sigma * math.sqrt(2 / math.pi) * math.exp(-(mu**2) / (2 * sigma**2))
            + mu * math.erf(mu / (sigma * math.sqrt(2)))
        )

    expected = 2 * folded_mean(3.0, math.sqrt(2)) - 2 * folded_mean(0.0, math.sqrt(2))
    rng = np.random.default_rng(6)
    a = rng.normal(0.0, 1.0, size=(2000, 1))
    b = rng.normal(3.0, 1.0, size=(2000, 1))
    got = energy_distance(a, b)
    assert abs(got - expected) / expected < 0.05


def test_energy_distance_one_dimensional_set_is_scalar_samples():
    # [0, 1, 2] is three scalar samples, the same set as the column [[0], [1], [2]]
    a, b = np.array([0.0, 1.0, 2.0]), np.array([2.0, 1.0, 0.0])
    assert energy_distance(a, b) == 0.0
    assert energy_distance(a[:, None], b[:, None]) == 0.0
    c = np.array([0.0, 1.0, 5.0])
    assert energy_distance(a, c) == energy_distance(a[:, None], c[:, None]) > 0.0


def test_energy_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        energy_distance(np.zeros((4, 2)), np.zeros((4, 3)))


def _energy_distance_3d(a, b, chunk=256):
    """The difference-tensor formula: per 256-row block of the first set a
    [chunk, n_b, d] tensor of coordinate differences, summed over d."""

    def mean_distance(x, y):
        total = 0.0
        for i in range(0, x.shape[0], chunk):
            block = x[i:i + chunk, None, :] - y[None, :, :]
            total += float(np.sum(np.sqrt(np.sum(block * block, axis=2))))
        return total / (x.shape[0] * y.shape[0])

    return 2.0 * mean_distance(a, b) - mean_distance(a, a) - mean_distance(b, b)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_energy_distance_bitwise_equals_the_difference_tensor_formula(d):
    rng = np.random.default_rng(10 + d)
    a = rng.normal(size=(600, d))
    b = rng.normal(size=(300, d)) + 0.25
    assert energy_distance(a, b) == _energy_distance_3d(a, b)


def test_energy_distance_nine_coordinates_matches_the_difference_tensor_formula():
    # from 8 coordinates numpy's axis sum adds in unrolled partial sums, so
    # only the rounding of the coordinate sum may differ
    rng = np.random.default_rng(19)
    a = rng.normal(size=(600, 9))
    b = rng.normal(size=(300, 9)) + 0.25
    expected = _energy_distance_3d(a, b)
    assert abs(energy_distance(a, b) - expected) <= 1e-14 * abs(expected)


@pytest.mark.parametrize("n_a, n_b", [(1, 1), (1, 257), (257, 1), (257, 513), (513, 257)])
def test_energy_distance_across_block_boundaries(n_a, n_b):
    rng = np.random.default_rng(n_a + n_b)
    a = rng.normal(size=(n_a, 2))
    b = rng.normal(size=(n_b, 2)) - 0.5
    assert energy_distance(a, b) == _energy_distance_3d(a, b)
    assert energy_distance(a, a.copy()) == 0.0
    assert energy_distance(b, b.copy()) == 0.0


def test_energy_distance_has_no_pairwise_3d_temporaries():
    # two [256, 2048] float64 buffers are 8.4 MB; one [256, 2048, 2]
    # difference tensor alone is 8.4 MB, and the formula holds two at a time
    rng = np.random.default_rng(20)
    a = rng.normal(size=(2048, 2))
    b = rng.normal(size=(2048, 2))
    tracemalloc.start()
    try:
        energy_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


@pytest.mark.parametrize("side", ["a", "b"])
def test_energy_distance_rejects_an_empty_set(side):
    sets = {"a": np.ones((3, 2)), "b": np.ones((4, 2))}
    sets[side] = np.zeros((0, 2))
    with pytest.raises(ValueError, match=f"{side} is empty"):
        energy_distance(sets["a"], sets["b"])
