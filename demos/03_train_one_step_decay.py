"""Train the velocity field on noisy endpoint observations of exponential
decay paths, then invert the flow in a single function evaluation.

Also demonstrates the failure mode that motivates the span-normalized
target: with the gap-normalized target the displacement labels blow up
like 1/(t - r) and one-step reconstruction never leaves the baseline.

Run:  python demos/03_train_one_step_decay.py      (about two minutes)
"""

import numpy as np

from mmflow import (
    FieldConfig,
    OdeHarmonicTask,
    TrainConfig,
    WarmupSchedule,
    few_step_sample,
    init_params,
    one_step_mse,
    one_step_sample,
    path_deviation,
    train,
)
from mmflow.tasks import SamplePair

task = OdeHarmonicTask(dim=2, endpoint_noise_std=0.01, seed=100)
steps = 6000


def fit(target_norm):
    field = init_params(FieldConfig(
        input_dim=2, base_frequency=20.0, seed=1, zero_init_output=True,
    ))
    cfg = TrainConfig(
        total_steps=steps, batch_size=128, lr0=1e-4,
        schedule=WarmupSchedule(steps // 8), seed=7, task=task, log_every=200,
        interpolation="absolute_time", target_norm=target_norm,
    )
    result = train(field, cfg)
    mse = one_step_mse(result.field, task, 2048, np.random.default_rng(999))
    print(f"  target_norm={target_norm:12s} final loss {result.log.losses[-1]:10.3e}"
          f"   held-out 1-step mse {mse:10.3e}")
    return result.field


print("training with both target normalizations:")
fit("sampled_gap")   # the 1/(t-r) labels dominate; reconstruction stalls
field = fit("pair_span")

# one-step generation and a few-step trajectory against the ground truth
x0, x1 = task.sample_pairs(np.random.default_rng(5), 4)
x0_hat = one_step_sample(field, x1)
print("\ntrue x0     :", np.round(x0[0], 4))
print("one-step x0 :", np.round(x0_hat[0], 4))

# every sample's path deviation in one call; the mean over the four
paths = few_step_sample(field, x1, 8)
ref = task.reference_path(SamplePair(x0=x0, x1=x1), grid_len=257)
print("8-step path deviation from the exact decay paths:",
      f"{np.mean(path_deviation(paths, ref)):.2e}")

zero = few_step_sample(lambda x, r, t: 0.0 * x, x1, 8)
print("zero-field baseline                             :",
      f"{np.mean(path_deviation(zero, ref)):.2e}")
