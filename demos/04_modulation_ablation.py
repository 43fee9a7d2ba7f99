"""Compare the gradient-modulation regimes on both desk tasks.

Runs the four `mmf ablation` variants (stop-gradient, λ=0.5, full
propagation, warmup curriculum) on the decay and ring-mixture configs,
shortened to 3000 steps, for two seeds, and prints the medians of one-step
reconstruction error, energy distance and tail loss variance. On the paired
decay task the curriculum beats both fixed endpoints on all three. On the
independently-coupled mixture task full gradients collapse one-step outputs
toward the conditional mean (good mse, poor energy distance) while pure
stop-gradient keeps honest transport. That tension is the whole point of
the modulation dial.

Run:  python demos/04_modulation_ablation.py    (about 2.5 minutes on 2
cores; about 1.5 with MMF_THREADS=2)
"""

import os
import tempfile

import numpy as np

from mmflow.cli import ABLATION_VARIANTS, load_config, run_ablation

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")
STEPS = 3000
SEEDS = (1, 2)
METRICS = ("one_step_mse", "energy_distance", "loss_variance")

for title, name in [
    ("decay paths (paired coupling)", "decay.json"),
    ("ring mixture (independent coupling)", "ring_mixture.json"),
]:
    config = load_config(os.path.join(CONFIGS, name))
    config["train"].update(total_steps=STEPS, lr0=3e-4)
    config["schedule"] = {"kind": "warmup", "t_warmup": STEPS // 8}
    rows = {variant: [] for variant in ABLATION_VARIANTS}
    for seed in SEEDS:
        config["train"]["seed"] = config["field"]["seed"] = seed
        with tempfile.TemporaryDirectory() as out_dir:
            for row in run_ablation(config, out_dir):
                rows[row["variant"]].append([row[key] for key in METRICS])
    print(f"\n=== {title} ===")
    print(f"{'variant':12s}{'1-step mse':>14}{'energy dist':>14}{'tail loss var':>15}")
    for variant, values in rows.items():
        med = np.median(np.array(values), axis=0)
        print(f"{variant:12s}{med[0]:14.4e}{med[1]:14.4e}{med[2]:15.4e}")
