"""Pins of the config schema: canonical hashes of the shipped configs and the
``ConfigError.path`` each kind of invalid document is rejected with."""

import copy
import os

import pytest

from mmflow.cli import ConfigError, canonicalize, config_hash, load_config

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.mark.parametrize("name, digest", [
    ("decay.json", "1af0ce2b854600f6574ae19fb4f131ec760526d9450103069879f14fd8cf613f"),
    ("point_mass.json", "3e29258d62bddcbbe0f9c849107f4f133bd11d28dd2e6eb9d51d4466532b2b17"),
    ("ring_mixture.json", "80be265a7c46b1ca456f0c203fdb96be3ff3e88e1f1e06f42e3f0ba39ba29336"),
])
def test_shipped_config_hash_is_pinned(name, digest):
    assert config_hash(load_config(os.path.join(CONFIGS, name))) == digest


BASE = {
    "task": {"kind": "ode_harmonic", "dim": 2, "endpoint_noise_std": 0.01, "seed": 3},
    "field": {"hidden_widths": [8, 8], "time_embed_dim": 4, "base_frequency": 10.0,
              "seed": 1, "zero_init_output": True},
    "train": {"total_steps": 100, "batch_size": 8, "lr0": 1e-3, "seed": 2,
              "checkpoint_every": 0, "log_every": 10, "grad_clip": 1.0,
              "interpolation": "absolute_time", "target_norm": "pair_span"},
    "schedule": {"kind": "warmup", "t_warmup": 10},
    "time_pairs": {"min_gap": 0.01, "r_zero_prob": 0.5},
    "eval": {"n_samples": 16, "few_step_ns": [1, 4]},
    "diagnose": {"samples": 10, "seed": 0, "identity_tol": 1e-5,
                 "consistency_tol": 1e-5, "slope_tol": 0.1},
    "output_dir": "runs/x",
}
GMM = {"kind": "gmm2d", "components": 4, "ring_radius": 2.0, "component_std": 0.1, "seed": 0}
POINT = {"kind": "point_mass", "target_mean": [1.0, 2.0], "target_std": 0.5, "seed": 0}
CONSTANT = {"kind": "constant", "value": 0.5}


def doc_with(section, value, key=None, base=None):
    """BASE with ``section`` set to ``value``, or with ``section.key`` set to it.

    ``base`` replaces the section before the key is set (another task or
    schedule kind).
    """
    doc = copy.deepcopy(BASE)
    if key is None:
        doc[section] = value
    else:
        if base is not None:
            doc[section] = copy.deepcopy(base)
        doc[section][key] = value
    return doc


@pytest.mark.parametrize("section, value", [
    ("task", BASE["task"]), ("task", GMM), ("task", POINT), ("schedule", CONSTANT),
])
def test_base_documents_are_valid(section, value):
    canonicalize(doc_with(section, value))


def _key(section, key, value, base=None):
    return doc_with(section, value, key=key, base=base)


INVALID = [
    # root
    ([], "<root>"),
    (doc_with("epochs", 3), "<root>.epochs"),
    ({k: v for k, v in BASE.items() if k != "task"}, "task"),
    (doc_with("output_dir", 3), "output_dir"),
    # task: ode_harmonic
    (_key("task", "dim", "2"), "task.dim"),
    (_key("task", "dim", 0), "task.dim"),
    (_key("task", "endpoint_noise_std", -0.1), "task.endpoint_noise_std"),
    (_key("task", "seed", 1.5), "task.seed"),
    (_key("task", "components", 8), "task.components"),
    # task: gmm2d
    (_key("task", "components", 2.5, GMM), "task.components"),
    (_key("task", "components", 0, GMM), "task.components"),
    (_key("task", "ring_radius", -1.0, GMM), "task.ring_radius"),
    (_key("task", "component_std", "wide", GMM), "task.component_std"),
    (_key("task", "dim", 2, GMM), "task.dim"),
    # task: point_mass
    (_key("task", "target_mean", "origin", POINT), "task.target_mean"),
    (_key("task", "target_mean", [1.0, 2.0, 3.0], POINT), "task.target_mean"),
    (_key("task", "target_mean", [1.0, True], POINT), "task.target_mean"),
    (_key("task", "target_std", -0.5, POINT), "task.target_std"),
    (_key("task", "ring_radius", 1.0, POINT), "task.ring_radius"),
    # task kind
    (_key("task", "kind", "spiral"), "task.kind"),
    (_key("task", "kind", ["gmm2d"]), "task.kind"),
    # field
    (_key("field", "hidden_widths", "8,8"), "field.hidden_widths"),
    (_key("field", "hidden_widths", []), "field.hidden_widths"),
    (_key("field", "hidden_widths", [8, 0]), "field.hidden_widths"),
    (_key("field", "time_embed_dim", 2.0), "field.time_embed_dim"),
    (_key("field", "time_embed_dim", 0), "field.time_embed_dim"),
    (_key("field", "time_embed_dim", 5), "field.time_embed_dim"),
    (_key("field", "input_dim", 3), "field.input_dim"),
    (_key("field", "base_frequency", 0.0), "field.base_frequency"),
    (_key("field", "zero_init_output", 1), "field.zero_init_output"),
    (_key("field", "seed", True), "field.seed"),
    (_key("field", "depth", 3), "field.depth"),
    # train
    (_key("train", "total_steps", "100"), "train.total_steps"),
    (_key("train", "total_steps", 0), "train.total_steps"),
    (_key("train", "total_steps", 5), "train.log_every"),
    (_key("train", "batch_size", 0), "train.batch_size"),
    (_key("train", "lr0", -1e-3), "train.lr0"),
    (_key("train", "lr0", None), "train.lr0"),
    (_key("train", "checkpoint_every", -1), "train.checkpoint_every"),
    (_key("train", "log_every", 0), "train.log_every"),
    (_key("train", "grad_clip", 0.0), "train.grad_clip"),
    (_key("train", "grad_clip", True), "train.grad_clip"),
    (_key("train", "interpolation", "linear"), "train.interpolation"),
    (_key("train", "target_norm", 1), "train.target_norm"),
    (_key("train", "learning_rate", 0.1), "train.learning_rate"),
    # schedule: constant
    (_key("schedule", "value", 1.5, CONSTANT), "schedule.value"),
    (_key("schedule", "value", "half", CONSTANT), "schedule.value"),
    (doc_with("schedule", {"kind": "constant"}), "schedule.value"),
    (_key("schedule", "t_warmup", 10, CONSTANT), "schedule.t_warmup"),
    # schedule: warmup
    (_key("schedule", "t_warmup", 0), "schedule.t_warmup"),
    (_key("schedule", "t_warmup", 2.5), "schedule.t_warmup"),
    (doc_with("schedule", {"kind": "warmup"}), "schedule.t_warmup"),
    (_key("schedule", "value", 0.5), "schedule.value"),
    # schedule kind
    (_key("schedule", "kind", "cosine"), "schedule.kind"),
    (doc_with("schedule", {}), "schedule.kind"),
    # time_pairs
    (_key("time_pairs", "min_gap", "small"), "time_pairs.min_gap"),
    (_key("time_pairs", "min_gap", 1e-4), "time_pairs.min_gap"),
    (_key("time_pairs", "min_gap", 1.0), "time_pairs.min_gap"),
    (_key("time_pairs", "r_zero_prob", 1.5), "time_pairs.r_zero_prob"),
    (_key("time_pairs", "r_zero_prob", -0.5), "time_pairs.r_zero_prob"),
    (_key("time_pairs", "max_gap", 0.5), "time_pairs.max_gap"),
    # eval
    (_key("eval", "n_samples", 1.5), "eval.n_samples"),
    (_key("eval", "n_samples", 0), "eval.n_samples"),
    (_key("eval", "few_step_ns", 4), "eval.few_step_ns"),
    (_key("eval", "few_step_ns", []), "eval.few_step_ns"),
    (_key("eval", "few_step_ns", [0, 1]), "eval.few_step_ns"),
    (_key("eval", "batch", 8), "eval.batch"),
    # diagnose
    (_key("diagnose", "samples", "10"), "diagnose.samples"),
    (_key("diagnose", "samples", 0), "diagnose.samples"),
    (_key("diagnose", "seed", 0.5), "diagnose.seed"),
    (_key("diagnose", "identity_tol", 0.0), "diagnose.identity_tol"),
    (_key("diagnose", "consistency_tol", -1e-5), "diagnose.consistency_tol"),
    (_key("diagnose", "slope_tol", False), "diagnose.slope_tol"),
    (_key("diagnose", "tol", 1e-5), "diagnose.tol"),
]

# a section that is not a JSON object is rejected at the section itself
NON_OBJECT = [
    (doc_with(section, value), section)
    for section in ("task", "field", "train", "schedule", "time_pairs", "eval", "diagnose")
    for value in (None, [], 3, "x", True)
    if not (section == "schedule" and value is None)  # null schedule = the default
]


# Python's json module reads NaN, Infinity and -Infinity. At a scalar key NaN
# fails every range check, but Infinity passes every "> 0" and ">= 0" check
# and no range check looks inside an array, so every number must be finite.
NOT_A_NUMBER = [
    (_key("train", "lr0", float("nan")), "train.lr0"),
    (_key("time_pairs", "min_gap", float("nan")), "time_pairs.min_gap"),
    (_key("task", "ring_radius", float("nan"), GMM), "task.ring_radius"),
]
# last in CASES, since a case id carries its position there
NOT_FINITE = [
    (_key(section, key, float("inf"), base), f"{section}.{key}")
    for section, key, base in [
        ("task", "endpoint_noise_std", None),
        ("task", "ring_radius", GMM),
        ("task", "component_std", GMM),
        ("task", "target_std", POINT),
        ("field", "base_frequency", None),
        ("train", "lr0", None),
        ("train", "grad_clip", None),
        ("diagnose", "identity_tol", None),
        ("diagnose", "consistency_tol", None),
        ("diagnose", "slope_tol", None),
    ]
] + [
    (_key("task", "target_mean", mean, POINT), "task.target_mean")
    for mean in ([float("nan"), 2.0], [1.0, float("inf")], [float("-inf"), 2.0])
] + [
    (_key("train", "lr0", 10**400), "train.lr0"),  # an integer beyond the float range
]
# np.random.SeedSequence rejects negative entropy, so every seed must be >= 0
NEGATIVE_SEED = [
    (_key("task", "seed", -1), "task.seed"),
    (_key("task", "seed", -1, GMM), "task.seed"),
    (_key("task", "seed", -1, POINT), "task.seed"),
    (_key("field", "seed", -1), "field.seed"),
    (_key("train", "seed", -3), "train.seed"),
    (_key("diagnose", "seed", -2), "diagnose.seed"),
]
CASES = INVALID + NON_OBJECT + NOT_A_NUMBER + NEGATIVE_SEED + NOT_FINITE


@pytest.mark.parametrize("doc, path", CASES, ids=[f"{p}-{i}" for i, (_, p) in enumerate(CASES)])
def test_invalid_document_rejected_at_path(doc, path):
    with pytest.raises(ConfigError) as err:
        canonicalize(doc)
    assert err.value.path == path


def test_every_default_is_materialized():
    cfg = canonicalize({"task": {"kind": "point_mass"}})
    assert cfg == {
        "task": {"kind": "point_mass", "target_mean": [3.0, 0.0], "target_std": 0.25,
                 "seed": 0},
        "field": {"input_dim": 2, "hidden_widths": [128, 128, 128], "time_embed_dim": 32,
                  "base_frequency": 1.0e4, "seed": 0, "zero_init_output": False},
        "train": {"total_steps": 20_000, "batch_size": 128, "lr0": 1e-4, "seed": 0,
                  "checkpoint_every": 0, "log_every": 50, "grad_clip": None,
                  "interpolation": "interval_ratio", "target_norm": "sampled_gap"},
        "schedule": {"kind": "warmup", "t_warmup": 2500},
        "time_pairs": {"min_gap": 1e-3, "r_zero_prob": 0.25},
        "eval": {"n_samples": 1024, "few_step_ns": [1, 2, 4, 8]},
        "diagnose": {"samples": 1000, "seed": 0, "identity_tol": 1e-5,
                     "consistency_tol": 1e-5, "slope_tol": 0.1},
        "output_dir": None,
    }


def test_integers_coerce_to_floats_and_steps_are_sorted():
    doc = _key("train", "lr0", 1)
    doc["eval"]["few_step_ns"] = [4, 1, 4]
    cfg = canonicalize(doc)
    assert cfg["train"]["lr0"] == 1.0 and isinstance(cfg["train"]["lr0"], float)
    assert cfg["eval"]["few_step_ns"] == [1, 4]
