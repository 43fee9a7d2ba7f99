"""Print the sha256 of everything a fixed set of short ``mmf`` recipes writes,
so that two source trees can be checked for the same output bytes.

Usage:
    python3 tools/recipe_bytes.py [--tree DIR]

``DIR`` is the root of a source tree (it holds ``src/`` and ``configs/``);
the default is the tree this script lives in. To compare a change with its
parent, export the parent with ``git archive`` and diff the two outputs:

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/recipe_bytes.py --tree /tmp/parent > parent.txt
    python3 tools/recipe_bytes.py > change.txt
    diff parent.txt change.txt

The recipes run through ``cli.main`` of the tree's ``mmflow``:
- ``mmf train`` of the decay and point-mass configs, at 200 steps with a
  checkpoint every 100
- ``mmf eval`` and ``mmf sample --n-samples 4096`` on each final
  checkpoint, with 3 added to ``eval.few_step_ns``
- ``mmf ablation`` of the point-mass config at 200 steps
- ``mmf eval`` of a harmonic-oracle checkpoint
- ``mmf diagnose``

One line ``<sha256>  <name>`` is printed per artifact (run manifests hold
timestamps and are left out), for the stdout of ``mmf diagnose``, and for
each shipped config's canonical document and its ``config_hash``. The
recipes run twice, in a fresh interpreter each time: once with OpenBLAS on
one thread and once at its default count, and each line names its pass.

The hashes depend on the BLAS build and the CPU, so they are compared
between two trees on one machine, never against stored values.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PASSES = {"blas1": "1", "blas_default": None}
ORACLE = {"format": "mmflow-checkpoint", "version": 1, "kind": "analytic_oracle",
          "flow": {"kind": "harmonic", "dim": 2}}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _short_config(tree: str, name: str, work: str) -> str:
    """The shipped config ``name`` at 200 steps with a checkpoint every 100
    and 3 among its few-step counts, written into ``work``."""
    with open(os.path.join(tree, "configs", name)) as fh:
        doc = json.load(fh)
    doc["train"].update(total_steps=200, checkpoint_every=100)
    doc["eval"]["few_step_ns"] = sorted({*doc["eval"]["few_step_ns"], 3})
    path = os.path.join(work, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _run_recipes(tree: str) -> list:
    """Run every recipe in a temporary directory; ``(sha256, name)`` pairs."""
    from mmflow import cli

    lines = []
    with tempfile.TemporaryDirectory() as work:
        def mmf(*argv):
            code = cli.main([str(a) for a in argv])
            if code != 0:
                raise SystemExit(f"mmf {' '.join(map(str, argv))} exited {code}")

        for name in ("decay.json", "point_mass.json"):
            config, run = _short_config(tree, name, work), os.path.join(work, name[:-5])
            with contextlib.redirect_stdout(io.StringIO()):
                mmf("train", "--config", config, "--out", os.path.join(run, "train"))
                ckpt = os.path.join(run, "train", "ckpt_final.json")
                mmf("eval", "--config", config, "--checkpoint", ckpt,
                    "--out", os.path.join(run, "eval"))
                mmf("sample", "--config", config, "--checkpoint", ckpt,
                    "--out", os.path.join(run, "sample"), "--n-samples", 4096)
                if name == "point_mass.json":
                    mmf("ablation", "--config", config, "--out", os.path.join(run, "ablation"))
                else:
                    oracle = os.path.join(work, "oracle.json")
                    with open(oracle, "w") as fh:
                        json.dump(ORACLE, fh)
                    mmf("eval", "--config", config, "--checkpoint", oracle,
                        "--out", os.path.join(run, "oracle_eval"))
        for dirpath, _, files in os.walk(work):
            for f in files:
                path = os.path.join(dirpath, f)
                rel = os.path.relpath(path, work)
                if f != "run_manifest.json" and os.path.dirname(rel):
                    with open(path, "rb") as fh:
                        lines.append((_sha(fh.read()), rel))

    diagnose = io.StringIO()
    with contextlib.redirect_stdout(diagnose):
        code = cli.main(["diagnose"])
    lines.append((_sha(diagnose.getvalue().encode()), f"mmf diagnose stdout (exit {code})"))
    for name in sorted(os.listdir(os.path.join(tree, "configs"))):
        canonical = cli.load_config(os.path.join(tree, "configs", name))
        text = json.dumps(canonical, sort_keys=True)
        lines.append((_sha(text.encode()), f"configs/{name} canonical"))
        lines.append((cli.config_hash(canonical), f"configs/{name} config_hash"))
    return sorted(lines, key=lambda line: line[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", default=ROOT, help="root of the source tree to run")
    parser.add_argument("--pass-name", choices=sorted(PASSES), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    tree = os.path.abspath(args.tree)
    if args.pass_name is not None:  # one pass, in the interpreter the parent started
        sys.path.insert(0, os.path.join(tree, "src"))
        for sha, name in _run_recipes(tree):
            print(f"{sha}  {args.pass_name}/{name}")
        return 0
    for pass_name, threads in PASSES.items():
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "MMF_THREADS", "PYTHONPATH")}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--tree", tree,
                               "--pass-name", pass_name],
                              env=env, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
