"""Golden result digests: pin what an experiment computes, not how fast.

A digest is the sha256 of an experiment's canonical result JSON with
``meta`` removed (``meta`` holds wall time and other facts *about* the
run).  ``GOLDEN.json`` at the repository root pins one digest per
experiment at ``--preset quick`` and seed 2019, so a performance change
can prove its results are byte-identical.

Each experiment runs in a fresh interpreter, as
``python -m repro.harness <experiment>`` would: some results depend on
process-global counters (the fabric experiment places VMs by the hash
of names drawn from one), so an experiment run after another in the
same process can differ::

    PYTHONPATH=src python -m repro.harness.golden            # check
    PYTHONPATH=src python -m repro.harness.golden --write fig09

Only a change that declares a model change may rewrite a pinned digest,
and it must say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time
import typing as t

from repro.harness.config import ExperimentConfig
from repro.harness.registry import run_experiment
from repro.harness.results import ExperimentResult

PRESET = "quick"
SEED = 2019
_SRC = pathlib.Path(__file__).resolve().parents[2]
GOLDEN_PATH = _SRC.parent / "GOLDEN.json"


def result_digest(result: ExperimentResult) -> str:
    """sha256 of the result's canonical JSON, ``meta`` removed."""
    payload = json.loads(result.to_json())
    payload.pop("meta", None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def golden_config() -> ExperimentConfig:
    return dataclasses.replace(ExperimentConfig.preset(PRESET), seed=SEED)


def experiment_digest(experiment: str) -> str:
    """The digest of *experiment*, run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(_SRC), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "repro.harness.golden", "--digest",
         experiment],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


def load(path: pathlib.Path = GOLDEN_PATH) -> dict[str, str]:
    """The pinned ``{experiment: digest}`` map."""
    data = json.loads(path.read_text())
    if data.get("preset") != PRESET or data.get("seed") != SEED:
        raise ValueError(f"{path}: pinned at another preset or seed")
    return dict(data["digests"])


def main(argv: t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.golden",
        description="Check (or --write) the pinned golden result digests.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiments to check (default: all pinned)")
    parser.add_argument("--write", action="store_true",
                        help="pin the computed digests into GOLDEN.json")
    parser.add_argument("--golden", type=pathlib.Path, default=GOLDEN_PATH)
    parser.add_argument("--digest", metavar="EXPERIMENT",
                        help="run one experiment in this process and "
                             "print only its digest")
    args = parser.parse_args(argv)
    if args.digest:
        print(result_digest(run_experiment(args.digest, golden_config())))
        return 0

    pinned = load(args.golden) if args.golden.exists() else {}
    ids = args.experiments or sorted(pinned)
    failed = 0
    for experiment in ids:
        start = time.perf_counter()
        digest = experiment_digest(experiment)
        elapsed = time.perf_counter() - start
        expected = pinned.get(experiment)
        status = "ok" if digest == expected else (
            "new" if expected is None else "MISMATCH")
        failed += status == "MISMATCH"
        print(f"{experiment:<28} {status:<8} {elapsed:6.2f}s  {digest}")
        pinned[experiment] = digest
    if args.write:
        args.golden.write_text(json.dumps(
            {"preset": PRESET, "seed": SEED,
             "digests": dict(sorted(pinned.items()))},
            indent=2) + "\n")
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
