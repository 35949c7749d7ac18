"""Pin the output digests of a workload at a set of seeds.

Runs one round per seed (each in a fresh interpreter, as ``run.py``
does) and records the digest of each output group in
``perfbench/digests.json``.  A round whose own checks fail is not
pinned.  Re-pin only in a change that means to alter the program's
results, and say why::

    python3 perfbench/pin.py --workload costsim --seeds 0-20
"""

from __future__ import annotations

import argparse
import json
import sys

import common
import run
from spread import parse_seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", default="0-20")
    parser.add_argument("--replace", action="store_true",
                        help="overwrite pins that disagree (a model change)")
    args = parser.parse_args(argv)

    pins = common.load_pins()
    mine = pins.setdefault(args.workload, {})
    status = 0
    for seed in parse_seeds(args.seeds):
        if args.replace and mine.pop(str(seed), None) is not None:
            # The round checks itself against the pins on disk.
            common.DIGESTS.write_text(json.dumps(pins, indent=1,
                                                 sort_keys=True) + "\n")
        done = run.run_round(args.workload, seed, 0)["passes"][0]
        if done["failed"]:
            print(f"seed {seed}: {done['failed']} checks failed (a pin that "
                  f"differs needs --replace), not pinned: "
                  f"{done['failures'][:3]}", file=sys.stderr)
            status = 1
            continue
        mine[str(seed)] = done["digests"]
        print(f"seed {seed}: pinned", flush=True)
    common.DIGESTS.write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
