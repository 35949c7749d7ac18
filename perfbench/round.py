"""One round of one workload, in a fresh interpreter.

``run.py`` starts this script once per round so that each round's set-up
(the ``repro`` import included) and peak RSS belong to that round alone
and no heap or cache carries over.  A round sets the workload up once
and then runs ``--passes`` timed passes over the same input.  It writes
one JSON document::

    python3 perfbench/round.py --workload costsim --seed 3 --passes 2 \
        --out round.json --work-dir scratch [--trace] [--paper]

The first pass starts when the workload's ``setup`` returns; that
wall-clock moment is written as ``t_timed_start`` so the parent can take
set-up time from the moment it launched this process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import sys
import time
import traceback

import common
import spans


def peak_rss_mb() -> float:
    """This process's RSS high-water mark (``VmHWM``), in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def pass_doc(workload: str, seed: int, result: common.Round,
             pins: dict) -> dict:
    digests = common.check_pins(workload, seed, result, pins)
    return {
        "wall_s": result.wall_s, "units": result.units, "ops": result.ops,
        "counts": result.counts, "attempted": result.attempted,
        "failed": result.failed, "failures": result.failures[:20],
        "digests": digests,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--out", required=True, type=pathlib.Path)
    parser.add_argument("--work-dir", required=True, type=pathlib.Path)
    parser.add_argument("--trace", action="store_true",
                        help="record spans and run the layer kernels")
    parser.add_argument("--paper", action="store_true",
                        help="also compute paper_err_pct, after the "
                             "timed passes")
    parser.add_argument("--spans", type=pathlib.Path,
                        help="where a traced round writes its spans")
    args = parser.parse_args(argv)

    module = importlib.import_module(f"wl_{args.workload}")
    rec = spans.SpanRecorder() if args.trace else spans.OFF
    ctx = common.Context(seed=args.seed, work_dir=args.work_dir,
                         recorder=rec)
    pins = common.load_pins()
    doc: dict = {"workload": args.workload, "seed": args.seed,
                 "passes": [], "values": {}}
    state = None
    try:
        state = module.setup(ctx)
        doc["t_timed_start"] = time.time()
        for _ in range(args.passes):
            result = module.run(state, rec)
            doc["passes"].append(
                pass_doc(args.workload, args.seed, result, pins))
        if args.paper:
            doc["values"]["paper_err_pct"] = module.paper_err_pct(state,
                                                                 result)
        if args.trace:
            doc["layers"] = module.layers(state, rec, result)
            doc["self_s"] = rec.self_times()
            if args.spans is not None:
                rec.write_jsonl(args.spans)
                doc["spans"] = len(rec.spans)
        peak = result.peak_rss_mb
    except Exception:  # noqa: BLE001 - reported to the parent as data
        doc["error"] = traceback.format_exc()
        args.out.write_text(json.dumps(doc), encoding="utf-8")
        return 1
    finally:
        finish = getattr(module, "finish", None)
        if state is not None and finish is not None:
            finish(state)
    doc["peak_rss_mb"] = peak if peak is not None else peak_rss_mb()
    args.out.write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
