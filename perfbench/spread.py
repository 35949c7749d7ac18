"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py`` once per seed (sequentially, each a fresh process) and
prints, per metric, the median of the runs and the distance between
the first and third quartile as a share of it -- the figure the bounds
in ``BENCHMARK.json`` are set against::

    python3 perfbench/spread.py --workload service --seeds 1-10 --seconds 40

Each run's last output line is also appended to ``--log`` so that a set
of runs can be compared with another later.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median) as ``statistics.quantiles`` gives
    the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="40")
    parser.add_argument(
        "--log", type=pathlib.Path,
        default=HERE.parent / ".perfbench_out" / "spread.jsonl")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", "0"],
            capture_output=True, text=True, check=True)
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(doc)
        args.log.parent.mkdir(exist_ok=True)
        with args.log.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                 **doc}) + "\n")
        values = " ".join(f"{k}={v['value']:.4g}"
                          for k, v in sorted(doc["metrics"].items()))
        print(f"seed {seed}: correct={doc['correct']} {values}", flush=True)
    print(f"{'metric':16} {'median':>12} {'IQR/median':>10} {'bound':>6}")
    for name in sorted(runs[0]["metrics"]):
        med, rel = spread([r["metrics"][name]["value"] for r in runs])
        flag = "" if rel < bounds[name] / 3 else "  above bound/3"
        print(f"{name:16} {med:12.5g} {rel:10.4f} {bounds[name]:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
