"""The repository benchmark: workloads end to end, and layers traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload datapath --seed 1 \
        --seconds 40 --trace 0

``--trace 0`` runs :data:`ROUNDS` rounds of the workload, each in a
fresh interpreter; each round sets up once and makes as many timed
passes as fit its share of ``--seconds`` (at least the workload's
``PASSES``).
It prints the end-to-end metrics, the same six for every workload:
set-up time and memory as medians over rounds, times as each unit's or
operation's fastest pass.  The workload's own figures (``user_p90_ms``,
``submit_p50_ms`` ...) follow on ``#`` lines.
``--trace 1`` runs one untraced round of the workload and one traced
round of every workload, writes each traced round's spans as JSONL
under ``.perfbench_out/`` and prints every per-layer metric.  Either
way the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time
import typing as t

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("datapath", "costsim", "service", "campaign")
#: Rounds of an end-to-end run: set-up is measured once per round and
#: reported as the median.
ROUNDS = 3
#: A round that has not ended by then is killed and the run fails.
ROUND_TIMEOUT_S = 150.0
#: Iterations of the calibration loop (about 20 ms on a 2.2 GHz core).
CALIB_ITERS = 300_000
#: Units of the workload-specific figures printed on ``#`` lines; the
#: end-to-end metrics in BENCHMARK.json are the ones every workload has.
DETAIL_UNITS = {
    "user_p90_ms": "ms", "submit_p50_ms": "ms", "submit_p90_ms": "ms",
    "job_p90_ms": "ms", "read_p50_ms": "ms", "read_p90_ms": "ms",
    "paper_err_pct": "%",
}


def calibrate() -> float:
    """Milliseconds of a fixed pure-Python loop: moves with nothing
    but the host, so a slow run can be told from a slow program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_ITERS):
        acc += i * i & 0xFF
    return (time.perf_counter() - t0) * 1e3


def declared(trace: bool) -> dict[str, str]:
    """The metrics BENCHMARK.json declares for this kind of run, with
    their units: per-layer ones when *trace*, else end-to-end ones."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_round(workload: str, seed: int, index: int, *, passes: int = 1,
              trace: bool = False, paper: bool = False,
              spans_path: pathlib.Path | None = None) -> dict[str, t.Any]:
    """Run one round in a fresh interpreter; returns its document plus
    the parent-side set-up time and calibration.  With *paper* the round
    also computes ``paper_err_pct``, after its timed part."""
    work = (ROOT / ".perfbench_work"
            / f"{workload}-s{seed}-{os.getpid()}-{index}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "round.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    env["TMPDIR"] = str(work)
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), "--passes", str(passes), "--out", str(out),
           "--work-dir", str(work / "scratch")]
    if paper:
        cmd.append("--paper")
    if trace:
        cmd.append("--trace")
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
    calib_ms = calibrate()
    try:
        t_launch = time.time()
        # Its own session, so a round that overruns is killed together
        # with whatever it started (a service instance, spawn workers).
        proc = subprocess.Popen(cmd, env=env, cwd=str(ROOT),
                                stdout=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            proc.wait(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError(f"round {index} of {workload} ran over "
                               f"{ROUND_TIMEOUT_S:.0f} s") from None
        if not out.exists():
            raise RuntimeError(f"round {index} of {workload} wrote no "
                               f"result (exit {proc.returncode})")
        doc = json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if "error" in doc:
        raise RuntimeError(f"round {index} of {workload} failed:\n"
                           f"{doc['error']}")
    doc["setup_s"] = doc["t_timed_start"] - t_launch
    doc["calib_ms"] = calib_ms
    return doc


def check_passes(passes: list[dict[str, t.Any]]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over all passes.  A pass whose
    output digests differ from the first pass's fails all its
    operations: the same seed must give the same outputs."""
    attempted = failed = 0
    notes: list[str] = []
    first = passes[0]["digests"]
    for i, doc in enumerate(passes):
        attempted += doc["attempted"]
        if doc["digests"] != first:
            failed += doc["attempted"]
            notes.append(f"pass {i}: outputs differ from pass 0")
        else:
            failed += doc["failed"]
        notes.extend(doc["failures"])
    return attempted, failed, notes


def fastest(passes: list[dict[str, t.Any]]) -> tuple[
        dict[str, float], dict[str, dict[str, float]]]:
    """Each unit's and each operation's fastest time over *passes*."""
    units: dict[str, float] = {}
    ops: dict[str, dict[str, float]] = {}
    for doc in passes:
        for name, secs in doc["units"].items():
            units[name] = min(secs, units.get(name, secs))
        for kind, times in doc["ops"].items():
            best = ops.setdefault(kind, {})
            for op, ms in times.items():
                best[op] = min(ms, best.get(op, ms))
    return units, ops


def end_to_end(workload: str, rounds: list[dict[str, t.Any]],
               passes: list[dict[str, t.Any]], attempted: int,
               failed: int) -> dict[str, tuple[float, int]]:
    """The end-to-end metrics of *workload* and its own figures:
    ``name -> (value, n)``, where *n* is the sample count behind it."""
    n = len(rounds)
    metrics = {
        "setup_s": (stats.median([r["setup_s"] for r in rounds]), n),
        "peak_rss_mb": (stats.median([r["peak_rss_mb"] for r in rounds]), n),
        "ok_frac": ((attempted - failed) / attempted, attempted),
    }
    paper = [r["values"]["paper_err_pct"] for r in rounds
             if "paper_err_pct" in r["values"]]
    if paper:
        metrics["paper_err_pct"] = (paper[0], 1)
    units, ops = fastest(passes)
    metrics.update(module_of(workload).end_to_end(units, ops, passes))
    return metrics


def module_of(workload: str) -> t.Any:
    return importlib.import_module(f"wl_{workload}")


def traced_run(workload: str, seed: int, record_dir: pathlib.Path) -> tuple[
        list[dict[str, t.Any]], dict[str, tuple[float, int]]]:
    """One plain round of *workload* and one traced round of every
    workload; the per-layer metrics.

    Each layer's metrics come from the workload that exercises that
    layer, so every traced run traces all of them: the per-layer
    breakdown is the same set whichever workload is named.  The named
    workload's plain and traced rounds give the tracing overhead."""
    plain = run_round(workload, seed, 0)
    rounds = [plain]
    values: dict[str, tuple[float, int]] = {}
    for other in (workload, *(w for w in WORKLOADS if w != workload)):
        spans_path = record_dir / f"{other}-seed{seed}.spans.jsonl"
        traced = run_round(other, seed, len(rounds), trace=True,
                           spans_path=spans_path)
        rounds.append(traced)
        values.update((name, (value, 1))
                      for name, value in traced["layers"].items())
        print(f"# {other}: {traced.get('spans', 0)} spans written to "
              f"{spans_path}")
        for layer, secs in sorted(traced["self_s"].items()):
            print(f"# {other}: self time {layer}: {secs:.4f} s")
    values["host.calib_ms"] = (
        stats.median([r["calib_ms"] for r in rounds]), len(rounds))
    values["bench.trace_overhead_x"] = (
        rounds[1]["passes"][0]["wall_s"] / plain["passes"][0]["wall_s"], 1)
    return rounds, values


def passes_per_round(module: t.Any, seconds: float) -> int:
    """Passes that fill a round's share of *seconds* on the reference
    host (at least the workload's ``PASSES``).

    The count depends on *seconds* only, never on how fast the host is
    running: each unit is reported at its fastest pass, and the fastest
    of more passes is lower, so a count that shrank on a slow host would
    report the slowdown twice."""
    spare = seconds / ROUNDS - module.SETUP_S
    return max(module.PASSES, int(spare / module.PASS_S))


def timed_rounds(workload: str, seed: int,
                 seconds: float) -> list[dict[str, t.Any]]:
    """:data:`ROUNDS` rounds sized to *seconds*."""
    module = module_of(workload)
    paper = hasattr(module, "paper_err_pct")
    passes = passes_per_round(module, seconds)
    return [run_round(workload, seed, i, passes=passes,
                      paper=paper and i == 0) for i in range(ROUNDS)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    unit_of = declared(bool(args.trace))
    record_dir = ROOT / ".perfbench_out"
    record_dir.mkdir(exist_ok=True)

    if args.trace:
        rounds, values = traced_run(args.workload, args.seed, record_dir)
    else:
        rounds = timed_rounds(args.workload, args.seed, args.seconds)
    attempted = failed = 0
    notes: list[str] = []
    for name in dict.fromkeys(r["workload"] for r in rounds):
        passes = [p for r in rounds if r["workload"] == name
                  for p in r["passes"]]
        a, f, n = check_passes(passes)
        attempted, failed = attempted + a, failed + f
        notes.extend(f"{name}: {note}" for note in n)
    if not args.trace:
        passes = [p for r in rounds for p in r["passes"]]
        values = end_to_end(args.workload, rounds, passes, attempted, failed)
    for i, doc in enumerate(rounds):
        walls = " ".join(f"{p['wall_s']:.4f}" for p in doc["passes"])
        print(f"# round {i} ({doc['workload']}): "
              f"host.calib_ms={doc['calib_ms']:.2f} setup_s={doc['setup_s']:.4f} pass wall_s={walls} "
              f"peak_rss_mb={doc['peak_rss_mb']:.1f}")
    for note in notes[:20]:
        print(f"# check failed: {note}")
    if not args.trace:
        module = module_of(args.workload)
        print(f"# work_per_s counts: {module.WORK}; "
              f"op_p50_ms times: {module.OP}")
    metrics = {}
    for name, (value, n) in values.items():
        if name in unit_of:
            metrics[name] = {"value": value, "unit": unit_of[name]}
            print(f"# {name} = {value:.6g} {unit_of[name]} (n={n})")
        elif name in DETAIL_UNITS and not args.trace:
            print(f"# detail {name} = {value:.6g} {DETAIL_UNITS[name]} "
                  f"(n={n})")
        else:
            raise KeyError(f"metric {name!r} is not declared in "
                           "BENCHMARK.json")
    missing = sorted(set(unit_of) - set(metrics))
    if missing:
        raise KeyError(f"{args.workload} did not measure {missing}")
    with (record_dir / "runs.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "rounds": len(rounds),
            "calib_ms": [r["calib_ms"] for r in rounds],
            "metrics": {k: v for k, (v, _n) in values.items()},
            "samples": {k: n for k, (_v, n) in values.items()},
        }) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics},
                     sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
