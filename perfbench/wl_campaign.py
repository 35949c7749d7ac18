"""``campaign``: cold ``run_campaign`` calls on spawn workers, each
followed by a warm rerun of the same spec.

Each of :data:`CAMPAIGNS` specs is ten cheap experiments at the
``quick`` preset across :data:`SEEDS_PER_CAMPAIGN` seeds, run with
``jobs=2`` spawn workers into a fresh, empty result cache; the rerun
answers every job from that cache.  It is the only workload that
exercises the spawn pool, the on-disk cache writes and the result
merge.  Each job takes tens of milliseconds, so the campaign's own
overhead (worker spawn, cache writes, merge) is a large share of the
time.
"""

from __future__ import annotations

import json
import time
import typing as t

from common import Context, Round
from spans import Recorder
from stats import percentile

EXPERIMENTS = ("fig06", "fig07", "fig08", "fig13", "fig15", "table01",
               "table02", "netstack", "reliability", "chaos")
CAMPAIGNS = 3
SEEDS_PER_CAMPAIGN = 2
WORKERS = 2
CACHE_OPS = 200
#: Timed passes per round at least (each campaign's fastest pass is
#: kept).
PASSES = 2
#: Host seconds of one pass and of set-up on the 2-vCPU reference host;
#: ``run.py`` sizes a run from them (see :func:`run.passes_per_round`).
PASS_S, SETUP_S = 3.0, 0.5
#: What ``work_per_s`` counts and what ``op_p50_ms`` times.
WORK = "jobs of the cold campaigns"
OP = "one cold job's wall in its spawn worker (CampaignReport)"


def seeds(seed: int, campaign: int) -> tuple[int, ...]:
    base = seed * 100 + campaign * SEEDS_PER_CAMPAIGN
    return tuple(range(base, base + SEEDS_PER_CAMPAIGN))


class State:
    def __init__(self, ctx: Context) -> None:
        from repro.campaign import CampaignSpec
        from repro.campaign.cache import source_fingerprint

        self.seed = ctx.seed
        self.work_dir = ctx.work_dir
        t0 = time.perf_counter()
        with ctx.recorder.span("campaign.source_fingerprint", "campaign",
                               "setup"):
            source_fingerprint()
        self.fingerprint_s = time.perf_counter() - t0
        self.specs = [CampaignSpec(experiments=EXPERIMENTS,
                                   presets=("quick",),
                                   seeds=seeds(ctx.seed, k))
                      for k in range(CAMPAIGNS)]
        self.caches = 0


def setup(ctx: Context) -> State:
    return State(ctx)


def _canonical_results(report: t.Any) -> list[dict[str, t.Any]]:
    """Each job's result JSON without ``meta`` (wall times, fingerprints)."""
    out = []
    for outcome in report.outcomes:
        doc = json.loads(outcome.result.to_json())
        doc.pop("meta", None)
        out.append(doc)
    return out


def run(state: State, rec: Recorder) -> Round:
    from repro.campaign import ResultCache, run_campaign

    result = Round()
    clock = time.perf_counter
    cold_docs: list[dict[str, t.Any]] = []
    fresh: list[float] = []
    job_ms: dict[str, float] = {}
    marks: list[float] = []
    t_pass = clock()
    for k, spec in enumerate(state.specs):
        cache = ResultCache(state.work_dir / f"cache{state.caches}")
        state.caches += 1
        marks.clear()
        t0 = clock()
        with rec.span("campaign.run_campaign.cold", "campaign", f"cold/{k}"):
            cold = run_campaign(spec, jobs=WORKERS, cache=cache,
                                progress=lambda _line: marks.append(clock()))
        t1 = clock()
        with rec.span("campaign.run_campaign.warm", "campaign", f"warm/{k}"):
            warm = run_campaign(spec, jobs=WORKERS, cache=cache)
        t2 = clock()
        result.units[f"cold/{k}"] = t1 - t0
        result.units[f"warm/{k}"] = t2 - t1
        if k == 0:
            result.phases["first_result_s"] = marks[0] - t0
        result.phases["cold_s"] = result.phases.get("cold_s", 0.0) + t1 - t0
        result.phases["warm_s"] = result.phases.get("warm_s", 0.0) + t2 - t1
        _check(spec, cold, warm, result)
        fresh.extend(o.wall_s for o in cold.outcomes if not o.cache_hit)
        job_ms.update((o.job.key, o.wall_s * 1e3) for o in cold.outcomes
                      if not o.cache_hit)
        cold_docs.extend(_canonical_results(cold))
    result.wall_s = clock() - t_pass
    result.phases["fingerprint_s"] = state.fingerprint_s
    result.samples = {"job_ms": [w * 1e3 for w in fresh]}
    result.ops = {"job": job_ms}
    result.counts = {"jobs": len(cold_docs), "serial_s": sum(fresh)}
    result.outputs = {"results": cold_docs}
    result.group_ops = {"results": len(cold_docs)}
    return result


def _check(spec: t.Any, cold: t.Any, warm: t.Any, result: Round) -> None:
    """A cold run computes every job; its rerun answers every job from
    the cache with the same result."""
    expected = len(spec.expand())
    result.attempted += 2 * expected
    if len(cold.outcomes) != expected or len(warm.outcomes) != expected:
        result.fail(f"campaign returned {len(cold.outcomes)}/"
                    f"{len(warm.outcomes)} of {expected} jobs",
                    ops=2 * expected)
        return
    for c_out, w_out, c_doc, w_doc in zip(
            cold.outcomes, warm.outcomes, _canonical_results(cold),
            _canonical_results(warm)):
        if c_out.cache_hit:
            result.fail(f"cold {c_out.job.key}: hit an empty cache")
        if not w_out.cache_hit:
            result.fail(f"warm {w_out.job.key}: not a cache hit")
        elif w_doc != c_doc:
            result.fail(f"warm {w_out.job.key}: differs from cold run")


def layers(state: State, rec: Recorder, result: Round) -> dict[str, float]:
    from repro.campaign import ResultCache
    from repro.campaign.cache import CacheEntry
    from repro.harness.results import ExperimentResult

    out = {
        "campaign.first_result_s": result.phases["first_result_s"],
        "campaign.job_ms_p50": percentile(result.samples["job_ms"], 50).value,
        "campaign.overhead_s": (result.phases["cold_s"]
                                - result.counts["serial_s"] / WORKERS),
        "campaign.warm_ms": result.phases["warm_s"] * 1e3,
        "campaign.fingerprint_ms": result.phases["fingerprint_s"] * 1e3,
    }
    doc = result.outputs["results"][0]
    sample = ExperimentResult.from_json(json.dumps(doc))
    cache = ResultCache(state.work_dir / "cache-kernel")
    entries = [CacheEntry(key=f"{k:064x}", job_key=f"kernel#{k}",
                          experiment=sample.experiment, preset="quick",
                          seed=k, wall_s=0.01, result=sample)
               for k in range(CACHE_OPS)]
    with rec.span("campaign.cache.put", "campaign", "kernel/cache"):
        t0 = time.perf_counter()
        for entry in entries:
            cache.put(entry)
        put_s = time.perf_counter() - t0
    with rec.span("campaign.cache.get", "campaign", "kernel/cache"):
        t0 = time.perf_counter()
        for entry in entries:
            if cache.get(entry.key) is None:
                raise RuntimeError(f"cache lost {entry.key}")
        get_s = time.perf_counter() - t0
    out["campaign.cache_put_us"] = put_s / CACHE_OPS * 1e6
    out["campaign.cache_get_us"] = get_s / CACHE_OPS * 1e6
    return out


def end_to_end(units: dict[str, float], ops: dict[str, dict[str, float]],
               passes: list[dict[str, t.Any]]) -> dict[str, tuple[float, int]]:
    cold = sum(secs for name, secs in units.items()
               if name.startswith("cold/"))
    p50 = percentile(list(ops["job"].values()), 50)
    return {
        "wall_s": (sum(units.values()), len(units)),
        "work_per_s": (passes[0]["counts"]["jobs"] / cold, len(units)),
        "op_p50_ms": (p50.value, p50.samples),
    }
