"""``costsim``: fig 9's offline cost study plus an online churn replay.

Offline, each user of a heavy-tailed population is scheduled whole-pod
(``schedule_user``) and then improved with Hostlo splits
(``improve_assignment``); online, ``simulate_online`` replays the pod
arrivals and departures of a small population under both schedulers.
Almost all host time is in the ``BoughtVm`` capacity scans, with no DES
and no service.  Four whales cost a few hundred milliseconds each
while the median user costs a fraction of a millisecond, so a faster
packing kernel shows in ``work_per_s`` (users per second) and
``user_p90_ms`` and its per-call constant in ``op_p50_ms``.

The population has a fixed number of users in each class, each with a
fixed number of pods, drawn with the program's own generator from the
run's seed.  The seed changes which pods there are, not how much work
they make: a random class mix would put zero or four whales in a
population and change the run time several times over.
"""

from __future__ import annotations

import dataclasses
import time
import typing as t

from common import Context, Round, rel_err_pct
from spans import OFF, Recorder
from stats import percentile

#: (class, users, pods per user, seed or None for the run's seed).
#: Ascending by cost the users run small, medium, large, whale, so p50
#: falls inside the small users and p90 in the middle of the medium
#: ones, each over enough users that the seed moves it little.  A
#: whale's cost swings with its pods' sizes (how many improvement
#: passes it takes), and the whales are most of the offline time, so
#: they are always the same four, drawn at :data:`PAPER_SEED`.
OFFLINE_MIX = (("small", 1200, 3, None), ("medium", 240, 8, None),
               ("large", 24, 30, None), ("whale", 4, 80, 2019))
#: The online population: (class, users, at most this many pods each).
ONLINE_MIX = (("small", 30, None), ("medium", 10, None), ("large", 3, 30))
#: Timed passes per round at least (each user's fastest pass is kept).
PASSES = 2
#: Host seconds of one pass and of set-up on the 2-vCPU reference host;
#: ``run.py`` sizes a run from them (see :func:`run.passes_per_round`).
PASS_S, SETUP_S = 3.3, 2.0
#: What ``work_per_s`` counts and what ``op_p50_ms`` times.
WORK = "users costed (Kubernetes schedule + Hostlo improve)"
OP = "one user's schedule_user + improve_assignment"
#: Users streamed through ``iter_users`` by the traced run's kernel.
STREAM_USERS = 3000
#: The population whose fig 9 rows are compared with the paper.
PAPER_SEED = 2019
#: fig 9 (EXPERIMENTS.md): savers %, savers above 5 % (%), max relative
#: saving %, max absolute saving $/h, biggest saver's relative saving %.
PAPER_FIG9 = (11.4, 66.7, 40.0, 237.0, 35.0)

_FRACTIONS = {
    "small": dict(small_user_fraction=1.0, medium_user_fraction=0.0,
                  whale_user_fraction=0.0),
    "medium": dict(small_user_fraction=0.0, medium_user_fraction=1.0,
                   whale_user_fraction=0.0),
    "large": dict(small_user_fraction=0.0, medium_user_fraction=0.0,
                  whale_user_fraction=0.0),
    "whale": dict(small_user_fraction=0.0, medium_user_fraction=0.0,
                  whale_user_fraction=1.0),
}


def _class_seed(seed: int, index: int, part: int) -> int:
    return seed * 10_000 + part * 10 + index


def population(seed: int) -> tuple[list[t.Any], int]:
    """Users of each class of :data:`OFFLINE_MIX` from
    ``generate_trace``: the first drawn with at least the class's pod
    count, cut to exactly that many.  Names carry the generator seed,
    so one name is always one user.  Returns the users and how many
    were drawn to find them."""
    from repro.traces import TraceConfig, TraceUser, generate_trace

    users = []
    drawn = 0
    for index, (kind, count, pods, fixed) in enumerate(OFFLINE_MIX):
        picked: list[t.Any] = []
        batch = 0
        while len(picked) < count:
            class_seed = _class_seed(fixed if fixed is not None else seed,
                                     index, batch)
            config = TraceConfig(users=3 * count, seed=class_seed,
                                 **_FRACTIONS[kind])
            drawn += config.users
            picked.extend(
                TraceUser(name=f"{kind}-s{class_seed}-{u.name}",
                          pods=u.pods[:pods])
                for u in generate_trace(config) if len(u.pods) >= pods)
            batch += 1
        users.extend(picked[:count])
    return users, drawn


def online_events(seed: int) -> list[t.Any]:
    """Arrivals of each class from ``generate_events``, merged."""
    from repro.costsim.online import OnlineConfig, generate_events
    from repro.traces import TraceConfig

    events = []
    for index, (kind, count, pods) in enumerate(ONLINE_MIX):
        config = OnlineConfig(
            trace=TraceConfig(users=count,
                              seed=_class_seed(seed, index, 900),
                              **_FRACTIONS[kind]),
            seed=_class_seed(seed, index, 901))
        for event in generate_events(config):
            if pods is None or int(event.pod.name.rsplit("p", 1)[1]) < pods:
                events.append(event)
    events.sort(key=lambda e: e.arrival_h)
    return events


class State:
    def __init__(self, ctx: Context) -> None:
        self.seed = ctx.seed
        rec = ctx.recorder
        t0 = time.perf_counter()
        with rec.span("traces.generate", "traces", "setup"):
            self.users, self.drawn = population(ctx.seed)
        self.generate_s = time.perf_counter() - t0
        with rec.span("costsim.generate_events", "costsim", "setup"):
            self.events = online_events(ctx.seed)


def setup(ctx: Context) -> State:
    return State(ctx)


def _cost_users(users: t.Sequence[t.Any], rec: Recorder,
                times: dict[str, list[float]] | None = None
                ) -> list[t.Any]:
    from repro.costsim.hostlo import improve_assignment, split_pod_names
    from repro.costsim.kubernetes import schedule_user
    from repro.costsim.packing import total_cost
    from repro.costsim.simulation import UserOutcome

    clock = time.perf_counter
    outcomes = []
    for user in users:
        with rec.span("user", "bench", user.name):
            t0 = clock()
            with rec.span("costsim.schedule_user", "costsim"):
                baseline = schedule_user(user.pods)
            t1 = clock()
            with rec.span("costsim.improve_assignment", "costsim"):
                improved = improve_assignment(baseline)
            t2 = clock()
        if times is not None:
            times["schedule"].append(t1 - t0)
            times["improve"].append(t2 - t1)
        outcomes.append(UserOutcome(
            user=user.name,
            kubernetes_cost=total_cost(baseline),
            hostlo_cost=total_cost(improved),
            vms_before=len(baseline), vms_after=len(improved),
            split_pods=len(split_pod_names(improved)),
        ))
    return outcomes


def run(state: State, rec: Recorder) -> Round:
    from repro.costsim.online import simulate_online

    result = Round()
    times: dict[str, list[float]] = {"schedule": [], "improve": []}
    t0 = time.perf_counter()
    outcomes = _cost_users(state.users, rec, times)
    t1 = time.perf_counter()
    with rec.span("costsim.simulate_online", "costsim", "online"):
        online = simulate_online(state.events)
    t2 = time.perf_counter()
    result.wall_s = t2 - t0
    user_s = [s + i for s, i in zip(times["schedule"], times["improve"])]
    result.units = {o.user: secs for o, secs in zip(outcomes, user_s)}
    result.units["online"] = t2 - t1
    result.ops = {"user": {o.user: secs * 1e3
                           for o, secs in zip(outcomes, user_s)}}
    result.phases = {"offline_s": t1 - t0, "online_s": t2 - t1,
                     "generate_s": state.generate_s}
    result.counts = {"users": len(outcomes), "events": len(state.events),
                     "drawn_users": state.drawn}
    result.samples = {
        "schedule_ms": [s * 1e3 for s in times["schedule"]],
        "improve_ms": [i * 1e3 for i in times["improve"]],
    }
    result.attempted = len(outcomes) + 1
    for o in outcomes:
        if o.hostlo_cost > o.kubernetes_cost + 1e-9 or o.kubernetes_cost <= 0:
            result.fail(f"{o.user}: hostlo cost {o.hostlo_cost} above "
                        f"kubernetes cost {o.kubernetes_cost}")
    if online.hostlo_cost > online.kubernetes_cost + 1e-9:
        result.fail("online: hostlo cost above kubernetes cost")
    result.outputs = {
        "offline": [dataclasses.asdict(o) for o in outcomes],
        "online": dataclasses.asdict(online),
    }
    result.group_ops = {"offline": len(outcomes), "online": 1}
    return result


def paper_err_pct(state: State, result: Round) -> float:
    """Mean relative error of fig 9's rows on the :data:`PAPER_SEED`
    population: a property of the model, the same for every run seed."""
    from repro.costsim.report import SavingsReport
    from repro.costsim.simulation import UserOutcome

    done = {o["user"]: UserOutcome(**o) for o in result.outputs["offline"]}
    users, _ = population(PAPER_SEED)
    fresh = iter(_cost_users([u for u in users if u.name not in done], OFF))
    outcomes = [done[u.name] if u.name in done else next(fresh)
                for u in users]
    report = SavingsReport.from_outcomes(outcomes)
    measured = (
        report.saver_fraction * 100,
        report.savers_above_5pct_fraction * 100,
        report.max_relative_saving * 100,
        report.max_absolute_saving,
        report.biggest_saver.relative_saving * 100,
    )
    return rel_err_pct(zip(measured, PAPER_FIG9))


def layers(state: State, rec: Recorder, result: Round) -> dict[str, float]:
    from repro.traces import TraceConfig, iter_users, stream_statistics

    out = {
        "traces.users_per_s":
            result.counts["drawn_users"] / result.phases["generate_s"],
        "costsim.schedule_ms_total": sum(result.samples["schedule_ms"]),
        "costsim.improve_ms_p50":
            percentile(result.samples["improve_ms"], 50).value,
        "costsim.improve_ms_max": max(result.samples["improve_ms"]),
        "costsim.online_s": result.phases["online_s"],
        "costsim.online_events_per_s":
            result.counts["events"] / result.phases["online_s"],
    }
    config = TraceConfig(users=STREAM_USERS, seed=state.seed)
    with rec.span("traces.stream_statistics", "traces", "kernel/stream"):
        t0 = time.perf_counter()
        stats = stream_statistics(iter_users(config))
        wall = time.perf_counter() - t0
    if stats["users"] != STREAM_USERS:
        raise RuntimeError(f"streamed {stats['users']} users, "
                           f"expected {STREAM_USERS}")
    out["traces.stream_users_per_s"] = STREAM_USERS / wall
    return out


def end_to_end(units: dict[str, float], ops: dict[str, dict[str, float]],
               passes: list[dict[str, t.Any]]) -> dict[str, tuple[float, int]]:
    users_ms = list(ops["user"].values())
    p50 = percentile(users_ms, 50)
    p90 = percentile(users_ms, 90)
    return {
        "wall_s": (sum(units.values()), len(units)),
        "work_per_s": (len(users_ms) / (sum(users_ms) / 1e3),
                       len(users_ms)),
        "op_p50_ms": (p50.value, p50.samples),
        "user_p90_ms": (p90.value, p90.samples),
    }
