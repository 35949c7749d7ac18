"""``service``: one real HTTP instance driven closed-loop.

Each pass boots one ``python -m repro.service`` process (thread
executor, 2 shards, a journal, and a fresh empty cache and journal)
and drives it from this process over :data:`CLIENTS` connections.
Each client thread submits a small ``trace`` job (tens of users, so
the control plane rather than trace generation dominates), awaits it
with ``ServiceClient.wait`` (stream to the terminal event, then read
the status), and only then sends its next request.  About a fifth of
submissions repeat an earlier payload (the dedupe path).  Every other
job also reads its status, every tenth its distributed trace and every
twenty-fifth submission is followed by a ``/metrics`` scrape, so reads
sit beside writes.  Jobs stay held by the instance for the whole pass,
so per-submit work that grows with the number of held jobs shows in
the submit latency.
"""

from __future__ import annotations

import pathlib
import random
import re
import subprocess
import sys
import threading
import time
import typing as t

from common import Context, Round, canonical
from spans import Recorder
from stats import percentile

JOBS = 500
#: Timed passes per round at least, each on a fresh instance (each
#: operation's fastest pass is kept).
PASSES = 2
#: Host seconds of one pass (an instance boot included) and of set-up on the 2-vCPU reference host;
#: ``run.py`` sizes a run from them (see :func:`run.passes_per_round`).
PASS_S, SETUP_S = 3.5, 1.0
CLIENTS = 2
USERS = (10, 30)
REPEAT_FRACTION = 0.2
#: Set-up's first job: a payload no round draws (seeds are below 2**30).
WARMUP = {"seed": 1 << 30, "users": 10}
STATUS_EVERY = 2
TRACE_EVERY = 10
METRICS_EVERY = 25
#: What ``work_per_s`` counts and what ``op_p50_ms`` times.
WORK = "jobs completed over the closed loop"
OP = "one job, from POST /jobs to the terminal status the client reads"
#: Held jobs at which the in-process submit kernel is timed.
HELD = (1000, 8000)
HELD_PROBES = 200
JOURNAL_APPENDS = {"always": 200, "batch": 2000, "never": 2000}
#: Critical-path spans reported per layer: span name -> metric.
PHASE_METRICS = {
    "http.parse": "service.http_parse_ms",
    "admission": "service.admission_ms",
    "queue.wait": "service.queue_wait_ms",
    "worker": "service.worker_ms",
    "publish": "service.publish_ms",
}


def payloads(seed: int) -> list[dict[str, int]]:
    """The round's submissions: fresh trace payloads, with about
    :data:`REPEAT_FRACTION` of them repeating an earlier one."""
    rng = random.Random(seed)
    out: list[dict[str, int]] = []
    for i in range(JOBS):
        if i and rng.random() < REPEAT_FRACTION:
            out.append(dict(out[rng.randrange(len(out))]))
        else:
            out.append({"seed": rng.randrange(1 << 30),
                        "users": rng.randint(*USERS)})
    return out


def memory_mb(pid: int | str, field: str) -> float:
    """``VmRSS`` or ``VmHWM`` of process *pid*, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/{pid}/status")


class Instance:
    """A ``python -m repro.service`` process on a free port."""

    def __init__(self, work_dir: pathlib.Path) -> None:
        work_dir.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--executor", "thread", "--shards", "2",
             "--cache", str(work_dir / "cache"),
             "--journal", str(work_dir / "journal")],
            stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"service did not come up: {line!r}")
        self.port = int(match.group(1))

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait for the process."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


class State:
    def __init__(self, ctx: Context) -> None:
        from repro.campaign.cache import source_fingerprint

        self.seed = ctx.seed
        self.work_dir = ctx.work_dir
        t0 = time.perf_counter()
        with ctx.recorder.span("campaign.source_fingerprint", "campaign",
                               "setup"):
            source_fingerprint()
        self.fingerprint_s = time.perf_counter() - t0
        self.payloads = payloads(ctx.seed)
        self.instances = 0
        self.instance: Instance | None = None
        self.recorder = ctx.recorder
        self.fresh_instance()

    def fresh_instance(self) -> None:
        """Stop the last instance, if any, and boot a new one on fresh
        cache and journal directories."""
        from repro.service import ServiceClient

        if self.instance is not None:
            self.instance.stop()
            self.instance = None
        with self.recorder.span("service.start", "service", "setup"):
            instance = Instance(self.work_dir / f"instance{self.instances}")
        self.instances += 1
        try:
            # One job first, so the instance's one-time work (imports,
            # the source fingerprint behind cache keys) is not timed.
            client = ServiceClient(port=instance.port)
            client.wait(client.submit("trace", WARMUP, client="warmup")["id"])
        except BaseException:
            instance.stop()
            raise
        self.instance = instance
        self.used = False


def setup(ctx: Context) -> State:
    return State(ctx)


def finish(state: State) -> None:
    if state.instance is not None:
        state.instance.stop()


class _Client:
    """One closed-loop connection's thread and what it measured."""

    def __init__(self, state: State, rec: Recorder,
                 next_job: t.Callable[[], int | None]) -> None:
        from repro.service import ServiceClient

        self.client = ServiceClient(port=state.instance.port)
        self.state = state
        self.rec = rec
        self.next_job = next_job
        self.submit_ms: dict[str, float] = {}
        self.job_ms: dict[str, float] = {}
        self.read_ms: dict[str, float] = {}
        self.cycle_s: dict[str, float] = {}
        self.docs: dict[int, dict[str, t.Any]] = {}
        self.traces: dict[int, dict[str, t.Any]] = {}
        self.errors: list[str] = []
        self.attempted = 0

    def _read(self, kind: str, i: int,
              call: t.Callable[[], t.Any]) -> t.Any:
        self.attempted += 1
        t0 = time.perf_counter()
        with self.rec.span(f"service.{kind}", "service"):
            doc = call()
        self.read_ms[f"{kind}/{i}"] = (time.perf_counter() - t0) * 1e3
        return doc

    def run(self) -> None:
        clock = time.perf_counter
        while (i := self.next_job()) is not None:
            payload = self.state.payloads[i]
            self.attempted += 1
            try:
                with self.rec.span("job", "bench", f"job/{i}"):
                    t0 = clock()
                    with self.rec.span("service.submit", "service"):
                        summary = self.client.submit(
                            "trace", payload, client=f"c{i % CLIENTS}")
                    t1 = clock()
                    with self.rec.span("service.wait", "service"):
                        doc = self.client.wait(summary["id"])
                    t2 = clock()
                    self.submit_ms[str(i)] = (t1 - t0) * 1e3
                    self.job_ms[str(i)] = (t2 - t0) * 1e3
                    self.docs[i] = doc
                    job_id = summary["id"]
                    if i % STATUS_EVERY == 0:
                        self._read("status", i,
                                   lambda: self.client.status(job_id))
                    if i % TRACE_EVERY == 0:
                        self.traces[i] = self._read(
                            "trace", i, lambda: self.client.trace(job_id))
                    if i % METRICS_EVERY == 0:
                        self._read("metrics", i, self.client.metrics_text)
                    self.cycle_s[f"job/{i}"] = clock() - t0
            except Exception as exc:  # noqa: BLE001 - a miss, not a crash
                self.errors.append(f"job {i}: {exc!r}")


def run(state: State, rec: Recorder) -> Round:
    if state.used:
        state.fresh_instance()
    state.used = True
    result = Round()
    lock = threading.Lock()
    cursor = iter(range(JOBS))

    def next_job() -> int | None:
        with lock:
            return next(cursor, None)

    clients = [_Client(state, rec.fork(), next_job) for _ in range(CLIENTS)]
    threads = [threading.Thread(target=c.run, name=f"client-{k}")
               for k, c in enumerate(clients)]
    pid = state.instance.proc.pid
    rss_before = memory_mb(pid, "VmRSS")
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    result.wall_s = time.perf_counter() - t0
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("service clients did not finish in 120 s")
    rss_after = memory_mb(pid, "VmRSS")
    result.peak_rss_mb = memory_mb(pid, "VmHWM")

    docs: dict[int, dict[str, t.Any]] = {}
    traces: dict[int, dict[str, t.Any]] = {}
    result.ops = {"submit": {}, "job": {}, "read": {}}
    for c in clients:
        docs.update(c.docs)
        traces.update(c.traces)
        result.attempted += c.attempted
        for error in c.errors:
            result.fail(error)
        result.ops["submit"].update(c.submit_ms)
        result.ops["job"].update(c.job_ms)
        result.ops["read"].update(c.read_ms)
        result.units.update(c.cycle_s)
    for kind in ("status", "trace", "metrics"):
        result.samples[f"{kind}_ms"] = [
            ms for op, ms in result.ops["read"].items()
            if op.startswith(kind + "/")]
    result.counts = {"jobs": len(docs),
                     "held_rss_mb": rss_after - rss_before}
    result.phases["fingerprint_s"] = state.fingerprint_s
    result.samples.update(_phases(traces))

    rows = []
    for i in range(JOBS):
        doc = docs.get(i)
        if doc is None:
            continue
        if doc.get("state") != "done" or "result" not in doc:
            result.fail(f"job {i}: ended {doc.get('state')}: "
                        f"{doc.get('error')}")
            continue
        rows.append(doc["result"]["rows"])
    _check_sample(state, docs, result)
    result.outputs = {"results": rows}
    result.group_ops = {"results": len(rows)}
    return result


def _phases(traces: dict[int, dict[str, t.Any]]) -> dict[str, list[float]]:
    """Milliseconds of each critical-path span, over sampled traces."""
    out: dict[str, list[float]] = {m: [] for m in PHASE_METRICS.values()}
    for doc in traces.values():
        for span in doc.get("spans", ()):
            metric = PHASE_METRICS.get(span.get("name"))
            if metric is not None and span.get("kind", "service") != "sim":
                out[metric].append(
                    (span["end_s"] - span["start_s"]) * 1e3)
    return out


def _check_sample(state: State, docs: dict[int, dict[str, t.Any]],
                  result: Round) -> None:
    """Every :data:`TRACE_EVERY`-th job's rows must equal an in-process
    ``stream_statistics`` over the same payload."""
    from repro.traces import TraceConfig, iter_users, stream_statistics
    from repro.traces.google import DEFAULT_CHUNK

    for i in range(0, JOBS, TRACE_EVERY):
        doc = docs.get(i)
        if doc is None or "result" not in doc:
            continue
        payload = state.payloads[i]
        config = TraceConfig(seed=payload["seed"], users=payload["users"])
        stats = stream_statistics(iter_users(config, chunk=DEFAULT_CHUNK))
        expect = [{"seed": payload["seed"], "users": payload["users"],
                   **stats}]
        if canonical(doc["result"]["rows"]) != canonical(expect):
            result.fail(f"job {i}: rows differ from in-process "
                        "stream_statistics")


def layers(state: State, rec: Recorder, result: Round) -> dict[str, float]:
    out = {metric: percentile(result.samples[metric], 50).value
           for metric in PHASE_METRICS.values()}
    for kind in ("status", "trace", "metrics"):
        out[f"service.{kind}_ms"] = percentile(
            result.samples[f"{kind}_ms"], 50).value
    out["service.rss_mb_per_1k_jobs"] = (
        result.counts["held_rss_mb"] / result.counts["jobs"] * 1000)
    out.update(_held_submit(rec))
    out.update(_journal_appends(state, rec))
    return out


def _held_submit(rec: Recorder) -> dict[str, float]:
    """``TraceService.submit`` in-process, timed at each of :data:`HELD`
    jobs held (no HTTP, jobs never run: the loop is not yielded to)."""
    import asyncio

    from repro.service import ServiceConfig, TraceService

    async def kernel() -> dict[str, float]:
        service = TraceService(ServiceConfig(
            executor="thread", capacity=1 << 30, per_client_quota=1 << 30))
        await service.start()
        out = {}
        try:
            held = 0
            for target in HELD:
                while held < target:
                    service.submit("sleep", {"label": f"h{held}"},
                                   client=f"c{held % 64}")
                    held += 1
                with rec.span(f"service.core_submit.held{target}",
                              "service", f"kernel/held{target}"):
                    t0 = time.perf_counter()
                    for k in range(HELD_PROBES):
                        service.submit("sleep", {"label": f"p{held}"},
                                       client=f"c{held % 64}")
                        held += 1
                    wall = time.perf_counter() - t0
                out[f"service.core_submit_us.held{target // 1000}k"] = (
                    wall / HELD_PROBES * 1e6)
        finally:
            await service.aclose()
        return out

    return asyncio.run(kernel())


def _journal_appends(state: State, rec: Recorder) -> dict[str, float]:
    """``JobJournal.append`` under each fsync policy, in the work dir."""
    from repro.service import JobJournal, JournalConfig

    out = {}
    envelope = {"id": "j00000", "key": "trace:s1:u40", "kind": "trace",
                "payload": {"seed": 1, "users": 40}, "client": "c0",
                "priority": 0}
    for policy, count in JOURNAL_APPENDS.items():
        journal = JobJournal(state.work_dir / f"journal-{policy}",
                             JournalConfig(fsync=policy))
        try:
            with rec.span(f"journal.append.{policy}", "journal",
                          f"kernel/journal/{policy}"):
                t0 = time.perf_counter()
                for _ in range(count):
                    journal.append("accepted", **envelope)
                wall = time.perf_counter() - t0
        finally:
            journal.close()
        out[f"journal.append_us.{policy}"] = wall / count * 1e6
    return out


def end_to_end(units: dict[str, float], ops: dict[str, dict[str, float]],
               passes: list[dict[str, t.Any]]) -> dict[str, tuple[float, int]]:
    """Each job's fastest pass of submit, wait and its reads; the closed
    loop's time is their sum over the :data:`CLIENTS` connections."""
    wall = sum(units.values()) / CLIENTS
    out: dict[str, tuple[float, int]] = {
        "wall_s": (wall, len(units)),
        "work_per_s": (len(units) / wall, len(units)),
    }
    for name in ("submit", "job", "read"):
        times = list(ops[name].values())
        for q in (50, 90):
            p = percentile(times, q)
            out[f"{name}_p{q}_ms"] = (p.value, p.samples)
    out["op_p50_ms"] = out.pop("job_p50_ms")
    return out
