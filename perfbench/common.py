"""What every workload module shares: the round record, digests, and
the canonical form outputs are digested in."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import typing as t

from spans import Recorder

HERE = pathlib.Path(__file__).resolve().parent
#: Pinned output digests: ``{workload: {seed: {group: sha256}}}``.
DIGESTS = HERE / "digests.json"


@dataclasses.dataclass
class Context:
    """What a workload's set-up is given."""

    seed: int
    #: Scratch directory inside the checkout, removed after the round.
    work_dir: pathlib.Path
    recorder: Recorder


@dataclasses.dataclass
class Round:
    """The outcome of one timed pass over a workload's fixed input.

    A pass is cut into *units* (a sweep point, a user, a sub-campaign)
    and *operations* (a request).  The same seed gives the same units
    and operations in every pass, so a run can take each one's fastest
    pass: on a host whose speed drifts in spells of seconds, that is
    what repeats from run to run.
    """

    #: Host seconds of the whole pass, as one wall-clock interval.
    wall_s: float = 0.0
    #: Host seconds of each unit of the pass; together they are the
    #: timed part.
    units: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Milliseconds of each operation, by kind and operation id.
    ops: dict[str, dict[str, float]] = dataclasses.field(
        default_factory=dict)
    #: Work done, by kind (``sim_msgs``, ``users``, ``jobs`` ...).
    counts: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Host seconds of named sub-phases, for the traced run.
    phases: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Per-call samples in milliseconds, for the traced run.
    samples: dict[str, list[float]] = dataclasses.field(default_factory=dict)
    #: Operations attempted and operations whose output did not check.
    attempted: int = 0
    failed: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)
    #: Canonical outputs by group; digested and compared to the pins.
    outputs: dict[str, t.Any] = dataclasses.field(default_factory=dict)
    #: Operations each output group covers (a mismatch fails them all).
    group_ops: dict[str, int] = dataclasses.field(default_factory=dict)
    #: Peak RSS of the process under test when that is not the round's
    #: own process (the service instance); ``None`` means this one.
    peak_rss_mb: float | None = None

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.failures.append(message)


def canonical(value: t.Any) -> t.Any:
    """Floats rounded to 9 significant digits, recursively: a digest
    then pins the model's results, not the last bit of a summation
    order."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def digest(value: t.Any) -> str:
    body = json.dumps(canonical(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def load_pins() -> dict[str, t.Any]:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def check_pins(workload: str, seed: int, result: Round,
               pins: t.Mapping[str, t.Any]) -> dict[str, str]:
    """Digest each output group and compare it with its pin.

    A mismatch fails every operation of that group; a seed without
    pins is only checked for agreement between rounds (by the caller).
    Returns the digests.
    """
    pinned = pins.get(workload, {}).get(str(seed), {})
    digests = {group: digest(out) for group, out in result.outputs.items()}
    for group, value in digests.items():
        expect = pinned.get(group)
        if expect is not None and expect != value:
            result.fail(f"{workload} seed {seed}: {group} digest "
                        f"{value[:12]} != pinned {expect[:12]}",
                        ops=result.group_ops.get(group, 1))
    return digests


def rel_err_pct(pairs: t.Iterable[tuple[float, float]]) -> float:
    """Mean absolute relative error, in percent, of (measured, paper)."""
    errs = [abs(m - p) / abs(p) for m, p in pairs]
    return 100.0 * sum(errs) / len(errs)
