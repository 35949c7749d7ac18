"""Bought-VM state for the cost simulation."""

from __future__ import annotations

import dataclasses
import itertools
import typing as t

from repro.errors import CapacityError
from repro.traces.aws import VmModel, cheapest_fitting
from repro.traces.google import TraceContainer

_vm_ids = itertools.count()


@dataclasses.dataclass(eq=False, slots=True)
class PlacedContainer:
    """A container placed on a VM, remembering its pod.

    Identity semantics (``eq=False``): two containers of one pod may
    request identical resources yet remain distinct placements; the
    online simulation tracks them individually across migrations.
    The request is copied out of the container once, at construction.
    """

    pod_name: str
    container: TraceContainer
    splittable: bool
    cpu: float = dataclasses.field(init=False, repr=False)
    memory: float = dataclasses.field(init=False, repr=False)
    size_key: float = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.cpu = self.container.cpu
        self.memory = self.container.memory
        self.size_key = max(self.cpu, self.memory)


class BoughtVm:
    """One VM a user bought, with its placed containers.

    Capacity is plain state the hot scans read directly, refreshed on
    every mutation.  Exactly, in floats: ``free_cpu == model.cpu_rel -
    used_cpu`` (likewise memory) and ``waste == free_cpu + free_memory``,
    the unused capacity the improvement pass targets.
    """

    __slots__ = ("_model", "name", "placed", "cpu_cap", "memory_cap",
                 "used_cpu", "used_memory", "free_cpu", "free_memory",
                 "waste")

    def __init__(self, model: VmModel, name: str | None = None) -> None:
        self.name = name or f"vm-{next(_vm_ids)}"
        self.placed: list[PlacedContainer] = []
        self.used_cpu = 0.0
        self.used_memory = 0.0
        self.model = model

    @property
    def model(self) -> VmModel:
        return self._model

    @model.setter
    def model(self, model: VmModel) -> None:
        self._model = model
        self.cpu_cap = model.cpu_rel
        self.memory_cap = model.memory_rel
        self._refresh()

    def _refresh(self) -> None:
        self.free_cpu = self.cpu_cap - self.used_cpu
        self.free_memory = self.memory_cap - self.used_memory
        self.waste = self.free_cpu + self.free_memory

    @property
    def is_empty(self) -> bool:
        return not self.placed

    def fits(self, cpu: float, memory: float) -> bool:
        return cpu <= self.free_cpu + 1e-12 and memory <= self.free_memory + 1e-12

    def requested_score(self) -> float:
        """Kubernetes "most requested": mean requested fraction."""
        return 0.5 * (self.used_cpu / self.cpu_cap
                      + self.used_memory / self.memory_cap)

    # -- mutation ------------------------------------------------------------
    def place(self, item: PlacedContainer) -> None:
        if not self.fits(item.cpu, item.memory):
            raise CapacityError(
                f"{self.name} ({self.model.name}): container does not fit"
            )
        self.placed.append(item)
        self.used_cpu += item.cpu
        self.used_memory += item.memory
        self._refresh()

    def remove(self, item: PlacedContainer) -> None:
        self.placed.remove(item)
        self.used_cpu -= item.cpu
        self.used_memory -= item.memory
        self._refresh()

    def shrunk_model(self) -> VmModel:
        """The cheapest catalog model that still holds this VM's load."""
        if self.is_empty:
            raise CapacityError(f"{self.name} is empty; return it instead")
        return cheapest_fitting(self.used_cpu, self.used_memory)

    def clone(self) -> "BoughtVm":
        copy = BoughtVm(self.model, name=self.name)
        copy.placed = list(self.placed)
        copy.used_cpu, copy.used_memory = self.used_cpu, self.used_memory
        copy._refresh()
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<BoughtVm {self.name} {self.model.name} "
            f"cpu {self.used_cpu:.3f}/{self.cpu_cap:.3f} "
            f"containers={len(self.placed)}>"
        )


def total_cost(vms: t.Iterable[BoughtVm]) -> float:
    """Hourly cost of a set of bought VMs."""
    return sum(vm.model.price_per_h for vm in vms)
