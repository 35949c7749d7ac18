"""The AWS EC2 m5 on-demand catalog (paper table 2).

Resource values are also expressed relative to the largest model
(24xlarge: 96 vCPU, 384 GB), matching the normalised units of the
Google traces — 1.0 means "the whole biggest machine".
"""

from __future__ import annotations

import dataclasses

from repro.errors import CapacityError, ConfigurationError

#: The largest model's absolute resources (the relative-unit basis).
BASE_VCPUS = 96
BASE_MEMORY_GB = 384


@dataclasses.dataclass(frozen=True, order=True)
class VmModel:
    """One instance model; ordering follows price."""

    price_per_h: float
    name: str
    vcpus: int
    memory_gb: int

    def __post_init__(self) -> None:
        if self.vcpus <= 0 or self.memory_gb <= 0 or self.price_per_h <= 0:
            raise ConfigurationError(f"bad VM model {self.name!r}")

    @property
    def cpu_rel(self) -> float:
        """vCPUs relative to the largest model (table 2's third column)."""
        return self.vcpus / BASE_VCPUS

    @property
    def memory_rel(self) -> float:
        return self.memory_gb / BASE_MEMORY_GB

    def fits(self, cpu_rel: float, memory_rel: float) -> bool:
        return cpu_rel <= self.cpu_rel + 1e-12 and memory_rel <= self.memory_rel + 1e-12


#: Table 2, verbatim.
M5_CATALOG: tuple[VmModel, ...] = (
    VmModel(name="large", vcpus=2, memory_gb=8, price_per_h=0.112),
    VmModel(name="xlarge", vcpus=4, memory_gb=16, price_per_h=0.224),
    VmModel(name="2xlarge", vcpus=8, memory_gb=32, price_per_h=0.448),
    VmModel(name="4xlarge", vcpus=16, memory_gb=64, price_per_h=0.896),
    VmModel(name="12xlarge", vcpus=48, memory_gb=192, price_per_h=2.689),
    VmModel(name="24xlarge", vcpus=96, memory_gb=384, price_per_h=5.376),
)

#: The catalog in price order, the order :func:`cheapest_fitting` tries.
_BY_PRICE: tuple[VmModel, ...] = tuple(sorted(M5_CATALOG))


def model(name: str) -> VmModel:
    """Look up a model by name."""
    for m in M5_CATALOG:
        if m.name == name:
            return m
    raise ConfigurationError(f"unknown m5 model {name!r}")


def cheapest_fitting(cpu_rel: float, memory_rel: float) -> VmModel:
    """The cheapest model that can host the given relative demand.

    This is the "buy a new VM of the size that best fits" rule of
    §5.3.1 step 3b.
    """
    for m in _BY_PRICE:
        if m.fits(cpu_rel, memory_rel):
            return m
    raise CapacityError(
        f"demand cpu={cpu_rel:.4f} mem={memory_rel:.4f} exceeds the "
        "largest model"
    )
