"""Attribution of resource consumption to phases (paper §III-D3).

The final step of the attribution pipeline: within each timeslice, split the
upsampled consumption of each resource over the phase instances active in
that slice.

For each resource and timeslice, independently:

1. phases with an **Exact** rule receive consumption proportionally to
   their exact demand, never more than that demand, and never more in total
   than the slice's estimated consumption;
2. the remaining consumption is divided proportionally to the **relative
   (Variable)** demands of all active variable phases;
3. consumption left over when no variable phase is active is recorded as
   *unattributed* (it shows up in reports as a model gap).

The result is conceptually a 3-D array — phase × resource × timeslice — as
in the paper's Figure 2(f).  We store it as per-resource matrices over the
attributable instances plus an index, and expose hierarchical roll-up:
the usage of an inner phase is its own direct usage plus that of all
descendants (§III-B's upward propagation).

The per-slice computation is fully vectorized over slices and instances;
Python loops run only over resources, reading each resource's demand matrix
from :class:`~repro.core.demand.ResourceDemand`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from .demand import DemandEstimate
from .timeline import TimeGrid
from .traces import ExecutionTrace, PhaseInstance
from .upsample import UpsampledTrace

__all__ = ["ResourceAttribution", "AttributionResult", "attribute"]

_EPS = 1e-12


@dataclass
class ResourceAttribution:
    """Per-phase consumption of one resource, timeslice-granular.

    ``usage`` has one row per attributable instance (indexed by
    ``instance_ids``) and one column per timeslice, in resource units.
    """

    resource: str
    capacity: float
    instance_ids: list[str]
    usage: np.ndarray  # (n_instances, n_slices)
    unattributed: np.ndarray  # (n_slices,)
    demand: np.ndarray  # (n_instances, n_slices) — estimated per-instance demand
    is_exact: np.ndarray  # (n_instances,) bool

    def total_per_slice(self) -> np.ndarray:
        """Attributed plus unattributed consumption per slice.

        By construction this equals the upsampled consumption rate — the
        conservation invariant :mod:`repro.core.invariants` enforces.
        """
        if self.usage.size == 0:
            return self.unattributed.copy()
        return self.usage.sum(axis=0) + self.unattributed

    def row_of(self, instance_id: str) -> int:
        """Row index of an instance in :attr:`usage` (``KeyError`` if absent)."""
        try:
            return self.instance_ids.index(instance_id)
        except ValueError:
            raise KeyError(
                f"instance {instance_id!r} has no direct attribution on {self.resource!r}"
            ) from None


class AttributionResult:
    """Full output of the resource attribution process for one run."""

    def __init__(
        self,
        grid: TimeGrid,
        trace: ExecutionTrace,
        per_resource: dict[str, ResourceAttribution],
    ) -> None:
        self.grid = grid
        self.trace = trace
        self.per_resource = per_resource
        # resource -> {instance_id -> row}
        self._rows: dict[str, dict[str, int]] = {
            rname: dict(zip(ra.instance_ids, range(len(ra.instance_ids))))
            for rname, ra in per_resource.items()
        }

    def resources(self) -> list[str]:
        """Names of the attributed resources."""
        return list(self.per_resource)

    def __getitem__(self, resource: str) -> ResourceAttribution:
        return self.per_resource[resource]

    def __contains__(self, resource: str) -> bool:
        return resource in self.per_resource

    # ------------------------------------------------------------------ #
    # Usage queries
    # ------------------------------------------------------------------ #
    def direct_usage(self, instance: PhaseInstance | str, resource: str) -> np.ndarray:
        """Per-slice usage directly attributed to this instance (no roll-up)."""
        iid = instance.instance_id if isinstance(instance, PhaseInstance) else instance
        ra = self.per_resource[resource]
        row = self._rows[resource].get(iid)
        if row is None:
            return np.zeros(self.grid.n_slices)
        return ra.usage[row]

    def usage(self, instance: PhaseInstance | str, resource: str) -> np.ndarray:
        """Per-slice usage including all descendant instances (roll-up)."""
        inst = self.trace[instance] if isinstance(instance, str) else instance
        total = self.direct_usage(inst, resource).copy()
        for desc in self.trace.descendants_of(inst):
            total += self.direct_usage(desc, resource)
        return total

    def phase_type_usage(self, phase_path: str, resource: str) -> np.ndarray:
        """Per-slice usage summed over all instances of one phase type (rolled up)."""
        total = np.zeros(self.grid.n_slices)
        for inst in self.trace.instances(phase_path):
            total += self.usage(inst, resource)
        return total

    def total_usage(self, instance: PhaseInstance | str, resource: str) -> float:
        """Total consumption (units × seconds) attributed to an instance."""
        return float(self.usage(instance, resource).sum() * self.grid.slice_duration)

    def demand_of(self, instance: PhaseInstance | str, resource: str) -> np.ndarray:
        """Per-slice estimated demand of this instance (no roll-up)."""
        iid = instance.instance_id if isinstance(instance, PhaseInstance) else instance
        ra = self.per_resource[resource]
        row = self._rows[resource].get(iid)
        if row is None:
            return np.zeros(self.grid.n_slices)
        return ra.demand[row]


def attribute(
    upsampled: UpsampledTrace,
    demand: DemandEstimate,
    trace: ExecutionTrace,
) -> AttributionResult:
    """Attribute upsampled consumption to phases, per resource and timeslice."""
    with obs.span("attribute", n_resources=len(upsampled.resources())):
        return _attribute(upsampled, demand, trace)


def _attribute(
    upsampled: UpsampledTrace,
    demand: DemandEstimate,
    trace: ExecutionTrace,
) -> AttributionResult:
    grid = upsampled.grid
    per_resource: dict[str, ResourceAttribution] = {}
    for name in upsampled.resources():
        rdemand = demand[name]
        consumption = upsampled[name].rate  # (n_slices,)
        if not rdemand.instance_ids:
            per_resource[name] = ResourceAttribution(
                resource=name,
                capacity=rdemand.capacity,
                instance_ids=[],
                usage=np.zeros((0, grid.n_slices)),
                unattributed=consumption.copy(),
                demand=np.zeros((0, grid.n_slices)),
                is_exact=np.zeros(0, dtype=bool),
            )
            continue

        dem = rdemand.demand  # (n, n_slices)
        exact_mask = rdemand.is_exact

        usage = np.zeros_like(dem)

        # Step 1 — Exact phases: proportional to demand, capped at demand,
        # total capped at the slice's consumption.
        exact_dem = dem[exact_mask]
        if exact_dem.size:
            exact_total = exact_dem.sum(axis=0)
            scale = np.ones(grid.n_slices)
            over = exact_total > _EPS
            scale[over] = np.minimum(1.0, consumption[over] / exact_total[over])
            usage[exact_mask] = exact_dem * scale
        remainder = consumption - usage.sum(axis=0)
        np.clip(remainder, 0.0, None, out=remainder)

        # Step 2 — Variable phases: remainder proportional to weights.
        var_dem = dem[~exact_mask]
        if var_dem.size:
            var_total = var_dem.sum(axis=0)
            share = np.divide(
                remainder, var_total, out=np.zeros_like(remainder), where=var_total > _EPS
            )
            usage[~exact_mask] = var_dem * share
            remainder = remainder - np.where(var_total > _EPS, remainder, 0.0)

        per_resource[name] = ResourceAttribution(
            resource=name,
            capacity=rdemand.capacity,
            instance_ids=rdemand.instance_ids,
            usage=usage,
            unattributed=remainder,
            demand=dem,
            is_exact=exact_mask,
        )
    return AttributionResult(grid=grid, trace=trace, per_resource=per_resource)
