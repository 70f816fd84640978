"""Resource-bottleneck identification (paper §III-E).

Grade10 detects three kinds of resource bottlenecks:

* **Blocking bottlenecks** — whenever a phase is blocked on a blocking
  resource (GC pause, full message queue, lock), that resource is delaying
  the phase.  The blocked time per (phase, resource) is read directly from
  the blocking events in the trace; this corresponds to the notion of
  blocked time in Ousterhout et al.'s blocked time analysis.

* **Saturation bottlenecks** — whenever a consumable resource reaches full
  utilization, every active phase demanding it is bottlenecked on it.
  Detected on the *upsampled* per-slice consumption.

* **Exact-cap bottlenecks** — a phase limited by an Exact rule to a portion
  of a resource is bottlenecked when it uses (approximately) its full
  allowance, even if the resource as a whole is not saturated — one of the
  least understood phenomena in graph processing per the paper; Grade10's
  recommendation in this case is to raise the phase's allowance.

Results are reported per (phase instance, resource) with per-slice masks,
plus aggregation helpers per phase type used by the Figure 4 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .. import obs
from .attribution import AttributionResult
from .timeline import TimeGrid
from .traces import ExecutionTrace, PhaseInstance
from .upsample import UpsampledTrace

__all__ = [
    "BottleneckKind",
    "Bottleneck",
    "BottleneckReport",
    "find_bottlenecks",
    "SATURATION_THRESHOLD",
    "EXACT_CAP_THRESHOLD",
]

#: A consumable resource is considered saturated above this utilization.
#: Below 1.0 because real monitoring of a fully busy resource reads slightly
#: under nominal capacity (stalls, frequency scaling, sampling skew).
SATURATION_THRESHOLD = 0.93
#: An Exact-rule phase is considered capped above this fraction of its demand.
EXACT_CAP_THRESHOLD = 0.9
_EPS = 1e-12


class BottleneckKind(str, Enum):
    BLOCKING = "blocking"
    SATURATION = "saturation"
    EXACT_CAP = "exact-cap"


_SLICED_KINDS = (BottleneckKind.SATURATION, BottleneckKind.EXACT_CAP)


@dataclass(frozen=True)
class Bottleneck:
    """One detected bottleneck of a phase instance on a resource.

    ``duration`` is the total bottlenecked time in seconds.  For slice-based
    detections (saturation / exact-cap) ``slices`` is the boolean per-slice
    mask; blocking bottlenecks carry the raw blocked time instead.
    """

    kind: BottleneckKind
    instance_id: str
    phase_path: str
    resource: str
    duration: float
    slices: np.ndarray | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Bottleneck({self.kind.value}, {self.phase_path}#{self.instance_id!r}, "
            f"{self.resource}, {self.duration:.3f}s)"
        )


@dataclass
class BottleneckReport:
    """All bottlenecks found in one run."""

    grid: TimeGrid
    bottlenecks: list[Bottleneck] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.bottlenecks)

    def __iter__(self):
        return iter(self.bottlenecks)

    def for_instance(self, instance: PhaseInstance | str) -> list[Bottleneck]:
        """All bottlenecks detected for one phase instance."""
        iid = instance.instance_id if isinstance(instance, PhaseInstance) else instance
        return [b for b in self.bottlenecks if b.instance_id == iid]

    def for_resource(self, resource: str) -> list[Bottleneck]:
        """All bottlenecks on one resource."""
        return [b for b in self.bottlenecks if b.resource == resource]

    def for_kind(self, kind: BottleneckKind) -> list[Bottleneck]:
        """All bottlenecks of one detection kind."""
        return [b for b in self.bottlenecks if b.kind == kind]

    def bottleneck_time_by_phase_type(self, resource: str | None = None) -> dict[str, float]:
        """Total bottlenecked seconds per phase type (optionally one resource)."""
        out: dict[str, float] = {}
        for b in self.bottlenecks:
            if resource is not None and b.resource != resource:
                continue
            out[b.phase_path] = out.get(b.phase_path, 0.0) + b.duration
        return out

    def bottleneck_time_by_resource(self) -> dict[str, float]:
        """Total bottlenecked seconds per resource."""
        out: dict[str, float] = {}
        for b in self.bottlenecks:
            out[b.resource] = out.get(b.resource, 0.0) + b.duration
        return out

    def slice_masks(self) -> tuple[list[Bottleneck], np.ndarray]:
        """The bottlenecks with a per-slice mask, in report order, and the masks as one matrix.

        Row ``k`` of the boolean ``(n, n_slices)`` matrix is the ``slices``
        of the ``k``-th bottleneck listed.
        """
        sliced = [b for b in self.bottlenecks if b.slices is not None]
        if not sliced:
            return sliced, np.zeros((0, self.grid.n_slices), dtype=bool)
        return sliced, np.array([b.slices for b in sliced], dtype=bool)

    def bottleneck_mask(self, instance_id: str, resource: str) -> np.ndarray:
        """Combined per-slice bottleneck mask of an instance on a resource."""
        mask = np.zeros(self.grid.n_slices, dtype=bool)
        for b in self.bottlenecks:
            if b.instance_id == instance_id and b.resource == resource and b.slices is not None:
                mask |= b.slices
        return mask


def find_bottlenecks(
    trace: ExecutionTrace,
    upsampled: UpsampledTrace,
    attribution: AttributionResult,
    *,
    saturation_threshold: float = SATURATION_THRESHOLD,
    exact_cap_threshold: float = EXACT_CAP_THRESHOLD,
    min_duration: float = 0.0,
) -> BottleneckReport:
    """Run all three bottleneck detectors.

    ``min_duration`` suppresses bottlenecks shorter than the given number of
    seconds (the paper reports issues only above an arbitrary minimum
    threshold).  Saturation and exact-cap detection work on whole
    ``(n_instances, n_slices)`` masks with one integer reduction per
    resource, so durations are exact slice counts times the slice width.
    """
    with obs.span("bottlenecks"):
        grid = upsampled.grid
        report = BottleneckReport(grid=grid)
        sd = grid.slice_duration

        # --- Blocking bottlenecks: straight from the trace's blocking events.
        for inst in [inst for inst in trace.instances() if inst.blocking]:
            per_resource: dict[str, float] = {}
            for ev in inst.blocking:
                per_resource[ev.resource] = per_resource.get(ev.resource, 0.0) + ev.duration
            for res, dur in per_resource.items():
                if dur >= max(min_duration, _EPS):
                    report.bottlenecks.append(
                        Bottleneck(
                            BottleneckKind.BLOCKING, inst.instance_id, inst.phase_path, res, dur
                        )
                    )

        # --- Saturation and exact-cap bottlenecks on consumable resources.
        # Only the detected rows are gathered, saturation before exact cap
        # within a row.
        sat_floor = max(min_duration, sd / 2)
        for resource in upsampled.resources():
            if resource not in attribution:
                continue
            ra = attribution[resource]
            if not ra.instance_ids:
                continue
            saturated = upsampled[resource].utilization >= saturation_threshold
            active = ra.demand > _EPS  # (n_instances, n_slices)
            # Saturation: active while the resource is at full utilization.
            sat = active & saturated[None, :]
            sat_times = sat.sum(axis=1).astype(np.float64) * sd
            # Exact cap: usage reaches the phase's exact demand while the
            # resource itself still has headroom.
            capped = (
                active
                & (ra.usage >= exact_cap_threshold * ra.demand)
                & ~saturated[None, :]
            )
            cap_times = capped.sum(axis=1).astype(np.float64) * sd
            detected = np.array((sat_times >= sat_floor, ra.is_exact & (cap_times >= sat_floor)))
            rows, kinds = np.nonzero(detected.T)
            if not rows.size:
                continue
            is_cap = kinds.astype(bool)
            masks = np.where(is_cap[:, None], capped[rows], sat[rows])
            times = np.where(is_cap, cap_times[rows], sat_times[rows])
            for row, kind, duration, mask in zip(
                rows.tolist(), kinds.tolist(), times.tolist(), masks
            ):
                iid = ra.instance_ids[row]
                report.bottlenecks.append(
                    Bottleneck(
                        _SLICED_KINDS[kind],
                        iid,
                        trace[iid].phase_path,
                        resource,
                        duration,
                        mask,
                    )
                )
        return report
