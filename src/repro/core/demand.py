"""Resource demand estimation (paper §III-D1).

The first step of resource attribution: from the execution trace and the
attribution rules, estimate for every resource and every timeslice

* the **known (exact) demand** — the sum, over active phases with an
  :class:`~repro.core.rules.ExactRule`, of their exact demands, in absolute
  resource units;
* the **variable demand weight** — the sum of the relative weights of
  active phases with a :class:`~repro.core.rules.VariableRule`.

A phase contributes to a slice proportionally to the fraction of the slice
during which it is *active* (started, not ended, not blocked), so phases
whose boundaries do not align with the grid and phases interrupted by
blocking events are handled exactly.

The result of this step is consumed both by the upsampler (to split coarse
measurements over slices) and by the per-phase attribution step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .resources import ResourceModel
from .rules import ExactRule, NoneRule, RuleMatrix, VariableRule
from .timeline import TimeGrid
from .traces import ExecutionTrace, PhaseInstance

__all__ = ["DemandEntry", "ResourceDemand", "DemandEstimate", "estimate_demand"]


@dataclass(frozen=True)
class DemandEntry:
    """One attributable phase instance's demand on one resource.

    ``activity`` is the per-slice active fraction (in ``[0, 1]``);
    for Exact rules ``magnitude`` is the absolute demand rate
    (``proportion × capacity``), for Variable rules it is the relative
    weight.
    """

    instance: PhaseInstance
    is_exact: bool
    magnitude: float
    activity: np.ndarray

    def demand(self) -> np.ndarray:
        """Per-slice demand (absolute units for exact, weight for variable)."""
        return self.magnitude * self.activity


@dataclass
class ResourceDemand:
    """Per-slice demand decomposition for a single consumable resource."""

    resource: str
    capacity: float
    exact_total: np.ndarray
    variable_total: np.ndarray
    entries: list[DemandEntry] = field(default_factory=list)

    @property
    def exact_entries(self) -> list[DemandEntry]:
        return [e for e in self.entries if e.is_exact]

    @property
    def variable_entries(self) -> list[DemandEntry]:
        return [e for e in self.entries if not e.is_exact]

    def total_estimated_demand(self) -> np.ndarray:
        """Exact demand plus variable weights expressed in resource units.

        Variable weights have no intrinsic unit; following the untuned-model
        interpretation in the paper's Figure 3 we read one unit of weight as
        demand for one unit of the resource, capped at capacity.  This
        estimate is for reporting/plots; the upsampler uses the decomposed
        form.
        """
        return np.minimum(self.exact_total + self.variable_total, self.capacity)


@dataclass
class DemandEstimate:
    """Demand decomposition for all consumable resources on one grid."""

    grid: TimeGrid
    per_resource: dict[str, ResourceDemand]

    def __getitem__(self, resource: str) -> ResourceDemand:
        return self.per_resource[resource]

    def __contains__(self, resource: str) -> bool:
        return resource in self.per_resource

    def resources(self) -> list[str]:
        """Names of the resources with a demand decomposition."""
        return list(self.per_resource)


def estimate_demand(
    trace: ExecutionTrace,
    resources: ResourceModel,
    rules: RuleMatrix,
    grid: TimeGrid,
) -> DemandEstimate:
    """Build the timeslice-granular demand estimation matrix (§III-D1).

    Only *attributable* instances (those without concurrently active
    children, see :meth:`ExecutionTrace.attributable_instances`) generate
    demand; inner phases are covered by the roll-up of their descendants.
    The activity of every instance comes from one batched rasterization,
    and each instance's rules from one per-call table
    (:meth:`RuleMatrix.rule_table`); per-resource totals then accumulate
    in instance order.
    """
    attributable = trace.attributable_instances(grid)
    table = rules.rule_table([inst for inst, _ in attributable], list(resources.consumable))
    per_resource: dict[str, ResourceDemand] = {}
    for j, (name, res) in enumerate(resources.consumable.items()):
        exact_total = np.zeros(grid.n_slices)
        variable_total = np.zeros(grid.n_slices)
        entries: list[DemandEntry] = []
        for (inst, activity), rules_of_inst in zip(attributable, table):
            rule = rules_of_inst[j]
            if isinstance(rule, NoneRule):
                continue
            if isinstance(rule, ExactRule):
                magnitude = rule.proportion * res.capacity
                entry = DemandEntry(inst, True, magnitude, activity)
                exact_total += entry.demand()
            elif isinstance(rule, VariableRule):
                entry = DemandEntry(inst, False, rule.weight, activity)
                variable_total += entry.demand()
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown rule type {type(rule).__name__}")
            entries.append(entry)
        # Known demand can never exceed capacity: concurrent Exact phases
        # whose proportions sum past 100% contend for the same resource.
        np.minimum(exact_total, res.capacity, out=exact_total)
        per_resource[name] = ResourceDemand(
            resource=name,
            capacity=res.capacity,
            exact_total=exact_total,
            variable_total=variable_total,
            entries=entries,
        )
    return DemandEstimate(grid=grid, per_resource=per_resource)
