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

from dataclasses import dataclass

import numpy as np

from .resources import ResourceModel
from .rules import ExactRule, NoneRule, RuleMatrix, VariableRule
from .timeline import TimeGrid
from .traces import ExecutionTrace

__all__ = ["ResourceDemand", "DemandEstimate", "estimate_demand"]


@dataclass
class ResourceDemand:
    """Per-slice demand decomposition for a single consumable resource.

    Row ``i`` of ``demand`` is the per-slice demand of the attributable
    instance ``instance_ids[i]``: ``magnitude[i]`` times its active
    fraction.  For an Exact rule (``is_exact[i]``) the magnitude is the
    absolute demand rate (``proportion × capacity``); for a Variable
    rule it is the relative weight.  Rows follow the trace's insertion
    order, and instances whose rule is :class:`NoneRule` have none.
    """

    resource: str
    capacity: float
    exact_total: np.ndarray
    variable_total: np.ndarray
    instance_ids: list[str]
    magnitude: np.ndarray
    is_exact: np.ndarray
    demand: np.ndarray

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


def _sum_rows(rows: np.ndarray) -> np.ndarray:
    """``0 + rows[0] + rows[1] + ...``, one slice at a time, in row order.

    NumPy's ``sum(axis=0)`` over a C-contiguous matrix adds whole rows in
    row order onto zeros.  With a single slice per row the reduction runs
    along contiguous memory instead, where NumPy sums pairwise; that case
    accumulates in order explicitly.
    """
    if rows.shape[1] != 1:
        return rows.sum(axis=0)
    total = np.zeros(1)
    for row in rows:
        total += row
    return total


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
    and each distinct rule row is resolved once
    (:meth:`RuleMatrix.rule_rows`).  Per resource, the instances with a
    rule form one matrix ``magnitude[:, None] * activity[rows]``; the
    exact and variable totals add its exact and its variable rows in
    instance order.
    """
    instances, activity = trace.attributable_activity(grid)
    rows, row_of = rules.rule_rows(instances, list(resources.consumable))
    row_of = np.asarray(row_of, dtype=np.int64)
    ids = np.array([inst.instance_id for inst in instances], dtype=object)
    per_resource: dict[str, ResourceDemand] = {}
    for j, (name, res) in enumerate(resources.consumable.items()):
        # Resolve each distinct rule row once: 0 = none, 1 = exact, 2 = variable.
        kind = np.zeros(len(rows), dtype=np.int8)
        magnitude_of_row = np.zeros(len(rows))
        for r, row in enumerate(rows):
            rule = row[j]
            if isinstance(rule, ExactRule):
                kind[r], magnitude_of_row[r] = 1, rule.proportion * res.capacity
            elif isinstance(rule, VariableRule):
                kind[r], magnitude_of_row[r] = 2, rule.weight
            elif not isinstance(rule, NoneRule):  # pragma: no cover - defensive
                raise TypeError(f"unknown rule type {type(rule).__name__}")
        kinds = kind[row_of]
        keep = np.flatnonzero(kinds != 0)
        is_exact = kinds[keep] == 1
        magnitude = magnitude_of_row[row_of[keep]]
        demand = magnitude[:, None] * activity[keep]
        exact_total = _sum_rows(demand[is_exact])
        variable_total = _sum_rows(demand[~is_exact])
        # Known demand can never exceed capacity: concurrent Exact phases
        # whose proportions sum past 100% contend for the same resource.
        np.minimum(exact_total, res.capacity, out=exact_total)
        per_resource[name] = ResourceDemand(
            resource=name,
            capacity=res.capacity,
            exact_total=exact_total,
            variable_total=variable_total,
            instance_ids=ids[keep].tolist(),
            magnitude=magnitude,
            is_exact=is_exact,
            demand=demand,
        )
    return DemandEstimate(grid=grid, per_resource=per_resource)
