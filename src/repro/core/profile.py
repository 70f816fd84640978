"""End-to-end performance characterization pipeline (paper Fig. 1, steps 6-9).

:class:`Grade10` ties the stages together: given the expert-provided
execution model, resource model, and attribution rules, plus a run's
execution and resource traces, :meth:`Grade10.characterize` produces a
:class:`PerformanceProfile` holding

* the timeslice grid,
* the demand estimate (§III-D1),
* the upsampled resource trace (§III-D2),
* the per-phase attribution (§III-D3),
* the bottleneck report (§III-E), and
* the performance-issue report with optimistic impact estimates (§III-F).

The profile object is what examples, benchmarks, and the report renderer
consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from .attribution import AttributionResult, attribute
from .bottlenecks import (
    EXACT_CAP_THRESHOLD,
    SATURATION_THRESHOLD,
    BottleneckReport,
    find_bottlenecks,
)
from .demand import DemandEstimate, estimate_demand
from .issues import DEFAULT_MIN_IMPROVEMENT, IssueReport, _detect_issues
from .outliers import (
    DEFAULT_MIN_GROUP_SIZE,
    DEFAULT_MIN_PHASE_DURATION,
    DEFAULT_THRESHOLD,
    OutlierReport,
    _find_outliers,
)
from .phases import ExecutionModel
from .resources import ResourceModel
from .rules import RuleMatrix
from .simulation import ReplaySimulator
from .timeline import TimeGrid
from .traces import ExecutionTrace, ResourceTrace
from .upsample import UpsampledTrace, upsample

__all__ = ["Grade10", "PerformanceProfile"]

#: Default timeslice duration (seconds); the paper uses tens of milliseconds.
DEFAULT_SLICE_DURATION = 0.010


@dataclass
class PerformanceProfile:
    """The fine-grained performance profile of one workload run."""

    grid: TimeGrid
    execution_trace: ExecutionTrace
    resource_trace: ResourceTrace
    demand: DemandEstimate
    upsampled: UpsampledTrace
    attribution: AttributionResult
    bottlenecks: BottleneckReport
    issues: IssueReport
    outliers: OutlierReport

    @property
    def makespan(self) -> float:
        return self.execution_trace.makespan

    def check_invariants(self, *, rel_tol: float = 1e-6) -> "InvariantReport":
        """Run the pipeline invariant checker on this profile.

        See :mod:`repro.core.invariants` for the invariant catalog.
        """
        from .invariants import check_profile

        return check_profile(self, rel_tol=rel_tol)


class Grade10:
    """The Grade10 performance characterization framework.

    Parameters mirror the user-supplied inputs of the paper's Figure 1:
    the execution model (component 4), the resource model (component 5),
    and the attribution rules (§III-D1).

    Example
    -------
    >>> g10 = Grade10(execution_model, resource_model, rules)
    >>> profile = g10.characterize(execution_trace, resource_trace)
    >>> profile.bottlenecks.bottleneck_time_by_resource()
    """

    def __init__(
        self,
        execution_model: ExecutionModel,
        resource_model: ResourceModel,
        rules: RuleMatrix | None = None,
        *,
        slice_duration: float = DEFAULT_SLICE_DURATION,
        saturation_threshold: float = SATURATION_THRESHOLD,
        exact_cap_threshold: float = EXACT_CAP_THRESHOLD,
        min_improvement: float = DEFAULT_MIN_IMPROVEMENT,
        outlier_threshold: float = DEFAULT_THRESHOLD,
        min_phase_duration: float = DEFAULT_MIN_PHASE_DURATION,
    ) -> None:
        execution_model.validate()
        self.execution_model = execution_model
        self.resource_model = resource_model
        self.rules = rules if rules is not None else RuleMatrix()
        self.slice_duration = slice_duration
        self.saturation_threshold = saturation_threshold
        self.exact_cap_threshold = exact_cap_threshold
        self.min_improvement = min_improvement
        self.outlier_threshold = outlier_threshold
        self.min_phase_duration = min_phase_duration

    def characterize(
        self,
        execution_trace: ExecutionTrace,
        resource_trace: ResourceTrace,
        *,
        grid: TimeGrid | None = None,
    ) -> PerformanceProfile:
        """Run the full pipeline on one run's traces."""
        if len(execution_trace) == 0:
            raise ValueError("execution trace is empty — nothing to characterize")
        if grid is None:
            grid = execution_trace.grid(self.slice_duration)
        with obs.span("demand", n_instances=len(execution_trace)):
            demand = estimate_demand(execution_trace, self.resource_model, self.rules, grid)
        upsampled = upsample(resource_trace, demand, grid)
        attribution = attribute(upsampled, demand, execution_trace)
        bottlenecks = find_bottlenecks(
            execution_trace,
            upsampled,
            attribution,
            saturation_threshold=self.saturation_threshold,
            exact_cap_threshold=self.exact_cap_threshold,
        )
        # One replay graph, and with it one (parent, phase type) group
        # index, serves the what-if scenarios and the outlier test.
        with obs.span("issues"):
            simulator = ReplaySimulator(execution_trace, self.execution_model)
            issues = _detect_issues(
                simulator,
                self.execution_model,
                bottlenecks,
                upsampled,
                attribution,
                self.min_improvement,
            )
        with obs.span("outliers"):
            outliers = _find_outliers(
                simulator._index,
                self.execution_model,
                self.outlier_threshold,
                self.min_phase_duration,
                DEFAULT_MIN_GROUP_SIZE,
            )
        return PerformanceProfile(
            grid=grid,
            execution_trace=execution_trace,
            resource_trace=resource_trace,
            demand=demand,
            upsampled=upsampled,
            attribution=attribution,
            bottlenecks=bottlenecks,
            issues=issues,
            outliers=outliers,
        )
