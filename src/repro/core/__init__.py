"""Grade10 core: models, traces, attribution, bottlenecks, and issues.

This package is the paper's primary contribution — a framework that turns
coarse monitoring data plus fine-grained execution logs into a
timeslice-granular, per-phase performance profile, and mines that profile
for resource bottlenecks and performance issues.

Typical use::

    from repro.core import Grade10, ExecutionModel, ResourceModel, RuleMatrix

    model = ExecutionModel("my-framework")
    model.add_phase("/Load")
    model.add_phase("/Execute", after="Load")

    resources = ResourceModel("my-cluster")
    resources.add_consumable("cpu@node0", capacity=16, unit="cores")

    rules = RuleMatrix()
    rules.set_exact("/Execute", "cpu@*", 1.0)

    g10 = Grade10(model, resources, rules)
    profile = g10.characterize(execution_trace, resource_trace)
"""

from .attribution import AttributionResult, ResourceAttribution, attribute
from .bottlenecks import (
    Bottleneck,
    BottleneckKind,
    BottleneckReport,
    find_bottlenecks,
)
from .demand import DemandEstimate, ResourceDemand, estimate_demand
from .baselines import BlockedTimeResult, blocked_time_analysis
from .burstiness import BurstinessScore, analyze_burstiness, burstiness_of
from .recommendations import Recommendation, recommend, render_recommendations
from .skew import GroupSkew, SkewReport, decompose_imbalance, imbalance_timeline
from .validation import ValidationReport, Violation, validate_trace
from .model_io import load_models, save_models
from .critical_path import CriticalPath, critical_path
from .diff import PhaseDelta, ProfileDiff, compare_profiles, diff_to_dict, render_diff
from .drilldown import WindowView, drill_down, drill_into_instance
from .export import profile_to_dict, write_profile_json
from .hierarchy import PhaseSummary, render_phase_tree, summarize
from .inference import InferenceResult, InferredRule, infer_rules
from .invariants import INVARIANTS, InvariantReport, InvariantViolation, check_profile
from .issues import (
    IssueReport,
    PerformanceIssue,
    detect_bottleneck_issues,
    detect_imbalance_issues,
    detect_issues,
)
from .outliers import OutlierGroup, OutlierPhase, OutlierReport, find_outliers
from .phases import ExecutionModel, PhaseType, parent_path, split_path
from .profile import Grade10, PerformanceProfile
from .incremental import (
    DEFAULT_WINDOW_SLICES,
    IncrementalProfile,
    LiveBottleneck,
    WindowSummary,
    cut_windows,
)
from .report import render_report
from .resources import BlockingResource, ConsumableResource, ResourceModel
from .rules import ExactRule, NoneRule, Rule, RuleMatrix, VariableRule
from .simulation import (
    ReplaySimulator,
    SimulationError,
    SimulationResult,
    UnknownInstanceError,
)
from .timeline import TimeGrid, interval_slice_overlap, rasterize_intervals
from .traces import (
    BlockingEvent,
    ExecutionTrace,
    PhaseInstance,
    ResourceMeasurement,
    ResourceTrace,
)
from .upsample import (
    UpsampledResource,
    UpsampledTrace,
    relative_sampling_error,
    upsample,
    upsample_constant,
)

__all__ = [
    "AttributionResult",
    "ResourceAttribution",
    "attribute",
    "Bottleneck",
    "BottleneckKind",
    "BottleneckReport",
    "find_bottlenecks",
    "DemandEstimate",
    "ResourceDemand",
    "estimate_demand",
    "BlockedTimeResult",
    "blocked_time_analysis",
    "BurstinessScore",
    "analyze_burstiness",
    "burstiness_of",
    "Recommendation",
    "recommend",
    "render_recommendations",
    "GroupSkew",
    "SkewReport",
    "decompose_imbalance",
    "imbalance_timeline",
    "ValidationReport",
    "Violation",
    "validate_trace",
    "load_models",
    "save_models",
    "CriticalPath",
    "critical_path",
    "PhaseDelta",
    "ProfileDiff",
    "compare_profiles",
    "diff_to_dict",
    "render_diff",
    "WindowView",
    "drill_down",
    "drill_into_instance",
    "profile_to_dict",
    "write_profile_json",
    "PhaseSummary",
    "render_phase_tree",
    "summarize",
    "InferenceResult",
    "InferredRule",
    "infer_rules",
    "INVARIANTS",
    "InvariantReport",
    "InvariantViolation",
    "check_profile",
    "IssueReport",
    "PerformanceIssue",
    "detect_bottleneck_issues",
    "detect_imbalance_issues",
    "detect_issues",
    "OutlierGroup",
    "OutlierPhase",
    "OutlierReport",
    "find_outliers",
    "ExecutionModel",
    "PhaseType",
    "parent_path",
    "split_path",
    "Grade10",
    "PerformanceProfile",
    "DEFAULT_WINDOW_SLICES",
    "IncrementalProfile",
    "LiveBottleneck",
    "WindowSummary",
    "cut_windows",
    "render_report",
    "BlockingResource",
    "ConsumableResource",
    "ResourceModel",
    "ExactRule",
    "NoneRule",
    "Rule",
    "RuleMatrix",
    "VariableRule",
    "ReplaySimulator",
    "SimulationError",
    "SimulationResult",
    "UnknownInstanceError",
    "TimeGrid",
    "interval_slice_overlap",
    "rasterize_intervals",
    "BlockingEvent",
    "ExecutionTrace",
    "PhaseInstance",
    "ResourceMeasurement",
    "ResourceTrace",
    "UpsampledResource",
    "UpsampledTrace",
    "relative_sampling_error",
    "upsample",
    "upsample_constant",
]
