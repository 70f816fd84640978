"""The one lookup from a deployment to its expert models.

Every path that characterizes a run — in memory, from an archive, or
from the run cache — and every cache fingerprint picks the models here,
so the tuned/untuned choice means the same thing everywhere: tuned is the
system's expert rule matrix, untuned the empty :class:`RuleMatrix`
(implicit ``Variable(1×)``, §IV-B).
"""

from __future__ import annotations

from ..core.phases import ExecutionModel
from ..core.resources import ResourceModel
from ..core.rules import RuleMatrix
from ..systems import GiraphRun, PowerGraphRun
from ..systems.sparklike import SparkLikeRun
from .giraph_model import giraph_execution_model, giraph_resource_model, giraph_tuned_rules
from .powergraph_model import (
    powergraph_execution_model,
    powergraph_resource_model,
    powergraph_tuned_rules,
)
from .sparklike_model import (
    sparklike_execution_model,
    sparklike_resource_model,
    sparklike_tuned_rules,
)

__all__ = ["RUN_SYSTEMS", "expert_models"]

#: The system name of each simulated engine's run type.
RUN_SYSTEMS = {GiraphRun: "giraph", PowerGraphRun: "powergraph", SparkLikeRun: "sparklike"}

_MODELS = {
    "giraph": (giraph_execution_model, giraph_resource_model, giraph_tuned_rules),
    "powergraph": (powergraph_execution_model, powergraph_resource_model, powergraph_tuned_rules),
    "sparklike": (sparklike_execution_model, sparklike_resource_model, sparklike_tuned_rules),
}


def expert_models(
    system: str, config, machine_names: list[str], *, tuned: bool = True
) -> tuple[ExecutionModel, ResourceModel, RuleMatrix]:
    """``(execution model, resource model, rules)`` for one deployment of ``system``."""
    try:
        execution_model, resource_model, tuned_rules = _MODELS[system]
    except KeyError:
        raise ValueError(f"unknown system {system!r}; choose from {tuple(_MODELS)}") from None
    rules = tuned_rules(config) if tuned else RuleMatrix()
    return execution_model(), resource_model(config, machine_names), rules
