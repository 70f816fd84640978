"""Expert models for the Spark-like dataflow engine (§V extension).

The dataflow model is simpler than the graph engines': a Job contains a
DAG of Stage instances (instance-level ``depends_on`` edges, not a static
sibling order); a Stage contains per-core Task phases and per-machine
Shuffle phases.  Tasks demand exactly one core, shuffles demand the NIC.
"""

from __future__ import annotations

from ..core.phases import ExecutionModel
from ..core.resources import ResourceModel
from ..core.rules import NoneRule, RuleMatrix
from ..systems.sparklike import SparkLikeConfig

__all__ = [
    "sparklike_execution_model",
    "sparklike_resource_model",
    "sparklike_tuned_rules",
]


def sparklike_execution_model() -> ExecutionModel:
    """The phase hierarchy of the dataflow engine (Job → Stage → Task/Shuffle)."""
    m = ExecutionModel(
        "sparklike-sim",
        "DAG dataflow engine: Job -> Stage DAG -> Tasks + Shuffle",
    )
    m.add_phase("/Job")
    # Stages are concurrent siblings ordered by instance-level depends_on
    # edges, not by a type-level DAG.
    m.add_phase("/Job/Stage", repeatable=True, concurrent=True)
    m.add_phase("/Job/Stage/Task", concurrent=True)
    m.add_phase("/Job/Stage/Shuffle", concurrent=True)
    return m


def sparklike_resource_model(config: SparkLikeConfig, machine_names: list[str]) -> ResourceModel:
    """Per-machine CPU and NIC consumables (no blocking resources)."""
    rm = ResourceModel("sparklike-cluster")
    for name in machine_names:
        rm.add_consumable(
            f"cpu@{name}", capacity=float(config.cores_per_machine), unit="cores"
        )
        rm.add_consumable(f"net@{name}", capacity=config.net_bandwidth, unit="B/s")
    return rm


def sparklike_tuned_rules(config: SparkLikeConfig) -> RuleMatrix:
    """Tasks demand exactly one core; shuffles demand the NIC."""
    rules = RuleMatrix(implicit_rule=NoneRule())
    rules.set_exact("/Job/Stage/Task", "cpu@{machine}", 1.0 / config.cores_per_machine)
    rules.set_variable("/Job/Stage/Shuffle", "net@{machine}", 1.0)
    return rules
