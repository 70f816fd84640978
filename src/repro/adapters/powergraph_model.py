"""Expert execution/resource models and attribution rules for sim-PowerGraph.

PowerGraph's model differs from Giraph's exactly where the real systems
differ (paper §IV-C): no garbage collector, no stalling message queues —
so no blocking resources at all — and a GAS iteration structure
(Gather → Apply → Scatter → Sync) with per-thread step phases.  The paper
notes its PowerGraph model is "comprehensive and tuned", which is why it
upsamples well even at 64×; the tuned rule matrix below plays that role.
"""

from __future__ import annotations

from ..core.phases import ExecutionModel
from ..core.resources import ResourceModel
from ..core.rules import NoneRule, RuleMatrix
from ..systems.powergraph import PowerGraphConfig

__all__ = [
    "powergraph_execution_model",
    "powergraph_resource_model",
    "powergraph_tuned_rules",
    "powergraph_untuned_rules",
]


def powergraph_execution_model() -> ExecutionModel:
    """The hierarchical phase DAG of the simulated PowerGraph engine."""
    m = ExecutionModel(
        "powergraph-sim",
        "GAS engine: Load -> Execute (iterations of Gather/Apply/Scatter/Sync)",
    )
    m.add_phase("/Load")
    m.add_phase("/Load/LoadWorker", concurrent=True)
    m.add_phase("/Execute", after="Load")
    m.add_phase("/Execute/Iteration", repeatable=True)
    m.add_phase("/Execute/Iteration/Gather", concurrent=True)
    m.add_phase("/Execute/Iteration/Apply", after="Gather", concurrent=True)
    m.add_phase("/Execute/Iteration/Scatter", after="Apply", concurrent=True)
    m.add_phase("/Execute/Iteration/Sync", after="Scatter", concurrent=True)
    m.add_phase(
        "/Execute/Iteration/SyncBarrier",
        after="Sync",
        concurrent=True,
        balanceable=False,  # pure wait
        wait=True,  # elastic in replay
    )
    return m


def powergraph_resource_model(
    config: PowerGraphConfig, machine_names: list[str]
) -> ResourceModel:
    """Per-machine consumables; PowerGraph has no blocking resources."""
    rm = ResourceModel("powergraph-cluster")
    for name in machine_names:
        rm.add_consumable(
            f"cpu@{name}",
            capacity=float(config.threads_per_machine),
            unit="cores",
            description=f"CPU cores of {name}",
        )
        rm.add_consumable(
            f"net@{name}",
            capacity=config.net_bandwidth,
            unit="B/s",
            description=f"egress NIC of {name}",
        )
    return rm


def powergraph_tuned_rules(config: PowerGraphConfig) -> RuleMatrix:
    """The comprehensive tuned matrix (Table II's well-behaved model)."""
    per_thread = 1.0 / config.threads_per_machine
    rules = RuleMatrix(implicit_rule=NoneRule())
    rules.set_exact("/Load/LoadWorker", "cpu@{machine}", per_thread)
    for step in ("Gather", "Apply", "Scatter"):
        rules.set_exact(f"/Execute/Iteration/{step}", "cpu@{machine}", per_thread)
    rules.set_variable("/Execute/Iteration/Sync", "net@{machine}", 1.0)
    return rules


def powergraph_untuned_rules() -> RuleMatrix:
    """No expert rules: the implicit Variable(1x) for every phase."""
    return RuleMatrix()
