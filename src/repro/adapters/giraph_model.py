"""Expert execution/resource models and attribution rules for sim-Giraph.

This module is the "defined once by a domain expert, reused by many users"
input of the paper's Figure 1 (components 4 and 5), written against the
:mod:`repro.systems.giraph` engine:

* the **execution model** is the paper's running example — Load, Execute
  (a sequence of supersteps, each Prepare → {Compute ∥ Communicate} →
  WorkerBarrier), Store — plus a top-level GC phase type used by the tuned
  variant;
* the **resource model** declares per-machine CPU (capacity = cores) and
  NIC (capacity = line rate) consumables plus per-machine ``gc@…`` and
  ``queue@…`` blocking resources;
* the **tuned rule matrix** encodes the insight evaluated in Figure 3:
  an active compute thread always demands exactly one core
  (``Exact 1/#cores``), communication demands the NIC, GC demands most of
  the machine's cores, and barrier waits demand nothing.  The **untuned**
  variant is the implicit ``Variable(1×)``-everywhere matrix.
"""

from __future__ import annotations

from ..core.phases import ExecutionModel
from ..core.resources import ResourceModel
from ..core.rules import NoneRule, RuleMatrix
from ..systems.giraph import GiraphConfig
from .parsing import GC_PHASE_PATH

__all__ = [
    "giraph_execution_model",
    "giraph_resource_model",
    "giraph_tuned_rules",
    "giraph_untuned_rules",
]


def giraph_execution_model() -> ExecutionModel:
    """The hierarchical phase DAG of the simulated Giraph engine."""
    m = ExecutionModel(
        "giraph-sim",
        "BSP engine: Load -> Execute (supersteps) -> Store, with a managed runtime",
    )
    m.add_phase("/Load")
    m.add_phase("/Load/LoadWorker", concurrent=True)
    m.add_phase("/Execute", after="Load")
    m.add_phase("/Execute/Superstep", repeatable=True)
    m.add_phase("/Execute/Superstep/Prepare", concurrent=True)
    m.add_phase("/Execute/Superstep/Compute", after="Prepare", concurrent=True)
    m.add_phase("/Execute/Superstep/Compute/ComputeThread", concurrent=True)
    # Background message sending runs concurrently with Compute; its span is
    # the compute span (elastic in replay), while Flush is the real drain
    # tail that must finish before the barrier releases.
    m.add_phase(
        "/Execute/Superstep/Communicate",
        after="Prepare",
        concurrent=True,
        balanceable=False,
        wait=True,
    )
    m.add_phase("/Execute/Superstep/Flush", after="Compute", concurrent=True)
    m.add_phase(
        "/Execute/Superstep/WorkerBarrier",
        after=("Compute", "Flush"),
        concurrent=True,
        balanceable=False,  # pure wait: no redistributable work
        wait=True,  # elastic in replay: its length is an artifact of the barrier
    )
    m.add_phase("/Store", after="Execute")
    m.add_phase("/Store/StoreWorker", concurrent=True)
    # Stop-the-world collections run concurrently with everything (tuned
    # models instantiate them; untuned parses never create instances).
    m.add_phase(GC_PHASE_PATH, repeatable=True, concurrent=True)
    return m


def giraph_resource_model(config: GiraphConfig, machine_names: list[str]) -> ResourceModel:
    """Per-machine consumable and blocking resources of the deployment."""
    rm = ResourceModel("giraph-cluster")
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
        rm.add_blocking(f"gc@{name}", description=f"stop-the-world GC pauses on {name}")
        rm.add_blocking(f"queue@{name}", description=f"full outbound message queue on {name}")
    return rm


def giraph_tuned_rules(config: GiraphConfig) -> RuleMatrix:
    """The fully tuned attribution-rule matrix (Figure 3b / Table II tuned)."""
    per_thread = 1.0 / config.threads_per_machine
    rules = RuleMatrix(implicit_rule=NoneRule())
    rules.set_exact("/Load/LoadWorker", "cpu@{machine}", per_thread)
    rules.set_exact("/Store/StoreWorker", "cpu@{machine}", per_thread)
    rules.set_variable("/Execute/Superstep/Prepare", "cpu@{machine}", 0.5)
    # The paper's key tuned rule: an active compute thread always uses
    # precisely one CPU core.
    rules.set_exact("/Execute/Superstep/Compute/ComputeThread", "cpu@{machine}", per_thread)
    rules.set_variable("/Execute/Superstep/Communicate", "net@{machine}", 1.0)
    rules.set_variable("/Execute/Superstep/Flush", "net@{machine}", 1.0)
    # GC bursts demand (most of) the machine's cores while they run.
    rules.set_exact(GC_PHASE_PATH, "cpu@{machine}", 0.7)
    return rules


def giraph_untuned_rules() -> RuleMatrix:
    """No expert rules: the implicit Variable(1x) for every phase (§IV-B)."""
    return RuleMatrix()
