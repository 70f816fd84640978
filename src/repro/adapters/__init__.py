"""Adapters connecting the simulated systems to the Grade10 core.

Parsers turn JSONL logs and monitoring CSVs into Grade10 traces; the
model modules are the paper's "expert input": execution models, resource
models, and tuned/untuned attribution rules for every engine;
:func:`expert_models` is the one lookup that picks a deployment's models.
"""

from .expert import RUN_SYSTEMS, expert_models
from .giraph_model import (
    giraph_execution_model,
    giraph_resource_model,
    giraph_tuned_rules,
    giraph_untuned_rules,
)
from .parsing import (
    GC_PHASE_PATH,
    merge_blocking_into_resource_trace,
    parse_execution_trace,
)
from .powergraph_model import (
    powergraph_execution_model,
    powergraph_resource_model,
    powergraph_tuned_rules,
    powergraph_untuned_rules,
)
from .sparklike_model import (
    sparklike_execution_model,
    sparklike_resource_model,
    sparklike_tuned_rules,
)

__all__ = [
    "RUN_SYSTEMS",
    "expert_models",
    "giraph_execution_model",
    "giraph_resource_model",
    "giraph_tuned_rules",
    "giraph_untuned_rules",
    "GC_PHASE_PATH",
    "merge_blocking_into_resource_trace",
    "parse_execution_trace",
    "powergraph_execution_model",
    "powergraph_resource_model",
    "powergraph_tuned_rules",
    "powergraph_untuned_rules",
    "sparklike_execution_model",
    "sparklike_resource_model",
    "sparklike_tuned_rules",
]
