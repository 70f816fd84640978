"""Trace-replay simulation (paper §III-F).

Grade10 estimates the impact of performance issues by *replaying* the
captured execution trace under a simplified system model:

* each phase instance has a fixed duration (as recorded, or as adjusted by
  an issue detector's what-if scenario);
* there are no delays between phases — an instance starts as soon as all of
  its predecessors have finished;
* precedence constraints come from the execution model's sibling DAGs
  (phase type A → B means every B instance under a parent waits for all A
  instances under the same parent — barrier semantics matching BSP
  frameworks);
* scheduling/locality constraints are honoured: instances of the same type
  under the same parent on the same thread replay sequentially on that
  thread (compute tasks cannot migrate between machines), while instances
  on different threads replay concurrently.

Replaying the unmodified trace yields the baseline simulated makespan; an
issue detector replays with shortened/rebalanced durations and compares.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .. import obs
from .phases import ExecutionModel
from .traces import ExecutionTrace, PhaseInstance

__all__ = [
    "SimulationError",
    "UnknownInstanceError",
    "SimulationResult",
    "ReplaySimulator",
]


class SimulationError(Exception):
    """A replay simulation cannot answer the question it was asked."""


class UnknownInstanceError(SimulationError, KeyError):
    """A schedule lookup named an instance id the simulation never saw.

    Subclasses :class:`KeyError` so existing ``except KeyError`` callers
    keep working; the message names the offending id and the nearest
    known ids.  The CLI maps :class:`SimulationError` to exit code 2,
    like the :class:`~repro.workloads.archive.ArchiveError` family.
    """

    def __init__(self, instance_id: str, known_ids: "list[str] | tuple[str, ...]") -> None:
        near = difflib.get_close_matches(str(instance_id), [str(k) for k in known_ids], n=3)
        hint = f"; nearest known ids: {', '.join(near)}" if near else ""
        message = (
            f"unknown instance id {instance_id!r}: not in the simulated "
            f"schedule ({len(known_ids)} instances){hint}"
        )
        super().__init__(message)
        self.instance_id = instance_id
        self.nearest = tuple(near)

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


@dataclass
class SimulationResult:
    """Outcome of one replay: per-instance schedule and makespan."""

    start: dict[str, float]
    end: dict[str, float]

    @property
    def makespan(self) -> float:
        if not self.end:
            return 0.0
        return max(self.end.values()) - min(self.start.values())

    def _lookup(self, table: dict[str, float], instance_id: str) -> float:
        try:
            return table[instance_id]
        except KeyError:
            raise UnknownInstanceError(instance_id, sorted(self.end)) from None

    def start_of(self, instance_id: str) -> float:
        """Simulated start time of one instance."""
        return self._lookup(self.start, instance_id)

    def end_of(self, instance_id: str) -> float:
        """Simulated end time of one instance."""
        return self._lookup(self.end, instance_id)

    def duration_of(self, instance_id: str) -> float:
        """Simulated duration of one instance."""
        return self._lookup(self.end, instance_id) - self._lookup(self.start, instance_id)


class ReplaySimulator:
    """Replays an execution trace with (optionally adjusted) phase durations.

    The dependency graph is built once from the trace and the execution
    model and compiled into level-scheduled index arrays (level = longest
    predecessor chain); each :meth:`simulate` call is then a handful of
    vectorized sweeps — one scatter-max per level — so what-if scenarios
    are cheap to evaluate in bulk.  The array path replicates a
    per-instance sweep in trace order operation for operation; that sweep
    lives in ``tests/core/oracles.py`` as the reference it is checked
    against.
    """

    def __init__(self, trace: ExecutionTrace, model: ExecutionModel | None = None) -> None:
        self.trace = trace
        self.model = model
        self._order: list[PhaseInstance] = []
        self._preds: dict[str, list[str]] = {}
        self._leaf_cache: dict[str, list[PhaseInstance]] = {}
        self._wait_paths: set[str] = set()
        if model is not None:
            self._wait_paths = {path for path, node in model.root.walk() if node.wait}
        with obs.span("simulate.build", n_instances=len(trace)):
            self._build_dependencies()

    # ------------------------------------------------------------------ #
    # Dependency construction
    # ------------------------------------------------------------------ #
    def _sibling_predecessor_types(self, parent_path: str | None, phase_path: str) -> set[str]:
        """Phase-type paths that must fully precede ``phase_path`` (same parent)."""
        if self.model is None:
            return set()
        name = phase_path.rsplit("/", 1)[-1]
        if parent_path is None:
            node = self.model.root
            prefix = ""
        else:
            try:
                node = self.model[parent_path]
            except KeyError:
                return set()
            prefix = parent_path
        preds: set[str] = set()
        for pred_name, succs in node.successors.items():
            if name in succs:
                preds.add(f"{prefix}/{pred_name}")
        return preds

    def _build_dependencies(self) -> None:
        # Only leaf instances carry durations; parents are aggregates whose
        # precedence relations are projected onto their leaf descendants.
        leaves = [i for i in self.trace.instances() if not self.trace.children_of(i)]
        leaves.sort(key=lambda i: (i.t_start, i.t_end, i.instance_id))
        self._order = leaves

        by_parent: dict[str | None, list[PhaseInstance]] = {}
        for inst in self.trace.instances():
            by_parent.setdefault(inst.parent_id, []).append(inst)

        deps: dict[str, set[str]] = {i.instance_id: set() for i in leaves}

        for parent_id, group in by_parent.items():
            parent_path = None if parent_id is None else self.trace[parent_id].phase_path
            by_type: dict[str, list[PhaseInstance]] = {}
            for inst in group:
                by_type.setdefault(inst.phase_path, []).append(inst)
            for insts in by_type.values():
                insts.sort(key=lambda i: (i.t_start, i.t_end, i.instance_id))

            for phase_path, insts in by_type.items():
                pred_types = self._sibling_predecessor_types(parent_path, phase_path)
                pred_instances = [p for t in pred_types for p in by_type.get(t, [])]
                # Same-location sequencing (no task migration): consecutive
                # same-type instances on the same machine/worker/thread chain
                # up; instances on different locations replay concurrently.
                last_on_key: dict[tuple[str | None, str | None, str | None], PhaseInstance] = {}
                for inst in insts:
                    # Locality: a per-machine phase waits only for same-
                    # machine predecessors (its own worker's pipeline); it
                    # waits for all of them when it has no machine, or when
                    # no predecessor shares its machine (global steps).
                    if inst.machine is not None:
                        local = [p for p in pred_instances if p.machine == inst.machine]
                        effective_preds = local if local else pred_instances
                    else:
                        effective_preds = pred_instances
                    pred_leaf_ids = [
                        leaf.instance_id
                        for p in effective_preds
                        for leaf in self._leaf_descendants(p)
                    ]
                    key = (inst.machine, inst.worker, inst.thread)
                    prev = last_on_key.get(key)
                    if prev is not None:
                        pred_leaf_ids.extend(
                            leaf.instance_id for leaf in self._leaf_descendants(prev)
                        )
                    last_on_key[key] = inst
                    if not pred_leaf_ids:
                        continue
                    for leaf in self._leaf_descendants(inst):
                        deps[leaf.instance_id].update(pred_leaf_ids)

        # Global same-thread sequencing: a named execution thread (core) runs
        # one leaf at a time, even across different parents — concurrent
        # dataflow stages sharing executor cores serialize on them.  This is
        # the "scheduling constraints related to concurrency" of §III-F.
        last_leaf_on_thread: dict[tuple[str, str | None, str], PhaseInstance] = {}
        for inst in leaves:
            if inst.thread is None or inst.machine is None:
                continue
            key = (inst.machine, inst.worker, inst.thread)
            prev = last_leaf_on_thread.get(key)
            if prev is not None:
                deps[inst.instance_id].add(prev.instance_id)
            last_leaf_on_thread[key] = inst

        # Explicit instance-level dependencies (e.g. a dataflow stage DAG),
        # projected onto leaf descendants like the structural ones.
        by_id = {i.instance_id: i for i in self.trace.instances()}
        for inst in self.trace.instances():
            if not inst.depends_on:
                continue
            pred_leaf_ids = [
                leaf.instance_id
                for pid in inst.depends_on
                if pid in by_id
                for leaf in self._leaf_descendants(by_id[pid])
            ]
            if not pred_leaf_ids:
                continue
            for leaf in self._leaf_descendants(inst):
                deps[leaf.instance_id].update(pred_leaf_ids)

        self._preds = {iid: sorted(s) for iid, s in deps.items()}

        # The cheap per-node arrays are built eagerly; the O(edges) level
        # compilation is deferred to the first replay, where its cost is
        # amortized across every what-if scenario the simulator answers.
        self._ids = [inst.instance_id for inst in self._order]
        self._idx = {iid: k for k, iid in enumerate(self._ids)}
        n = len(self._order)
        base = np.zeros(n, dtype=np.float64)
        wait = np.zeros(n, dtype=bool)
        for k, inst in enumerate(self._order):
            if inst.phase_path in self._wait_paths:
                wait[k] = True
            else:
                base[k] = inst.duration
        self._base_dur = base
        self._is_wait = wait
        self._levels_ready = False

    def _compile_levels(self) -> None:
        """Compile the dependency graph into level-scheduled index arrays.

        Nodes are indexed by their position in ``self._order``; an edge is
        kept only when the predecessor precedes the successor in that order
        (the per-instance sweep ignores predecessors whose end time has not been
        computed yet, so the array path must too).  A node's *level* is the
        length of its longest kept predecessor chain; within a level every
        start time can be resolved with one scatter-max over the incoming
        edges, because all predecessor end times are already final.
        """
        n = len(self._order)
        idx = self._idx

        # Flatten the predecessor lists into edge index arrays (the only
        # remaining per-edge Python work is the id -> index translation).
        preds_by_node = [self._preds.get(iid, ()) for iid in self._ids]
        counts = np.fromiter((len(ps) for ps in preds_by_node), dtype=np.intp, count=n)
        flat = [pid for ps in preds_by_node for pid in ps]
        pred = np.fromiter(map(idx.__getitem__, flat), dtype=np.intp, count=len(flat))
        succ = np.repeat(np.arange(n, dtype=np.intp), counts)
        keep = pred < succ
        pred, succ = pred[keep], succ[keep]

        # Longest-chain levels via vectorized Kahn peeling: a node enters
        # the frontier when its last predecessor is removed, i.e. at
        # 1 + max(pred levels).
        indeg = np.bincount(succ, minlength=n).astype(np.intp)
        by_pred = np.argsort(pred, kind="stable")
        out_succ = succ[by_pred]
        out_indptr = np.searchsorted(pred[by_pred], np.arange(n + 1, dtype=np.intp))
        level = np.zeros(n, dtype=np.intp)
        frontier = np.flatnonzero(indeg == 0)
        self._level_nodes: list[np.ndarray] = []
        depth = 0
        while frontier.size:
            self._level_nodes.append(frontier)
            level[frontier] = depth
            depth += 1
            c = out_indptr[frontier + 1] - out_indptr[frontier]
            total = int(c.sum())
            starts = np.repeat(out_indptr[frontier], c)
            within = np.arange(total, dtype=np.intp) - np.repeat(
                np.cumsum(c) - c, c
            )
            succs = out_succ[starts + within]
            np.subtract.at(indeg, succs, 1)
            frontier = np.unique(succs[indeg[succs] == 0])

        # Group the in-edges by the successor's level so _simulate can
        # resolve one contiguous slice per scatter-max sweep.
        by_level = np.argsort(level[succ], kind="stable") if succ.size else succ
        self._edge_pred = pred[by_level]
        self._edge_succ = succ[by_level]
        bounds = np.searchsorted(
            level[self._edge_succ], np.arange(depth + 1, dtype=np.intp)
        )
        self._level_edges: list[tuple[int, int]] = [
            (int(bounds[d]), int(bounds[d + 1])) for d in range(depth)
        ]
        self._levels_ready = True

    def _leaf_descendants(self, inst: PhaseInstance) -> list[PhaseInstance]:
        cached = self._leaf_cache.get(inst.instance_id)
        if cached is not None:
            return cached
        kids = self.trace.children_of(inst)
        if not kids:
            result = [inst]
        else:
            result = [
                d for d in self.trace.descendants_of(inst) if not self.trace.children_of(d)
            ]
        self._leaf_cache[inst.instance_id] = result
        return result

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def simulate(self, durations: Mapping[str, float] | None = None) -> SimulationResult:
        """Replay with optional per-instance duration overrides.

        ``durations`` maps instance id → new duration in seconds; instances
        not in the map keep their recorded duration.  The instance order was
        topologically sorted at construction (observed start times are
        consistent with the dependency graph, since dependencies were
        derived from an actually-observed schedule).
        """
        with obs.span("simulate", n_overrides=0 if durations is None else len(durations)):
            return self._simulate(durations)

    def _simulate(self, durations: Mapping[str, float] | None) -> SimulationResult:
        if not self._levels_ready:
            self._compile_levels()
        dur = self._base_dur.copy()
        if durations:
            for iid, d in durations.items():
                k = self._idx.get(iid)
                # Unknown ids and wait-path instances are ignored, exactly
                # as in the per-instance sweep (wait phases always replay at 0).
                if k is not None and not self._is_wait[k]:
                    dur[k] = d
        np.maximum(dur, 0.0, out=dur)

        n = len(self._ids)
        start = np.zeros(n, dtype=np.float64)
        end = np.zeros(n, dtype=np.float64)
        for nodes, (lo, hi) in zip(self._level_nodes, self._level_edges):
            if hi > lo:
                np.maximum.at(start, self._edge_succ[lo:hi], end[self._edge_pred[lo:hi]])
            end[nodes] = start[nodes] + dur[nodes]
        return SimulationResult(
            start=dict(zip(self._ids, start.tolist())),
            end=dict(zip(self._ids, end.tolist())),
        )

    def baseline(self) -> SimulationResult:
        """Replay with the recorded durations (the comparison baseline)."""
        return self.simulate(None)
