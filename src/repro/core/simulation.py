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
Every scenario of one analysis — the baseline and each what-if — replays
in one batched pass (:meth:`ReplaySimulator.simulate_many`).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Mapping, Sequence

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


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` for each ``(s, c)`` pair."""
    offsets = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(starts - offsets, counts)


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values.

    The same as ``np.unique``, by sorting: NumPy 2.4's hash-based
    ``np.unique`` measured about 20× slower on 60k int64 edge codes.
    """
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))] if values.size else values


def _cross(
    a_ptr: np.ndarray,
    a_idx: np.ndarray,
    b_ptr: np.ndarray,
    b_idx: np.ndarray,
    rows_a: list[int],
    rows_b: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(x, y)`` with ``x`` in CSR row ``rows_a[t]`` of A and ``y`` in
    CSR row ``rows_b[t]`` of B, for every ``t``."""
    rows_a = np.asarray(rows_a, dtype=np.int64)
    rows_b = np.asarray(rows_b, dtype=np.int64)
    na = a_ptr[rows_a + 1] - a_ptr[rows_a]
    nb = b_ptr[rows_b + 1] - b_ptr[rows_b]
    counts = na * nb
    pair = np.repeat(np.arange(len(rows_a), dtype=np.int64), counts)
    within = _ranges(np.zeros(len(rows_a), dtype=np.int64), counts)
    width = nb[pair]
    return (
        a_idx[a_ptr[rows_a][pair] + within // width],
        b_idx[b_ptr[rows_b][pair] + within % width],
    )


class ReplaySimulator:
    """Replays an execution trace with (optionally adjusted) phase durations.

    The dependency graph is built once, on integer instance indices: each
    instance-level relation (barrier predecessors, same-location chaining,
    ``depends_on``) becomes a pair of an instance and a predecessor set
    shared by all its successors, and the pairs expand to leaf × leaf
    edges with ``np.repeat``.  The edges are compiled into level-scheduled
    arrays (level = longest predecessor chain); a replay resolves each
    level with one segment max (``np.maximum.reduceat``) over its
    successor-sorted in-edges.  :meth:`simulate_many` replays any number
    of what-if scenarios as the rows of one such pass, and
    :meth:`simulate` is its one-scenario case.  Max and add are exact per
    element, so every row equals its own replay bit for bit.  The
    dict-based graph builder and the per-instance sweep this replicates
    live in ``tests/core/oracles.py`` as the references they are checked
    against.
    """

    def __init__(self, trace: ExecutionTrace, model: ExecutionModel | None = None) -> None:
        self.trace = trace
        self.model = model
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
        insts = self.trace.instances()
        pos = {inst.instance_id: i for i, inst in enumerate(insts)}
        parent = np.fromiter(
            (-1 if inst.parent_id is None else pos[inst.parent_id] for inst in insts),
            dtype=np.int64,
            count=len(insts),
        )
        is_leaf = np.ones(len(insts), dtype=bool)
        is_leaf[parent[parent >= 0]] = False

        def by_time(i: int) -> tuple[float, float, str]:
            inst = insts[i]
            return (inst.t_start, inst.t_end, inst.instance_id)

        order = sorted(np.flatnonzero(is_leaf).tolist(), key=by_time)
        self._order: list[PhaseInstance] = [insts[i] for i in order]
        n = len(order)

        # Leaf descendants of every instance as CSR rows (a leaf's row is
        # itself): walk each leaf's ancestor chain, then group by ancestor.
        anc = np.asarray(order, dtype=np.int64)
        leaf = np.arange(n, dtype=np.int64)
        ancs, leaves = [], []
        while anc.size:
            ancs.append(anc)
            leaves.append(leaf)
            anc = parent[anc]
            up = anc >= 0
            anc, leaf = anc[up], leaf[up]
        anc = np.concatenate(ancs) if ancs else np.zeros(0, dtype=np.int64)
        by_anc = np.argsort(anc, kind="stable")
        leaf_idx = np.concatenate(leaves)[by_anc] if leaves else anc
        leaf_ptr = np.searchsorted(anc[by_anc], np.arange(len(insts) + 1))

        # Instance-level relations.  A predecessor *set* (instance indices)
        # is registered once and shared by every successor that uses it.
        set_members: list[int] = []
        set_bounds = [0]
        set_rows: list[int] = []
        set_succ: list[int] = []
        chain_pred: list[int] = []
        chain_succ: list[int] = []

        def share(members: list[int]) -> int:
            set_members.extend(members)
            set_bounds.append(len(set_members))
            return len(set_bounds) - 2

        by_parent: dict[str | None, dict[str, list[int]]] = {}
        for i, inst in enumerate(insts):
            by_parent.setdefault(inst.parent_id, {}).setdefault(inst.phase_path, []).append(i)
        for parent_id, by_type in by_parent.items():
            parent_path = None if parent_id is None else self.trace[parent_id].phase_path
            for idxs in by_type.values():
                idxs.sort(key=by_time)
            for phase_path, idxs in by_type.items():
                pred_types = self._sibling_predecessor_types(parent_path, phase_path)
                preds = [p for t in pred_types for p in by_type.get(t, ())]
                if preds:
                    # Locality: a per-machine phase waits only for same-
                    # machine predecessors (its own worker's pipeline); it
                    # waits for all of them when it has no machine, or when
                    # no predecessor shares its machine (global steps).
                    local: dict[str | None, list[int]] = {}
                    for p in preds:
                        local.setdefault(insts[p].machine, []).append(p)
                    shared: dict[str | None, int] = {}
                    for i in idxs:
                        machine = insts[i].machine
                        key = machine if machine is not None and machine in local else None
                        row = shared.get(key)
                        if row is None:
                            row = shared[key] = share(preds if key is None else local[key])
                        set_rows.append(row)
                        set_succ.append(i)
                # Same-location sequencing (no task migration): consecutive
                # same-type instances on the same machine/worker/thread chain
                # up; instances on different locations replay concurrently.
                last_on_key: dict[tuple[str | None, str | None, str | None], int] = {}
                for i in idxs:
                    inst = insts[i]
                    key3 = (inst.machine, inst.worker, inst.thread)
                    prev = last_on_key.get(key3)
                    if prev is not None:
                        chain_pred.append(prev)
                        chain_succ.append(i)
                    last_on_key[key3] = i

        # Explicit instance-level dependencies (e.g. a dataflow stage DAG),
        # projected onto leaf descendants like the structural ones.
        for i, inst in enumerate(insts):
            if inst.depends_on:
                members = [pos[pid] for pid in inst.depends_on if pid in pos]
                if members:
                    set_rows.append(share(members))
                    set_succ.append(i)

        # Global same-thread sequencing: a named execution thread (core) runs
        # one leaf at a time, even across different parents — concurrent
        # dataflow stages sharing executor cores serialize on them.  This is
        # the "scheduling constraints related to concurrency" of §III-F.
        thread_pred: list[int] = []
        thread_succ: list[int] = []
        last_leaf_on_thread: dict[tuple[str, str | None, str], int] = {}
        for k, inst in enumerate(self._order):
            if inst.thread is None or inst.machine is None:
                continue
            key = (inst.machine, inst.worker, inst.thread)
            prev_leaf = last_leaf_on_thread.get(key)
            if prev_leaf is not None:
                thread_pred.append(prev_leaf)
                thread_succ.append(k)
            last_leaf_on_thread[key] = k

        # Project onto leaf pairs: predecessor sets become CSR rows of leaf
        # positions, then every (set, successor) and (instance, successor)
        # pair expands to the cross product of their leaves.
        members = np.asarray(set_members, dtype=np.int64)
        member_counts = leaf_ptr[members + 1] - leaf_ptr[members]
        set_leaf = leaf_idx[_ranges(leaf_ptr[members], member_counts)]
        set_ptr = np.concatenate(([0], np.cumsum(member_counts)))[np.asarray(set_bounds)]
        set_pred, set_leaf_succ = _cross(set_ptr, set_leaf, leaf_ptr, leaf_idx, set_rows, set_succ)
        chain_leaf_pred, chain_leaf_succ = _cross(
            leaf_ptr, leaf_idx, leaf_ptr, leaf_idx, chain_pred, chain_succ
        )
        pred = np.concatenate((set_pred, chain_leaf_pred, np.asarray(thread_pred, dtype=np.int64)))
        succ = np.concatenate(
            (set_leaf_succ, chain_leaf_succ, np.asarray(thread_succ, dtype=np.int64))
        )

        # The replay keeps an edge only when the predecessor precedes the
        # successor in ``_order`` (the per-instance sweep ignores a
        # predecessor whose end time it has not computed yet).  Deduplicate
        # by sorting int64 codes ``pred * n + succ``; the dropped backward
        # edges are kept apart for the critical path's predecessor lists.
        codes = pred * n + succ
        forward = pred < succ
        self._edge_codes = _distinct(codes[forward])
        self._back_codes = _distinct(codes[~forward])
        self._pred_order: tuple[np.ndarray, np.ndarray] | None = None

        # The cheap per-node arrays are built eagerly; the level compilation
        # is deferred to the first replay.
        self._ids = [inst.instance_id for inst in self._order]
        self._idx = {iid: k for k, iid in enumerate(self._ids)}
        self._is_wait = np.fromiter(
            (inst.phase_path in self._wait_paths for inst in self._order), dtype=bool, count=n
        )
        base = np.fromiter((inst.duration for inst in self._order), dtype=np.float64, count=n)
        base[self._is_wait] = 0.0
        self._base_dur = base
        self._levels: list[tuple[int, int, np.ndarray, np.ndarray]] | None = None

    def _compile_levels(self) -> None:
        """Compile the forward edges into level-scheduled index arrays.

        A node's *level* is the length of its longest predecessor chain;
        within a level every start time can be resolved at once, because
        all predecessor end times are already final.  The replay numbers
        nodes level by level (``_perm`` maps that numbering to ``_order``),
        so each level is one contiguous range of columns; every node past
        level 0 has in-edges, so each level keeps the predecessors of its
        in-edges, sorted by successor, and where each successor's segment
        of them begins.
        """
        n = len(self._ids)
        pred = self._edge_codes // max(n, 1)
        succ = self._edge_codes % max(n, 1)

        # Longest-chain levels via vectorized Kahn peeling: a node enters
        # the frontier when its last predecessor is removed, i.e. at
        # 1 + max(pred levels).  The codes are sorted by predecessor, so
        # each node's out-edges are one contiguous run.
        indeg = np.bincount(succ, minlength=n)
        out_ptr = np.searchsorted(pred, np.arange(n + 1, dtype=np.int64))
        level = np.zeros(n, dtype=np.int64)
        depth = 0
        frontier = np.flatnonzero(indeg == 0)
        while frontier.size:
            level[frontier] = depth
            depth += 1
            lo = out_ptr[frontier]
            indeg -= np.bincount(succ[_ranges(lo, out_ptr[frontier + 1] - lo)], minlength=n)
            indeg[frontier] = -1
            frontier = np.flatnonzero(indeg == 0)

        # Renumber level by level, then sort the edges by successor: each
        # level's in-edges are one slice, one segment per successor.
        self._perm = np.argsort(level, kind="stable")
        self._rank = np.empty(n, dtype=np.int64)
        self._rank[self._perm] = np.arange(n)
        pred, succ = self._rank[pred], self._rank[succ]
        by_succ = np.argsort(succ, kind="stable")
        pred, succ = pred[by_succ], succ[by_succ]
        node_bounds = np.searchsorted(level[self._perm], np.arange(depth + 1)).tolist()
        edge_bounds = np.searchsorted(succ, node_bounds).tolist()
        self._levels = [
            (
                node_bounds[d],
                node_bounds[d + 1],
                pred[edge_bounds[d] : edge_bounds[d + 1]],
                np.searchsorted(
                    succ[edge_bounds[d] : edge_bounds[d + 1]],
                    np.arange(node_bounds[d], node_bounds[d + 1]),
                ),
            )
            for d in range(depth)
        ]

    def _predecessor_ids(self, instance_id: str) -> list[str]:
        """One leaf's predecessor ids, unfiltered and sorted by id.

        These are all of the leaf's dependency-graph predecessors, including
        those the replay drops for starting later in ``_order``.  Only
        :func:`~repro.core.critical_path.critical_path` reads them, so the
        successor-major ordering of the edge arrays is built on first use.
        """
        n = len(self._ids)
        if self._pred_order is None:
            codes = np.concatenate((self._edge_codes, self._back_codes))
            pred, succ = codes // max(n, 1), codes % max(n, 1)
            rank = np.empty(n, dtype=np.int64)
            rank[sorted(range(n), key=self._ids.__getitem__)] = np.arange(n)
            by_succ = np.lexsort((rank[pred], succ))
            self._pred_order = (
                np.searchsorted(succ[by_succ], np.arange(n + 1, dtype=np.int64)),
                pred[by_succ],
            )
        k = self._idx.get(instance_id)
        if k is None:
            return []
        ptr, preds = self._pred_order
        return [self._ids[p] for p in preds[ptr[k] : ptr[k + 1]].tolist()]

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def simulate(self, durations: Mapping[str, float] | None = None) -> SimulationResult:
        """Replay with optional per-instance duration overrides.

        ``durations`` maps instance id → new duration in seconds; instances
        not in the map keep their recorded duration.  Unknown ids and
        wait-path instances are ignored (wait phases always replay at 0),
        and negative durations replay as 0.  The instance order was
        topologically sorted at construction (observed start times are
        consistent with the dependency graph, since dependencies were
        derived from an actually-observed schedule).
        """
        with obs.span("simulate", n_overrides=0 if durations is None else len(durations)):
            return self._simulate(durations)

    def simulate_many(self, scenarios: Sequence[Mapping[str, float] | None]) -> np.ndarray:
        """Makespans of several what-if scenarios, replayed in one pass.

        Each scenario is a duration-override mapping as :meth:`simulate`
        takes (``None`` replays the recorded durations).  All ``K``
        scenarios replay together, one row each of a ``(K, n_leaves)``
        matrix, so ``simulate_many(scenarios)[k] ==
        simulate(scenarios[k]).makespan`` bit for bit.
        """
        with obs.span("simulate", n_scenarios=len(scenarios)):
            start, end = self._replay(self._durations(scenarios))
        if not self._ids:
            return np.zeros(len(scenarios))
        return end.max(axis=1) - start.min(axis=1)

    def _simulate(self, durations: Mapping[str, float] | None) -> SimulationResult:
        start, end = self._replay(self._durations([durations]))
        return SimulationResult(
            start=dict(zip(self._ids, start[0, self._rank].tolist())),
            end=dict(zip(self._ids, end[0, self._rank].tolist())),
        )

    def _durations(self, scenarios: Sequence[Mapping[str, float] | None]) -> np.ndarray:
        """The ``(K, n_leaves)`` duration matrix of ``K`` override scenarios."""
        dur = np.repeat(self._base_dur[None, :], len(scenarios), axis=0)
        for k, overrides in enumerate(scenarios):
            if not overrides:
                continue
            cols = np.fromiter(
                (self._idx.get(iid, -1) for iid in overrides), dtype=np.int64, count=len(overrides)
            )
            values = np.fromiter(overrides.values(), dtype=np.float64, count=len(overrides))
            # Unknown ids and wait-path instances keep their base duration.
            known = cols >= 0
            known[known] = ~self._is_wait[cols[known]]
            dur[k, cols[known]] = values[known]
        np.maximum(dur, 0.0, out=dur)
        return dur

    def _replay(self, dur: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Start and end times of every leaf under each row of ``dur``.

        Rows are independent scenarios; each level is one contiguous range
        of columns (leaves numbered level by level), and its segment max
        runs along the leaf axis of every row at once.  The returned
        columns follow that level numbering; ``_rank`` maps ``_order``
        positions to it.
        """
        if self._levels is None:
            self._compile_levels()
        dur = dur[:, self._perm]
        start = np.zeros_like(dur)
        end = np.zeros_like(dur)
        for lo, hi, preds, heads in self._levels:
            if preds.size:
                start[:, lo:hi] = np.maximum.reduceat(end.take(preds, axis=1), heads, axis=1)
            np.add(start[:, lo:hi], dur[:, lo:hi], out=end[:, lo:hi])
        return start, end

    def baseline(self) -> SimulationResult:
        """Replay with the recorded durations (the comparison baseline)."""
        return self.simulate(None)
