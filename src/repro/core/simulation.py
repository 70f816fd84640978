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
from .traces import ExecutionTrace, TraceColumns

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


def _runs(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries that repeat the previous entry's key."""
    return np.concatenate(([False], keys[1:] == keys[:-1])) if keys.size else keys.astype(bool)


class ReplaySimulator:
    """Replays an execution trace with (optionally adjusted) phase durations.

    The dependency graph is built once, from the trace's integer-coded
    columns (:meth:`ExecutionTrace.columns`) with ``np.lexsort``: each
    instance-level relation (barrier predecessors, same-location chaining,
    ``depends_on``) becomes a predecessor *group* of leaves shared by the
    successors attached to it.  A group of two or more leaves feeds each
    successor leaf through one zero-duration *join* node instead of one
    edge per member, so the graph grows with |preds| + |succs| rather than
    their product.  Replay order is the leaves' time order, and a
    successor only waits for predecessors earlier in it: a successor that
    some member of a group does not precede takes direct edges from the
    members that do.

    The edges are compiled into level-scheduled arrays (a leaf's level is
    its longest predecessor chain over leaves; a join takes the level of
    its last member, so joins add no level).  A replay resolves each level
    with one segment max (``np.maximum.reduceat``) over its leaves'
    successor-sorted in-edges, then one more for the joins of that level.
    :meth:`simulate_many` replays any number of what-if scenarios as the
    rows of one such pass, and :meth:`simulate` is its one-scenario case.
    Max and add are exact per element, so every row equals its own replay
    bit for bit.  The dict-based graph builder and the per-instance sweep
    this replicates live in ``tests/core/oracles.py`` as the references
    they are checked against.
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

    def _predecessor_groups(
        self, cols: TraceColumns, group: np.ndarray, sib: np.ndarray, g_ptr: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Barrier predecessor sets of the sibling groups, and who waits on which.

        Sibling group ``g`` holds instances ``sib[g_ptr[g]:g_ptr[g + 1]]``
        and ``group`` maps each instance to its group.  Returns
        ``(members, bounds, attach_set, attach_succ)``: set ``k`` holds
        instances ``members[bounds[k]:bounds[k + 1]]``, and instance
        ``attach_succ[t]`` waits for set ``attach_set[t]``.  A group's
        predecessors are the instances of its predecessor types under the
        same parent.  Locality: a per-machine phase waits only for the
        same-machine predecessors (its own worker's pipeline); it waits for
        all of them when it has no machine, or when no predecessor shares
        its machine (global steps).
        """
        n_groups = g_ptr.size - 1
        first = sib[g_ptr[:-1]]
        g_parent, g_path = cols.parent[first].tolist(), cols.path[first].tolist()
        group_of = {key: g for g, key in enumerate(zip(g_parent, g_path))}
        path_code = {path: c for c, path in enumerate(cols.paths)}
        pred_types: dict[tuple[int, int], list[int]] = {}
        pairs: list[tuple[int, int]] = []  # (group, predecessor group)
        for g, (p, t) in enumerate(zip(g_parent, g_path)):
            parent_code = -1 if p < 0 else int(cols.path[p])
            codes = pred_types.get((parent_code, t))
            if codes is None:
                types = self._sibling_predecessor_types(
                    None if p < 0 else cols.paths[parent_code], cols.paths[t]
                )
                codes = pred_types[(parent_code, t)] = sorted(
                    path_code[x] for x in types if x in path_code
                )
            pairs.extend((g, group_of[(p, c)]) for c in codes if (p, c) in group_of)
        succ_g, pred_g = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        counts = g_ptr[pred_g + 1] - g_ptr[pred_g]
        pred = sib[_ranges(g_ptr[pred_g], counts)]  # predecessors, by group
        pred_group = np.repeat(succ_g, counts)

        # One set per (group, machine) that has same-machine predecessors,
        # then one per group holding all of its predecessors.
        n_machines = int(cols.machine.max()) + 1 if cols.machine.size else 0
        on_machine = cols.machine[pred] >= 0
        local_key = (pred_group * n_machines + cols.machine[pred])[on_machine]
        by_key = np.argsort(local_key, kind="stable")
        local_key = local_key[by_key]
        local_sets = local_key[~_runs(local_key)]
        members = np.concatenate((pred[on_machine][by_key], pred))
        bounds = np.concatenate(
            (
                np.searchsorted(local_key, local_sets),
                local_key.size + np.searchsorted(pred_group, np.arange(n_groups + 1)),
            )
        )

        # Every instance of a group with predecessors waits for one set.
        has_pred = np.zeros(n_groups, dtype=bool)
        has_pred[succ_g] = True
        succ = np.flatnonzero(has_pred[group])
        key = group[succ] * n_machines + cols.machine[succ]
        at = np.minimum(np.searchsorted(local_sets, key), max(local_sets.size - 1, 0))
        local = (cols.machine[succ] >= 0) & (local_sets.size > 0)
        local[local] = local_sets[at[local]] == key[local]
        attach_set = np.where(local, at, local_sets.size + group[succ])
        return members, bounds, attach_set, succ

    def _build_dependencies(self) -> None:
        # Only leaf instances carry durations; parents are aggregates whose
        # precedence relations are projected onto their leaf descendants.
        cols = self.trace.columns()
        parent = cols.parent
        is_leaf = np.ones(len(cols), dtype=bool)
        is_leaf[parent[parent >= 0]] = False
        by_time = np.lexsort((cols.id_rank, cols.t_end, cols.t_start))
        order = by_time[is_leaf[by_time]]
        n = order.size

        # Leaf descendants of every instance as CSR rows (a leaf's row is
        # itself): walk each leaf's ancestor chain, then group by ancestor.
        anc = order
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
        leaf_ptr = np.searchsorted(anc[by_anc], np.arange(len(cols) + 1))

        # Sibling groups: the instances of one phase type under one parent,
        # each group in time order.
        sib = np.lexsort((cols.id_rank, cols.t_end, cols.t_start, cols.path, parent))
        new_group = ~(_runs(parent[sib]) & _runs(cols.path[sib]))
        group = np.empty(len(cols), dtype=np.int64)
        group[sib] = np.cumsum(new_group) - 1
        g_ptr = np.append(np.flatnonzero(new_group), len(cols))

        # Predecessor sets (instance indices) and the instances waiting on
        # them: barrier sets, then same-location chaining (consecutive
        # same-type instances on one machine/worker/thread replay in
        # sequence; no task migration), then explicit ``depends_on`` sets
        # (e.g. a dataflow stage DAG).
        members, bounds, attach_set, attach_succ = self._predecessor_groups(cols, group, sib, g_ptr)
        chain = np.lexsort((cols.id_rank, cols.t_end, cols.t_start, cols.location, group))
        chained = (_runs(group[chain]) & _runs(cols.location[chain]))[1:]
        chain_pred, chain_succ = chain[:-1][chained], chain[1:][chained]
        n_sets = bounds.size - 1
        members = np.concatenate((members, chain_pred, cols.depends_idx))
        bounds = np.concatenate(
            (
                bounds,
                bounds[-1] + np.arange(1, chain_pred.size + 1),
                bounds[-1] + chain_pred.size + cols.depends_ptr[1:],
            )
        )
        attach_set = np.concatenate(
            (
                attach_set,
                n_sets + np.arange(chain_pred.size),
                n_sets + chain_pred.size + np.arange(cols.depends_row.size),
            )
        )
        attach_succ = np.concatenate((attach_succ, chain_succ, cols.depends_row))

        # Project onto leaves: sets become CSR rows of leaf positions, and
        # every attachment pairs its set with each leaf of its successor.
        counts = leaf_ptr[members + 1] - leaf_ptr[members]
        set_leaf = leaf_idx[_ranges(leaf_ptr[members], counts)]
        set_ptr = np.concatenate(([0], np.cumsum(counts)))[bounds]
        size = np.diff(set_ptr)
        counts = leaf_ptr[attach_succ + 1] - leaf_ptr[attach_succ]
        pair_set = np.repeat(attach_set, counts)
        pair_succ = leaf_idx[_ranges(leaf_ptr[attach_succ], counts)]

        # Global same-thread sequencing: a named execution thread (core) runs
        # one leaf at a time, even across different parents — concurrent
        # dataflow stages sharing executor cores serialize on them.  This is
        # the "scheduling constraints related to concurrency" of §III-F.
        on_thread = np.flatnonzero(cols.threaded[order])
        on_thread = on_thread[np.argsort(cols.location[order[on_thread]], kind="stable")]
        same_thread = _runs(cols.location[order[on_thread]])[1:]
        thread_pred, thread_succ = on_thread[:-1][same_thread], on_thread[1:][same_thread]
        # Kept for the critical path's predecessor lists.
        self._groups = (set_ptr, set_leaf, pair_set, pair_succ, thread_pred, thread_succ)
        self._pred_order: tuple[np.ndarray, np.ndarray] | None = None

        # The replay keeps an edge only when the predecessor precedes the
        # successor in the replay order (the per-instance sweep ignores a
        # predecessor whose end time it has not computed yet).  A pair whose
        # whole set of two or more leaves precedes the successor goes
        # through the set's join; any other pair becomes direct edges from
        # the members that precede the successor.  ``last`` is each set's
        # last leaf in replay order; the sets of sibling groups without
        # predecessors are empty and never attached, and the -1 pad keeps
        # their segment starts in range.
        last = np.maximum.reduceat(np.append(set_leaf, -1), set_ptr[:-1]) if size.size else size
        joined = (size[pair_set] > 1) & (last[pair_set] < pair_succ)
        direct_set, direct_succ = pair_set[~joined], pair_succ[~joined]
        pred = np.concatenate(
            (set_leaf[_ranges(set_ptr[direct_set], size[direct_set])], thread_pred)
        )
        succ = np.concatenate((np.repeat(direct_succ, size[direct_set]), thread_succ))
        forward = pred < succ
        codes = _distinct(pred[forward] * n + succ[forward])
        self._edges = (codes // max(n, 1), codes % max(n, 1))
        join_sets = _distinct(pair_set[joined])
        self._join_edges = (np.searchsorted(join_sets, pair_set[joined]), pair_succ[joined])
        self._join_members = (
            set_leaf[_ranges(set_ptr[join_sets], size[join_sets])],
            np.repeat(np.arange(join_sets.size, dtype=np.int64), size[join_sets]),
        )
        self._n_joins = join_sets.size

        # The cheap per-node arrays are built eagerly; the level compilation
        # is deferred to the first replay.
        self._ids = [cols.ids[i] for i in order.tolist()]
        self._idx = {iid: k for k, iid in enumerate(self._ids)}
        self._id_rank = cols.id_rank[order]
        waits = np.array([path in self._wait_paths for path in cols.paths], dtype=bool)
        self._is_wait = waits[cols.path[order]]
        base = cols.t_end[order] - cols.t_start[order]
        base[self._is_wait] = 0.0
        self._base_dur = base
        self._levels: list[tuple] | None = None

    def _compile_levels(self) -> None:
        """Compile the graph into level-scheduled index arrays.

        A leaf's *level* is the length of its longest predecessor chain
        over leaves, and a join's is that of its last member; within a
        level every leaf start can be resolved at once, because all
        predecessor end times are already final, and then every join of
        the level.  The replay numbers leaves level by level (``_perm``
        maps that numbering to the replay order), then joins level by
        level after all leaves, so each level is one contiguous range of
        leaf columns and one of join columns.  Every leaf past level 0 has
        in-edges and every join has members, so each level keeps its
        leaves' in-edge predecessors, sorted by successor, its joins'
        members, sorted by join, and where each segment begins.
        """
        n, n_joins = len(self._ids), self._n_joins
        pred, succ = self._edges
        join, join_succ = self._join_edges
        member, member_join = self._join_members

        # Longest-chain levels via vectorized Kahn peeling over one node
        # numbering (leaves, then joins at n + join): a leaf enters the
        # frontier when its last in-edge is removed, i.e. at 1 + max(pred
        # levels); a join is ready once its last member is peeled, and
        # takes that member's level.
        src = np.concatenate((pred, member, n + join))
        dst = np.concatenate((succ, n + member_join, join_succ))
        indeg = np.bincount(dst, minlength=n + n_joins)
        level = np.zeros(n + n_joins, dtype=np.int64)
        peeling = np.zeros(n + n_joins, dtype=bool)

        def peel(nodes: np.ndarray, depth: int) -> None:
            level[nodes] = depth
            indeg[nodes] = -1
            peeling[nodes] = True
            hit = dst[peeling[src]]  # the out-edges of ``nodes``
            np.subtract(indeg, np.bincount(hit, minlength=n + n_joins), out=indeg)
            peeling[nodes] = False

        depth = 0
        frontier = np.flatnonzero(indeg[:n] == 0)
        while frontier.size:
            peel(frontier, depth)
            ready = np.flatnonzero(indeg[n:] == 0)  # joins whose last member was peeled
            if ready.size:
                peel(n + ready, depth)
            frontier = np.flatnonzero(indeg[:n] == 0)
            depth += 1

        # Renumber level by level, leaves then joins, and sort the in-edges
        # by successor and the members by join: each level's share is one
        # slice of each, one segment per successor or join.
        self._perm = np.argsort(level[:n], kind="stable")
        join_perm = n + np.argsort(level[n:], kind="stable")
        rank = np.empty(n + n_joins, dtype=np.int64)
        rank[self._perm] = np.arange(n)
        rank[join_perm] = np.arange(n, n + n_joins)
        self._rank = rank[:n]
        leaf_perm = self._perm
        edge_src = np.concatenate((rank[pred], rank[n + join]))
        edge_dst = np.concatenate((rank[succ], rank[join_succ]))
        by_dst = np.argsort(edge_dst, kind="stable")
        edge_src = edge_src[by_dst]
        heads = np.searchsorted(edge_dst[by_dst], np.arange(n + 1))
        member_dst = rank[n + member_join]
        by_join = np.argsort(member_dst, kind="stable")
        member_src = rank[member][by_join]
        member_heads = np.searchsorted(member_dst[by_join], np.arange(n, n + n_joins + 1))
        leaf_bounds = np.searchsorted(level[leaf_perm], np.arange(depth + 1)).tolist()
        join_bounds = np.searchsorted(level[join_perm], np.arange(depth + 1)).tolist()
        self._levels = []
        for d in range(depth):
            lo, hi = leaf_bounds[d], leaf_bounds[d + 1]
            jlo, jhi = join_bounds[d], join_bounds[d + 1]
            self._levels.append(
                (
                    lo, hi, edge_src[heads[lo] : heads[hi]], heads[lo:hi] - heads[lo],
                    n + jlo, n + jhi, member_src[member_heads[jlo] : member_heads[jhi]],
                    member_heads[jlo:jhi] - member_heads[jlo],
                )
            )

    def _predecessor_ids(self, instance_id: str) -> list[str]:
        """One leaf's predecessor ids, unfiltered and sorted by id.

        These are all of the leaf's dependency-graph predecessors, including
        those the replay drops for starting later in the replay order, each
        group's members listed one by one.  Only
        :func:`~repro.core.critical_path.critical_path` reads them, so the
        leaf pairs are expanded from the groups on first use.
        """
        n = len(self._ids)
        if self._pred_order is None:
            set_ptr, set_leaf, pair_set, pair_succ, thread_pred, thread_succ = self._groups
            size = np.diff(set_ptr)[pair_set]
            pred = np.concatenate((set_leaf[_ranges(set_ptr[pair_set], size)], thread_pred))
            succ = np.concatenate((np.repeat(pair_succ, size), thread_succ))
            codes = _distinct(pred * n + succ)
            pred, succ = codes // max(n, 1), codes % max(n, 1)
            by_succ = np.lexsort((self._id_rank[pred], succ))
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
        of leaf columns (leaves numbered level by level), and its segment
        max runs along the leaf axis of every row at once, followed by one
        for the level's join columns, which lie after all leaf columns.
        The returned columns are the leaves' in that level numbering;
        ``_rank`` maps replay-order positions to it.
        """
        if self._levels is None:
            self._compile_levels()
        dur = dur[:, self._perm]
        n = dur.shape[1]
        start = np.zeros_like(dur)
        end = np.zeros((dur.shape[0], n + self._n_joins))
        for lo, hi, preds, heads, jlo, jhi, members, join_heads in self._levels:
            if preds.size:
                start[:, lo:hi] = np.maximum.reduceat(end.take(preds, axis=1), heads, axis=1)
            np.add(start[:, lo:hi], dur[:, lo:hi], out=end[:, lo:hi])
            if members.size:
                end[:, jlo:jhi] = np.maximum.reduceat(end.take(members, axis=1), join_heads, axis=1)
        return start, end[:, :n]

    def baseline(self) -> SimulationResult:
        """Replay with the recorded durations (the comparison baseline)."""
        return self.simulate(None)
