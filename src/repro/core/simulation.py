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
Every scenario of one analysis — the baseline and each what-if — is one
row of a ``(K, n_leaves)`` duration matrix and replays in one batched
pass (:meth:`ReplaySimulator.makespans`; ``simulate_many`` takes the
same scenarios as override mappings).  The graph is built on the
trace's (parent, phase type) group index (``traces._GroupIndex``: its
sibling groups and leaf sets), which the simulator keeps for the what-if
builders and the outlier test.
"""

from __future__ import annotations

import difflib
import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .. import obs
from .phases import ExecutionModel
from .traces import ExecutionTrace, _GroupIndex, _runs

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


class ReplaySimulator:
    """Replays an execution trace with (optionally adjusted) phase durations.

    The dependency graph is built once, from the trace's (parent, phase
    type) group index (built from :meth:`ExecutionTrace.columns`): each
    instance-level relation (barrier predecessors between sibling groups,
    same-location chaining, ``depends_on``) becomes a predecessor *group*
    of leaves, read from the index's leaf CSR, shared by the successors
    attached to it.  A group of two or more leaves feeds each
    successor leaf through one zero-duration *join* node instead of one
    edge per member, so the graph grows with |preds| + |succs| rather than
    their product.  Replay order is the leaves' time order, and a
    successor only waits for predecessors earlier in it: a successor that
    some member of a group does not precede takes direct edges from the
    members that do.

    The edges are compiled into stage-scheduled arrays (a stage is a run
    of consecutive leaves in replay order that depend only on earlier
    stages; a join is resolved with the stage of its last member, so
    joins add no stage).  A replay resolves each stage with one segment
    max (``np.maximum.reduceat``) over its leaves' successor-sorted
    in-edges, then one more for the joins of that stage.
    :meth:`makespans` replays any number of what-if scenarios as the rows
    of one such pass, :meth:`simulate_many` takes them as override
    mappings, and :meth:`simulate` is the one-scenario case.
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
        self, index: _GroupIndex
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Barrier predecessor sets of the sibling groups, and who waits on which.

        The sibling groups are ``index``'s (parent, phase type) groups.
        Returns ``(members, bounds, attach_set, attach_succ)``: set ``k``
        holds instances ``members[bounds[k]:bounds[k + 1]]``, and instance
        ``attach_succ[t]`` waits for set ``attach_set[t]``.  A group's
        predecessors are the instances of its predecessor types under the
        same parent.  Locality: a per-machine phase waits only for the
        same-machine predecessors (its own worker's pipeline); it waits for
        all of them when it has no machine, or when no predecessor shares
        its machine (global steps).
        """
        cols, group, sib, g_ptr = index.columns, index.group, index.members, index.bounds
        n_groups, n_paths = g_ptr.size - 1, len(cols.paths)
        first = sib[g_ptr[:-1]]
        g_parent, g_path = cols.parent[first], cols.path[first]
        # The predecessor types of each distinct (parent type, type) pair,
        # as a CSR of path codes.
        g_ptype = np.where(g_parent >= 0, cols.path[np.maximum(g_parent, 0)], -1)
        kind = (g_ptype + 1) * n_paths + g_path
        kinds = _distinct(kind)
        path_code = {path: c for c, path in enumerate(cols.paths)}
        kind_preds = []
        for key in kinds.tolist():
            parent_code, t = divmod(key, n_paths)
            types = self._sibling_predecessor_types(
                cols.paths[parent_code - 1] if parent_code else None, cols.paths[t]
            )
            kind_preds.append(sorted(path_code[x] for x in types if x in path_code))
        kind_ptr = np.zeros(len(kind_preds) + 1, dtype=np.int64)
        kind_ptr[1:] = np.cumsum([len(c) for c in kind_preds])
        kind_pred = np.array([c for codes in kind_preds for c in codes], dtype=np.int64)
        # Each group waits for the groups of its predecessor types under
        # the same parent; groups are numbered in (parent, type) key order.
        at = np.searchsorted(kinds, kind)
        n_pred_types = kind_ptr[at + 1] - kind_ptr[at]
        succ_g = np.repeat(np.arange(n_groups), n_pred_types)
        g_key = (g_parent + 1) * n_paths + g_path
        want = (g_parent[succ_g] + 1) * n_paths + kind_pred[_ranges(kind_ptr[at], n_pred_types)]
        pred_g = np.minimum(np.searchsorted(g_key, want), max(n_groups - 1, 0))
        found = g_key[pred_g] == want
        succ_g, pred_g = succ_g[found], pred_g[found]
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
        # precedence relations are projected onto their leaf descendants
        # (the index's leaf CSR rows).
        index = self._index = _GroupIndex.of(self.trace.columns())
        cols, group = index.columns, index.group
        order, leaf_ptr, leaf_idx = index.leaves, index.leaf_ptr, index.leaf_idx
        n = order.size

        # Predecessor sets (instance indices) and the instances waiting on
        # them: barrier sets between sibling groups, then same-location
        # chaining (consecutive same-type instances on one
        # machine/worker/thread replay in sequence; no task migration),
        # then explicit ``depends_on`` sets (e.g. a dataflow stage DAG).
        members, bounds, attach_set, attach_succ = self._predecessor_groups(index)
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
        self._sets = (set_ptr, set_leaf, pair_set, pair_succ, thread_pred, thread_succ)
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

        # The cheap per-node arrays are built eagerly; the stage compilation
        # is deferred to the first replay.
        waits = np.array([path in self._wait_paths for path in cols.paths], dtype=bool)
        self._is_wait = waits[cols.path[order]]
        base = index.duration[order]
        base[self._is_wait] = 0.0
        self._base_dur = base
        self._stages: list[tuple] | None = None

    @functools.cached_property
    def _ids(self) -> list[str]:
        """The leaf ids in replay order."""
        ids = self._index.columns.ids
        return [ids[i] for i in self._index.leaves.tolist()]

    def _compile_stages(self) -> None:
        """Compile the graph into stage-scheduled index arrays.

        A *stage* is a run of consecutive leaves in replay order that
        depend only on earlier stages: a leaf opens a new stage when its
        latest predecessor (a join standing for its last member) lies in
        the current one, so one scan of the replay order cuts them.
        Within a stage every leaf start can be resolved at once, because
        all predecessor end times are already final, and then every join
        whose last member is in the stage.  The replay numbers leaves
        stage by stage, those without in-edges first (``_perm`` maps that
        numbering to the replay order), then joins stage by stage after
        all leaves, so each stage is one range of leaf columns, of which
        the leaves with in-edges are the tail, and one range of join
        columns.  Each stage keeps its leaves' in-edge predecessors,
        sorted by successor, its joins' members, sorted by join, and
        where each segment begins.
        """
        n, n_joins = len(self._base_dur), self._n_joins
        pred, succ = self._edges
        join, join_succ = self._join_edges
        member, member_join = self._join_members  # grouped by join
        member_heads = np.searchsorted(member_join, np.arange(n_joins + 1))
        last = np.maximum.reduceat(member, member_heads[:-1]) if n_joins else member_join

        # The latest predecessor leaf of each leaf with in-edges, then the
        # stage cuts, in one scan of the replay order.
        src = np.concatenate((pred, n + join))
        dst = np.concatenate((succ, join_succ))
        by_dst = np.argsort(dst, kind="stable")
        src, dst = src[by_dst], dst[by_dst]
        heads = np.searchsorted(dst, np.arange(n + 1))
        has_in = heads[1:] > heads[:-1]
        latest = np.full(n, -1, dtype=np.int64)
        if src.size:
            latest[has_in] = np.maximum.reduceat(
                np.concatenate((np.arange(n), last))[src], heads[:-1][has_in]
            )
        cuts: list[int] = []
        begin = -1
        for leaf, p in enumerate(latest.tolist()):
            if p >= begin:
                begin = leaf
                cuts.append(leaf)
        cuts.append(n)
        n_stages = len(cuts) - 1
        stage = np.repeat(np.arange(n_stages), np.diff(cuts))

        # Renumber stage by stage (leaves without in-edges first) and
        # joins by the stage of their last member.  Only leaves without
        # in-edges move, so the in-edges stay sorted by successor; the
        # members are sorted by join.  Each stage's share is one slice of
        # each, with segment starts relative to the slice.
        self._perm = np.argsort(2 * stage + has_in, kind="stable")
        join_stage = stage[last]
        join_perm = np.argsort(join_stage, kind="stable")
        rank = np.empty(n + n_joins, dtype=np.int64)
        rank[self._perm] = np.arange(n)
        rank[n + join_perm] = np.arange(n, n + n_joins)
        self._rank = rank[:n]
        edge_src = rank[src]
        heads = np.searchsorted(rank[dst], np.arange(n + 1))
        member_dst = rank[n + member_join]
        by_join = np.argsort(member_dst, kind="stable")
        member_src = rank[member][by_join]
        member_heads = np.searchsorted(member_dst[by_join], np.arange(n, n + n_joins + 1))
        tails = np.searchsorted(
            2 * stage[self._perm] + has_in[self._perm], 2 * np.arange(n_stages) + 1
        )
        join_bounds = np.searchsorted(join_stage[join_perm], np.arange(n_stages + 1))
        heads_in_stage = heads[:-1] - heads[tails][stage[self._perm]]
        member_heads_in_stage = member_heads[:-1] - member_heads[join_bounds[:-1]][
            join_stage[join_perm]
        ]
        heads, tails = heads.tolist(), tails.tolist()
        member_heads, join_bounds = member_heads.tolist(), join_bounds.tolist()
        self._stages = []
        for k in range(n_stages):
            lo, mid, hi = cuts[k], tails[k], cuts[k + 1]
            jlo, jhi = join_bounds[k], join_bounds[k + 1]
            self._stages.append(
                (
                    lo, mid, hi, edge_src[heads[mid] : heads[hi]], heads_in_stage[mid:hi],
                    n + jlo, n + jhi, member_src[member_heads[jlo] : member_heads[jhi]],
                    member_heads_in_stage[jlo:jhi],
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
            set_ptr, set_leaf, pair_set, pair_succ, thread_pred, thread_succ = self._sets
            size = np.diff(set_ptr)[pair_set]
            pred = np.concatenate((set_leaf[_ranges(set_ptr[pair_set], size)], thread_pred))
            succ = np.concatenate((np.repeat(pair_succ, size), thread_succ))
            codes = _distinct(pred * n + succ)
            pred, succ = codes // max(n, 1), codes % max(n, 1)
            id_rank = self._index.columns.id_rank[self._index.leaves]
            by_succ = np.lexsort((id_rank[pred], succ))
            self._pred_order = (
                np.searchsorted(succ[by_succ], np.arange(n + 1, dtype=np.int64)),
                pred[by_succ],
            )
        k = self._leaf_of(instance_id)
        if k < 0:
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
            return self._makespans(self._durations(scenarios))

    def makespans(self, durations: np.ndarray) -> np.ndarray:
        """Makespans of the rows of a ``(K, n_leaves)`` duration matrix.

        Column ``j`` is the ``j``-th leaf in replay order (by start, end
        and id), and row ``k`` gives every leaf's duration under scenario
        ``k``, so a row of :attr:`base_durations` replays the recorded
        trace.  As in :meth:`simulate`, wait-path leaves replay at 0
        whatever their entry and negative durations replay as 0.
        ``makespans(D)[k] == simulate({id: D[k, j] ...}).makespan`` bit
        for bit.
        """
        with obs.span("simulate", n_scenarios=len(durations)):
            dur = np.maximum(durations, 0.0)
            dur[:, self._is_wait] = 0.0
            return self._makespans(dur)

    @property
    def base_durations(self) -> np.ndarray:
        """The recorded duration of every leaf, in replay order (wait paths 0)."""
        return self._base_dur

    def _makespans(self, dur: np.ndarray) -> np.ndarray:
        if not self._base_dur.size:
            return np.zeros(dur.shape[0])
        start, end = self._replay(dur)
        return end.max(axis=1) - start.min(axis=1)

    def _simulate(self, durations: Mapping[str, float] | None) -> SimulationResult:
        start, end = self._replay(self._durations([durations]))
        return SimulationResult(
            start=dict(zip(self._ids, start[0, self._rank].tolist())),
            end=dict(zip(self._ids, end[0, self._rank].tolist())),
        )

    def _leaf_of(self, instance_id: str) -> int:
        """The replay-order position of a leaf (``-1`` for any other id)."""
        i = self._index.columns.position.get(instance_id)
        return -1 if i is None else int(self._index.leaf_position[i])

    def _durations(self, scenarios: Sequence[Mapping[str, float] | None]) -> np.ndarray:
        """The ``(K, n_leaves)`` duration matrix of ``K`` override scenarios."""
        dur = np.repeat(self._base_dur[None, :], len(scenarios), axis=0)
        for k, overrides in enumerate(scenarios):
            if not overrides:
                continue
            cols = np.fromiter(map(self._leaf_of, overrides), dtype=np.int64, count=len(overrides))
            values = np.fromiter(overrides.values(), dtype=np.float64, count=len(overrides))
            # Unknown ids and wait-path instances keep their base duration.
            known = cols >= 0
            known[known] = ~self._is_wait[cols[known]]
            dur[k, cols[known]] = values[known]
        np.maximum(dur, 0.0, out=dur)
        return dur

    def _replay(self, dur: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Start and end times of every leaf under each row of ``dur``.

        Rows are independent scenarios; each stage is one contiguous range
        of leaf columns (leaves numbered stage by stage), and its segment
        max runs along the leaf axis of every row at once, followed by one
        for the stage's join columns, which lie after all leaf columns.
        The returned columns are the leaves' in that stage numbering;
        ``_rank`` maps replay-order positions to it.
        """
        if self._stages is None:
            self._compile_stages()
        dur = dur[:, self._perm]
        n = dur.shape[1]
        start = np.zeros_like(dur)
        end = np.zeros((dur.shape[0], n + self._n_joins))
        for lo, mid, hi, preds, heads, jlo, jhi, members, join_heads in self._stages:
            if preds.size:
                np.maximum.reduceat(end.take(preds, axis=1), heads, axis=1, out=start[:, mid:hi])
            np.add(start[:, lo:hi], dur[:, lo:hi], out=end[:, lo:hi])
            if members.size:
                np.maximum.reduceat(
                    end.take(members, axis=1), join_heads, axis=1, out=end[:, jlo:jhi]
                )
        return start, end[:, :n]

    def baseline(self) -> SimulationResult:
        """Replay with the recorded durations (the comparison baseline)."""
        return self.simulate(None)
