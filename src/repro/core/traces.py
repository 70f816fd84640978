"""Execution and resource traces (paper §III-C).

Traces describe *one particular run* of a workload, as opposed to the models
which describe the framework:

* The **execution trace** is the set of phase instances observed in the run —
  each a concrete occurrence of an execution-model phase type with a start
  and end time, a location (machine / worker / thread), and the blocking
  events that interrupted it.
* The **resource trace** holds, per consumable resource, the coarse-grained
  monitoring measurements (average consumption rate over multi-timeslice
  windows), and per blocking resource the list of blocking events.

The two traces deliberately have different granularity: execution logs are
cheap to produce at fine granularity, monitoring is not.  The resource
attribution stage (:mod:`repro.core.attribution`) bridges the gap by
upsampling.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .phases import PATH_SEPARATOR
from .timeline import TimeGrid, rasterize_intervals, rasterize_rows

__all__ = [
    "BlockingEvent",
    "PhaseInstance",
    "TraceColumns",
    "ExecutionTrace",
    "ResourceMeasurement",
    "ResourceTrace",
]


@dataclass(frozen=True)
class BlockingEvent:
    """An interval during which a blocking resource halted a phase instance."""

    resource: str
    t_start: float
    t_end: float

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise ValueError(f"blocking event ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass
class PhaseInstance:
    """One concrete execution of a phase type.

    Parameters
    ----------
    instance_id:
        Unique identifier within the trace.
    phase_path:
        Path of the phase type in the execution model.
    t_start, t_end:
        Wall-clock interval of the instance (seconds).
    parent_id:
        Identifier of the enclosing instance, or ``None`` for top-level
        phases.
    machine, worker, thread:
        Location attributes; used for rule placeholders, locality
        constraints in the replay simulator, and imbalance grouping.
    blocking:
        Blocking events that interrupted this instance.  A phase is *active*
        when started, not yet ended, and not blocked.
    depends_on:
        Explicit instance-level predecessors, for systems whose dependency
        structure is per-instance rather than per-type (e.g. the stage DAG
        of a Spark-like dataflow job, the paper's §V extension target).
        These are honoured by the replay simulator in addition to the
        execution model's type-level sibling DAG.
    """

    instance_id: str
    phase_path: str
    t_start: float
    t_end: float
    parent_id: str | None = None
    machine: str | None = None
    worker: str | None = None
    thread: str | None = None
    blocking: list[BlockingEvent] = field(default_factory=list)
    depends_on: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise ValueError(
                f"phase instance {self.instance_id!r} ends before it starts "
                f"({self.t_start} .. {self.t_end})"
            )

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def phase_name(self) -> str:
        return self.phase_path.rsplit(PATH_SEPARATOR, 1)[-1]

    def encloses(self, other: "PhaseInstance", *, tol: float = 0.0) -> bool:
        """True when ``other``'s interval lies within this instance's interval.

        The hierarchy invariant every well-formed trace satisfies: a child
        runs inside its parent.  ``tol`` admits boundary round-off.
        """
        return (
            other.t_start >= self.t_start - tol and other.t_end <= self.t_end + tol
        )

    def blocked_time(self, resource: str | None = None) -> float:
        """Total time this instance spent blocked (optionally on one resource).

        Overlapping blocking events on *different* resources are counted once
        per resource; callers computing "any blocked" time should use
        :meth:`blocked_intervals`.
        """
        return sum(b.duration for b in self.blocking if resource is None or b.resource == resource)

    def blocked_intervals(self) -> list[tuple[float, float]]:
        """Union of all blocking intervals, merged and clipped to the instance."""
        ivs = sorted(
            (max(b.t_start, self.t_start), min(b.t_end, self.t_end))
            for b in self.blocking
            if b.t_end > self.t_start and b.t_start < self.t_end
        )
        merged: list[tuple[float, float]] = []
        for s, e in ivs:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        return merged

    def active_intervals(self) -> list[tuple[float, float]]:
        """Sub-intervals of ``[t_start, t_end)`` during which the phase is active."""
        out: list[tuple[float, float]] = []
        cursor = self.t_start
        for s, e in self.blocked_intervals():
            if s > cursor:
                out.append((cursor, s))
            cursor = max(cursor, e)
        if self.t_end > cursor:
            out.append((cursor, self.t_end))
        return out

    def add_blocking(self, resource: str, t_start: float, t_end: float) -> None:
        """Record a blocking interval on ``resource`` for this instance."""
        self.blocking.append(BlockingEvent(resource, t_start, t_end))


def _runs(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries that repeat the previous entry's key."""
    return np.concatenate(([False], keys[1:] == keys[:-1])) if keys.size else keys.astype(bool)


def _codes(values: list) -> tuple[list, np.ndarray]:
    """The distinct ``values`` in order of first appearance, and the
    position of each value among them."""
    code: dict = {}
    at = [code.setdefault(value, len(code)) for value in values]
    return list(code), np.array(at, dtype=np.int64)


@dataclass(frozen=True)
class TraceColumns:
    """An execution trace as arrays, one entry per instance in insertion order.

    Strings become integer codes numbered by first appearance: ``path[i]``
    indexes ``paths``; ``machine[i]`` codes the machine (``-1`` for
    ``None``); ``worker[i]`` codes the ``(machine, worker)`` pair and
    ``location[i]`` the ``(machine, worker, thread)`` triple, with
    ``None`` a value like any other.  ``threaded[i]`` is true
    when both machine and thread are set.  ``parent[i]`` is the parent's
    index (``-1`` for a root) and ``id_rank[i]`` the rank of the instance
    id in sorted order.  ``depends_row`` lists the instances with at least
    one ``depends_on`` id in the trace; row ``k`` of the CSR pair
    ``depends_ptr``/``depends_idx`` holds the indices of those ids, in
    ``depends_on`` order.  ``position`` maps each id to its index.
    """

    ids: list[str]
    position: dict[str, int]
    paths: list[str]
    path: np.ndarray
    parent: np.ndarray
    machine: np.ndarray
    worker: np.ndarray
    location: np.ndarray
    threaded: np.ndarray
    t_start: np.ndarray
    t_end: np.ndarray
    id_rank: np.ndarray
    depends_row: np.ndarray
    depends_ptr: np.ndarray
    depends_idx: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class _GroupIndex:
    """A trace's (parent, phase type) groups and its instances' leaf descendants.

    Built once from :meth:`ExecutionTrace.columns`; ``columns`` keeps
    those columns and ``duration[i]`` is instance ``i``'s ``t_end -
    t_start``.  Group ``g`` holds instances ``members[bounds[g]:bounds[g
    + 1]]`` in insertion order, groups are numbered by (parent index,
    phase-type code), and ``group[i]`` is instance ``i``'s group.  They
    are the concurrent groups of the paper's imbalance and outlier
    analyses (§III-F, §IV-D) and the sibling groups of the replay graph.

    ``leaves`` lists the instances without children in replay order (by
    start, end and id), and ``leaf_position[i]`` is instance ``i``'s
    position there (``-1`` for an inner instance).  Row ``i`` of the CSR
    pair ``leaf_ptr``/``leaf_idx`` holds the positions of instance
    ``i``'s leaf descendants in replay order; a leaf's row is itself.
    """

    columns: TraceColumns
    duration: np.ndarray
    group: np.ndarray
    members: np.ndarray
    bounds: np.ndarray
    leaves: np.ndarray
    leaf_position: np.ndarray
    leaf_ptr: np.ndarray
    leaf_idx: np.ndarray

    @classmethod
    def of(cls, cols: TraceColumns) -> "_GroupIndex":
        """The index of the trace ``cols`` was taken from."""
        n = len(cols)
        parent = cols.parent
        key = (parent + 1) * max(len(cols.paths), 1) + cols.path
        members = np.argsort(key, kind="stable")
        new_group = ~_runs(key[members])
        group = np.empty(n, dtype=np.int64)
        group[members] = np.cumsum(new_group) - 1

        is_leaf = np.ones(n, dtype=bool)
        is_leaf[parent[parent >= 0]] = False
        by_time = np.lexsort((cols.id_rank, cols.t_end, cols.t_start))
        leaves = by_time[is_leaf[by_time]]
        leaf_position = np.full(n, -1, dtype=np.int64)
        leaf_position[leaves] = np.arange(leaves.size)
        # Walk each leaf's ancestor chain, then group the pairs by ancestor.
        anc, leaf = leaves, np.arange(leaves.size, dtype=np.int64)
        ancs, descs = [], []
        while anc.size:
            ancs.append(anc)
            descs.append(leaf)
            anc = parent[anc]
            up = anc >= 0
            anc, leaf = anc[up], leaf[up]
        anc = np.concatenate(ancs) if ancs else np.zeros(0, dtype=np.int64)
        by_anc = np.argsort(anc, kind="stable")
        return cls(
            columns=cols,
            duration=cols.t_end - cols.t_start,
            group=group,
            members=members,
            bounds=np.append(np.flatnonzero(new_group), n),
            leaves=leaves,
            leaf_position=leaf_position,
            leaf_ptr=np.searchsorted(anc[by_anc], np.arange(n + 1)),
            leaf_idx=np.concatenate(descs)[by_anc] if descs else anc,
        )


class ExecutionTrace:
    """The set of phase instances observed in one run."""

    def __init__(self) -> None:
        self._instances: dict[str, PhaseInstance] = {}
        self._children: dict[str | None, list[str]] = {}
        self._id_counter = itertools.count()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(self, instance: PhaseInstance) -> PhaseInstance:
        """Add a fully built instance (parents must be added first)."""
        if instance.instance_id in self._instances:
            raise ValueError(f"duplicate instance id {instance.instance_id!r}")
        if instance.parent_id is not None and instance.parent_id not in self._instances:
            raise ValueError(
                f"parent {instance.parent_id!r} of {instance.instance_id!r} not in trace"
            )
        self._instances[instance.instance_id] = instance
        self._children.setdefault(instance.parent_id, []).append(instance.instance_id)
        return instance

    def record(
        self,
        phase_path: str,
        t_start: float,
        t_end: float,
        *,
        parent: PhaseInstance | str | None = None,
        machine: str | None = None,
        worker: str | None = None,
        thread: str | None = None,
        instance_id: str | None = None,
        depends_on: list[str] | None = None,
    ) -> PhaseInstance:
        """Create, add, and return a new phase instance."""
        parent_id = parent.instance_id if isinstance(parent, PhaseInstance) else parent
        if instance_id is None:
            instance_id = f"{phase_path}#{next(self._id_counter)}"
        return self.add(
            PhaseInstance(
                instance_id=instance_id,
                phase_path=phase_path,
                t_start=t_start,
                t_end=t_end,
                parent_id=parent_id,
                machine=machine,
                worker=worker,
                thread=thread,
                depends_on=list(depends_on) if depends_on else [],
            )
        )

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def __getitem__(self, instance_id: str) -> PhaseInstance:
        return self._instances[instance_id]

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._instances

    def __len__(self) -> int:
        return len(self._instances)

    def instances(self, phase_path: str | None = None) -> list[PhaseInstance]:
        """All instances, optionally filtered to one phase type."""
        if phase_path is None:
            return list(self._instances.values())
        return [i for i in self._instances.values() if i.phase_path == phase_path]

    def children_of(self, instance: PhaseInstance | str | None) -> list[PhaseInstance]:
        """Direct child instances (pass ``None`` for top-level instances)."""
        key = instance.instance_id if isinstance(instance, PhaseInstance) else instance
        return [self._instances[i] for i in self._children.get(key, [])]

    def roots(self) -> list[PhaseInstance]:
        """Top-level instances (no parent)."""
        return self.children_of(None)

    def descendants_of(self, instance: PhaseInstance | str) -> list[PhaseInstance]:
        """All transitive descendants, depth-first."""
        out: list[PhaseInstance] = []
        stack = list(reversed(self.children_of(instance)))
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(self.children_of(node)))
        return out

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def t_start(self) -> float:
        if not self._instances:
            return 0.0
        return min(i.t_start for i in self._instances.values())

    @property
    def t_end(self) -> float:
        if not self._instances:
            return 0.0
        return max(i.t_end for i in self._instances.values())

    @property
    def makespan(self) -> float:
        return self.t_end - self.t_start

    def grid(self, slice_duration: float) -> TimeGrid:
        """The timeslice grid covering this trace."""
        return TimeGrid.covering(self.t_start, self.t_end, slice_duration)

    def activity_fraction(self, instance: PhaseInstance, grid: TimeGrid) -> np.ndarray:
        """Per-slice fraction of each slice during which ``instance`` is active."""
        ivs = instance.active_intervals()
        if not ivs:
            return np.zeros(grid.n_slices)
        arr = np.asarray(ivs, dtype=np.float64)
        return rasterize_intervals(grid, arr[:, 0], arr[:, 1])

    def attributable_instances(self, grid: TimeGrid) -> list[tuple[PhaseInstance, np.ndarray]]:
        """``(instance, active_fraction_per_slice)`` pairs of attributable instances.

        An instance is attributable during the parts of its lifetime when
        none of its children are active: inner phases' resource usage is the
        roll-up of their descendants, so attributing to both a parent and
        its running child would double-count.  Only pairs with strictly
        positive activity somewhere are returned, in insertion order.
        Each array is a row of :meth:`attributable_activity`'s matrix.
        """
        return list(zip(*self.attributable_activity(grid)))

    def attributable_activity(self, grid: TimeGrid) -> tuple[list[PhaseInstance], np.ndarray]:
        """The attributable instances and their activity as one matrix.

        Returns the instances of :meth:`attributable_instances` and a
        C-contiguous ``(n_instances, n_slices)`` matrix whose row ``i`` is
        the active fraction of instance ``i``.

        Every instance's active intervals are rasterized in one batched
        sweep (:func:`~repro.core.timeline.rasterize_rows`); one
        ``np.add.at`` scatter then sums each parent's child activity in
        insertion order, and ``clip(raw - children, 0, 1)`` applies only
        where children exist.
        """
        insts = list(self._instances.values())
        n = len(insts)
        if n == 0:
            return [], np.zeros((0, grid.n_slices))
        row_of = {inst.instance_id: r for r, inst in enumerate(insts)}
        # An instance without blocking events is active over its whole
        # (non-empty) interval; the others' intervals come from
        # :meth:`PhaseInstance.active_intervals`, each row's in order.
        t_start = np.fromiter((inst.t_start for inst in insts), np.float64, n)
        t_end = np.fromiter((inst.t_end for inst in insts), np.float64, n)
        blocked = [r for r, inst in enumerate(insts) if inst.blocking]
        whole = t_end > t_start
        whole[blocked] = False
        rows = np.flatnonzero(whole)
        b_rows: list[int] = []
        b_starts: list[float] = []
        b_ends: list[float] = []
        for r in blocked:
            for s, e in insts[r].active_intervals():
                b_rows.append(r)
                b_starts.append(s)
                b_ends.append(e)
        raw = rasterize_rows(
            grid,
            np.concatenate((rows, np.asarray(b_rows, dtype=np.int64))),
            np.concatenate((t_start[rows], np.asarray(b_starts, dtype=np.float64))),
            np.concatenate((t_end[rows], np.asarray(b_ends, dtype=np.float64))),
            n,
        )
        parent = np.fromiter(
            (row_of[i.parent_id] if i.parent_id is not None else -1 for i in insts),
            dtype=np.int64,
            count=n,
        )
        child_sum = np.zeros_like(raw)
        has_child = np.zeros(n, dtype=bool)
        is_kid = parent >= 0
        if np.any(is_kid):
            np.add.at(child_sum, parent[is_kid], raw[is_kid])
            has_child[parent[is_kid]] = True
        attr = np.where(has_child[:, None], np.clip(raw - child_sum, 0.0, 1.0), raw)
        keep = np.flatnonzero((attr > 0.0).any(axis=1))
        return [insts[r] for r in keep.tolist()], attr[keep]

    def columns(self) -> TraceColumns:
        """The trace as integer-coded columns (:class:`TraceColumns`).

        Built fresh on every call, so it always reflects the instances as
        they are now.
        """
        insts = list(self._instances.values())
        ids = list(self._instances)
        n = len(ids)
        position = dict(zip(ids, range(n)))
        paths, path = _codes(list(map(attrgetter("phase_path"), insts)))
        # Machine codes and the thread flag follow from each distinct location.
        locations, location = _codes(list(map(attrgetter("machine", "worker", "thread"), insts)))
        machines = [m for m in dict.fromkeys(m for m, _, _ in locations) if m is not None]
        machine_code = dict(zip(machines, range(len(machines))))
        machine_code[None] = -1
        machine_of = np.array([machine_code[m] for m, _, _ in locations], dtype=np.int64)
        worker_of = _codes([(m, w) for m, w, _ in locations])[1]
        threaded_of = np.array(
            [m is not None and t is not None for m, _, t in locations], dtype=bool
        )
        id_rank = np.empty(n, dtype=np.int64)
        id_rank[sorted(range(n), key=ids.__getitem__)] = np.arange(n)
        depends_row: list[int] = []
        depends_idx: list[int] = []
        depends_ptr = [0]
        for r, inst in enumerate(insts):
            if inst.depends_on:
                members = [position[d] for d in inst.depends_on if d in position]
                if members:
                    depends_row.append(r)
                    depends_idx.extend(members)
                    depends_ptr.append(len(depends_idx))
        return TraceColumns(
            ids=ids,
            position=position,
            paths=paths,
            path=path,
            parent=np.fromiter(
                map(position.get, map(attrgetter("parent_id"), insts), itertools.repeat(-1)),
                np.int64,
                n,
            ),
            machine=machine_of[location],
            worker=worker_of[location],
            location=location,
            threaded=threaded_of[location],
            t_start=np.fromiter(map(attrgetter("t_start"), insts), np.float64, n),
            t_end=np.fromiter(map(attrgetter("t_end"), insts), np.float64, n),
            id_rank=id_rank,
            depends_row=np.array(depends_row, dtype=np.int64),
            depends_ptr=np.array(depends_ptr, dtype=np.int64),
            depends_idx=np.array(depends_idx, dtype=np.int64),
        )

    def concurrent_groups(self) -> dict[tuple[str | None, str], list[PhaseInstance]]:
        """Group instances by (parent, phase type).

        These groups are the unit of the paper's imbalance analysis: only
        work performed by concurrent phases of the same type under the same
        parent is considered interchangeable (§III-F).
        """
        groups: dict[tuple[str | None, str], list[PhaseInstance]] = {}
        for inst in self._instances.values():
            groups.setdefault((inst.parent_id, inst.phase_path), []).append(inst)
        return groups


@dataclass(frozen=True)
class ResourceMeasurement:
    """One monitoring sample: average consumption rate over a window.

    ``value`` is the mean rate of consumption of the resource over
    ``[t_start, t_end)``, in the resource's units (e.g. cores for a CPU
    resource, bytes/s for a NIC).
    """

    resource: str
    t_start: float
    t_end: float
    value: float

    def __post_init__(self) -> None:
        if self.t_end <= self.t_start:
            raise ValueError(f"measurement window must have positive length: {self}")
        if self.value < 0.0:
            raise ValueError(f"measurement value must be >= 0: {self}")

    @property
    def total(self) -> float:
        """Total amount consumed during the window (rate × duration)."""
        return self.value * (self.t_end - self.t_start)


class ResourceTrace:
    """Monitoring data for one run: measurements and blocking events."""

    def __init__(self) -> None:
        self._measurements: dict[str, list[ResourceMeasurement]] = {}
        self._blocking_events: dict[str, list[BlockingEvent]] = {}
        self._sorted: set[str] = set()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_measurement(self, resource: str, t_start: float, t_end: float, value: float) -> None:
        """Record one monitoring sample (average rate over the window)."""
        self._measurements.setdefault(resource, []).append(
            ResourceMeasurement(resource, t_start, t_end, value)
        )
        self._sorted.discard(resource)

    def add_blocking_event(self, resource: str, t_start: float, t_end: float) -> None:
        """Record one blocking interval on a blocking resource."""
        self._blocking_events.setdefault(resource, []).append(
            BlockingEvent(resource, t_start, t_end)
        )

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def measured_resources(self) -> list[str]:
        """Names of resources with at least one measurement."""
        return list(self._measurements)

    def measurements(self, resource: str) -> list[ResourceMeasurement]:
        """Measurements for ``resource``, sorted by window start."""
        if resource not in self._sorted:
            self._measurements.setdefault(resource, []).sort(key=lambda m: m.t_start)
            self._sorted.add(resource)
        return self._measurements.get(resource, [])

    def blocking_resources(self) -> list[str]:
        """Names of resources with at least one blocking event."""
        return list(self._blocking_events)

    def blocking_events(self, resource: str | None = None) -> list[BlockingEvent]:
        """Blocking events, optionally filtered to one resource."""
        if resource is not None:
            return list(self._blocking_events.get(resource, []))
        return [e for evs in self._blocking_events.values() for e in evs]

    def value_at(self, resource: str, t: float) -> float:
        """Measured average rate at time ``t`` (0.0 outside any window)."""
        ms = self.measurements(resource)
        starts = [m.t_start for m in ms]
        i = bisect_right(starts, t) - 1
        if i >= 0 and ms[i].t_start <= t < ms[i].t_end:
            return ms[i].value
        return 0.0

    def total_consumption(self, resource: str) -> float:
        """Total consumption over all measurement windows (rate × duration)."""
        return sum(m.total for m in self.measurements(resource))
