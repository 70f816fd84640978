"""Pipeline-wide invariant checking of finished profiles.

Grade10's output is only trustworthy if the attribution arithmetic and the
trace structure it rests on are internally consistent.  On pristine input
the pipeline guarantees this by construction; on *degraded* input (dropped
monitoring samples, truncated logs, clock skew — see :mod:`repro.faults`)
the numbers can silently drift.  :func:`check_profile` runs after analysis
and turns silent drift into typed :class:`InvariantViolation` records.

The invariant catalog:

``finite``
    No NaN/inf and no negative values anywhere in the attribution output
    (per-instance usage, unattributed residue, upsampled rates).
``capacity``
    Attributed usage per timeslice never exceeds the resource's measured
    capacity.
``conservation``
    Per resource and timeslice, attributed usage plus the unattributed
    residue equals the upsampled consumption — attribution redistributes
    consumption across rules, it never creates or destroys it.
``nesting``
    The phase instance tree is well-formed: every child's interval lies
    within its parent's interval, and every ``parent_id`` resolves.
``grid``
    The profile's timeslices are contiguous, non-overlapping, uniform, and
    cover the execution trace's full span.

Violations are aggregated per (invariant, subject) — a resource with a
thousand bad slices yields one record with a count, not a thousand records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .profile import PerformanceProfile

__all__ = ["INVARIANTS", "InvariantViolation", "InvariantReport", "check_profile"]

#: The invariants :func:`check_profile` evaluates, in report order.
INVARIANTS = ("finite", "capacity", "conservation", "nesting", "grid")


@dataclass(frozen=True)
class InvariantViolation:
    """One broken pipeline invariant, aggregated over its subject.

    ``invariant`` is one of :data:`INVARIANTS`; ``subject`` names the
    resource, instance, or ``"grid"`` the violation is anchored to;
    ``count`` is the number of offending slices/instances folded into this
    record; ``worst`` quantifies the largest excursion (units depend on the
    invariant — rate units for ``capacity``/``conservation``, seconds for
    ``nesting``).
    """

    invariant: str
    subject: str
    message: str
    count: int = 1
    worst: float = 0.0


@dataclass
class InvariantReport:
    """All invariant violations found in one profile."""

    violations: list[InvariantViolation] = field(default_factory=list)
    checked: tuple[str, ...] = INVARIANTS

    def __iter__(self):
        return iter(self.violations)

    def __len__(self) -> int:
        return len(self.violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_invariant(self, invariant: str) -> list[InvariantViolation]:
        """Violations of one invariant."""
        return [v for v in self.violations if v.invariant == invariant]

    def summary(self) -> dict[str, int]:
        """Total offending-item count per invariant."""
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.invariant] = out.get(v.invariant, 0) + v.count
        return out

    def render(self) -> str:
        """Human-readable report (the CLI prints this)."""
        if self.ok:
            return f"invariant check: OK ({len(self.checked)} invariants hold)"
        lines = [f"invariant check: {len(self.violations)} violation(s)"]
        for v in self.violations:
            lines.append(f"  [{v.invariant}] {v.subject}: {v.message}")
        return "\n".join(lines)


def check_profile(profile: "PerformanceProfile", *, rel_tol: float = 1e-6) -> InvariantReport:
    """Check every pipeline invariant on a finished profile.

    ``rel_tol`` scales every numeric comparison; the default admits float
    accumulation error across the vectorized pipeline while catching any
    genuine drift.
    """
    report = InvariantReport()
    _check_grid(profile, report, rel_tol)
    _check_nesting(profile, report, rel_tol)
    _check_attribution(profile, report, rel_tol)
    return report


# ---------------------------------------------------------------------- #
# Individual invariants
# ---------------------------------------------------------------------- #


def _check_grid(profile: "PerformanceProfile", report: InvariantReport, rel_tol: float) -> None:
    grid = profile.grid
    trace = profile.execution_trace
    if grid.slice_duration <= 0.0 or grid.n_slices < 1:
        report.violations.append(
            InvariantViolation(
                "grid", "grid",
                f"degenerate grid: slice_duration={grid.slice_duration}, "
                f"n_slices={grid.n_slices}",
            )
        )
        return
    widths = np.diff(grid.edges)
    if np.any(widths <= 0.0) or not np.allclose(widths, grid.slice_duration, rtol=rel_tol):
        report.violations.append(
            InvariantViolation(
                "grid", "grid",
                "timeslices are not contiguous uniform intervals",
                count=int(np.sum(~np.isclose(widths, grid.slice_duration, rtol=rel_tol))),
            )
        )
    if len(trace) == 0:
        return
    if trace.makespan <= 0.0:
        # Every instance starts and ends at one instant (e.g. a log cut
        # right after its first events): there is no time to attribute.
        report.violations.append(
            InvariantViolation(
                "grid", "grid",
                f"trace spans no time: all {len(trace)} phase instance(s) "
                f"lie at t={trace.t_start:.6f}",
            )
        )
    tol = rel_tol * max(1.0, abs(trace.t_start), abs(trace.t_end))
    if grid.t0 > trace.t_start + tol or grid.t_end < trace.t_end - tol:
        report.violations.append(
            InvariantViolation(
                "grid", "grid",
                f"grid [{grid.t0:.6f}, {grid.t_end:.6f}) does not cover trace span "
                f"[{trace.t_start:.6f}, {trace.t_end:.6f}]",
                worst=max(grid.t0 - trace.t_start, trace.t_end - grid.t_end),
            )
        )


def _check_nesting(profile: "PerformanceProfile", report: InvariantReport, rel_tol: float) -> None:
    trace = profile.execution_trace
    bad = 0
    worst = 0.0
    example = ""
    dangling = 0
    for inst in trace.instances():
        if inst.parent_id is None:
            continue
        if inst.parent_id not in trace:
            dangling += 1
            continue
        parent = trace[inst.parent_id]
        tol = rel_tol * max(1.0, abs(parent.t_start), abs(parent.t_end))
        if not parent.encloses(inst, tol=tol):
            bad += 1
            excursion = max(parent.t_start - inst.t_start, inst.t_end - parent.t_end)
            if excursion > worst:
                worst = excursion
                example = (
                    f"{inst.instance_id!r} [{inst.t_start:.6f}, {inst.t_end:.6f}] escapes "
                    f"parent {parent.instance_id!r} [{parent.t_start:.6f}, {parent.t_end:.6f}]"
                )
    if dangling:
        report.violations.append(
            InvariantViolation(
                "nesting", "trace",
                f"{dangling} instance(s) reference a parent_id absent from the trace",
                count=dangling,
            )
        )
    if bad:
        report.violations.append(
            InvariantViolation(
                "nesting", "trace",
                f"{bad} instance(s) extend outside their parent's interval; worst: {example}",
                count=bad,
                worst=worst,
            )
        )


def _check_attribution(profile: "PerformanceProfile", report: InvariantReport, rel_tol: float) -> None:
    for name in profile.attribution.resources():
        ra = profile.attribution[name]
        if name in profile.upsampled:
            rate = profile.upsampled[name].rate
        else:  # pragma: no cover - attribution is built from the upsampled set
            rate = np.zeros(profile.grid.n_slices)

        # finite: every array the profile exposes must be finite and >= 0.
        arrays = (ra.usage, ra.unattributed, rate)
        n_bad = sum(int(np.sum(~np.isfinite(a))) for a in arrays)
        neg_tol = rel_tol * max(1.0, float(ra.capacity))
        n_neg = sum(int(np.sum(a < -neg_tol)) for a in arrays if a.size)
        if n_bad or n_neg:
            report.violations.append(
                InvariantViolation(
                    "finite", name,
                    f"{n_bad} non-finite and {n_neg} negative attribution values",
                    count=n_bad + n_neg,
                )
            )
            # Comparisons below would be poisoned by NaNs; skip them.
            if n_bad:
                continue

        attributed = ra.usage.sum(axis=0) if ra.usage.size else np.zeros_like(ra.unattributed)
        cap_tol = rel_tol * max(1.0, float(ra.capacity))
        over = attributed - ra.capacity
        n_over = int(np.sum(over > cap_tol))
        if n_over:
            report.violations.append(
                InvariantViolation(
                    "capacity", name,
                    f"attributed usage exceeds capacity {ra.capacity:g} in "
                    f"{n_over} timeslice(s) (worst +{float(over.max()):.6g})",
                    count=n_over,
                    worst=float(over.max()),
                )
            )

        gap = np.abs(ra.total_per_slice() - rate)
        cons_tol = rel_tol * np.maximum(1.0, rate)
        n_gap = int(np.sum(gap > cons_tol))
        if n_gap:
            report.violations.append(
                InvariantViolation(
                    "conservation", name,
                    f"attributed + unattributed != upsampled consumption in "
                    f"{n_gap} timeslice(s) (worst gap {float(gap.max()):.6g})",
                    count=n_gap,
                    worst=float(gap.max()),
                )
            )
