"""Resource attribution rules (paper §III-D1).

Attribution rules link the demand of phase types to resources.  They form a
conceptual matrix with a column per phase type and a row per resource; each
cell holds one of three rules:

* :class:`NoneRule` — the phase does not use the resource;
* :class:`ExactRule` — the phase has an exact demand, expressed as a
  proportion of the resource's capacity (e.g. one compute thread demands
  exactly ``1/#cores`` of a machine's CPU);
* :class:`VariableRule` — the phase may use as much of the resource as it
  can get, with an unknown but *relative* demand expressed as a weight
  (a phase with weight ``2`` is assumed to demand twice as much as a
  concurrent phase with weight ``1``).

When no rule matches a (phase, resource) pair, Grade10 assumes an implicit
``VariableRule(1.0)`` — exactly the untuned behaviour evaluated in the
paper's Figure 3(a) and the "not tuned" row of Table II.

Rules are written against phase-type *paths* and resource *name patterns*.
Since resources are per-machine instances (``cpu@node3``) while rules are
written once per framework, a pattern may reference attributes of the
concrete phase instance, e.g. ``cpu@{machine}`` expands using the instance's
machine before matching.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover
    from .traces import PhaseInstance

__all__ = ["NoneRule", "ExactRule", "VariableRule", "Rule", "RuleMatrix", "IMPLICIT_RULE"]


@dataclass(frozen=True)
class NoneRule:
    """Phase does not use the resource at all."""

    kind: str = "none"


@dataclass(frozen=True)
class ExactRule:
    """Phase demands exactly ``proportion`` of the resource's capacity.

    ``proportion`` is a fraction in ``(0, 1]``: a demand of half the
    resource is ``ExactRule(0.5)``.
    """

    proportion: float
    kind: str = "exact"

    def __post_init__(self) -> None:
        if not 0.0 < self.proportion <= 1.0:
            raise ValueError(f"Exact proportion must be in (0, 1], got {self.proportion}")


@dataclass(frozen=True)
class VariableRule:
    """Phase uses the resource with unknown demand of relative ``weight``."""

    weight: float = 1.0
    kind: str = "variable"

    def __post_init__(self) -> None:
        if self.weight <= 0.0:
            raise ValueError(f"Variable weight must be > 0, got {self.weight}")


Rule = Union[NoneRule, ExactRule, VariableRule]

#: Rule assumed when the matrix has no entry for a (phase, resource) pair.
IMPLICIT_RULE: Rule = VariableRule(1.0)


@dataclass(frozen=True)
class _RuleEntry:
    phase_path: str
    resource_pattern: str
    rule: Rule


class RuleMatrix:
    """An ordered collection of attribution rules.

    Later entries override earlier ones, so frameworks can declare a broad
    default (``set_default_rule``) and then refine specific cells.

    By default, only phase instances that have no *active* children are
    attributable (resource usage of inner phases is the roll-up of their
    descendants); this matches the hierarchical propagation of §III-B.
    """

    def __init__(self, *, implicit_rule: Rule = IMPLICIT_RULE) -> None:
        self._entries: list[_RuleEntry] = []
        self.implicit_rule = implicit_rule

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def set_rule(self, phase_path: str, resource_pattern: str, rule: Rule) -> "RuleMatrix":
        """Set the rule for phases of type ``phase_path`` on matching resources.

        ``phase_path`` may be an exact path or an ``fnmatch`` pattern
        (e.g. ``"/Execute/Superstep/*"``).  ``resource_pattern`` is an
        ``fnmatch`` pattern over resource names and may contain ``{attr}``
        placeholders resolved against the phase instance (``{machine}``,
        ``{worker}``, ``{thread}``).  Returns ``self`` for chaining.
        """
        self._entries.append(_RuleEntry(phase_path, resource_pattern, rule))
        return self

    def set_none(self, phase_path: str, resource_pattern: str) -> "RuleMatrix":
        """Shorthand for ``set_rule(..., NoneRule())``."""
        return self.set_rule(phase_path, resource_pattern, NoneRule())

    def set_exact(self, phase_path: str, resource_pattern: str, proportion: float) -> "RuleMatrix":
        """Shorthand for ``set_rule(..., ExactRule(proportion))``."""
        return self.set_rule(phase_path, resource_pattern, ExactRule(proportion))

    def set_variable(self, phase_path: str, resource_pattern: str, weight: float = 1.0) -> "RuleMatrix":
        """Shorthand for ``set_rule(..., VariableRule(weight))``."""
        return self.set_rule(phase_path, resource_pattern, VariableRule(weight))

    def set_default_rule(self, rule: Rule) -> "RuleMatrix":
        """Change the implicit rule used for unmatched (phase, resource) pairs."""
        self.implicit_rule = rule
        return self

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def rule_for(self, instance: "PhaseInstance", resource_name: str) -> Rule:
        """Resolve the rule applying to ``instance`` on ``resource_name``.

        The last matching entry wins; with no match, the implicit rule
        applies.  This is the 1 × 1 case of :meth:`rule_table`.
        """
        return self.rule_table([instance], [resource_name])[0][0]

    def rule_table(
        self, instances: Sequence["PhaseInstance"], resource_names: Sequence[str]
    ) -> list[list[Rule]]:
        """:meth:`rule_for` of every instance on every resource, as rows.

        ``table[i][j]`` is the rule for ``instances[i]`` on
        ``resource_names[j]``; instances with the same phase path and
        location share one row object.
        """
        rows, row_of = self.rule_rows(instances, resource_names)
        return [rows[r] for r in row_of]

    def rule_rows(
        self, instances: Sequence["PhaseInstance"], resource_names: Sequence[str]
    ) -> tuple[list[list[Rule]], list[int]]:
        """The distinct rows of :meth:`rule_table`, and each instance's row.

        Returns ``(rows, row_of)`` with ``rule_table(...)[i] ==
        rows[row_of[i]]``.  A rule depends only on the instance's phase
        path and location, and the table is resolved by parts: each
        distinct phase path is matched against every entry's path pattern
        once, each matching entry's resource pattern is formatted once per
        distinct ``(machine, worker, thread)``, and each formatted pattern
        is matched against each resource name once.  An unknown
        placeholder raises ``ValueError`` only for an entry whose path
        matches some instance, first in instance order and then in entry
        order, as the instance-at-a-time lookup would.  Everything lives
        only for the call, so entries set later always apply to the next
        one.
        """
        names = list(resource_names)
        path_entries: dict[str, list[_RuleEntry]] = {}
        patterns: dict[tuple[str, tuple[str, str, str]], str] = {}
        hits: dict[str, list[bool]] = {}
        row_index: dict[tuple[str, tuple[str, str, str]], int] = {}
        rows: list[list[Rule]] = []
        row_of: list[int] = []
        for inst in instances:
            location = (inst.machine or "*", inst.worker or "*", inst.thread or "*")
            key = (inst.phase_path, location)
            r = row_index.get(key)
            if r is None:
                r = row_index[key] = len(rows)
                entries = path_entries.get(inst.phase_path)
                if entries is None:
                    entries = path_entries[inst.phase_path] = [
                        e
                        for e in self._entries
                        if fnmatch.fnmatchcase(inst.phase_path, e.phase_path)
                    ]
                # With no resource to look up, no pattern is ever formatted.
                candidates = []  # (hits per resource, rule) of each matching entry
                for entry in entries if names else ():
                    pattern = patterns.get((entry.resource_pattern, location))
                    if pattern is None:
                        pattern = self._format(entry, location)
                        patterns[(entry.resource_pattern, location)] = pattern
                    if pattern not in hits:
                        hits[pattern] = [fnmatch.fnmatchcase(name, pattern) for name in names]
                    candidates.append((hits[pattern], entry.rule))
                candidates.reverse()  # the last matching entry wins
                rows.append(
                    [
                        next((rule for hit, rule in candidates if hit[j]), self.implicit_rule)
                        for j in range(len(names))
                    ]
                )
            row_of.append(r)
        return rows, row_of

    @staticmethod
    def _format(entry: _RuleEntry, location: tuple[str, str, str]) -> str:
        """``entry``'s resource pattern with the location placeholders filled in."""
        machine, worker, thread = location
        try:
            return entry.resource_pattern.format(machine=machine, worker=worker, thread=thread)
        except (KeyError, IndexError):
            raise ValueError(
                f"unknown placeholder in resource pattern {entry.resource_pattern!r}"
            ) from None

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RuleMatrix(entries={len(self._entries)}, implicit={self.implicit_rule!r})"
