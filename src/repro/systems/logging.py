"""Structured execution logging for the simulated systems.

The simulated frameworks emit the same artifact a real instrumented
framework would: a JSON-lines event log with timestamps for performance
critical events (paper §III-C).  Event kinds:

* ``phase_start`` / ``phase_end`` — with phase path, instance id, parent
  instance id, and location attributes (machine / worker / thread);
* ``block_start`` / ``block_end`` — a phase instance blocked on a blocking
  resource (message queue, GC);
* ``gc`` — a stop-the-world collection on a machine (interval + machine),
  from which a *tuned* model derives GC phases and blocking events.

:class:`EventLog` is the in-memory collector; :func:`write_jsonl` /
:func:`read_jsonl` persist it.  :func:`iter_jsonl` is the streaming
variant (events are yielded as they are read, tolerating a mid-write
partial trailing line), and :class:`JsonlStream` is the chunk-level
decoder it is built on — the entry point for feeding a log to the
incremental pipeline (:mod:`repro.core.incremental`) as raw text chunks
arrive.  The adapters in :mod:`repro.adapters` parse these events into
Grade10 traces — the same decoupling the real tool has from the systems
it measures.
"""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = [
    "PhaseHandle",
    "EventLog",
    "JsonlStream",
    "write_jsonl",
    "read_jsonl",
    "iter_jsonl",
]


@dataclass(frozen=True)
class PhaseHandle:
    """Opaque reference to an open phase instance in the log."""

    instance_id: str
    phase_path: str


@dataclass
class EventLog:
    """In-memory structured event log."""

    events: list[dict[str, Any]] = field(default_factory=list)
    _counter: itertools.count = field(default_factory=itertools.count, repr=False)

    # ------------------------------------------------------------------ #
    # Emission
    # ------------------------------------------------------------------ #
    def start_phase(
        self,
        path: str,
        t: float,
        *,
        parent: PhaseHandle | None = None,
        machine: str | None = None,
        worker: str | None = None,
        thread: str | None = None,
        depends_on: list[PhaseHandle] | None = None,
    ) -> PhaseHandle:
        """Open a phase instance; returns the handle used to close/block it."""
        instance_id = f"{path}#{next(self._counter)}"
        event = {
            "event": "phase_start",
            "path": path,
            "id": instance_id,
            "parent": parent.instance_id if parent else None,
            "machine": machine,
            "worker": worker,
            "thread": thread,
            "t": t,
        }
        if depends_on:
            event["depends_on"] = [h.instance_id for h in depends_on]
        self.events.append(event)
        return PhaseHandle(instance_id, path)

    def end_phase(self, handle: PhaseHandle, t: float) -> None:
        """Close an open phase instance at time ``t``."""
        self.events.append({"event": "phase_end", "id": handle.instance_id, "t": t})

    def block(self, handle: PhaseHandle, resource: str, t_start: float, t_end: float) -> None:
        """Record a blocking interval of an open phase on a resource."""
        self.events.append(
            {
                "event": "block_start",
                "id": handle.instance_id,
                "resource": resource,
                "t": t_start,
            }
        )
        self.events.append(
            {
                "event": "block_end",
                "id": handle.instance_id,
                "resource": resource,
                "t": t_end,
            }
        )

    def gc_event(self, machine: str, t_start: float, t_end: float) -> None:
        """Record a stop-the-world collection interval on ``machine``."""
        self.events.append({"event": "gc", "machine": machine, "t": t_start, "t_end": t_end})

    def custom(self, **fields: Any) -> None:
        """Emit an arbitrary event (extension point for new systems)."""
        if "event" not in fields:
            raise ValueError("custom events need an 'event' field")
        self.events.append(fields)

    # ------------------------------------------------------------------ #
    # Queries (mostly for tests)
    # ------------------------------------------------------------------ #
    def of_kind(self, kind: str) -> list[dict[str, Any]]:
        """All events of one kind, in emission order."""
        return [e for e in self.events if e["event"] == kind]

    def __len__(self) -> int:
        return len(self.events)


#: ``json.dumps(event, separators=(",", ":"))`` without building an
#: encoder per event.
_encode = json.JSONEncoder(separators=(",", ":")).encode
#: ``json.loads`` minus its per-call checks; :func:`_decode_line` restores
#: the one that matters for a stripped line.
_raw_decode = json.JSONDecoder().raw_decode


def _decode_line(line: str) -> Any:
    """``json.loads(line)`` for a stripped, non-empty line.

    A record that ends before the line does (``{} {}``) is rejected as
    ``json.loads`` rejects it; any rejected line raises ``json.loads``'s
    own :class:`json.JSONDecodeError`.
    """
    try:
        event, end = _raw_decode(line)
    except json.JSONDecodeError:
        end = -1
    if end == len(line):
        return event
    # ``json.loads`` rejects exactly these lines; let it raise its own error.
    return json.loads(line)


def write_jsonl(log: EventLog | Iterable[dict[str, Any]], path: str | Path | io.TextIOBase) -> None:
    """Persist events as JSON lines (one shared encoder, one write)."""
    events = log.events if isinstance(log, EventLog) else log
    text = "".join([_encode(event) + "\n" for event in events])
    if isinstance(path, (str, Path)):
        with open(path, "w") as fh:
            fh.write(text)
    else:
        path.write(text)


class JsonlStream:
    """Incremental JSON-lines decoder for arbitrarily split text chunks.

    :meth:`feed` accepts any slicing of a JSONL stream — including chunks
    that split a record mid-byte — buffers the unterminated tail, and
    returns the newly completed events.  Only newline-terminated lines
    are ever parsed, so a fragment is never mistaken for a corrupt
    record; a *terminated* line that fails to parse raises, exactly like
    :func:`read_jsonl` on an interior malformed line.
    """

    def __init__(self) -> None:
        self._tail = ""

    @property
    def pending(self) -> str:
        """The buffered unterminated fragment (empty between records)."""
        return self._tail

    def feed(self, chunk: str | bytes) -> list[dict[str, Any]]:
        """Decode one chunk; returns the events it completed (maybe none)."""
        if isinstance(chunk, bytes):
            chunk = chunk.decode("utf-8")
        buf = self._tail + chunk
        lines = buf.split("\n")
        self._tail = lines.pop()  # "" when the chunk ended on a newline
        return [_decode_line(line) for line in map(str.strip, lines) if line]

    def close(self) -> list[dict[str, Any]]:
        """Flush the buffer at end of stream.

        A leftover fragment that parses as JSON (the writer omitted the
        final newline) is returned; one that does not (the write was torn
        mid-record) is dropped — the same tolerance as
        :func:`read_jsonl`.
        """
        tail, self._tail = self._tail.strip(), ""
        if not tail:
            return []
        try:
            return [_decode_line(tail)]
        except json.JSONDecodeError:
            return []


def iter_jsonl(path: str | Path | io.TextIOBase, *, chunk_size: int = 65536) -> Iterator[dict[str, Any]]:
    """Stream events from a JSON-lines log as they are read.

    Unlike :func:`read_jsonl` nothing is materialized: events are yielded
    one at a time, so a follower can consume a log that is still being
    written.  A partial trailing line (a torn mid-write tail) is
    tolerated — buffered by the underlying :class:`JsonlStream` and
    dropped at end of stream unless it parses as a complete record.
    """
    own = isinstance(path, (str, Path))
    fh = open(path, "r") if own else path
    stream = JsonlStream()
    try:
        while True:
            chunk = fh.read(chunk_size)
            if not chunk:
                break
            yield from stream.feed(chunk)
        yield from stream.close()
    finally:
        if own:
            fh.close()


def read_jsonl(path: str | Path | io.TextIOBase, *, strict: bool = False) -> EventLog:
    """Load a JSON-lines event log.

    Interior malformed lines raise (silent data loss would corrupt the
    analysis), but a *partial trailing line* — what a reader sees when it
    races a writer mid-record — is dropped instead: only
    newline-terminated lines are required to parse.

    With ``strict=True`` an unparseable torn tail raises ``ValueError``
    instead of being dropped.  :func:`write_jsonl` always terminates the
    final record, so in a sealed archive a torn tail is not a racing
    writer — it is byte-level truncation, and dropping it would silently
    analyze a different run.
    """
    log = EventLog()
    own = isinstance(path, (str, Path))
    fh = open(path, "r") if own else path
    stream = JsonlStream()
    try:
        while True:
            chunk = fh.read(65536)
            if not chunk:
                break
            log.events.extend(stream.feed(chunk))
        pending = stream.pending
        flushed = stream.close()
        if strict and pending and not flushed:
            raise ValueError(
                f"truncated JSONL log: unterminated trailing line {pending[:80]!r}"
            )
        log.events.extend(flushed)
    finally:
        if own:
            fh.close()
    return log
