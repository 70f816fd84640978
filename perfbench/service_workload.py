"""Workloads ``serve_cold`` and ``serve_warm``: open-loop job-service traffic.

Each run boots ``python -m repro serve --no-suite`` as a child process
with an empty run cache inside the work directory and talks to it only
over HTTP, the way a client does: ``POST /jobs``, then
``GET /events?run=<id>`` until the job's ``run.finished`` frame.  Every
job is one ``small``-preset cell with ``"characterize": true``, so the
Grade10 pipeline runs inside every job.

* ``serve_cold``: every job has its own simulation seed, so each one
  misses the run cache and generates, simulates, archives and analyzes.
* ``serve_warm``: set-up runs a working set of 15 cells once; the timed
  jobs repeat those cells, so each one hits the run cache and only
  re-analyzes the cached archive.

Arrivals are open loop: job ``k`` is due at ``t0 + k / rate`` whether or
not earlier jobs have finished, and its latency runs from that due time
to the ``run.finished`` frame, so a stall also delays the jobs behind it.
With tracing on, the benchmark fetches ``GET /jobs/<id>/trace`` for every
job afterwards and splits the job's time among layers.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import common

#: Open-loop arrival rates (jobs/s) that keep the workers less than half
#: busy, so the queue stays short and latency measures the work, not a
#: backlog.
RATES = {"serve_cold": 3.0, "serve_warm": 6.0}
#: Cells the warm workload repeats; a cold server's set-up instead runs
#: one job per system, so each adapter's lazy imports happen before
#: timing starts.
WARM_WORKING_SET = 15
WORKERS = 2
QUEUE_SIZE = 64
#: How long the tail of the run may take to drain after the last arrival.
DRAIN_TIMEOUT_S = 60.0
HTTP_TIMEOUT_S = 60.0


class ServiceError(Exception):
    """The service could not be started or answered outside its contract."""


class Server:
    """One ``repro serve --no-suite`` child process with its own cache."""

    def __init__(self, root: Path, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        port_file = work / "port"
        self.log_path = work / "serve.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(work)
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--no-suite",
                    "--port", "0", "--port-file", str(port_file),
                    "--cache-dir", str(work / "cache"),
                    "--workers", str(WORKERS), "--queue-size", str(QUEUE_SIZE),
                    "--heartbeat", "1.0", "--quiet",
                ],
                cwd=root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        try:
            deadline = time.monotonic() + 60.0
            while not (port_file.is_file() and port_file.read_text().strip()):
                if self.proc.poll() is not None:
                    raise ServiceError(f"repro serve exited {self.proc.returncode}: {self.log()}")
                if time.monotonic() > deadline:
                    raise ServiceError("repro serve did not write its port file in 60 s")
                time.sleep(0.01)
            self.port = int(port_file.read_text().strip())
            status, _ = self.request("GET", "/healthz")
            if status != 200:
                raise ServiceError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise

    def log(self) -> str:
        """The child's combined output so far (for error messages)."""
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def connect(self) -> http.client.HTTPConnection:
        """A new connection to the server."""
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=HTTP_TIMEOUT_S)

    def request(self, method: str, path: str, body: Any = None) -> tuple[int, Any]:
        """One request on its own connection; returns (status, JSON body)."""
        conn = self.connect()
        try:
            headers = {}
            payload = None
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            try:
                doc = json.loads(raw) if raw else None
            except ValueError:
                doc = raw.decode("utf-8", errors="replace")
            return resp.status, doc
        finally:
            conn.close()

    def stop(self) -> int:
        """SIGTERM, wait for the clean drain; kill if it does not come."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
                return -9
        return self.proc.returncode


@dataclass
class JobOutcome:
    """What the client saw of one job."""

    cell: common.Cell
    due: float
    sent: float = 0.0
    accepted: float = 0.0
    finished: float = 0.0
    job_id: str = ""
    cached: bool | None = None
    makespan: float | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Finished with no contract violation seen by the client."""
        return self.finished > 0 and not self.problems


def _stream_until_finished(server: Server, outcome: JobOutcome) -> None:
    """Read the job's SSE stream to ``run.finished``; check ids and cells."""
    conn = server.connect()
    try:
        conn.request("GET", f"/events?run={outcome.job_id}&last_id=0")
        resp = conn.getresponse()
        if resp.status != 200:
            outcome.problems.append(f"/events answered {resp.status}")
            return
        expected_id = 1
        frame: dict[str, str] = {}
        while True:
            raw = resp.fp.readline()
            if not raw:
                outcome.problems.append("event stream closed before run.finished")
                return
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith(":"):
                continue  # heartbeat
            if line:
                key, _, value = line.partition(": ")
                frame[key] = value
                continue
            if not frame:
                continue
            event, frame = frame, {}
            if int(event.get("id", -1)) != expected_id:
                outcome.problems.append(f"event id {event.get('id')} where {expected_id} was due")
            expected_id = int(event.get("id", expected_id)) + 1
            kind = event.get("event")
            data = json.loads(event.get("data", "{}")).get("data", {})
            if kind in ("cell.failed", "job.failed"):
                outcome.problems.append(f"{kind}: {data.get('error')}")
            elif kind == "cell.finished":
                outcome.cached = bool(data.get("cached"))
                outcome.makespan = data.get("makespan")
            elif kind == "run.finished":
                outcome.finished = time.perf_counter()
                return
    finally:
        conn.close()


def _run_job(server: Server, outcome: JobOutcome) -> None:
    """Submit one job and follow it to its terminal event."""
    outcome.sent = time.perf_counter()
    try:
        status, doc = server.request("POST", "/jobs", outcome.cell.job_spec())
        outcome.accepted = time.perf_counter()
        if status != 202:
            outcome.problems.append(f"POST /jobs answered {status}: {doc}")
            return
        outcome.job_id = doc["id"]
        _stream_until_finished(server, outcome)
    except (OSError, ValueError, KeyError, http.client.HTTPException) as exc:
        outcome.problems.append(f"client error: {exc!r}")


def _run_sequentially(server: Server, cells: list[common.Cell]) -> list[JobOutcome]:
    outcomes = []
    for cell in cells:
        outcome = JobOutcome(cell, due=time.perf_counter())
        _run_job(server, outcome)
        if not outcome.ok:
            raise ServiceError(f"set-up job {cell.label} failed: {outcome.problems}")
        outcomes.append(outcome)
    return outcomes


def _open_loop(server: Server, cells: list[common.Cell], rate: float) -> list[JobOutcome]:
    """Send job ``k`` at ``t0 + k / rate``; wait for every job to finish."""
    t0 = time.perf_counter() + 0.05
    outcomes = [JobOutcome(cell, due=t0 + k / rate) for k, cell in enumerate(cells)]
    threads = []
    for outcome in outcomes:
        delay = outcome.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        thread = threading.Thread(target=_run_job, args=(server, outcome), daemon=True)
        thread.start()
        threads.append(thread)
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    for thread in threads:
        thread.join(timeout=max(deadline - time.monotonic(), 0.0))
    for outcome, thread in zip(outcomes, threads):
        if thread.is_alive():
            outcome.problems.append(f"no run.finished within {DRAIN_TIMEOUT_S:.0f} s")
    return outcomes


def _job_layers(server: Server, outcome: JobOutcome) -> dict[str, float]:
    """One job's time split among layers, client side and server side."""
    status, doc = server.request("GET", f"/jobs/{outcome.job_id}/trace")
    if status != 200:
        raise ServiceError(f"/jobs/{outcome.job_id}/trace answered {status}")
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    layers = common.partition_ms(spans)
    server_ms = sum(layers.values())
    client_ms = (outcome.finished - outcome.sent) * 1000.0
    layers["generator_lag_ms"] = max(outcome.sent - outcome.due, 0.0) * 1000.0
    layers["submit_ms"] = (outcome.accepted - outcome.sent) * 1000.0
    # Client-observed time the server's trace does not cover: connect
    # and accept before the HTTP span opens, SSE delivery after the job
    # span closes.
    layers["delivery_ms"] = max(client_ms - server_ms, 0.0)
    return layers


def _inputs(
    name: str, seed: int, n_jobs: int, directory: Path
) -> tuple[list[common.Cell], list[common.Cell], dict[common.Cell, float]]:
    """Set-up cells, timed cells, and the makespan each must report.

    Every cell is simulated and archived here first (untimed), the way
    the service's cold path does it: so every input is one the program
    can process, and every job's result has a reference to match.
    """
    if name == "serve_warm":
        checked = common.archive_runs(
            common.cells(seed, WARM_WORKING_SET, stream=name),
            directory, stream=f"{name}:{seed}",
        )
        working_set = [cell for cell, _ in checked]
        by_pair = {(c.system, c.algorithm): c for c in working_set}
        order = common.cells(seed, n_jobs, stream=f"{name}-order")
        timed = [by_pair[(c.system, c.algorithm)] for c in order]
        warmup = working_set
    else:
        pool = common.cells(seed, WARM_WORKING_SET, stream=f"{name}-warmup")
        warmup = [
            next(c for c in pool if c.system == s and c.algorithm == "pr")
            for s in common.SYSTEMS
        ]
        checked = common.archive_runs(
            warmup + common.cells(seed, n_jobs, stream=name),
            directory, stream=f"{name}:{seed}",
        )
        warmup = [cell for cell, _ in checked[: len(warmup)]]
        timed = [cell for cell, _ in checked[len(warmup):]]
    shutil.rmtree(directory)
    return warmup, timed, dict(checked)


def run(
    name: str, root: Path, work: Path, seed: int, seconds: float, trace: bool, setups: int
) -> dict[str, Any]:
    """Set up ``setups`` servers (keeping the last), then drive open-loop load."""
    warm = name == "serve_warm"
    rate = RATES[name]
    warmup, timed, makespans = _inputs(
        name, seed, max(1, int(seconds * rate)), work / "inputs"
    )

    setup_s = []
    server = None
    problems: list[str] = []
    try:
        for k in range(setups):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            server = Server(root, work / f"server-{k}")
            warmed = _run_sequentially(server, warmup)
            setup_s.append(time.perf_counter() - t0)

        t_start = time.perf_counter()
        outcomes = _open_loop(server, timed, rate)
        elapsed = max((o.finished for o in outcomes), default=t_start) - t_start

        for outcome in warmed + outcomes:
            if outcome.finished and outcome.makespan != makespans[outcome.cell]:
                outcome.problems.append(
                    f"makespan {outcome.makespan}, simulated here {makespans[outcome.cell]}"
                )
        for outcome in outcomes:
            if outcome.finished and outcome.cached is not warm:
                outcome.problems.append(f"cell.finished cached={outcome.cached}, expected {warm}")
            if outcome.job_id:
                status, doc = server.request("GET", f"/jobs/{outcome.job_id}")
                if status != 200 or doc.get("state") != "done":
                    outcome.problems.append(f"GET /jobs/<id> answered {status}: {doc}")
        problems.extend(
            f"set-up {o.cell.label}: {'; '.join(o.problems)}" for o in warmed if o.problems
        )

        layers = []
        if trace:
            layers = [_job_layers(server, o) for o in outcomes if o.ok]
    finally:
        if server is not None:
            code = server.stop()
            if code != 0:
                problems.append(f"repro serve exited {code} on SIGTERM: {server.log()}")

    failed = [o for o in outcomes if not o.ok]
    problems.extend(f"{o.cell.label} {o.job_id}: {'; '.join(o.problems)}" for o in failed)
    done = [o for o in outcomes if o.ok]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "problems": problems,
        "latencies_s": [o.finished - o.due for o in done],
        "elapsed_s": elapsed,
        "setup_s": setup_s,
        "layers": layers,
        "counts": {
            "cache_hit_ratio": sum(1 for o in done if o.cached) / max(len(done), 1),
        },
    }
