#!/usr/bin/env python
"""Seed/refresh ``BENCH_serve.json`` — the service-latency baseline.

Boots ``repro serve --no-suite`` as a real subprocess (the job API with
no local sweep, over a fresh run cache), drives it with the open-loop
generator from :mod:`repro.loadgen` for ``--duration`` seconds — every
job, plain or live, characterizes the same tiny cell, warm after the
first — writes the resulting
``grade10-bench-serve/1`` document, validates it, and shuts the server
down with SIGTERM (clean drain required).

Run from the repo root::

    python scripts/bench_serve.py                  # 30 s, 2 jobs/s
    python scripts/bench_serve.py --duration 5 --rate 3 --out /tmp/doc.json

The written document is gateable against a baseline with the unchanged
pipeline-bench gate::

    python -m repro bench --diff BENCH_serve.json --candidate /tmp/doc.json
"""

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bench import validate_serve_bench_doc, write_bench_json  # noqa: E402
from repro.loadgen import render_load_summary, run_loadgen  # noqa: E402


#: Every job, plain or live, runs the same cell through the run cache
#: and characterizes it, so ``e2e`` and ``e2e_live`` differ only by the
#: live windows.
SPEC = {"preset": "tiny", "characterize": True}


def wait_for(predicate, what, deadline_s=60.0):
    """Poll ``predicate`` until truthy; SystemExit on timeout."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline_s:
        result = predicate()
        if result:
            return result
        time.sleep(0.1)
    raise SystemExit(f"timed out waiting for {what}")


def main():
    """Boot serve, run the open-loop load, write and validate the doc."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rate", type=float, default=2.0)
    parser.add_argument("--duration", type=float, default=30.0)
    parser.add_argument("--period", type=float, default=5.0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queue-size", type=int, default=32)
    parser.add_argument(
        "--live-fraction", type=float, default=0.25,
        help="fraction of jobs submitted live (streaming window frames), "
             "so the baseline captures its overhead envelope",
    )
    parser.add_argument("--out", default="BENCH_serve.json")
    args = parser.parse_args()

    scratch = tempfile.mkdtemp(prefix="bench-serve-")
    port_file = os.path.join(scratch, "port")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--no-suite",
            "--port", "0", "--port-file", port_file,
            "--cache-dir", os.path.join(scratch, "cache"),
            "--queue-size", str(args.queue_size),
            "--workers", str(args.workers),
            "--heartbeat", "1.0",
        ],
        cwd=REPO_ROOT,
        env=env,
    )
    try:
        wait_for(lambda: os.path.exists(port_file), "port file")
        port = int(open(port_file).read().strip())
        url = f"http://127.0.0.1:{port}"
        print(f"bench-serve: job API up on {url}")
        doc = run_loadgen(
            url,
            rate=args.rate,
            duration_s=args.duration,
            period_s=args.period,
            live_fraction=args.live_fraction,
            spec=SPEC,
            echo=print,
        )
        print(render_load_summary(doc))
        write_bench_json(doc, args.out)
        print(f"bench-serve: document written to {args.out}")
        problems = validate_serve_bench_doc(doc)
        if problems:
            for p in problems:
                print(f"bench-serve: INVALID: {p}", file=sys.stderr)
            raise SystemExit(3)
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        if code != 0:
            raise SystemExit(f"serve exited {code} on SIGTERM, expected 0")
        print("bench-serve: clean SIGTERM shutdown (exit 0)")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


if __name__ == "__main__":
    main()
