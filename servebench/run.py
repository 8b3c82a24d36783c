#!/usr/bin/env python3
"""Serving benchmark for deepdive_serve.

    python3 servebench/run.py --workload ingest|devloop --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the daemon and the load generator
(servebench/serve_bench.cc) from source with CMake into
$CARGO_TARGET_DIR/servebench (default .bench_build/servebench), starts one
deepdive_serve on an ephemeral localhost port, runs the load generator
against it, stops the daemon, and prints the generator's JSON result as the
last line of stdout. Build and daemon logs go to stderr and the work
directory. Exits non-zero without a result if anything fails to build or
start.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# The daemon refuses to start without a tenant, so it boots with this
# one-relation program; the benchmark's own KBs are created over the wire.
BOOT_PROGRAM = "relation Seen(id: int).\n"

# Together they keep a run (after the first build) under three minutes.
STARTUP_TIMEOUT_S = 20
CLIENT_TIMEOUT_S = 140
STOP_TIMEOUT_S = 10


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds serve_bench and deepdive_serve."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "serve_bench", "deepdive_serve"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    client = os.path.join(build_dir, "serve_bench")
    daemon = os.path.join(build_dir, "deepdive", "deepdive_serve")
    for path in (client, daemon):
        if not os.access(path, os.X_OK):
            raise RuntimeError(f"build produced no {path}")
    return client, daemon


def start_daemon(daemon, work):
    boot = os.path.join(work, "boot.ddl")
    with open(boot, "w") as f:
        f.write(BOOT_PROGRAM)
    port_file = os.path.join(work, "address")
    daemon_log = open(os.path.join(work, "daemon.log"), "w")
    proc = subprocess.Popen(
        [daemon, "--listen", "127.0.0.1:0", "--port-file", port_file,
         "--tenant", "boot=" + boot],
        stdout=daemon_log, stderr=subprocess.STDOUT)
    daemon_log.close()
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"deepdive_serve exited with {proc.returncode}")
        if os.path.exists(port_file):
            with open(port_file) as f:
                address = f.read().strip()
            if address:
                return proc, address
        time.sleep(0.01)
    raise RuntimeError("deepdive_serve did not report its address")


def stop(proc):
    """SIGTERM (graceful drain), then SIGKILL; always waits for the exit."""
    if proc is None or proc.poll() is not None:
        return
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "devloop"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "servebench"))
    # Compilers and the daemon keep their temporary files in the checkout.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    client, daemon = build(build_dir)

    work = os.path.join(build_dir, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    proc = None
    try:
        proc, address = start_daemon(daemon, work)
        out = subprocess.run(
            [client, "--address", address, "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=CLIENT_TIMEOUT_S)
    finally:
        stop(proc)
    if out.returncode != 0:
        log(f"serve_bench exited with {out.returncode}; daemon log in {work}")
        return 1
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log("serve_bench printed no result")
        return 1
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
