"""perfledger: the repository's benchmark, one command over three workloads.

Run from the repository root::

    python3 perfledger/run.py --workload solve-rotation --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json and perfledger/layers.json):

* ``solve-rotation`` — the solver facade on three nice instances;
* ``update-stream``  — single-edge updates on one long-lived engine;
* ``serve-mix``      — the TCP service under a hit/miss/update mix.

Each invocation generates the seeded inputs, sets the workload up
several times (``setup_s`` is the host-scaled median, timed from process
start to the first timed op), runs it for ``--seconds`` and checks every
output.
End-to-end times are host-scaled: the workloads probe the host's speed
between blocks of ops and report what the times would read at a fixed
speed (``common.host_scale``), because a shared host's speed drifts
by 1.3-1.7x.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics and prints a span self-time table.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

The program is imported only by ``worker.py`` subprocesses, from
``src/``; this file uses the standard library alone.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent

#: Set-ups per untraced run: at least ``SETUP_MIN``, more while they
#: have taken less than ``SETUP_BUDGET_S`` in all, at most ``SETUP_MAX``.
#: ``setup_s`` is their host-scaled median.
SETUP_MIN = 3
SETUP_MAX = 15
SETUP_BUDGET_S = 5.0

#: Whole-invocation budget; every worker is killed by then.
BUDGET_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def launch(argv: list[str], deadline: float, want_result: bool) -> tuple[float, dict]:
    """Run one worker; return (seconds from start to its ready marker,
    its result payload).  The worker and anything it starts share a new
    process group, which is killed if the deadline passes."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )

    def kill() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    watchdog.start()
    ready_s = None
    payload = None
    try:
        for line in proc.stdout:
            if line.rstrip("\n") == common.READY and ready_s is None:
                ready_s = time.perf_counter() - started
            elif line.startswith(common.RESULT):
                payload = json.loads(line[len(common.RESULT):])
            else:
                sys.stdout.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
    if code != 0 or (want_result and payload is None):
        raise WorkerFailed(f"worker {' '.join(argv[:4])} exited with code {code}")
    return ready_s or 0.0, payload or {}


def check_record(key: str, record: dict) -> str | None:
    """Outputs that must repeat exactly between runs of one seed on one
    program: compare with the first run's, or store it."""
    path = common.STATE / "records" / f"{key}.json"
    if path.exists():
        stored = json.loads(path.read_text())
        if stored != record:
            return f"output record differs from an earlier run of this seed ({path.name})"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True))
    return None


def main() -> int:
    spec_path = common.ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' is for the benchmark's own tests",
    )
    args = parser.parse_args()
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfledger: no program source under {common.SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    state = common.STATE / f"{args.workload}-s{args.seed}-{args.scale}-t{args.trace}"
    shutil.rmtree(state, ignore_errors=True)
    state.mkdir(parents=True)
    base = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--state", str(state),
    ]
    try:
        _, generated = launch(["--mode", "generate", *base], deadline, True)
        setups = []
        probes = [common.host_scale()]
        while not args.trace and len(setups) < SETUP_MAX - 1 and (
            len(setups) < SETUP_MIN - 1 or sum(setups) < SETUP_BUDGET_S
        ):
            ready_s, _ = launch(["--mode", "probe", *base], deadline, False)
            setups.append(ready_s)
            probes.append(common.host_scale())
        ready_s, report = launch(["--mode", "run", *base], deadline, True)
        setups.append(ready_s)
    except WorkerFailed as exc:
        print(f"perfledger: {exc}", file=sys.stderr)
        return 1

    failed = report["failed"]
    errors = list(report.get("errors", []))
    origin = report["provenance"]
    mismatch = check_record(
        f"{origin['src_sha256']}-{origin['bench_sha256']}-{args.workload}-{args.seed}-{args.scale}",
        report["record"],
    )
    if mismatch:
        failed = max(failed, 1)
        errors.append(mismatch)

    if args.trace:
        declared = spec["per_layer"]
        values = dict(report["per_layer"])
        values["setup.generate_s"] = generated["generate_s"]
        layers = json.loads((HERE / "layers.json").read_text())["per_layer"]
        for metric in declared:
            if args.workload not in layers[metric["name"]]["measured_on"]:
                values.setdefault(metric["name"], 0.0)  # the layer does no work here
    else:
        declared = spec["end_to_end"]
        values = dict(report["end_to_end"])
        values["setup_s"] = common.median(setups) * statistics.harmonic_mean(probes)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfledger: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("# provenance " + json.dumps(report["provenance"], sort_keys=True))
    print("# samples " + json.dumps(report.get("samples", {}), sort_keys=True))
    if not args.trace:
        print("# setup samples (s) " + ", ".join(f"{s:.3f}" for s in setups))
    print(f"# generate_s {generated['generate_s']:.3f}")
    for error in errors:
        print(f"# FAILED CHECK: {error}")
    for metric in declared:
        print(f"{metric['name']:<48} {values[metric['name']]:>14.4f} {metric['unit']}")
    if args.trace and report.get("self_times"):
        print("# per-layer self time, bench spans joined with server spans")
        print(common.render_self_times(report["self_times"]))
    result = {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
