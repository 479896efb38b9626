"""One perfledger workload process: generate inputs, set up, or run.

``run.py`` starts this file as a subprocess (see its docstring) in one of
three modes:

* ``generate`` — build the seeded inputs and store them as JSON edge
  lists under the state directory; reports ``generate_s``;
* ``probe`` — do the workload's set-up (imports, graph builds, warm-up,
  server boot), print the ready marker, tear down and exit;
* ``run`` — the same set-up, the ready marker, then the timed phase,
  the output checks and one result line.

``run.py`` times ``probe`` and ``run`` from process start to the ready
marker, so set-up time includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

sys.path.insert(0, str(common.SRC))

WORKLOADS = {
    "solve-rotation": "solve_rotation",
    "update-stream": "update_stream",
    "serve-mix": "serve_mix",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("generate", "probe", "run"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), required=True)
    parser.add_argument("--state", required=True)
    args = parser.parse_args()

    module = importlib.import_module(WORKLOADS[args.workload])
    ctx = common.Context(
        seed=args.seed, scale=args.scale, trace=bool(args.trace),
        state=Path(args.state),
    )
    inputs_path = ctx.state / "inputs.json"
    if args.mode == "generate":
        import repro.graphs.generators  # noqa: F401  (imports are not generation)

        started = time.perf_counter()
        inputs = module.generate(ctx)
        generate_s = time.perf_counter() - started
        inputs_path.write_text(json.dumps(inputs, separators=(",", ":")))
        common.emit_result({"generate_s": generate_s})
        return 0

    ctx.inputs = json.loads(inputs_path.read_text())
    if ctx.trace and args.mode == "run":
        from repro.obs.trace import Tracer

        # Spans stay in memory and are written out once, after timing.
        ctx.tracer = Tracer(sample=1.0, max_spans=10_000_000, seed=ctx.seed)
    workload = module.Workload(ctx)
    try:
        workload.setup()
        common.signal_ready()
        if args.mode == "probe":
            return 0
        steal_before = common.cpu_times()
        workload.run(args.seconds)
        steal = common.steal_pct(steal_before, common.cpu_times())
        report = workload.finish()
    finally:
        workload.close()
    report.setdefault("per_layer", {})["host.steal_pct"] = steal
    if ctx.trace:
        from repro.obs.trace import load_spans

        report["per_layer"].update(common.overhead_metrics(workload.ops))
        trace_dir = ctx.state / "trace"
        trace_dir.mkdir(exist_ok=True)
        with open(trace_dir / "bench.jsonl", "w", encoding="utf-8") as handle:
            for span in ctx.tracer.spans():
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
        # joined with the server's --trace-dir export, where there is one
        report["self_times"] = common.self_times(load_spans([str(trace_dir)]))
    report["provenance"] = common.provenance(ctx.seed, workload.sizes())
    report["provenance"]["host.steal_pct"] = steal
    common.emit_result(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
