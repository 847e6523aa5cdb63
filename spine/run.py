"""Run one workload of the benchmark and print its metrics.

    python3 spine/run.py --workload adhoc --seed 1 --seconds 12 --trace 0
    python3 spine/run.py --workload all --seed 1 --seconds 12

Run from the repository root; the program is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it are the readable report: every metric
by name with its unit, the run descriptor, per-step load accounting and
the correctness verdict.  The full report is also written under
``spine/.run/results/``.  Exit status is 1 when the correctness gate
fails, 2 on a usage or environment error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

SPINE_DIR = Path(__file__).resolve().parent
if str(SPINE_DIR) not in sys.path:
    sys.path.insert(0, str(SPINE_DIR))

import common  # noqa: E402

WORKLOADS = ("adhoc", "dashboard", "scatter", "ingest")


def load_spec() -> dict:
    path = common.ROOT / "BENCHMARK.json"
    if not path.is_file():
        print(f"spine: {path} is missing", file=sys.stderr)
        raise SystemExit(2)
    with open(path) as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: common.Scale,
                 spec: dict, perturb: bool = False) -> dict:
    """Run one workload in this process; returns the report."""
    common.import_program()
    import importlib

    module = importlib.import_module(name)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    ctx = common.Context(workload=name, seed=seed, seconds=seconds, scale=scale, tracer=tracer)
    ctx.info["perturb"] = perturb
    descriptor = common.run_descriptor()
    descriptor["host_probe_start_ms"] = common.host_probe_ms()
    started = time.perf_counter()
    module.run(ctx)
    descriptor["wall_s"] = time.perf_counter() - started
    descriptor["host_probe_end_ms"] = common.host_probe_ms()

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = ctx.layers if trace else ctx.end_to_end
    metrics, missing = {}, []
    for entry in wanted:
        value = values.get(entry["name"], 0.0 if trace else None)
        if value is None or (isinstance(value, float) and not math.isfinite(value)):
            missing.append(entry["name"])
            continue
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    if missing:
        ctx.gate.fail(f"metrics not measured: {', '.join(missing)}")
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale.name,
        "correct": ctx.gate.ok,
        "attempted": max(1, ctx.attempted),
        "failed": ctx.failed,
        "accounting": {
            "attempted": ctx.attempted,
            "errored": ctx.errored,
            "shed": ctx.shed,
            "timed_out": ctx.timed_out,
            "wrong": ctx.gate.wrong,
            "error_rate": ctx.failed / max(1, ctx.attempted),
        },
        "violations": ctx.gate.violations,
        "metrics": metrics,
        "all_end_to_end": {k: [v, units.get(k, "")] for k, v in sorted(ctx.end_to_end.items())},
        "all_layers": {k: [v, units.get(k, "")] for k, v in sorted(ctx.layers.items())},
        "info": ctx.info,
        "descriptor": descriptor,
    }


def print_report(report: dict) -> None:
    print(f"== spine {report['workload']} seed={report['seed']} seconds={report['seconds']} "
          f"trace={int(report['trace'])} scale={report['scale']}")
    for key, value in report["descriptor"].items():
        print(f"  descriptor.{key} = {value}")
    for section in ("all_end_to_end", "all_layers"):
        for name, (value, unit) in report[section].items():
            print(f"  {name} = {value:.6g} {unit}")
    for key, value in report["info"].items():
        print(f"  info.{key} = {json.dumps(value, default=str)}")
    acc = report["accounting"]
    print("  accounting: " + ", ".join(f"{k}={v}" for k, v in acc.items()))
    verdict = "PASS" if report["correct"] else "FAIL"
    print(f"  correctness: {verdict}")
    for violation in report["violations"]:
        print(f"    - {violation}")


def save_report(report: dict) -> None:
    common.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    name = f"{report['workload']}-seed{report['seed']}-trace{int(report['trace'])}-{os.getpid()}.json"
    with open(common.RESULTS_DIR / name, "w") as fh:
        json.dump(report, fh, indent=1, default=str)


def run_all(args) -> int:
    """Each workload in its own process, so one cannot leave state for the next."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(common.SCALES), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    parser.add_argument("--perturb", action="store_true",
                        help="alter one served answer before checking it (self-test "
                             "of the correctness gate; the run must fail)")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          common.SCALES[args.scale], spec, perturb=args.perturb)
    save_report(report)
    print_report(report)
    sys.stdout.flush()
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
