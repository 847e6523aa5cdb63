"""Self-test of the benchmark at tiny scale (about three minutes).

    python3 spine/selftest.py

Checks that ``BENCHMARK.json`` keeps to the format the benchmark promises,
that every workload emits every metric it names with its unit (untraced:
the end-to-end metrics, traced: the per-layer ones), that the correctness
gate fails when one served answer is perturbed, and that the benchmark
exits non-zero without a result when the program's source is absent.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

SPINE_DIR = Path(__file__).resolve().parent
ROOT = SPINE_DIR.parent
RUN = [sys.executable, str(SPINE_DIR / "run.py")]
WORKLOADS = ("adhoc", "dashboard", "scatter", "ingest")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"BENCHMARK.json keys: {sorted(spec)}")
    check(1 <= len(spec["paths"]) <= 16, "1 to 16 paths")
    for path in spec["paths"]:
        check(re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path) is not None and ".." not in path
              and not path.startswith("/"), f"path {path!r}")
    check(len(spec["command"]) <= 32 and all(len(c) <= 200 for c in spec["command"]), "command size")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    names = []
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
              f"workload {w.get('name')}")
        names.append(w["name"])
    check(1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128, "metric counts")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              f"end-to-end metric {m.get('name')}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per-layer metric {m.get('name')}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(NAME.match(m["name"]) is not None and UNIT.match(m["unit"]) is not None
              and m["better"] in ("lower", "higher"), f"metric {m['name']}")
        names.append(m["name"])
    check(len(names) == len(set(names)), "names are unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s metric")
    check(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s has the largest bound")


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    argv = RUN + ["--workload", workload, "--seed", "3", "--seconds", "2",
                  "--trace", str(trace), "--scale", "tiny", *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def check_result(workload: str, trace: int, result: dict | None, wanted: list[dict]) -> None:
    check(result is not None, f"{workload} trace={trace}: no result line")
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
    check(result["correct"] is True and result["failed"] == 0, f"{workload} trace={trace}: not correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{workload}: attempted")
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in wanted}, f"{workload} trace={trace}: metric names differ: "
          f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"] and isinstance(got["value"], float),
              f"{workload}: {m['name']} unit/value {got}")
        if trace == 0:
            check(got["value"] != 0.0, f"{workload}: end-to-end {m['name']} reads 0")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("spec ok", flush=True)
    for workload in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result, output = run(workload, trace)
            if code != 0:
                print(output[-4000:])
            check(code == 0, f"{workload} trace={trace} exited {code}")
            check_result(workload, trace, result, wanted)
            print(f"{workload} trace={trace}: {len(result['metrics'])} metrics ok", flush=True)
        code, result, _ = run(workload, 0, "--perturb")
        check(code != 0 and result is not None and result["correct"] is False and result["failed"] >= 1,
              f"{workload}: the gate passed a perturbed answer")
        print(f"{workload}: perturbed answer fails the gate", flush=True)

    bare = SPINE_DIR / ".run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(SPINE_DIR, bare / "spine", ignore=shutil.ignore_patterns(".run", "__pycache__"))
        argv = [sys.executable, "spine/run.py", "--workload", "adhoc", "--seed", "1",
                "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=bare, timeout=180)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              "without the program source the benchmark must fail without a result")
        print("no source: exits non-zero without a result", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
