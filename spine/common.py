"""Shared pieces of the benchmark: inputs, statistics, /proc readings, the
run descriptor and the correctness gate.

Nothing here is timed.  Workload modules import the program (``repro``)
only after :func:`import_program` has put the checkout's ``src/`` on the
path, so this module itself imports nothing from it at load time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SPINE_DIR = Path(__file__).resolve().parent
ROOT = SPINE_DIR.parent
SRC = ROOT / "src"
#: Everything a run leaves behind (input cache, data dirs, reports).
RUN_DIR = SPINE_DIR / ".run"
CACHE_DIR = RUN_DIR / "cache"
WORK_DIR = RUN_DIR / "work"
RESULTS_DIR = RUN_DIR / "results"

#: Data seeds are fixed: the benchmark's seed varies the queries only.
DATA_SEED = 7
#: The accuracy probes use one fixed query seed, so accuracy metrics are
#: exact and comparable across runs; ``--seed`` drives the timed queries.
ACCURACY_SEED = 0
#: Rows the query generator sees (a seeded uniform sample of the table):
#: literals come from the sample's quantiles, and selectivity is checked on
#: it, so generation stays cheap while ground truth uses every row.
GENERATOR_ROWS = 4_096
#: Setups per run; ``setup_s`` and ``build_s`` report their median.
SETUP_REPEATS = 3


def import_program() -> None:
    """Put the checkout's ``src/`` on ``sys.path`` or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"spine: no program source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# --------------------------------------------------------------------------- #
# Scale


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``full`` is the benchmark; ``tiny`` is the self-test."""

    name: str
    power_rows: int
    power_partition: int
    flights_rows: int
    sample_size: int
    adhoc_pool: int
    scatter_pool: int
    probe_queries: int
    ladder: tuple[tuple[int, float], ...]  # (rate q/s, share of the window)
    latency_step: int  # the ladder rate whose latency is query_p50_ms / query_p99_ms
    ingest_base_rows: int
    ingest_partition: int
    ingest_batches: int
    ingest_batch_rows: int
    ingest_checkpoint_every: int
    ingest_read_rate: float
    ingest_read_pool: int
    #: Accuracy floor of the correctness gate (catches a broken engine only).
    max_median_error_pct: float
    min_coverage_pct: float


FULL = Scale(
    name="full",
    power_rows=131_072,
    power_partition=65_536,
    flights_rows=65_536,
    sample_size=20_000,
    adhoc_pool=2_000,
    scatter_pool=600,
    probe_queries=400,
    ladder=((250, 0.10), (500, 0.10), (1000, 0.15), (2000, 0.65)),
    latency_step=2000,
    ingest_base_rows=65_536,
    ingest_partition=16_384,
    ingest_batches=32,
    ingest_batch_rows=2_048,
    ingest_checkpoint_every=8,
    ingest_read_rate=250.0,
    ingest_read_pool=1_000,
    max_median_error_pct=25.0,
    min_coverage_pct=50.0,
)

TINY = Scale(
    name="tiny",
    power_rows=16_384,
    power_partition=8_192,
    flights_rows=4_096,
    sample_size=8_192,
    adhoc_pool=600,
    scatter_pool=60,
    probe_queries=40,
    ladder=((100, 0.5), (200, 0.5)),
    latency_step=200,
    ingest_base_rows=4_096,
    ingest_partition=1_024,
    ingest_batches=4,
    ingest_batch_rows=512,
    ingest_checkpoint_every=2,
    ingest_read_rate=20.0,
    ingest_read_pool=100,
    max_median_error_pct=100.0,
    min_coverage_pct=25.0,
)

SCALES = {s.name: s for s in (FULL, TINY)}


# --------------------------------------------------------------------------- #
# Statistics


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else math.nan


def tail_percentile(n: int) -> float:
    """The highest of the usual percentiles with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return 50.0


def latency_summary(seconds: list[float]) -> dict:
    """Median and p99 (in ms) with the sample count.

    With at least 2000 samples, p99 is the median of the p99s of
    contiguous blocks of at least 1000 samples each (so each block p99 has
    ten samples beyond it), and one stall in a run moves it less;
    otherwise it is the p99 of all samples.
    ``tail_q`` names the highest percentile the sample count supports.
    """
    n = len(seconds)
    ms = np.asarray(seconds, dtype=float) * 1e3
    out = {"n": n, "p50_ms": percentile(ms, 50), "tail_q": tail_percentile(n)}
    out["tail_ms"] = percentile(ms, out["tail_q"])
    blocks = n // 1000
    out["p99_pooled_ms"] = percentile(ms, 99)
    if blocks >= 2:
        parts = np.array_split(ms, blocks)
        out["p99_ms"] = float(np.median([np.percentile(p, 99) for p in parts]))
        out["p99_method"] = f"median of {blocks} block p99s"
    else:
        out["p99_ms"] = percentile(ms, 99)
        out["p99_method"] = "p99 of all samples" + ("" if n >= 1000 else " (n < 1000: fewer than 10 beyond)")
    return out


def relative_error_pct(estimate: float, truth: float) -> float:
    """The paper's error metric: |est - truth| / |truth|, in percent."""
    if truth == 0:
        return 0.0 if estimate == 0 else 100.0
    return abs(estimate - truth) / abs(truth) * 100.0


# --------------------------------------------------------------------------- #
# /proc


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (VmHWM) of a process, in MiB; 0 when it is gone."""
    path = f"/proc/{pid or 'self'}/status"
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_seconds(pid: int | None = None) -> float:
    """User + system CPU seconds a process has used (``/proc/<pid>/stat``)."""
    try:
        with open(f"/proc/{pid or 'self'}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# --------------------------------------------------------------------------- #
# Run descriptor


def host_probe_ms() -> float:
    """A fixed CPU loop (Python and numpy), timed.  Recorded, never divided in."""
    rng = np.random.default_rng(0)
    data = rng.random(200_000)
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    np.sort(data)
    return (time.perf_counter() - start) * 1e3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` when it is not a git work tree."""
    if shutil.which("git") is None:
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _source_identity() -> tuple[int, str]:
    """Line count of ``src/**/*.py`` and a digest of their contents."""
    digest = hashlib.blake2b(digest_size=8)
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(data)
    return lines, digest.hexdigest()


def run_descriptor() -> dict:
    import numpy

    lines, digest = _source_identity()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_digest": digest,
        "src_lines": lines,
    }


# --------------------------------------------------------------------------- #
# Inputs: tables, seeded queries and their ground truth (cached per seed)


def load_tables(scale: Scale):
    from repro import load_dataset

    return (
        load_dataset("power", rows=scale.power_rows, seed=DATA_SEED),
        load_dataset("flights", rows=scale.flights_rows, seed=DATA_SEED),
    )


def build_params(scale: Scale):
    from repro import PairwiseHistParams

    return PairwiseHistParams(sample_size=scale.sample_size)


def generate_queries(table, count: int, seed: int, group_by: str | None = None,
                     group_share: float = 0.0) -> list:
    """Distinct scaled-experiments queries (paper §6) over ``table``.

    ``workload.QueryGenerator`` draws twice as many candidates as needed
    from a seeded sample of the rows; the pool then takes them round-robin
    across strata of (aggregation, number of conditions, OR or not), so its
    make-up, and with it the cost of a pass over it, barely depends on the
    seed.  Every ``1 / group_share``-th query additionally gets
    ``GROUP BY group_by``: one GROUP BY costs tens of scalar queries, so
    their number must not vary with the seed either.
    """
    from repro.sql.ast import PredicateNode, predicate_conditions
    from repro.workload import QueryGenerator, WorkloadSpec

    rng = np.random.default_rng(seed)
    sample = table.sample(GENERATOR_ROWS, rng)
    spec = WorkloadSpec.scaled_experiments(num_queries=count * 2, seed=seed)
    strata: dict[tuple, list] = {}
    seen: set[str] = set()
    for query in QueryGenerator(sample, spec).generate():
        text = str(query)
        if text in seen:
            continue
        seen.add(text)
        key = (query.aggregation.func.value, len(predicate_conditions(query.predicate)),
               isinstance(query.predicate, PredicateNode) and query.predicate.op.value == "OR")
        strata.setdefault(key, []).append(query)
    queries: list = []
    buckets = [strata[key] for key in sorted(strata)]
    while len(queries) < count and any(buckets):
        for bucket in buckets:
            if bucket and len(queries) < count:
                queries.append(bucket.pop(0))
    if group_by is not None and group_share > 0:
        step = round(1 / group_share)
        for index in range(int(rng.integers(step)), len(queries), step):
            queries[index].group_by = group_by
    return queries


def exact_answer(exact, query):
    """Ground truth of a scalar query; ``None`` for GROUP BY, whose answers
    are checked for sanity and repeatability but not scored."""
    if query.group_by is not None:
        return None
    return float(exact.execute_scalar(query))


def cached_inputs(key: str, build) -> dict:
    """``build()`` once per key; later runs with the same seed read the cache."""
    path = CACHE_DIR / f"{key}.json"
    if path.is_file():
        with open(path) as fh:
            return json.load(fh)
    value = build()
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "w") as fh:
        json.dump(value, fh)
    os.replace(tmp, path)
    return value


def timed_sqls(name: str, table, count: int, seed: int,
               group_by: str | None = None, group_share: float = 0.0) -> list[str]:
    """``count`` distinct SQL texts for the timed window, cached per seed."""
    return cached_inputs(
        f"{name}{table.num_rows}-{count}-{seed}",
        lambda: [str(q) for q in generate_queries(table, count, seed, group_by, group_share)],
    )


def accuracy_probe(name: str, table, count: int, exact,
                   group_by: str | None = None, group_share: float = 0.0) -> list[dict]:
    """``[{"sql", "truth"}]``: the fixed-seed accuracy probe with its ground truth."""
    def build():
        queries = generate_queries(table, count, ACCURACY_SEED, group_by, group_share)
        return [{"sql": str(q), "truth": exact_answer(exact, q)} for q in queries]

    return cached_inputs(f"{name}{table.num_rows}-{count}-probe", build)


# --------------------------------------------------------------------------- #
# Answers and the correctness gate


def answer_tuple(result) -> tuple:
    """A hashable, bit-exact view of one scalar ``AqpResult`` or wire result."""
    if isinstance(result, dict):  # wire form: JSON carries NaN as null
        return tuple(math.nan if result[k] is None else float(result[k])
                     for k in ("value", "lower", "upper"))
    return (float(result.value), float(result.lower), float(result.upper))


def groups_tuple(groups: dict) -> tuple:
    return tuple(sorted((label, answer_tuple(rs[0])) for label, rs in groups.items()))


def same_bits(a, b) -> bool:
    """Bit-for-bit equality of nested tuples of floats (NaN equals NaN)."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


@dataclass
class Gate:
    """Collects correctness violations; any violation fails the run."""

    violations: list[str] = field(default_factory=list)
    wrong: int = 0

    def fail(self, message: str) -> None:
        self.wrong += 1
        if len(self.violations) < 20:
            self.violations.append(message)

    @property
    def ok(self) -> bool:
        return self.wrong == 0


def check_scalar_sanity(gate: Gate, sql: str, answer: tuple, truth: float,
                        bounds_gate: bool = True) -> bool:
    """An answer must not be infinite and must lie inside its own bounds.

    A NaN answer is the engine estimating an empty result; where the truth
    exists it counts as a miss in :func:`accuracy`, not as a wrong answer.
    Returns False when the value lies outside its bounds; that fails the
    gate unless ``bounds_gate`` is off (the caller then reports it).
    """
    value, lower, upper = answer
    if any(math.isinf(x) for x in answer):
        gate.fail(f"infinite answer {answer} for {sql} (truth {truth})")
    elif not math.isnan(value) and not lower <= value <= upper:
        if bounds_gate:
            gate.fail(f"value outside its bounds {answer} for {sql}")
        return False
    return True


def accuracy(gate: Gate, pairs: list[tuple[str, tuple, float]], scale: Scale,
             bounds_gate: bool = True) -> dict:
    """Relative-error percentiles and bound coverage over scalar answers.

    Queries whose exact answer is undefined (NaN) are left out.  A NaN
    estimate of a defined answer counts as a 100% error, bounds missed.
    The floor (median error, coverage) only catches a broken engine: the
    paper reports median errors of a few percent on these mixes.
    """
    outside = []
    for sql, answer, truth in pairs:
        if not check_scalar_sanity(gate, sql, answer, truth, bounds_gate):
            outside.append(f"{answer} for {sql}")
    errors, covered, missed, n = [], 0, 0, 0
    for sql, answer, truth in pairs:
        if math.isnan(truth):
            continue
        n += 1
        if math.isnan(answer[0]):
            missed += 1
            errors.append(100.0)
            continue
        errors.append(relative_error_pct(answer[0], truth))
        covered += answer[1] <= truth <= answer[2]
    if n == 0:
        gate.fail("no scalar answer had a finite ground truth")
        return {"n": 0, "p50": math.nan, "p95": math.nan, "coverage": math.nan, "missed": 0}
    out = {
        "n": n,
        "p50": percentile(errors, 50),
        "p95": percentile(errors, 95),
        "coverage": covered / n * 100.0,
        "value_outside_bounds": outside,
        "missed": missed,
    }
    if out["p50"] > scale.max_median_error_pct:
        gate.fail(f"median relative error {out['p50']:.1f}% exceeds {scale.max_median_error_pct}%")
    if out["coverage"] < scale.min_coverage_pct:
        gate.fail(f"bound coverage {out['coverage']:.1f}% below {scale.min_coverage_pct}%")
    return out


def check_repeats(gate: Gate, served: list[tuple[int, tuple]], sqls: list[str]) -> int:
    """Every repeat of a SQL text must return the bits of its first answer.

    Returns the number of repeats compared.  With no ingest running, the
    engine is deterministic, so any difference is a wrong answer.
    """
    first: dict[int, tuple] = {}
    compared = 0
    for index, answer in served:
        seen = first.setdefault(index, answer)
        if seen is not answer:
            compared += 1
            if not same_bits(seen, answer):
                gate.fail(f"answer changed between repeats of {sqls[index]}: {seen} vs {answer}")
    return compared


def settle() -> None:
    """Collect garbage between phases so one phase's litter is not timed in the next."""
    gc.collect()


# --------------------------------------------------------------------------- #
# Registry readings (in-process ``REGISTRY.snapshot()`` or the ``metrics`` op)


def counter_total(snapshot: dict, name: str, **labels) -> float:
    """Sum of a counter's series whose labels include ``labels``."""
    entry = snapshot.get(name) or {"series": []}
    return sum(
        s.get("value", 0.0)
        for s in entry["series"]
        if all(s["labels"].get(k) == v for k, v in labels.items())
    )


def histogram_sum_count(snapshot: dict, name: str, **labels) -> tuple[float, int]:
    entry = snapshot.get(name) or {"series": []}
    total, count = 0.0, 0
    for s in entry["series"]:
        if all(s["labels"].get(k) == v for k, v in labels.items()):
            total += s.get("sum", 0.0)
            count += s.get("count", 0)
    return total, count


def delta_ratio(pairs: list[tuple[dict, dict]], name: str) -> float:
    """Share of ``outcome=hit`` among a lookup counter's increments,
    summed over (before, after) snapshot pairs."""
    hits = total = 0.0
    for before, after in pairs:
        hits += counter_total(after, name, outcome="hit") - counter_total(before, name, outcome="hit")
        total += counter_total(after, name) - counter_total(before, name)
    return hits / total if total else 0.0


def local_registry() -> dict:
    from repro.obs.metrics import REGISTRY

    return REGISTRY.snapshot()


# --------------------------------------------------------------------------- #
# One run's results


@dataclass
class Context:
    """What a workload gets, and what it fills in."""

    workload: str
    seed: int
    seconds: float
    scale: Scale
    tracer: object | None = None  # spine.tracer.Tracer in traced runs
    gate: Gate = field(default_factory=Gate)
    end_to_end: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    attempted: int = 0
    errored: int = 0
    shed: int = 0
    timed_out: int = 0
    #: Child processes (server, shard workers) whose /proc figures count.
    child_pids: list = field(default_factory=list)

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    @property
    def failed(self) -> int:
        return self.errored + self.shed + self.timed_out + self.gate.wrong

    def set_setup(self, setups: list[float], builds: list[float]) -> None:
        self.end_to_end["setup_s"] = float(np.median(setups))
        self.end_to_end["build_s"] = float(np.median(builds))
        self.info["setup_runs_s"] = setups
        self.info["build_runs_s"] = builds

    def set_latency(self, seconds: list[float], elapsed: float, completed: int | None = None) -> dict:
        summary = latency_summary(seconds)
        self.end_to_end["query_p50_ms"] = summary["p50_ms"]
        self.end_to_end["query_p99_ms"] = summary["p99_ms"]
        done = len(seconds) if completed is None else completed
        self.end_to_end["query_qps"] = done / elapsed if elapsed > 0 else 0.0
        self.info["query_latency"] = summary
        return summary

    def set_accuracy(self, acc: dict) -> None:
        self.end_to_end["rel_error_p50_pct"] = acc["p50"]
        self.end_to_end["rel_error_p95_pct"] = acc["p95"]
        self.end_to_end["bound_coverage_pct"] = acc["coverage"]
        self.info["accuracy_queries"] = acc["n"]
        self.info["accuracy_missed"] = acc["missed"]
        if acc.get("value_outside_bounds"):
            self.info["value_outside_own_bounds"] = acc["value_outside_bounds"][:5]
            self.info["value_outside_own_bounds_count"] = len(acc["value_outside_bounds"])

    def set_peak_rss(self) -> None:
        """Benchmark process plus every live child, read before teardown."""
        self.end_to_end["peak_rss_mb"] = peak_rss_mb() + sum(peak_rss_mb(p) for p in self.child_pids)


def perturb_one(served: list[tuple[int, tuple]]) -> None:
    """Self-test hook: nudge one repeated answer's value by one ulp.

    Picks the second answer of the first SQL served twice (or the first
    answer when nothing repeats), among answers with a finite first value,
    so a gate comparing repeats or a reference must notice.
    """
    seen: set[int] = set()
    candidates = [p for p, (_, answer) in enumerate(served) if _first_value_finite(answer)]
    pick = candidates[0]
    for position in candidates:
        index = served[position][0]
        if index in seen:
            pick = position
            break
        seen.add(index)
    index, answer = served[pick]
    served[pick] = (index, _nudge(answer))


def _first_value_finite(answer) -> bool:
    if not answer:
        return False
    if isinstance(answer[0], float):
        return math.isfinite(answer[0])
    return _first_value_finite(answer[0][1])


def _nudge(answer):
    if isinstance(answer[0], float):
        return (math.nextafter(answer[0], math.inf),) + answer[1:]
    label, inner = answer[0]
    return ((label, _nudge(inner)),) + answer[1:]
