"""``ingest``: appends beside open-loop reads on a durable, fsync'd store.

A ``ConcurrentQueryService`` over ``DurableDatabase(fsync=True)`` holds
``power`` in 16,384-row partitions.  In each of three rounds, on a fresh
store, the main thread appends 32 batches of 2,048 rows paced over a third
of the window (the tail partition seals four times) and checkpoints after
batches 8, 16 and 24; the last eight batches stay in the WAL, so reopening
replays them.  One reader thread sends distinct queries open loop at a
fixed rate, each timed from when it was due.  After the last round the
store is closed and reopened: every acknowledged row must come back
bit-identical, and so must a fixed set of probe answers.
"""

from __future__ import annotations

import math
import os
import shutil
import threading
from dataclasses import dataclass, field
from time import perf_counter, sleep

import numpy as np

import layers
from common import (
    DATA_SEED,
    SETUP_REPEATS,
    WORK_DIR,
    Context,
    accuracy,
    accuracy_probe,
    answer_tuple,
    build_params,
    check_scalar_sanity,
    counter_total,
    dir_bytes,
    histogram_sum_count,
    latency_summary,
    local_registry,
    perturb_one,
    timed_sqls,
    same_bits,
    settle,
)


def open_store(path, table, params, scale):
    from repro import ConcurrentQueryService, DurableDatabase

    start = perf_counter()
    database = DurableDatabase(path, fsync=True)
    service = ConcurrentQueryService(database)
    build_start = perf_counter()
    try:
        service.register_table(table, params=params, partition_size=scale.ingest_partition)
    except BaseException:
        database.close()
        raise
    end = perf_counter()
    return service, end - start, end - build_start


class Reader(threading.Thread):
    """Open-loop reader: query ``k`` is due at ``start + k / rate``."""

    def __init__(self, service, sqls, rate, tracer) -> None:
        super().__init__(name="spine-reader", daemon=True)
        self.service, self.sqls, self.rate, self.tracer = service, sqls, rate, tracer
        self.stop_at = None  # set by the writer when the window may close
        self.latencies: list[float] = []
        self.lateness: list[float] = []
        self.traced_flags: list[bool] = []
        self.answers: list[tuple[int, object]] = []
        self.errors: list[str] = []
        self.traced = False  # toggled by the writer in a traced run

    def run(self) -> None:
        start = perf_counter()
        k = 0
        while True:
            due = start + k / self.rate
            now = perf_counter()
            if self.stop_at is not None and due >= self.stop_at:
                break
            if now < due:
                sleep(due - now)
            self.lateness.append(max(0.0, perf_counter() - due))
            sql = self.sqls[k % len(self.sqls)]
            traced = self.traced
            if self.tracer is not None:
                self.tracer.set_request(-(k + 1))
            try:
                result = self.service.execute(sql)
                self.answers.append((k % len(self.sqls), result))
            except Exception as exc:
                self.errors.append(f"{type(exc).__name__}: {exc} for {sql}")
            self.latencies.append(perf_counter() - due)
            self.traced_flags.append(traced)
            k += 1


@dataclass
class WriteRound:
    """One store's paced write phase with its reader."""

    reader: Reader
    commit_s: list = field(default_factory=list)
    rebuilt: list = field(default_factory=list)
    checkpoints: list = field(default_factory=list)
    traced_batch: list = field(default_factory=list)
    busy_s: float = 0.0
    window_s: float = 0.0
    registry: tuple = ()


def run(ctx: Context) -> None:
    from repro import ExactQueryEngine, load_dataset

    scale = ctx.scale
    total_rows = scale.ingest_base_rows + scale.ingest_batches * scale.ingest_batch_rows
    full = load_dataset("power", rows=total_rows, seed=DATA_SEED)
    base = full.select_rows(np.arange(scale.ingest_base_rows))
    batches = [
        full.select_rows(np.arange(start, start + scale.ingest_batch_rows))
        for start in range(scale.ingest_base_rows, total_rows, scale.ingest_batch_rows)
    ]
    params = build_params(scale)
    exact = ExactQueryEngine({"power": full})
    reads = timed_sqls("ingest-reads", base, scale.ingest_read_pool, ctx.seed)
    probe = accuracy_probe("power", full, scale.probe_queries, exact)

    work = WORK_DIR / f"ingest-{ctx.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    service = None
    try:
        # Each round opens a fresh store and runs the whole write schedule
        # over a share of the window, so the window is spread over the run
        # (this host's speed drifts over tens of seconds) and one run sees
        # every tail seal and checkpoint several times.
        setups, builds, rounds = [], [], []
        for attempt in range(SETUP_REPEATS):
            if service is not None:
                service.database.close()
                service = None
                shutil.rmtree(path, ignore_errors=True)
            settle()
            path = work / f"store-{attempt}"
            service, setup_s, build_s = open_store(path, base, params, scale)
            setups.append(setup_s)
            builds.append(build_s)
            rounds.append(write_round(ctx, service, reads, batches, ctx.seconds / SETUP_REPEATS))
        ctx.set_setup(setups, builds)
        report_rounds(ctx, rounds, reads, sum(b.num_rows for b in batches))
        verify(ctx, service, path, probe, base, batches)
        service = None
        ctx.set_peak_rss()
    finally:
        if service is not None:
            service.database.close()
        shutil.rmtree(work, ignore_errors=True)


def write_round(ctx: Context, service, reads: list[str], batches: list, seconds: float) -> WriteRound:
    """Append every batch, paced over ``seconds``, beside the open-loop reader."""
    scale, tracer = ctx.scale, ctx.tracer
    for sql in reads[:20]:
        service.execute(sql)
    settle()
    before = local_registry()
    out = WriteRound(reader=Reader(service, reads, scale.ingest_read_rate, tracer))
    reader = out.reader
    window_start = perf_counter()
    reader.start()
    # The writer is paced too: batch k is due at k * seconds / batches, so
    # reads meet the same mix of idle and busy writer across the window.
    spacing = seconds / len(batches)
    try:
        for number, batch in enumerate(batches, start=1):
            wait = window_start + (number - 1) * spacing - perf_counter()
            if wait > 0:
                sleep(wait)
            group_traced = tracer is not None and ((number - 1) // scale.ingest_checkpoint_every) % 2 == 1
            if tracer is not None and group_traced != reader.traced:
                (tracer.install if group_traced else tracer.uninstall)()
                reader.traced = group_traced
            if tracer is not None:  # build pool threads take the global id
                tracer.request = number
                tracer.set_request(number)
            t0 = perf_counter()
            result = service.ingest("power", batch)
            out.commit_s.append(perf_counter() - t0)
            out.busy_s += out.commit_s[-1]
            out.traced_batch.append(group_traced)
            out.rebuilt.append(len(result.rebuilt_partitions))
            if number % scale.ingest_checkpoint_every == 0 and number < len(batches):
                t0 = perf_counter()
                service.checkpoint()
                out.checkpoints.append(perf_counter() - t0)
                out.busy_s += out.checkpoints[-1]
        if tracer is not None:
            tracer.uninstall()
            reader.traced = False
    finally:
        reader.stop_at = max(perf_counter(), window_start + seconds)
        reader.join(timeout=60.0)
    out.window_s = perf_counter() - window_start
    out.registry = (before, local_registry())
    if reader.is_alive():
        ctx.gate.fail("reader thread did not stop")
    for index, result in reader.answers:  # truth moves during ingest: bounds only
        value, lower, upper = answer_tuple(result[0])
        if math.isfinite(value) and not lower <= value <= upper:
            ctx.gate.fail(f"value outside its bounds {(value, lower, upper)} for {reads[index]}")
    return out


def report_rounds(ctx: Context, rounds: list[WriteRound], reads: list[str], appended: int) -> None:
    readers = [r.reader for r in rounds]
    commit_s = [c for r in rounds for c in r.commit_s]
    checkpoints = [c for r in rounds for c in r.checkpoints]
    ctx.attempted = len(commit_s) + sum(len(r.latencies) for r in readers)
    ctx.errored = sum(len(r.errors) for r in readers)
    ctx.info["errors"] = [e for r in readers for e in r.errors][:20]
    ctx.info["reads"] = sum(len(r.latencies) for r in readers)
    ctx.info["reader_late_max_ms"] = max(max(r.lateness, default=0.0) for r in readers) * 1e3
    ctx.info["checkpoints_s"] = checkpoints
    if not ctx.traced:
        untraced = [lat for r in readers for lat, t in zip(r.latencies, r.traced_flags) if not t]
        ctx.set_latency(untraced, sum(r.window_s for r in rounds))
    ingest = latency_summary(commit_s)
    ctx.info["ingest_latency"] = ingest
    layer = ctx.layers
    # Rows per second of writer busy time (appends and checkpoints): the
    # writer is paced, so rows over wall time would only echo the pace.
    layer["service.ingest_rows_per_s"] = appended * len(rounds) / sum(r.busy_s for r in rounds)
    layer["service.ingest_p50_ms"] = ingest["p50_ms"]
    layer["service.ingest_max_ms"] = max(commit_s) * 1e3
    layer["core.synopsis_builds_per_ingest"] = float(np.mean([b for r in rounds for b in r.rebuilt]))
    layer["storage.checkpoint_s"] = float(np.mean(checkpoints)) if checkpoints else 0.0

    def delta(fn, name, **labels):
        return sum(fn(after, name, **labels) - fn(before, name, **labels)
                   for before, after in (r.registry for r in rounds))

    fsync_s = delta(lambda snap, name: histogram_sum_count(snap, name)[0], "aqp_wal_fsync_seconds")
    fsyncs = delta(lambda snap, name: histogram_sum_count(snap, name)[1], "aqp_wal_fsync_seconds")
    layer["storage.wal_fsync_ms"] = fsync_s / fsyncs * 1e3 if fsyncs else 0.0
    layer["storage.wal_bytes_per_row"] = delta(counter_total, "aqp_wal_appended_bytes_total") / (
        appended * len(rounds))
    blobs = delta(counter_total, "aqp_checkpoint_blobs_total")
    layer["storage.checkpoint_linked_ratio"] = (
        delta(counter_total, "aqp_checkpoint_blobs_total", disposition="linked") / blobs if blobs else 0.0
    )
    layers.registry_ratios(ctx, [r.registry for r in rounds])
    if ctx.traced:
        trace_layers(ctx, rounds)


def trace_layers(ctx: Context, rounds: list[WriteRound]) -> None:
    tracer, layer = ctx.tracer, ctx.layers
    writer = threading.get_ident()
    spans = list(tracer.spans)
    write_spans = [s for s in spans if s[6] == writer]
    read_spans = [s for s in spans if s[5] < 0 and s[6] != writer]
    layers.query_layers(ctx, read_spans, sum(sum(r.reader.traced_flags) for r in rounds))
    traced_commits = [c for r in rounds for c, t in zip(r.commit_s, r.traced_batch) if t]
    n = len(traced_commits)
    stats = tracer.by_name(write_spans)
    layer["service.stage_ingest_ms"] = layers.per_query(stats, "service.stage_ingest", n, "total_s", 1e3)
    layer["service.commit_ingest_us"] = layers.per_query(stats, "service.commit_ingest", n, "total_s")
    layer["gd.append_ms"] = layers.per_query(stats, "gd.append", n, "total_s", 1e3)
    wal = stats.get("storage.wal_append")
    layer["storage.wal_append_us"] = wal["total_s"] / wal["calls"] * 1e6 if wal else 0.0
    all_stats = tracer.by_name([s for s in spans if s[5] > 0])  # writer requests, all threads
    layer["gd.compress_s"] = layers.per_query(all_stats, "gd.compress", n, "self_s", 1.0)
    layer["gd.bit_search_s"] = layers.per_query(all_stats, "gd.bit_search", n, "total_s", 1.0)
    layer["core.build_partition_s"] = layers.per_query(all_stats, "core.build_partition", n, "total_s", 1.0)
    layer["core.hist2d_s"] = layers.per_query(all_stats, "core.hist2d", n, "total_s", 1.0)
    layer["core.merge_ms"] = layers.per_query(all_stats, "core.merge", n, "total_s", 1e3)
    ingest_spans = [s for s in write_spans if s[5] > 0 and s[2] != "storage.checkpoint"]
    layers.layer_coverage_pct(ctx, ingest_spans, traced_commits, writer)
    layer["obs.trace_overhead_pct"] = layers.trace_overhead_pct(
        [c for r in rounds for c, t in zip(r.commit_s, r.traced_batch) if not t], traced_commits
    )
    tracer.clear()


def verify(ctx: Context, service, path, probe, base, batches) -> None:
    """Answers before close, then close, reopen and compare."""
    from repro import ConcurrentQueryService, DurableDatabase, Table

    tracer, layer = ctx.tracer, ctx.layers
    before_close = [answer_tuple(service.execute_scalar(q["sql"])) for q in probe]
    for q, answer in zip(probe, before_close):
        check_scalar_sanity(ctx.gate, q["sql"], answer, q["truth"])
    rows_before_close = service.database.table("power").store.reconstruct_rows()
    service.database.close()
    raw = rows_before_close.num_rows * base.num_columns * 8
    layer["storage.disk_bytes_per_raw_byte"] = dir_bytes(path) / raw
    settle()
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    database = DurableDatabase.open(path, fsync=True)
    layer["storage.recovery_s"] = perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        stats = tracer.by_name()
        layer["storage.recovery_replay_s"] = layers.total(stats, "storage.recovery") - layers.total(
            stats, "storage.snapshot_load")
        tracer.clear()
    ctx.info["recovery"] = {
        k: getattr(database.recovery_info, k)
        for k in ("snapshot_lsn", "replayed_records", "replayed_rows", "rebuilt_partitions", "seconds")
    }
    try:
        reopened = ConcurrentQueryService(database)
        after_open = [answer_tuple(reopened.execute_scalar(q["sql"])) for q in probe]
        if ctx.info["perturb"]:
            indexed = list(enumerate(after_open))
            perturb_one(indexed)
            after_open = [a for _, a in indexed]
        for q, was, now in zip(probe, before_close, after_open):
            if not same_bits(was, now):
                ctx.gate.fail(f"probe answer changed across reopen: {was} vs {now} for {q['sql']}")
        check_rows(ctx, database.table("power").store.reconstruct_rows(), rows_before_close,
                   Table.concat_all([base] + batches))
        ctx.end_to_end["synopsis_bytes"] = float(database.table("power").synopsis_bytes())
        layer["gd.compression_ratio"] = raw / database.table("power").compressed_bytes()
        ctx.set_accuracy(accuracy(ctx.gate, [(q["sql"], a, q["truth"]) for q, a in zip(probe, after_open)],
                                  ctx.scale))
    finally:
        database.close()


def check_rows(ctx: Context, recovered, before_close, acknowledged) -> None:
    """Every acknowledged row, in order: bit for bit what the store held
    before the close, and within half a grid step of the input on the
    column's declared decimal grid (the store keeps values on that grid)."""
    if recovered.num_rows != acknowledged.num_rows:
        ctx.gate.fail(f"recovered {recovered.num_rows} rows, acknowledged {acknowledged.num_rows}")
        return
    for column in acknowledged.schema:
        got = recovered.column(column.name)
        if not np.array_equal(got, before_close.column(column.name), equal_nan=got.dtype.kind == "f"):
            ctx.gate.fail(f"column {column.name} differs from the rows held before the close")
        if got.dtype.kind == "f":
            want = acknowledged.column(column.name)
            step = 0.5 * 10.0 ** -column.decimals
            if not (np.array_equal(np.isnan(got), np.isnan(want))
                    and np.nanmax(np.abs(got - want), initial=0.0) <= step * (1 + 1e-9)):
                ctx.gate.fail(f"column {column.name} is off its acknowledged values by more than {step}")
    ctx.info["rows_verified"] = acknowledged.num_rows
