"""``dashboard``: a server subprocess answering 64 panel queries, open loop.

Eight panel templates from ``workload.QueryGenerator``, each re-sent with
eight literals, make 64 SQL strings — they fit the 256-entry result cache,
so after warm-up nearly every request is a cache hit and the serving stack
(framing, dispatch, admission, event loop) does the work.  Requests go out
on a fixed rate ladder; ¾ ride one pipelined binary connection and ¼ one
JSON-lines connection, and each is timed from when it was due.  The load
generator is this process's main thread plus the binary client's reader
thread (two threads, two connections).
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import select
import socket
import sys
from collections import deque
from concurrent.futures import TimeoutError as FutureTimeout
from time import perf_counter

import numpy as np

import layers
from common import (
    SETUP_REPEATS,
    Context,
    accuracy,
    accuracy_probe,
    answer_tuple,
    build_params,
    counter_total,
    cpu_seconds,
    histogram_sum_count,
    latency_summary,
    load_tables,
    perturb_one,
    same_bits,
    settle,
)

PANELS = 8
LITERALS = 8
#: The latency limit a ladder step must meet for ``service.slo_qps``.
SLO_P99_MS = 10.0
REQUEST_TIMEOUT_S = 10.0
#: The load generator's interpreter switch interval (default 5 ms).
CLIENT_SWITCH_INTERVAL_S = 0.0005
#: Sequential queries per block in the traced run's span/overhead phase.
TRACE_BLOCK = 50
TRACE_BLOCKS = 8


def _replace_first_literal(predicate, literal):
    """The predicate with its first (leftmost) condition's literal replaced."""
    from repro.sql.ast import Condition, PredicateNode

    if isinstance(predicate, Condition):
        return dataclasses.replace(predicate, literal=literal), True
    children, done = [], False
    for child in predicate.children:
        if not done:
            child, done = _replace_first_literal(child, literal)
        children.append(child)
    return PredicateNode(predicate.op, children), done


def panel_sqls(table, seed: int) -> list[str]:
    """8 templates × 8 literals drawn from the first predicate column's quantiles."""
    from repro.sql.ast import AggregateFunction, predicate_conditions
    from repro.workload import QueryGenerator, WorkloadSpec

    spec = WorkloadSpec(
        num_queries=PANELS, aggregations=tuple(AggregateFunction), min_predicates=1,
        max_predicates=2, min_selectivity=1e-3, seed=seed,
    )
    rng = np.random.default_rng(seed)
    sqls: list[str] = []
    for template in QueryGenerator(table.sample(8_192, rng), spec).generate():
        column = predicate_conditions(template.predicate)[0].column
        values = table.column(column)
        values = values[np.isfinite(values)]
        for q in np.sort(rng.uniform(0.05, 0.95, LITERALS)):
            predicate, _ = _replace_first_literal(
                template.predicate, round(float(np.quantile(values, q)), 4)
            )
            sqls.append(str(dataclasses.replace(template, predicate=predicate)))
    return sqls


class JsonLines:
    """A JSON-lines connection driven without a thread: requests are written
    as they fall due and responses (in request order) are read when
    ``select`` reports the socket readable."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.pending: deque = deque()  # (request key, sql)

    def send(self, key, sql: str) -> None:
        self.sock.sendall(json.dumps({"op": "query", "sql": sql}).encode() + b"\n")
        self.pending.append((key, sql))

    def poll(self, timeout: float, on_response) -> None:
        """Wait up to ``timeout`` (sleeping, so the binary client's reader
        thread gets the interpreter) and hand over what has arrived."""
        ready, _, _ = select.select([self.sock], [], [], max(0.0, timeout))
        if not ready:
            return
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the JSON-lines connection")
        now = perf_counter()
        self.buffer += chunk
        while b"\n" in self.buffer:
            line, self.buffer = self.buffer.split(b"\n", 1)
            key, sql = self.pending.popleft()
            on_response(key, sql, json.loads(line), now)

    def close(self) -> None:
        self.sock.close()


@dataclasses.dataclass
class Server:
    supervisor: object
    pid: int
    port: int
    client: object


def start_server(power, params, scale) -> tuple[Server, float, float]:
    from repro import PipelinedClient, ShardSupervisor

    start = perf_counter()
    supervisor = ShardSupervisor([None], workers_per_shard=2)
    try:
        handle = supervisor.start()[0]
        client = PipelinedClient("127.0.0.1", handle.port).connect()
        build_start = perf_counter()
        client.register(power, params=params, partition_size=scale.power_partition)
    except BaseException:
        supervisor.stop(graceful=False)
        raise
    end = perf_counter()
    return Server(supervisor, handle.process.pid, handle.port, client), end - start, end - build_start


def stop_server(server: Server) -> None:
    server.client.close()
    server.supervisor.stop(graceful=True, grace_timeout=10.0)


def run_step(server: Server, jsonl: JsonLines, sqls: list[str], rate: int,
             duration: float, rng, record) -> dict:
    """Send ``rate`` q/s for ``duration`` s; returns the step's accounting."""
    from repro import OverloadedError

    count = max(1, int(rate * duration))
    due = np.empty(count)
    done = np.full(count, np.nan)
    late = np.empty(count)
    futures = []
    outcome = {"attempted": count, "succeeded": 0, "shed": 0, "errored": 0, "timed_out": 0}

    def on_json(key, sql, response, now):
        if response.get("ok"):
            done[key] = now
            record(sql, response["result"])
        elif response.get("error_type") == "OverloadedError":
            outcome["shed"] += 1
        else:
            outcome["errored"] += 1

    choices = rng.integers(0, len(sqls), count)
    start = perf_counter() + 0.002
    for k in range(count):
        due[k] = start + k / rate
        while True:
            now = perf_counter()
            if now >= due[k]:
                break
            jsonl.poll(due[k] - now, on_json)
        late[k] = now - due[k]
        sql = sqls[choices[k]]
        if k % 4 == 3:
            jsonl.send(k, sql)
        else:
            future = server.client.submit_query(sql)
            future.add_done_callback(lambda _f, k=k: done.__setitem__(k, perf_counter()))
            futures.append((k, sql, future))
    deadline = perf_counter() + REQUEST_TIMEOUT_S
    while jsonl.pending and perf_counter() < deadline:
        jsonl.poll(deadline - perf_counter(), on_json)
    while jsonl.pending and perf_counter() < deadline:
        jsonl.poll(deadline - perf_counter(), on_json)
    outcome["timed_out"] += len(jsonl.pending)
    jsonl.pending.clear()
    for k, sql, future in futures:
        try:
            record(sql, future.result(timeout=max(0.0, deadline - perf_counter())))
            continue
        except OverloadedError:
            outcome["shed"] += 1
        except FutureTimeout:
            outcome["timed_out"] += 1
        except Exception:
            outcome["errored"] += 1
        done[k] = np.nan  # a failed request has no latency; it fails the step
    ok = np.isfinite(done)
    outcome["succeeded"] = int(ok.sum())
    last_done = float(np.nanmax(done)) if ok.any() else due[-1]
    outcome.update(
        latency=(done[ok] - due[ok]).tolist(),
        late=late.tolist(),
        span_s=max(last_done - due[0], 1e-9),
        drain_ms=(last_done - due[-1]) * 1e3,
    )
    return outcome


def summarize_step(rate: int, parts: list[dict]) -> dict:
    """One ladder step over every round: counts summed, latencies pooled."""
    step = {key: sum(p[key] for p in parts)
            for key in ("attempted", "succeeded", "shed", "errored", "timed_out")}
    summary = latency_summary([x for p in parts for x in p["latency"]])
    late = np.array([x for p in parts for x in p["late"]])
    step.update(
        rate=rate,
        n=summary["n"],
        p50_ms=summary["p50_ms"],
        p99_ms=summary["p99_ms"],
        p99_method=summary["p99_method"],
        generator_late_p50_ms=float(np.median(late)) * 1e3,
        generator_late_max_ms=float(late.max()) * 1e3,
        drain_ms=max(p["drain_ms"] for p in parts),
        completed_per_s=summary["n"] / sum(p["span_s"] for p in parts),
    )
    failed = step["shed"] + step["errored"] + step["timed_out"]
    step["meets_slo"] = bool(
        step["p99_ms"] <= SLO_P99_MS and failed == 0 and step["drain_ms"] <= SLO_P99_MS
    )
    return step


def trace_phase(ctx: Context, server: Server, sqls: list[str]) -> None:
    """Sequential queries, alternating untraced and traced blocks; the
    traced ones carry a trace context and their server spans are fetched
    with the ``trace`` op."""
    rtt = {False: [], True: []}
    traced_ids = []
    for block in range(TRACE_BLOCKS):
        traced = block % 2 == 1
        for i in range(TRACE_BLOCK):
            sql = sqls[(block * TRACE_BLOCK + i) % len(sqls)]
            trace = (os.urandom(16), os.urandom(8)) if traced else None
            t0 = perf_counter()
            server.client.query(sql, trace=trace)
            rtt[traced].append(perf_counter() - t0)
            if traced:
                traced_ids.append(trace[0].hex())
    spans = [s for trace_id in traced_ids for s in server.client.trace(trace_id)]
    per_name: dict[str, float] = {}
    for span in spans:
        per_name[span["name"]] = per_name.get(span["name"], 0.0) + (span["duration"] or 0.0)
    n = len(traced_ids)
    ctx.layers["sql.parse_us"] = per_name.get("parse", 0.0) / n * 1e6
    ctx.layers["service.cache_lookup_us"] = per_name.get("cache_lookup", 0.0) / n * 1e6
    ctx.layers["core.execute_us"] = per_name.get("execute", 0.0) / n * 1e6
    ctx.layers["obs.trace_overhead_pct"] = layers.trace_overhead_pct(rtt[False], rtt[True])
    ctx.info["server_span_names"] = sorted(per_name)
    ctx.info["trace_phase_rtt_p50_us"] = float(np.median(rtt[False])) * 1e6


def run(ctx: Context) -> None:
    from repro import ExactQueryEngine, QueryService

    scale = ctx.scale
    power, _ = load_tables(scale)
    params = build_params(scale)
    sqls = panel_sqls(power, ctx.seed)
    exact = ExactQueryEngine({"power": power})
    probe = accuracy_probe("power", power, scale.probe_queries, exact)

    reference = QueryService()
    reference.register_table(power, params=params, partition_size=scale.power_partition)
    expected = {sql: answer_tuple(reference.execute_scalar(sql)) for sql in sqls}
    expected.update({q["sql"]: answer_tuple(reference.execute_scalar(q["sql"])) for q in probe})
    ctx.end_to_end["synopsis_bytes"] = float(reference.table("power").synopsis_bytes())
    raw = power.num_rows * power.num_columns * 8
    ctx.layers["gd.compression_ratio"] = raw / reference.table("power").compressed_bytes()
    del reference

    served: list[tuple[str, tuple]] = []

    def record(sql, payload):
        served.append((sql, answer_tuple(payload["results"][0])))

    # The server is another process: keep this client's own garbage
    # collector and thread switching (main thread sends, the binary
    # client's reader thread receives) from adding pauses to the latencies
    # it measures.
    gc.freeze()
    sys.setswitchinterval(CLIENT_SWITCH_INTERVAL_S)
    rng = np.random.default_rng(ctx.seed)
    setups, builds, parts, registry = [], [], [], []
    server_cpu = frontend_cpu = 0.0
    server = None
    try:
        # Each round starts a server and runs the whole ladder for a share
        # of the window, so the window is spread over the run (this host's
        # speed drifts over tens of seconds).
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                stop_server(server)
                server = None
            settle()
            server, setup_s, build_s = start_server(power, params, scale)
            setups.append(setup_s)
            builds.append(build_s)
            jsonl = JsonLines(server.port)
            try:
                warm_up(server, jsonl, sqls, record)
                before = server.client.metrics()
                cpu = (cpu_seconds(server.pid), cpu_seconds())
                for rate, share in scale.ladder:
                    settle()
                    parts.append((rate, run_step(server, jsonl, sqls, rate,
                                                 share * ctx.seconds / SETUP_REPEATS, rng, record)))
                server_cpu += cpu_seconds(server.pid) - cpu[0]
                frontend_cpu += cpu_seconds() - cpu[1]
                registry.append((before, server.client.metrics()))
            finally:
                jsonl.close()
        ctx.set_setup(setups, builds)
        ctx.child_pids.append(server.pid)
        ctx.layers["proc.server_cpu_s"] = server_cpu
        ctx.layers["proc.frontend_cpu_s"] = frontend_cpu
        steps = [summarize_step(rate, [p for r, p in parts if r == rate]) for rate, _ in scale.ladder]
        _report_ladder(ctx, steps, registry)
        _probe(ctx, server, sqls, probe, record)
        ctx.set_peak_rss()
    finally:
        if server is not None:
            stop_server(server)
    _check(ctx, served, expected, probe)


def warm_up(server: Server, jsonl: JsonLines, sqls: list[str], record) -> None:
    """Fill the result cache over both dialects."""
    for sql in sqls:
        record(sql, server.client.query(sql))
        jsonl.send(0, sql)
    while jsonl.pending:
        jsonl.poll(REQUEST_TIMEOUT_S, lambda _k, sql, response, _now: record(sql, response["result"]))


def _report_ladder(ctx: Context, steps: list[dict], registry: list[tuple[dict, dict]]) -> None:
    for step in steps:
        ctx.attempted += step["attempted"]
        ctx.shed += step["shed"]
        ctx.errored += step["errored"]
        ctx.timed_out += step["timed_out"]
    reported = next(s for s in steps if s["rate"] == ctx.scale.latency_step)
    ctx.end_to_end["query_p50_ms"] = reported["p50_ms"]
    ctx.end_to_end["query_p99_ms"] = reported["p99_ms"]
    # Achieved throughput: completions over first-due to last-completion.
    ctx.end_to_end["query_qps"] = sum(s["n"] for s in steps) / sum(
        s["n"] / s["completed_per_s"] for s in steps
    )
    passing = [s["rate"] for s in steps if s["meets_slo"]]
    ctx.layers["service.slo_qps"] = float(max(passing)) if passing else 0.0
    ctx.layers["service.generator_late_ms"] = max(s["generator_late_max_ms"] for s in steps)
    ctx.info["ladder"] = steps
    layers.registry_ratios(ctx, registry)
    ctx.layers["service.shed_total"] = sum(
        counter_total(after, "aqp_requests_shed_total") - counter_total(before, "aqp_requests_shed_total")
        for before, after in registry
    )


def _probe(ctx: Context, server: Server, sqls: list[str], probe, record) -> None:
    """Sequential cached round trips, the traced phase, then the accuracy probe."""
    # Client round trip against the server's own request time (its latency
    # histogram) over the same requests.
    before = server.client.metrics()
    rtt = []
    for sql in sqls * 4:
        t0 = perf_counter()
        server.client.query(sql)
        rtt.append(perf_counter() - t0)
    after = server.client.metrics()
    s1, c1 = histogram_sum_count(after, "aqp_request_latency_seconds", kind="query")
    s0, c0 = histogram_sum_count(before, "aqp_request_latency_seconds", kind="query")
    server_us = (s1 - s0) / (c1 - c0) * 1e6 if c1 > c0 else 0.0
    ctx.layers["service.server_request_us"] = server_us
    ctx.layers["service.wire_overhead_us"] = float(np.mean(rtt)) * 1e6 - server_us
    ctx.info["cached_rtt_mean_us"] = float(np.mean(rtt)) * 1e6
    if ctx.traced:
        trace_phase(ctx, server, sqls)
    # Accuracy probe last: its distinct queries evict the panel entries.
    for q in probe:
        record(q["sql"], server.client.query(q["sql"]))


def _check(ctx: Context, served: list[tuple[str, tuple]], expected: dict, probe) -> None:
    if ctx.info["perturb"]:
        indexed = [(i, a) for i, (_, a) in enumerate(served)]
        perturb_one(indexed)
        served[:] = [(served[i][0], a) for i, a in indexed]
    for sql, answer in served:
        if not same_bits(answer, expected[sql]):
            ctx.gate.fail(f"served answer {answer} differs from the in-process reference {expected[sql]} for {sql}")
    ctx.info["answers_checked"] = len(served)
    first = {}
    for sql, answer in served:
        first.setdefault(sql, answer)
    ctx.set_accuracy(accuracy(ctx.gate, [(q["sql"], first[q["sql"]], q["truth"]) for q in probe], ctx.scale))
