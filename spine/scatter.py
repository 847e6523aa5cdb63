"""``scatter``: a 2-shard process cluster, distinct SQL, one closed-loop client.

``ClusterQueryService(num_shards=2, mode="process")`` runs in this process
and fans every query out to two worker subprocesses, then recombines the
answers with ``gather``.  Answers are checked bit for bit against the same
recombination done in-process: the rows split by the cluster's own router,
one in-process service per shard (built with the cluster's per-shard
parameters), and ``gather_scalar`` over their answers.
"""

from __future__ import annotations

import os
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

import layers
from closedloop import run_rounds
from common import (
    Context,
    accuracy,
    accuracy_probe,
    answer_tuple,
    build_params,
    check_repeats,
    counter_total,
    histogram_sum_count,
    load_tables,
    perturb_one,
    timed_sqls,
    same_bits,
)

NUM_SHARDS = 2
#: Queries sent with a program trace context in a traced run, to read the
#: workers' own spans (these bypass the batcher, so they are not timed).
WORKER_TRACED_QUERIES = 100


def start_cluster(power, params, scale):
    from repro import ClusterQueryService

    start = perf_counter()
    cluster = ClusterQueryService(num_shards=NUM_SHARDS, mode="process")
    try:
        build_start = perf_counter()
        cluster.register_table(power, params=params, partition_size=scale.power_partition)
    except BaseException:
        cluster.close(graceful=False)
        raise
    end = perf_counter()
    return cluster, end - start, end - build_start


def shard_reference(cluster, power, params, scale):
    """In-process services holding exactly the rows and parameters of each shard."""
    from repro import QueryService
    from repro.cluster.service import shard_params

    services = []
    for part in cluster.router.split(power):
        service = QueryService()
        service.register_table(part, params=shard_params(params, NUM_SHARDS),
                               partition_size=scale.power_partition)
        services.append(service)
    return services


def reference_answer(services, sql: str) -> tuple:
    from repro.cluster.gather import ShardAnswer, gather_scalar, plan_query
    from repro.sql.parser import parse_query

    plan = plan_query(parse_query(sql))
    scattered = str(plan.scattered)
    answers = [[ShardAnswer.from_result(r) for r in s.execute(scattered)] for s in services]
    return answer_tuple(gather_scalar(plan, answers)[0])


def run(ctx: Context) -> None:
    from repro import ExactQueryEngine

    scale = ctx.scale
    power, _ = load_tables(scale)
    params = build_params(scale)
    exact = ExactQueryEngine({"power": power})
    sqls = timed_sqls("scatter-power", power, scale.scatter_pool, ctx.seed)
    probe = accuracy_probe("power", power, scale.probe_queries, exact)

    def pids(cluster):
        return [h.process.pid for h in cluster.supervisor.handles.values()]

    cluster, loop, _ = run_rounds(
        ctx, lambda: start_cluster(power, params, scale),
        lambda cluster, sql: cluster.execute(sql), sqls,
        teardown=lambda cluster: cluster.close(), pids=pids,
        snapshot=lambda cluster: cluster.metrics(),
    )
    try:
        ctx.child_pids.extend(pids(cluster))
        _check(ctx, cluster, loop, sqls, probe, power, params)
        ctx.set_peak_rss()
    finally:
        cluster.close()


def _check(ctx, cluster, loop, sqls, probe, power, params) -> None:
    serving_layers(ctx, loop.registry)
    if ctx.traced:
        spans = layers.spans_between(ctx.tracer.spans, loop.traced_window)
        cluster_layers(ctx, spans, len(loop.traced_latencies))
        ctx.layers["obs.trace_overhead_pct"] = layers.trace_overhead_pct(
            loop.latencies, loop.traced_latencies
        )
        layers.layer_coverage_pct(ctx, spans, loop.traced_latencies, threading.get_ident())
        ctx.tracer.clear()
        worker_layers(ctx, cluster, [q["sql"] for q in probe])

    served = [(index, answer_tuple(r[0])) for index, r in loop.served]
    if ctx.info["perturb"]:
        perturb_one(served)
    ctx.info["repeats_compared"] = check_repeats(ctx.gate, served, sqls)
    first: dict[str, tuple] = {}
    for index, answer in served:
        first.setdefault(sqls[index], answer)
    ctx.info["distinct_sql_served"] = len(first)
    probe_answers = [answer_tuple(cluster.execute(q["sql"])[0]) for q in probe]
    for q, answer in zip(probe, probe_answers):
        first.setdefault(q["sql"], answer)

    services = shard_reference(cluster, power, params, ctx.scale)
    ctx.end_to_end["synopsis_bytes"] = float(sum(s.table("power").synopsis_bytes() for s in services))
    raw = power.num_rows * power.num_columns * 8
    ctx.layers["gd.compression_ratio"] = raw / sum(s.table("power").compressed_bytes() for s in services)
    for sql, answer in first.items():
        expected = reference_answer(services, sql)
        if not same_bits(answer, expected):
            ctx.gate.fail(f"cluster answer {answer} differs from the in-process "
                          f"recombination {expected} for {sql}")
    # Recombined answers can sit an ulp outside their own bounds (a known
    # gather rounding defect); they are reported, not gated, here.  The
    # gate is the bit-for-bit match with the in-process recombination.
    pairs = [(q["sql"], a, q["truth"]) for q, a in zip(probe, probe_answers)]
    ctx.set_accuracy(accuracy(ctx.gate, pairs, ctx.scale, bounds_gate=False))


def serving_layers(ctx: Context, registry: list[tuple[dict, dict]]) -> None:
    """Worker request time, wire overhead and sheds from the fleet's merged
    ``metrics`` snapshots: the front end's shard round trip against the
    workers' own request latency histogram."""
    def mean_us(name: str, **labels) -> float:
        total = count = 0.0
        for before, after in registry:
            s1, c1 = histogram_sum_count(after, name, **labels)
            s0, c0 = histogram_sum_count(before, name, **labels)
            total, count = total + s1 - s0, count + c1 - c0
        return total / count * 1e6 if count else 0.0

    worker_us = mean_us("aqp_request_latency_seconds", kind="query", role="primary")
    ctx.layers["service.server_request_us"] = worker_us
    ctx.layers["service.wire_overhead_us"] = mean_us("aqp_shard_roundtrip_seconds") - worker_us
    ctx.layers["service.shed_total"] = sum(
        counter_total(after, "aqp_requests_shed_total") - counter_total(before, "aqp_requests_shed_total")
        for before, after in registry
    )
    layers.registry_ratios(ctx, registry)


def cluster_layers(ctx: Context, spans: list, queries: int) -> None:
    stats = ctx.tracer.by_name(spans)
    ctx.layers["sql.parse_us"] = layers.per_query(stats, "sql.parse", queries)
    ctx.layers["cluster.gather_us"] = layers.per_query(stats, "cluster.gather", queries)
    shard = stats.get("cluster.shard")
    ctx.layers["cluster.shard_roundtrip_us"] = (
        shard["total_s"] / shard["calls"] * 1e6 if shard and shard["calls"] else 0.0
    )
    batch = stats.get("cluster.batch")
    ctx.layers["cluster.batch_size"] = batch["count"] / batch["calls"] if batch and batch["calls"] else 0.0
    per_request: dict[int, dict] = defaultdict(lambda: {"shards": [], "front": 0.0, "inner": 0.0})
    for span in spans:
        entry = per_request[span[5]]
        duration = span[4] - span[3]
        if span[2] == "cluster.shard":
            entry["shards"].append(duration)
        elif span[2] == "cluster.execute" and span[1] is None:
            entry["front"] += duration
        elif span[2] in ("cluster.gather", "sql.parse"):
            entry["inner"] += duration
    overhead, skew = [], []
    for entry in per_request.values():
        if entry["shards"] and entry["front"]:
            overhead.append(entry["front"] - max(entry["shards"]) - entry["inner"])
            skew.append(max(entry["shards"]) / float(np.mean(entry["shards"])))
    ctx.layers["cluster.frontend_overhead_us"] = float(np.mean(overhead)) * 1e6 if overhead else 0.0
    ctx.layers["cluster.shard_skew"] = float(np.mean(skew)) if skew else 0.0


def worker_layers(ctx: Context, cluster, sqls: list[str]) -> None:
    """Worker-side engine and parse time from the program's own spans: a
    few queries carry a trace context, and the ``trace`` op returns what
    each worker recorded under it."""
    from repro.obs import tracing

    trace_ids = []
    for sql in sqls[:WORKER_TRACED_QUERIES]:
        trace_id = os.urandom(16).hex()
        with tracing.root_span("spine", trace_id=trace_id, parent_id=os.urandom(8).hex()):
            cluster.execute(sql)
        trace_ids.append(trace_id)
    per_name: dict[str, float] = defaultdict(float)
    for trace_id in trace_ids:
        for span in cluster.trace(trace_id):
            per_name[span["name"]] += span["duration"] or 0.0
    n = len(trace_ids)
    ctx.layers["core.execute_us"] = per_name.get("execute", 0.0) / n * 1e6
    ctx.layers["service.cache_lookup_us"] = per_name.get("cache_lookup", 0.0) / n * 1e6
    ctx.info["worker_span_us_per_query"] = {k: v / n * 1e6 for k, v in sorted(per_name.items())}
