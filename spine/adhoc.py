"""``adhoc``: in-process ``QueryService``, distinct SQL, one closed-loop client.

``power`` (two partitions, so the merged-synopsis path runs) and
``flights`` (32 columns, categoricals, nulls); about 5% of the ``flights``
queries carry ``GROUP BY airline``.  The query pool is cycled in order and
is larger than both the 256-entry result cache and the 512-entry parse
cache, so neither ever hits.
"""

from __future__ import annotations

import math
import threading
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
    check_scalar_sanity,
    groups_tuple,
    load_tables,
    perturb_one,
    timed_sqls,
)

GROUP_BY_SHARE = 0.05


def setup(scale, params, power, flights):
    from repro import QueryService

    start = perf_counter()
    service = QueryService()
    build_start = perf_counter()
    service.register_table(power, params=params, partition_size=scale.power_partition)
    service.register_table(flights, params=params)
    end = perf_counter()
    return service, end - start, end - build_start


def run(ctx: Context) -> None:
    from repro import ExactQueryEngine

    scale = ctx.scale
    power, flights = load_tables(scale)
    exact = ExactQueryEngine({"power": power, "flights": flights})
    half = scale.adhoc_pool // 2
    sqls = timed_sqls("adhoc-power", power, half, ctx.seed) + timed_sqls(
        "adhoc-flights", flights, scale.adhoc_pool - half, ctx.seed,
        group_by="airline", group_share=GROUP_BY_SHARE,
    )
    np.random.default_rng(ctx.seed).shuffle(sqls)
    probe = accuracy_probe("power", power, scale.probe_queries, exact) + accuracy_probe(
        "flights", flights, scale.probe_queries, exact,
        group_by="airline", group_share=GROUP_BY_SHARE,
    )
    params = build_params(scale)

    def start():
        return setup(scale, params, power, flights)

    service, loop, build_spans = run_rounds(
        ctx, start, lambda service, sql: service.execute(sql), sqls, teardown=lambda service: None
    )
    ctx.end_to_end["synopsis_bytes"] = float(
        sum(service.table(name).synopsis_bytes() for name in ("power", "flights"))
    )
    raw = sum(t.num_rows * t.num_columns * 8 for t in (power, flights))
    ctx.layers["gd.compression_ratio"] = raw / sum(
        service.table(name).compressed_bytes() for name in ("power", "flights")
    )
    layers.registry_ratios(ctx, loop.registry)
    if ctx.traced:
        layers.build_layers(ctx, build_spans)
        spans = layers.spans_between(ctx.tracer.spans, loop.traced_window)
        layers.query_layers(ctx, spans, len(loop.traced_latencies))
        layers.layer_coverage_pct(ctx, spans, loop.traced_latencies, threading.get_ident())
        ctx.layers["obs.trace_overhead_pct"] = layers.trace_overhead_pct(
            loop.latencies, loop.traced_latencies
        )
        ctx.tracer.clear()
    else:
        group_lat = [lat for index, lat in zip(loop.indices, loop.latencies) if "GROUP BY" in sqls[index]]
        if group_lat:
            ctx.info["groupby_p50_ms"] = float(np.median(group_lat)) * 1e3

    served = [(index, _answer(r)) for index, r in loop.served]
    if ctx.info["perturb"]:
        perturb_one(served)
    ctx.info["repeats_compared"] = check_repeats(ctx.gate, served, sqls)
    ctx.info["distinct_sql_served"] = len({index for index, _ in served})
    for index, answer in served:
        _sanity(ctx, sqls[index], answer, math.nan)

    # Accuracy: the fixed probe, after the window.
    pairs = []
    for q in probe:
        answer = _answer(service.execute(q["sql"]))
        if q["truth"] is None:
            _sanity(ctx, q["sql"], answer, math.nan)
        else:  # accuracy() checks these
            pairs.append((q["sql"], answer, q["truth"]))
    ctx.set_accuracy(accuracy(ctx.gate, pairs, ctx.scale))
    ctx.set_peak_rss()


def _answer(result) -> tuple:
    return groups_tuple(result) if isinstance(result, dict) else answer_tuple(result[0])


def _sanity(ctx: Context, sql: str, answer: tuple, truth: float) -> None:
    if not answer or isinstance(answer[0], tuple):  # GROUP BY: (label, answer) pairs
        for _, group_answer in answer:
            check_scalar_sanity(ctx.gate, sql, group_answer, math.nan)
    else:
        check_scalar_sanity(ctx.gate, sql, answer, truth)
