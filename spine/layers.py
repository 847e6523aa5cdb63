"""Per-layer metrics from the tracer's spans and the program's registry.

Every per-layer metric is emitted on every workload; a layer the workload
does not reach reads 0 (no calls, no time).  Which metric should move which
end-to-end figure, on which workload, is in ``spine/METRICS.md``.
"""

from __future__ import annotations

import threading

import numpy as np

from common import Context, delta_ratio


def per_query(stats: dict, name: str, queries: int, field: str = "self_s", scale: float = 1e6) -> float:
    entry = stats.get(name)
    return entry[field] / queries * scale if entry and queries else 0.0


def total(stats: dict, name: str, field: str = "total_s", scale: float = 1.0) -> float:
    entry = stats.get(name)
    return entry[field] * scale if entry else 0.0


def trace_overhead_pct(untraced: list[float], traced: list[float]) -> float:
    """Median traced latency over median untraced latency, minus one, in percent."""
    if not untraced or not traced:
        return 0.0
    return (float(np.median(traced)) / float(np.median(untraced)) - 1.0) * 100.0


def query_layers(ctx: Context, spans: list, queries: int) -> None:
    """``sql``/``service``/``core`` metrics per query from traced query spans."""
    stats = ctx.tracer.by_name(spans)
    layers = ctx.layers
    layers["sql.parse_us"] = per_query(stats, "sql.parse", queries)
    layers["service.cache_lookup_us"] = per_query(stats, "service.execute", queries)
    layers["service.read_lock_wait_us"] = per_query(stats, "service.read_lock", queries, "total_s")
    layers["core.execute_us"] = per_query(stats, "core.execute", queries)
    layers["core.weightings_us"] = per_query(stats, "core.weightings", queries)
    layers["core.coverage_us"] = per_query(stats, "core.coverage", queries)
    layers["core.aggregate_us"] = per_query(stats, "core.aggregate", queries)
    layers["core.coverage_calls_per_query"] = per_query(stats, "core.coverage", queries, "calls", 1.0)
    groupby = stats.get("core.groupby")
    layers["core.groupby_groups_per_query"] = (
        groupby["count"] / groupby["calls"] if groupby and groupby["calls"] else 0.0
    )


def build_layers(ctx: Context, spans: list) -> None:
    """``gd`` and ``core`` build metrics: busy time summed over build threads."""
    stats = ctx.tracer.by_name(spans)
    layers = ctx.layers
    layers["gd.compress_s"] = total(stats, "gd.compress", "self_s")
    layers["gd.bit_search_s"] = total(stats, "gd.bit_search")
    layers["core.build_partition_s"] = total(stats, "core.build_partition")
    layers["core.hist2d_s"] = total(stats, "core.hist2d")
    layers["core.merge_ms"] = total(stats, "core.merge", scale=1e3)


def registry_ratios(ctx: Context, pairs: list[tuple[dict, dict]]) -> None:
    """Parse- and result-cache hit ratios over (before, after) registry pairs."""
    ctx.layers["sql.parse_cache_hit_ratio"] = delta_ratio(pairs, "aqp_parse_cache_lookups_total")
    ctx.layers["service.result_cache_hit_ratio"] = delta_ratio(pairs, "aqp_result_cache_lookups_total")


def layer_coverage_pct(ctx: Context, spans: list, latencies: list[float],
                       thread: int | None = None) -> float:
    """Share of the measured operation time that named layers' self times cover.

    Only spans on the measuring thread count, so pool threads working in
    parallel are not added on top of the wall time they overlap.  A run
    outside 90–110 % is flagged in the report.
    """
    thread = threading.get_ident() if thread is None else thread
    mine = [s for s in spans if s[6] == thread]
    covered = sum(ctx.tracer.by_layer(mine).values())
    measured = sum(latencies)
    pct = covered / measured * 100.0 if measured else 0.0
    ctx.layers["obs.layer_coverage_pct"] = pct
    ctx.info["layer_self_share_pct"] = {
        layer: seconds / measured * 100.0 for layer, seconds in ctx.tracer.by_layer(mine).items()
    } if measured else {}
    ctx.info["layer_coverage_flag"] = "ok" if 90.0 <= pct <= 110.0 else "outside 10% of end-to-end"
    return pct


def spans_between(spans: list, windows: list[tuple[float, float]]) -> list:
    return [s for s in spans if any(lo <= s[3] and s[4] <= hi for lo, hi in windows)]
