"""One client, closed loop: the next query goes out when the last returns.

Used by ``adhoc`` and ``scatter``.  A run sets the system up
``SETUP_REPEATS`` times and measures a share of the window after each
setup, so the window is spread over the whole run: this host's speed
drifts over tens of seconds, and one short window would sample one speed.
In a traced run each share alternates untraced and traced blocks, so the
tracing cost is measured on the same stretch of time it perturbs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from common import SETUP_REPEATS, Context, cpu_seconds, local_registry, settle

#: Length of one traced/untraced block in a traced run.
TRACE_BLOCK_S = 0.5
#: Queries run, untimed, on each fresh system before its share of the window.
WARM_QUERIES = 100


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)  # untraced
    indices: list[int] = field(default_factory=list)  # SQL index of each untraced latency
    traced_latencies: list[float] = field(default_factory=list)
    served: list[tuple[int, object]] = field(default_factory=list)
    elapsed: float = 0.0
    errors: list[str] = field(default_factory=list)
    traced_window: list[tuple[float, float]] = field(default_factory=list)
    #: (registry before, registry after) around each share of the window.
    registry: list[tuple[dict, dict]] = field(default_factory=list)


def run_closed_loop(out: LoopResult, execute, sqls: list[str], seconds: float,
                    tracer=None, start_index: int = 0) -> int:
    """Cycle through ``sqls`` for ``seconds``, appending to ``out``; keep
    every answer for checking.  Returns the index to continue from."""
    n = len(sqls)
    i = start_index
    start = perf_counter()
    deadline = start + seconds
    traced = False
    block_end = start + TRACE_BLOCK_S
    now = start
    while now < deadline:
        if tracer is not None and now >= block_end:
            traced = not traced
            block_end = now + TRACE_BLOCK_S
            if traced:
                tracer.install()
                out.traced_window.append((now, now))
            else:
                tracer.uninstall()
                out.traced_window[-1] = (out.traced_window[-1][0], now)
        index = i % n
        if traced:
            tracer.request = i + 1
        t0 = perf_counter()
        try:
            result = execute(sqls[index])
        except Exception as exc:  # counted as an error, the loop goes on
            result = None
            out.errors.append(f"{type(exc).__name__}: {exc} for {sqls[index]}")
        now = perf_counter()
        if traced:
            out.traced_latencies.append(now - t0)
        else:
            out.latencies.append(now - t0)
            out.indices.append(index)
        if result is not None:
            out.served.append((index, result))
        i += 1
    out.elapsed += now - start
    if tracer is not None and traced:
        tracer.uninstall()
        out.traced_window[-1] = (out.traced_window[-1][0], now)
    return i


def run_rounds(ctx: Context, setup, execute, sqls: list[str], teardown, pids=None,
               snapshot=None):
    """``SETUP_REPEATS`` rounds of: set up, warm, measure a share of the window.

    ``setup()`` returns ``(system, setup_s, build_s)``; ``execute(system,
    sql)`` runs one query; ``teardown(system)`` releases every system but
    the last, which is returned with the merged :class:`LoopResult` and, in
    a traced run, the spans of the last setup.  ``pids(system)`` names the
    system's worker processes, whose CPU time over each share is summed
    into ``proc.worker_cpu_s``.  ``snapshot(system)`` reads the metrics
    registry around each share (default: this process's registry).
    """
    out = LoopResult()
    setups, builds, build_spans = [], [], None
    index = 0
    system = None
    frontend_cpu = worker_cpu = 0.0
    for attempt in range(SETUP_REPEATS):
        settle()
        last = attempt == SETUP_REPEATS - 1
        if ctx.traced and last:
            mark = len(ctx.tracer.spans)
            ctx.tracer.install()
        system, setup_s, build_s = setup()
        if ctx.traced and last:
            ctx.tracer.uninstall()
            build_spans = ctx.tracer.spans[mark:]
            del ctx.tracer.spans[mark:]
        setups.append(setup_s)
        builds.append(build_s)
        try:
            for k in range(WARM_QUERIES):
                execute(system, sqls[(index + k) % len(sqls)])
            index += WARM_QUERIES
            settle()
            workers = pids(system) if pids is not None else []
            read = (lambda: local_registry()) if snapshot is None else (lambda: snapshot(system))
            before, cpu = read(), cpu_seconds()
            cpu_workers = sum(cpu_seconds(p) for p in workers)
            # Look the system up per call, so the tracer's wrappers are seen.
            index = run_closed_loop(out, lambda sql: execute(system, sql), sqls,
                                    ctx.seconds / SETUP_REPEATS, ctx.tracer, index)
            frontend_cpu += cpu_seconds() - cpu
            worker_cpu += sum(cpu_seconds(p) for p in workers) - cpu_workers
            out.registry.append((before, read()))
        except BaseException:
            teardown(system)
            raise
        if not last:
            teardown(system)
            system = None
    ctx.set_setup(setups, builds)
    ctx.layers["proc.frontend_cpu_s"] = frontend_cpu
    if pids is not None:
        ctx.layers["proc.worker_cpu_s"] = worker_cpu
    ctx.attempted = len(out.latencies) + len(out.traced_latencies)
    ctx.errored = len(out.errors)
    ctx.info["errors"] = out.errors[:20]
    if not ctx.traced:
        ctx.set_latency(out.latencies, out.elapsed)
    return system, out, build_spans
