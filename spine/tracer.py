"""Span recording from outside the program.

:class:`Tracer` replaces public functions and methods of the program with
wrappers that record one span per call — name, start, end, parent span,
request id, thread — keeps the spans in memory, and puts the originals
back on :meth:`Tracer.uninstall`.  Nothing in ``src/`` is modified.

A span's *self time* is its duration minus the time its child spans (on
the same thread) cover.  Spans opened on pool threads have no parent and
count as roots of their own.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

#: (span name, "module:attr" or "module:Class.method", measure) for every
#: wrapped entry point.  ``measure`` names a count recorded with the span.
PROGRAM_SPANS = [
    ("sql.parse", "repro.sql.parser:parse_query_cached", None),
    ("service.execute", "repro.service.database:QueryService.execute", None),
    ("service.execute", "repro.service.database:QueryService.execute_scalar", None),
    ("service.execute", "repro.service.concurrency:ConcurrentQueryService.execute", None),
    ("service.execute", "repro.service.concurrency:ConcurrentQueryService.execute_scalar", None),
    ("service.read_lock", "repro.service.concurrency:ReadWriteLock.acquire_read", None),
    ("service.register", "repro.service.database:QueryService.register_table", None),
    ("service.register", "repro.service.concurrency:ConcurrentQueryService.register_table", None),
    ("service.ingest", "repro.service.database:QueryService.ingest", None),
    ("service.ingest", "repro.service.concurrency:ConcurrentQueryService.ingest", None),
    ("service.stage_ingest", "repro.service.database:Database.stage_ingest", None),
    ("service.commit_ingest", "repro.service.database:Database.commit_ingest", None),
    ("service.commit_ingest", "repro.storage.durable:DurableDatabase.commit_ingest", None),
    ("core.execute", "repro.core.engine:PairwiseHistEngine.execute", None),
    ("core.weightings", "repro.core.weightings:PredicateEvaluator.weightings", None),
    ("core.coverage", "repro.core.coverage:coverage_estimate", None),
    ("core.coverage", "repro.core.coverage:coverage_bounds", None),
    ("core.aggregate", "repro.core.aggregation:aggregate", None),
    ("core.groupby", "repro.core.groupby:group_predicates", "len"),
    ("core.build_partition", "repro.core.builder:build_partition_synopses", "len"),
    ("core.hist2d", "repro.core.histogram2d:Histogram2D.build", None),
    ("core.merge", "repro.core.synopsis:PairwiseHist.merge", None),
    ("gd.compress", "repro.gd.partitioned:PartitionedStore.compress", None),
    ("gd.compress", "repro.gd.greedygd:GreedyGD.compress", None),
    ("gd.bit_search", "repro.gd.greedygd:select_deviation_bits", None),
    ("gd.append", "repro.gd.partitioned:PartitionedStore.append", None),
    ("gd.append", "repro.gd.greedygd:GreedyGD.append", None),
    ("storage.wal_append", "repro.storage.wal:WriteAheadLog.append", None),
    ("storage.checkpoint", "repro.storage.durable:DurableDatabase.checkpoint", None),
    ("storage.recovery", "repro.storage.durable:DurableDatabase.open", None),
    ("storage.snapshot_load", "repro.storage.snapshot:load_latest_snapshot", None),
    ("cluster.execute", "repro.cluster.service:ClusterQueryService.execute", None),
    ("cluster.shard", "repro.cluster.shard:ProcessShard.execute", None),
    ("cluster.gather", "repro.cluster.gather:gather_scalar", None),
    ("cluster.gather", "repro.cluster.gather:gather_groups", None),
    ("cluster.batch", "repro.service.wire:PipelinedClient.submit_query_batch", "arg_len"),
]


class Tracer:
    """In-memory span recorder with install/uninstall of its wrappers."""

    def __init__(self) -> None:
        #: (id, parent id or None, name, start, end, request, thread, count)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: Request id stamped on spans of threads that set none themselves
        #: (single-client loops set this; pool threads inherit it).
        self.request = 0

    # ------------------------------------------------------------------ #
    # Recording

    def set_request(self, request: int) -> None:
        """Request id for spans opened on the calling thread."""
        self._local.request = request

    def _wrap(self, name: str, fn, measure: str | None):
        tracer = self
        local = self._local
        ids = self._ids
        spans = self.spans

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack and stack[-1][1] == name:
                # An override calling its base (same span name): one span.
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1][0] if stack else None
            stack.append((span_id, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            count = None
            if measure == "len":
                count = len(result)
            elif measure == "arg_len":
                count = len(args[1])
            spans.append((span_id, parent, name, start, end,
                          getattr(local, "request", tracer.request),
                          threading.get_ident(), count))
            return result

        return wrapped

    # ------------------------------------------------------------------ #
    # Installing wrappers

    def install(self, entries=PROGRAM_SPANS) -> None:
        for name, target, measure in entries:
            module_name, attr = target.split(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                self._patch_method(getattr(module, cls_name), method, name, measure)
            else:
                self._patch_function(module, attr, name, measure)

    def _patch_method(self, cls, method: str, name: str, measure) -> None:
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__, measure))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(name, raw.__func__, measure))
        else:
            wrapped = self._wrap(name, raw, measure)
        setattr(cls, method, wrapped)
        self._patches.append((cls, method, raw))

    def _patch_function(self, module, attr: str, name: str, measure) -> None:
        """Replace the function and every alias of it imported elsewhere."""
        original = getattr(module, attr)
        wrapped = self._wrap(name, original, measure)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # Reading

    def clear(self) -> None:
        self.spans.clear()

    def self_times(self, spans=None) -> list[tuple[tuple, float]]:
        """``(span, self seconds)`` for every span."""
        spans = self.spans if spans is None else spans
        covered: dict[int, float] = defaultdict(float)
        for span in spans:
            if span[1] is not None:
                covered[span[1]] += span[4] - span[3]
        return [(span, span[4] - span[3] - covered[span[0]]) for span in spans]

    def by_name(self, spans=None) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, summed counts."""
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}
        )
        for span, self_s in self.self_times(spans):
            entry = out[span[2]]
            entry["calls"] += 1
            entry["total_s"] += span[4] - span[3]
            entry["self_s"] += self_s
            if span[7] is not None:
                entry["count"] += span[7]
        return dict(out)

    def by_layer(self, spans=None) -> dict[str, float]:
        """Self seconds per layer (the span-name prefix)."""
        out: dict[str, float] = defaultdict(float)
        for span, self_s in self.self_times(spans):
            out[span[2].split(".", 1)[0]] += self_s
        return dict(out)
