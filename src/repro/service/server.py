"""Asyncio front end and line-protocol server for the query service.

:class:`AsyncQueryService` exposes ``query`` / ``ingest`` /
``register_table`` as coroutines over a thread-safe
:class:`~repro.service.concurrency.ConcurrentQueryService`.  CPU work is
dispatched to a bounded thread-pool executor, so the event loop stays
responsive while hundreds of dashboard clients multiplex onto a handful
of worker threads.  Small appends are coalesced: each table gets an
ingest queue whose drain task batches everything pending into a single
tail-partition recompression, amortising the synopsis rebuild across
writers (the paper's bounded-cost update, amortised once more).

:class:`QueryServer` puts a TCP protocol in front of it
(``asyncio.start_server``) speaking **two negotiated dialects** on one
port (sniffed from the first bytes of each connection, see
:mod:`repro.service.framing`):

* the length-prefixed **binary pipelined protocol** — many in-flight
  requests per connection, responses matched by request id, binary row
  and result payloads (no JSON on the hot path);
* the legacy **newline-delimited-JSON** protocol, kept as a fallback so
  existing clients and scripts work unchanged:

    → {"op": "query",  "sql": "SELECT AVG(x) FROM t WHERE y > 3"}
    ← {"ok": true, "result": {"results": [{"value": ..., ...}]}}

The supported ops, with their argument fields and admission classes, are
the :data:`OPS` table; both dialects decode into its handler calls.
Errors come back as ``{"ok": false, "error": ..., "error_type": ...}``
(JSON) or a ``STATUS_ERROR`` frame (binary) — never as a dropped
connection or a stack trace.

The server also applies **admission control**: in-flight queries and
ingests are counted against bounded limits, and work beyond them is shed
immediately with an explicit ``Overloaded`` error frame
(``STATUS_OVERLOADED`` in binary) instead of queueing without bound —
the service degrades gracefully at overload rather than collapsing.

Run it as a process with ``python -m repro.service --data-dir
/var/lib/aqp``: the data directory makes the whole catalog durable (WAL +
background snapshot checkpoints via :mod:`repro.storage`), so a killed
server restarted on the same directory recovers every table.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import math
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import Awaitable, Callable, NamedTuple

from ..audit.explain import split_explain
from ..core.engine import AqpResult
from ..core.params import PairwiseHistParams
from ..data.table import Table
from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..sql.ast import Query
from ..storage.checkpointer import BackgroundCheckpointer
from ..storage.faults import maybe_crash
from . import framing, wire
from .concurrency import ConcurrentQueryService
from .database import (
    DEFAULT_RESULT_CACHE_SIZE,
    Database,
    IngestResult,
    ManagedTable,
)

#: Coalesce at most this many rows into one batched tail recompression.
DEFAULT_MAX_BATCH_ROWS = 65_536

#: How long the ingest coalescer keeps a batch open after the first append
#: arrives (seconds).  0 keeps the legacy behaviour: batch only what is
#: already queued.
DEFAULT_MAX_BATCH_DELAY = 0.0

#: Per-line buffer limit for the TCP protocol (asyncio's default is 64 KiB,
#: far smaller than a realistic ingest frame).
DEFAULT_LINE_LIMIT = 32 * 1024 * 1024

#: Admission-control defaults: in-flight requests past these limits are
#: shed with an explicit ``Overloaded`` response instead of queueing.
#: ``None`` disables a limit.  One batch frame counts as one query slot.
DEFAULT_MAX_INFLIGHT_QUERIES = 256
DEFAULT_MAX_INFLIGHT_INGESTS = 64

_REQUEST_LATENCY = obs_metrics.histogram(
    "aqp_request_latency_seconds",
    "Wall time serving one admitted request, by admission class.",
    labelnames=("kind",),
)
_REQUESTS_SHED = obs_metrics.counter(
    "aqp_requests_shed_total",
    "Requests refused at admission control, by admission class.",
    labelnames=("kind",),
)

# Pre-bound label cells, one per admission class: the per-request path
# must not pay kwargs/label resolution (see Counter.labels /
# Histogram.labels).
_LATENCY_CELLS = {
    kind: _REQUEST_LATENCY.labels(kind=kind) for kind in ("query", "ingest")
}
_SHED_CELLS = {
    kind: _REQUESTS_SHED.labels(kind=kind) for kind in ("query", "ingest")
}


class AsyncQueryService:
    """Coroutine face of a :class:`ConcurrentQueryService`.

    ``query`` / ``query_scalar`` / ``register_table`` dispatch straight to
    the bounded executor; ``ingest`` goes through a per-table coalescing
    queue unless ``coalesce=False``.  Use as an async context manager (or
    call :meth:`close`) so the drain tasks and executor shut down cleanly.
    """

    def __init__(
        self,
        service: ConcurrentQueryService | None = None,
        max_workers: int = 4,
        max_batch_rows: int = DEFAULT_MAX_BATCH_ROWS,
        max_batch_delay: float = DEFAULT_MAX_BATCH_DELAY,
        **service_kwargs,
    ) -> None:
        if service is not None and service_kwargs:
            raise ValueError("pass either a service or its constructor arguments")
        self.service = service or ConcurrentQueryService(**service_kwargs)
        self.max_batch_rows = max_batch_rows
        self.max_batch_delay = max_batch_delay
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="aqp-worker"
        )
        self._ingest_queues: dict[str, asyncio.Queue] = {}
        self._drain_tasks: dict[str, asyncio.Task] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle

    async def __aenter__(self) -> "AsyncQueryService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self) -> None:
        """Cancel drain tasks, fail queued ingests and release the executor."""
        if self._closed:
            return
        self._closed = True
        for task in self._drain_tasks.values():
            task.cancel()
        for task in self._drain_tasks.values():
            try:
                await task
            except asyncio.CancelledError:
                pass
        # Anything still sitting in a queue was never dequeued by a drain
        # task; cancel those futures so their awaiting callers don't hang.
        for queue in self._ingest_queues.values():
            while not queue.empty():
                _, future = queue.get_nowait()
                if not future.done():
                    future.cancel()
        self._drain_tasks.clear()
        self._ingest_queues.clear()
        # Waiting for in-flight executor work can take as long as a synopsis
        # rebuild; do it off the event loop so other tasks keep running.
        await asyncio.get_running_loop().run_in_executor(
            None, partial(self._executor.shutdown, wait=True)
        )

    # ------------------------------------------------------------------ #
    # Dispatch

    async def _dispatch(self, fn, *args, **kwargs):
        if self._closed:
            raise RuntimeError("the async query service is closed")
        loop = asyncio.get_running_loop()
        # run_in_executor does not carry contextvars into the worker
        # thread; copy the caller's context so the active trace span (if
        # any) is visible to the service's child spans.  Untraced requests
        # skip the copy — it costs about a microsecond per call.
        if tracing.current_span() is not None:
            call = partial(
                contextvars.copy_context().run, partial(fn, *args, **kwargs)
            )
        else:
            call = partial(fn, *args, **kwargs)
        return await loop.run_in_executor(self._executor, call)

    # ------------------------------------------------------------------ #
    # Coroutine API

    async def query(self, query: Query | str):
        """Execute a query (list of results, or a dict for GROUP BY)."""
        return await self._dispatch(self.service.execute, query)

    async def query_scalar(self, query: Query | str) -> AqpResult:
        """Execute a non-GROUP BY query, returning the first aggregation."""
        return await self._dispatch(self.service.execute_scalar, query)

    async def register_table(
        self,
        table: Table,
        params: PairwiseHistParams | None = None,
        partition_size: int | None = None,
    ) -> ManagedTable:
        return await self._dispatch(
            self.service.register_table,
            table,
            params=params,
            partition_size=partition_size,
        )

    async def ingest(
        self, table_name: str, rows: Table, coalesce: bool = True
    ) -> IngestResult:
        """Append rows; small concurrent appends coalesce into one rebuild.

        All callers whose rows land in the same drained batch share a
        single :class:`IngestResult` (one tail recompression).  Validation
        errors (unknown table, schema mismatch) raise immediately in the
        caller, before anything is enqueued, so one bad writer cannot
        poison a batch.
        """
        if self._closed:
            raise RuntimeError("the async query service is closed")
        self.service.database.validate_ingest(table_name, rows)
        if not coalesce:
            return await self._dispatch(self.service.ingest, table_name, rows)
        queue = self._queue_for(table_name)
        future = asyncio.get_running_loop().create_future()
        queue.put_nowait((rows, future))
        return await future

    async def drop_table(self, table_name: str) -> None:
        """Drop a table, retiring its coalescing queue and drain task.

        Without this cleanup, every register/ingest/drop cycle under a new
        name would leak a parked drain task and its queue until close().
        Queued-but-undrained ingests for the table are cancelled.
        """
        if self._closed:
            raise RuntimeError("the async query service is closed")
        await self._retire_queue(table_name)
        await self._dispatch(self.service.drop_table, table_name)
        # An ingest that passed validation while the drop was in flight may
        # have recreated the queue; now that the catalog entry is gone no
        # further ingest can, so one more retirement closes the race (the
        # validate-and-enqueue step is atomic on the event loop).
        await self._retire_queue(table_name)

    async def _retire_queue(self, table_name: str) -> None:
        task = self._drain_tasks.pop(table_name, None)
        queue = self._ingest_queues.pop(table_name, None)
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        if queue is not None:
            while not queue.empty():
                _, future = queue.get_nowait()
                if not future.done():
                    future.cancel()

    @property
    def table_names(self) -> list[str]:
        return self.service.table_names

    def schema_for(self, table_name: str):
        """Registered schema of one table (KeyError naming the catalog)."""
        return self.service.table(table_name).store.schema

    async def stat(self, table_name: str) -> dict:
        """Exact row/partition counts of one table (cheap catalog lookup).

        The cluster front end uses this to resolve an ambiguous ingest —
        a worker that died after the WAL append but before the response —
        by checking whether the batch's rows are actually there.
        """
        managed = await self._dispatch(self.service.table, table_name)
        return {
            "table": table_name,
            "rows": managed.num_rows,
            "partitions": managed.num_partitions,
        }

    # ------------------------------------------------------------------ #
    # Durability

    async def checkpoint(self):
        """Snapshot the catalog to the database's data directory.

        Raises :class:`ValueError` when the underlying database was not
        opened durably (no data directory).
        """
        return await self._dispatch(self.service.checkpoint)

    async def persist(self) -> int:
        """fsync the WAL; returns the last durable LSN."""
        return await self._dispatch(self.service.persist)

    # ------------------------------------------------------------------ #
    # Observability

    async def status_extra(self) -> dict:
        """Cache stats + LSN positions for the ``status`` op payload.

        Both async facades implement this, so the server's status payload
        is complete on every deployment shape (the cluster facade fans the
        equivalent out to its workers).
        """
        extra: dict = {}
        inner = self.service
        cache_stats = getattr(inner, "cache_stats", None)
        if cache_stats is not None:
            extra["cache_stats"] = {
                table: dict(stats) for table, stats in cache_stats.items()
            }
        database = getattr(inner, "database", None)
        wal = getattr(database, "wal", None)
        if wal is not None:
            durable = wal.last_lsn
            # The follower applies through the durable commit path, so
            # applied == durable on every role.
            extra["durable_lsn"] = durable
            extra["applied_lsn"] = durable
            extra["last_checkpoint_lsn"] = database.last_checkpoint_lsn
        return extra

    async def metrics(self) -> dict:
        """This process's registry snapshot (the cluster facade fans out)."""
        return obs_metrics.REGISTRY.snapshot()

    async def trace(self, trace_id: str) -> list[dict]:
        """Finished spans recorded in this process for ``trace_id``."""
        return tracing.spans_for(trace_id)

    async def explain(self, sql: str, analyze: bool = False) -> dict:
        """Structured EXPLAIN plan (``analyze=True`` also executes)."""
        return await self._dispatch(self.service.explain, sql, analyze)

    async def workload(self) -> dict:
        """The workload log's normalized-template snapshot."""
        return await self._dispatch(self.service.workload_snapshot)

    async def audit_stats(self) -> dict:
        """The accuracy auditor's counters and recent violations."""
        return await self._dispatch(self.service.audit_snapshot)

    # ------------------------------------------------------------------ #
    # Ingest coalescing

    def _queue_for(self, table_name: str) -> asyncio.Queue:
        if table_name not in self._ingest_queues:
            self._ingest_queues[table_name] = asyncio.Queue()
            self._drain_tasks[table_name] = asyncio.ensure_future(
                self._drain(table_name)
            )
        return self._ingest_queues[table_name]

    async def _drain(self, table_name: str) -> None:
        """Per-table drain loop: batch whatever is pending, ingest once.

        With ``max_batch_delay > 0`` the batch stays open that long after
        its first append arrives, so writers landing within the window
        share one tail recompression even when they don't overlap a
        rebuild; the timer bounds how long a lone small append can wait.
        ``max_batch_rows`` caps the batch regardless of the timer.
        """
        queue = self._ingest_queues[table_name]
        loop = asyncio.get_running_loop()
        carried: tuple | None = None  # dequeued but over-budget for the last batch
        while True:
            rows, future = carried if carried is not None else await queue.get()
            carried = None
            parts = [rows]
            batch_rows = rows.num_rows
            futures = [future]
            try:
                if self.max_batch_delay > 0:
                    deadline = loop.time() + self.max_batch_delay
                    while batch_rows < self.max_batch_rows and carried is None:
                        remaining = deadline - loop.time()
                        if remaining <= 0:
                            break
                        try:
                            more_rows, more_future = await asyncio.wait_for(
                                queue.get(), timeout=remaining
                            )
                        except asyncio.TimeoutError:
                            break
                        if batch_rows + more_rows.num_rows > self.max_batch_rows:
                            carried = (more_rows, more_future)
                        else:
                            parts.append(more_rows)
                            batch_rows += more_rows.num_rows
                            futures.append(more_future)
                while carried is None and not queue.empty():
                    more_rows, more_future = queue.get_nowait()
                    if batch_rows + more_rows.num_rows > self.max_batch_rows:
                        carried = (more_rows, more_future)
                        break
                    parts.append(more_rows)
                    batch_rows += more_rows.num_rows
                    futures.append(more_future)
                rows = Table.concat_all(parts)
                result = await self._dispatch(self.service.ingest, table_name, rows)
            except asyncio.CancelledError:
                if carried is not None and not carried[1].done():
                    carried[1].cancel()
                for f in futures:
                    if not f.done():
                        f.cancel()
                raise
            except Exception as exc:
                for f in futures:
                    if not f.done():
                        f.set_exception(exc)
            else:
                for f in futures:
                    if not f.done():
                        f.set_result(result)


# --------------------------------------------------------------------------- #
# Wire format


def encode_result(result) -> dict:
    """JSON-encodable payload for one execute() return value."""
    if isinstance(result, dict):  # GROUP BY: label -> [AqpResult]
        return {
            "groups": {
                label: [_encode_aqp(r) for r in results]
                for label, results in result.items()
            }
        }
    return {"results": [_encode_aqp(r) for r in result]}


def _encode_aqp(result: AqpResult) -> dict:
    aggregation = result.aggregation
    column = aggregation.column if aggregation.column is not None else "*"
    return {
        "aggregation": f"{aggregation.func.value}({column})",
        "value": _json_float(result.value),
        "lower": _json_float(result.lower),
        "upper": _json_float(result.upper),
        "group": result.group,
    }


def _json_float(value: float) -> float | None:
    """NaN / inf are not valid JSON; encode them as null."""
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def _encode_ingest(result: IngestResult) -> dict:
    return {
        "table": result.table_name,
        "appended_rows": result.appended_rows,
        "rebuilt_partitions": result.rebuilt_partitions,
        "total_partitions": result.total_partitions,
        "seconds": result.seconds,
    }


def _error_parts(exc: Exception) -> tuple[str, str]:
    """``(error_type, message)`` of an exception answered as an error."""
    message = exc.args[0] if exc.args else str(exc)
    return type(exc).__name__, str(message)


class QueryServer:
    """Dual-protocol TCP server over an :class:`AsyncQueryService`.

    Each connection is sniffed: the :data:`~repro.service.framing.MAGIC`
    preamble selects the binary pipelined protocol, anything else the
    legacy JSON-lines dialect (see the module docstring).  Both dialects
    decode into the same :data:`OPS` handler calls.

    >>> server = QueryServer(async_service)          # doctest: +SKIP
    >>> await server.start()                         # doctest: +SKIP
    >>> host, port = server.address                  # doctest: +SKIP
    """

    def __init__(
        self,
        service: AsyncQueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        line_limit: int = DEFAULT_LINE_LIMIT,
        max_inflight_queries: int | None = DEFAULT_MAX_INFLIGHT_QUERIES,
        max_inflight_ingests: int | None = DEFAULT_MAX_INFLIGHT_INGESTS,
        replication=None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.line_limit = line_limit
        self.max_inflight_queries = max_inflight_queries
        self.max_inflight_ingests = max_inflight_ingests
        #: Optional :class:`repro.replication.ReplicationState`: which
        #: replication role this process plays (None = no replication;
        #: the ``status`` op then reports role "standalone").
        self.replication = replication
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        #: In-flight request counts per admission class (event-loop-local,
        #: so plain ints suffice — no locking).
        self._inflight = {"query": 0, "ingest": 0}
        #: Requests shed with an ``Overloaded`` response, per class.
        self.shed_counts = {"query": 0, "ingest": 0}

    # ------------------------------------------------------------------ #
    # Admission control

    def _limit_for(self, kind: str) -> int | None:
        return (
            self.max_inflight_ingests
            if kind == "ingest"
            else self.max_inflight_queries
        )

    def _admit(self, kind: str) -> bool:
        """Reserve one in-flight slot, or refuse (caller sheds the request)."""
        limit = self._limit_for(kind)
        if limit is not None and self._inflight[kind] >= limit:
            # shed_counts stays the per-server source of truth for the
            # status payload; the registry mirrors it for the metrics op
            # and the /metrics scrape.
            self.shed_counts[kind] += 1
            _SHED_CELLS[kind].inc()
            return False
        self._inflight[kind] += 1
        return True

    def _release(self, kind: str) -> None:
        self._inflight[kind] -= 1

    def _overloaded_message(self, kind: str) -> str:
        return (
            f"server is at its in-flight {kind} limit "
            f"({self._limit_for(kind)}); retry later"
        )

    # ------------------------------------------------------------------ #
    # Lifecycle

    async def start(self) -> "QueryServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=self.line_limit
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("the server has not been started")
        return self.host, self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            # wait_closed() (Python >= 3.12.1) waits for every connection
            # handler to return, and _handle blocks in readline() until its
            # client hangs up — so close lingering connections ourselves
            # instead of hanging on an idle client.
            for writer in list(self._connections):
                writer.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "QueryServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # Protocol

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._connections.add(writer)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # Small request/response frames + Nagle's algorithm = up to
            # ~40 ms artificial stalls; this workload is exactly that.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            # Negotiation sniff: binary clients lead with the 4-byte magic,
            # JSON-lines requests start with '{'.  Read one byte at a time
            # so a degenerate short first line (e.g. "{}\n") can never
            # stall the sniff waiting for a fourth byte.
            preamble = b""
            while len(preamble) < len(framing.MAGIC):
                byte = await reader.read(1)
                if not byte:
                    return
                preamble += byte
                if preamble == framing.MAGIC[: len(preamble)]:
                    continue
                break
            if preamble == framing.MAGIC:
                await self._serve_binary(reader, writer)
            else:
                await self._serve_json(reader, writer, first=preamble)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_json(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        first: bytes = b"",
    ) -> None:
        """The legacy newline-delimited-JSON loop (negotiated fallback).

        ``first`` is whatever the negotiation sniff consumed; if it already
        ends the first line, that request is served before reading again —
        blocking in ``readline()`` first would deadlock a client awaiting
        its first response.
        """
        pending = first
        while True:
            if pending.endswith(b"\n"):
                line, pending = pending, b""
            else:
                try:
                    rest = await reader.readline()
                except ValueError as exc:
                    # Line exceeded the buffer limit; the stream cannot be
                    # re-synchronised, so answer with an error frame and
                    # drop this connection only.
                    writer.write(
                        json.dumps(self._error(exc)).encode("utf-8") + b"\n"
                    )
                    await writer.drain()
                    break
                if not rest:
                    break
                line, pending = pending + rest, b""
                if not line.endswith(b"\n"):
                    break  # EOF mid-line
            response = await self._respond(line)
            writer.write(json.dumps(response).encode("utf-8") + b"\n")
            await writer.drain()

    async def _serve_binary(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """The pipelined binary loop: one task per frame, answers by id.

        Frames are admitted (or shed) synchronously in arrival order, then
        executed concurrently; each response is written as a single
        ``write()`` as soon as its work completes, in whatever order that
        happens — clients match responses to requests by id.
        """
        tasks: set[asyncio.Task] = set()
        #: follower_id of the subscription (if any) living on this
        #: connection — OP_WAL_ACK frames carry only an LSN and are
        #: attributed to it.
        subscriber_id: str | None = None
        try:
            while True:
                try:
                    header = await reader.readexactly(framing.HEADER_SIZE)
                except asyncio.IncompleteReadError:
                    break
                op, request_id, payload_len = framing.decode_header(header)
                traced = bool(op & framing.TRACE_FLAG)
                op &= ~framing.TRACE_FLAG
                if payload_len > self.line_limit:
                    # readexactly() is not bounded by the stream limit the
                    # way readline() is, so enforce it explicitly; the
                    # stream cannot be re-synchronised after refusing.
                    await self._write_error(
                        writer,
                        request_id,
                        "ValueError",
                        f"frame payload of {payload_len} bytes exceeds "
                        f"the {self.line_limit} byte limit",
                    )
                    break
                payload = await reader.readexactly(payload_len)
                trace: tuple[bytes, bytes] | None = None
                if traced:
                    trailer = await reader.readexactly(framing.TRACE_TRAILER_SIZE)
                    trace = framing.decode_trace_trailer(trailer)
                if op == framing.OP_WAL_ACK:
                    # One-way: no response frame, no admission slot.
                    rep = self.replication
                    if subscriber_id is not None and rep is not None and rep.hub is not None:
                        rep.hub.update_ack(
                            subscriber_id, framing.decode_wal_ack(payload)
                        )
                    continue
                if op == framing.OP_SUBSCRIBE:
                    try:
                        after_lsn, follower_id = framing.decode_subscribe(payload)
                    except (ValueError, struct.error) as exc:
                        await self._write_error(writer, request_id, *_error_parts(exc))
                        continue
                    subscriber_id = follower_id
                    task = asyncio.ensure_future(
                        self._serve_subscription(
                            writer, request_id, after_lsn, follower_id
                        )
                    )
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                    continue
                if op == framing.OP_QUERY_BATCH:
                    # Own framing: per-query outcomes in one frame, which
                    # takes one query slot.
                    kind = OPS["query"].kind
                    work = partial(self._query_batch, payload)
                    encode = framing.encode_batch_response
                else:
                    # Decode before admission so the op table classifies
                    # the request (an OP_JSON payload is parsed only here);
                    # a malformed frame errors out cleanly.
                    try:
                        codec = _BINARY_CODECS.get(op)
                        if codec is None:
                            raise ValueError(f"unknown binary op {op}")
                        decode, encode = codec
                        name, args = decode(payload, trace)
                    except Exception as exc:
                        await self._write_error(writer, request_id, *_error_parts(exc))
                        continue
                    kind = OPS[name].kind
                    work = partial(self._call, name, args)
                if not self._admit(kind):
                    await self._write_error(
                        writer,
                        request_id,
                        framing.OVERLOADED_ERROR_TYPE,
                        self._overloaded_message(kind),
                        framing.STATUS_OVERLOADED,
                    )
                    continue
                task = asyncio.ensure_future(
                    self._serve_frame(writer, request_id, kind, work, encode)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            if tasks:
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)

    @staticmethod
    async def _write_error(
        writer: asyncio.StreamWriter,
        request_id: int,
        error_type: str,
        message: str,
        status: int = framing.STATUS_ERROR,
    ) -> None:
        writer.write(
            framing.encode_frame(
                status, request_id, framing.encode_error(error_type, message)
            )
        )
        await writer.drain()

    async def _serve_frame(
        self,
        writer: asyncio.StreamWriter,
        request_id: int,
        kind: str,
        work,
        encode,
    ) -> None:
        """Run one admitted binary frame's ``work`` and write its response."""
        started = time.perf_counter()
        try:
            try:
                body = encode(await work())
                status = framing.STATUS_OK
            except Exception as exc:
                # Same contract as JSON: errors are frames, never dropped
                # connections or stack traces.
                status = framing.STATUS_ERROR
                body = framing.encode_error(*_error_parts(exc))
            try:
                writer.write(framing.encode_frame(status, request_id, body))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass  # client went away; nothing to answer
        finally:
            _LATENCY_CELLS[kind].observe(time.perf_counter() - started)
            self._release(kind)

    async def _serve_subscription(
        self, writer: asyncio.StreamWriter, request_id: int, after_lsn: int, follower_id: str
    ) -> None:
        """Run one replication subscription for the connection's lifetime."""
        rep = self.replication
        try:
            if rep is None or rep.hub is None:
                raise ValueError(
                    "this server does not accept replication subscriptions"
                )
            await rep.hub.stream(writer, request_id, after_lsn, follower_id)
        except asyncio.CancelledError:
            raise
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # the follower went away; its grace-period floor remains
        except Exception as exc:
            try:
                await self._write_error(writer, request_id, *_error_parts(exc))
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass

    # ------------------------------------------------------------------ #
    # Replication gates

    def _require_writable(self) -> None:
        """Reject external mutations on a read replica (the apply loop
        bypasses the wire entirely, so it is unaffected)."""
        rep = self.replication
        if rep is not None and rep.role == "replica":
            upstream = (
                rep.follower.status["upstream"] if rep.follower is not None else "?"
            )
            raise ValueError(
                f"this worker is a read-only replica (following {upstream}); "
                "send writes to the primary"
            )

    async def _commit_gate(self) -> None:
        """Between committing a mutation and acknowledging it: re-check the
        epoch fence, then wait for the semi-synchronous replication barrier.

        The order matters — a fenced zombie must not ack even a mutation
        its followers already replicated, because the new primary's history
        may be about to diverge from it.
        """
        rep = self.replication
        if rep is None:
            return
        if rep.epoch_file is not None:
            from ..replication.fence import check_fence

            check_fence(rep.epoch_file, rep.epoch)
        hub = rep.hub
        if hub is not None and hub.ack_replicas > 0:
            lsn = hub.database.wal.last_lsn
            if not await hub.wait_replicated(lsn):
                raise RuntimeError(
                    f"replication barrier timed out: lsn {lsn} was not "
                    f"acknowledged by {hub.ack_replicas} follower(s); the "
                    "mutation is durable locally but deliberately "
                    "unacknowledged — retry"
                )

    # ------------------------------------------------------------------ #
    # Op dispatch (one path for both dialects)

    async def _call(self, name: str, args: dict):
        """Run one :data:`OPS` handler; a mutation is refused on a replica,
        and between its commit and its ack run the fence + replication
        barrier and the crash drill (cluster tests arm
        ``server.ingest.before_ack`` to pin exactly-once recovery)."""
        op = OPS[name]
        if not op.mutates:
            return await op.handler(self, **args)
        self._require_writable()
        result = await op.handler(self, **args)
        await self._commit_gate()
        maybe_crash(f"server.{name}.before_ack")
        return result

    async def _query_batch(self, payload: bytes) -> list[dict]:
        """``OP_QUERY_BATCH``: run every query concurrently; one outcome each."""

        async def run_one(sql: str) -> dict:
            try:
                result = encode_result(await self.service.query(sql))
            except Exception as exc:
                return self._error(exc)
            return {"ok": True, "result": result}

        sqls = framing.decode_query_batch(payload)
        return list(await asyncio.gather(*(run_one(sql) for sql in sqls)))

    async def _respond(self, line: bytes) -> dict:
        try:
            name, args = _decode_json_request(json.loads(line))
        except ValueError as exc:  # malformed JSON, unknown op, bad field
            return self._error(exc)
        kind = OPS[name].kind
        if not self._admit(kind):
            return {
                "ok": False,
                "error": self._overloaded_message(kind),
                "error_type": framing.OVERLOADED_ERROR_TYPE,
            }
        started = time.perf_counter()
        try:
            return {"ok": True, "result": await self._call(name, args)}
        except Exception as exc:
            # The documented contract: errors are frames, never dropped
            # connections or stack traces (e.g. a query racing close()).
            return self._error(exc)
        finally:
            _LATENCY_CELLS[kind].observe(time.perf_counter() - started)
            self._release(kind)

    @staticmethod
    def _error(exc: Exception) -> dict:
        error_type, message = _error_parts(exc)
        return {"ok": False, "error": message, "error_type": error_type}

    # ------------------------------------------------------------------ #
    # Op handlers (argument fields and admission classes live in OPS)

    async def _op_ping(self) -> str:
        return "pong"

    async def _op_tables(self) -> dict:
        return {"tables": self.service.table_names}

    async def _op_stat(self, table: str) -> dict:
        return await self.service.stat(table)

    async def _op_query(self, sql: str, trace: dict | None = None) -> dict:
        # SQL-prefix form: "EXPLAIN [ANALYZE] <query>" through the
        # ordinary query op answers the structured plan instead.
        if split_explain(sql) is not None:
            return await self._op_explain(sql)
        with self._query_span(sql, trace):
            result = await self.service.query(sql)
        return encode_result(result)

    async def _op_ingest(
        self, table: str, rows: dict | Table, coalesce: bool = True
    ) -> dict:
        if not isinstance(rows, Table):
            # Decode against the registered schema so numeric columns
            # arrive typed the way the store expects (KeyError if unknown).
            rows = _rows_table(table, rows, self.service.schema_for(table))
        return _encode_ingest(await self.service.ingest(table, rows, coalesce=coalesce))

    async def _op_register(
        self,
        table: str,
        rows: dict,
        schema: list | None = None,
        params: dict | None = None,
        partition_size: int | None = None,
    ) -> dict:
        # Registrations may carry an explicit schema (the cluster front
        # end does), skipping column-type inference entirely.
        if schema is not None:
            schema = wire.schema_from_payload(schema)
        managed = await self.service.register_table(
            _rows_table(table, rows, schema),
            params=wire.params_from_payload(params) if params is not None else None,
            partition_size=partition_size,
        )
        return {
            "table": managed.name,
            "rows": managed.num_rows,
            "partitions": managed.num_partitions,
        }

    async def _op_drop(self, table: str) -> dict:
        await self.service.drop_table(table)
        return {"table": table, "dropped": True}

    async def _op_metrics(self) -> dict:
        return {"metrics": await self.service.metrics()}

    async def _op_trace(self, trace_id: str) -> dict:
        return {"trace_id": trace_id, "spans": await self.service.trace(trace_id)}

    async def _op_explain(self, sql: str, analyze: bool = False) -> dict:
        prefixed = split_explain(sql)
        if prefixed is not None:  # accept the prefix here too
            analyze = prefixed[0] or analyze
            sql = prefixed[1]
        return {"explain": await self.service.explain(sql, analyze)}

    async def _op_workload(self) -> dict:
        return {"workload": await self.service.workload()}

    async def _op_audit(self) -> dict:
        return {"audit": await self.service.audit_stats()}

    async def _op_checkpoint(self) -> dict:
        result = await self.service.checkpoint()
        return {
            "checkpoint_lsn": result.checkpoint_lsn,
            "snapshot": result.path.name if result.path is not None else None,
            "tables": result.tables,
            "seconds": result.seconds,
            "skipped": result.skipped,
        }

    async def _op_persist(self) -> dict:
        return {"last_lsn": await self.service.persist()}

    # ------------------------------------------------------------------ #
    # Observability + role transitions

    def _query_attrs(self, sql) -> dict:
        rep = self.replication
        return {
            "sql": sql if len(sql) <= 200 else sql[:200],
            "server_role": rep.role if rep is not None else "standalone",
        }

    def _query_span(self, sql: str, trace: dict | None):
        """Root span for one query request.

        When the client supplied trace ids (binary trailer / JSON
        ``"trace"`` key) the span adopts them and is marked for wire
        propagation, so a cluster front end forwards the trace to its
        shard workers and a worker joins its parse/cache spans to the
        caller's tree.  Untraced requests take the span-free
        :func:`~repro.obs.tracing.slow_watch` path: no span tree is
        built unless the query crosses the slow-query threshold, in
        which case a completed root span is synthesised for the log and
        the ring buffer.
        """
        if trace is not None:
            trace_id = trace.get("trace_id")
            span_id = trace.get("span_id")
            if isinstance(trace_id, str) and isinstance(span_id, str):
                return tracing.root_span(
                    "query",
                    trace_id=trace_id,
                    parent_id=span_id,
                    attrs=self._query_attrs(sql),
                )
        return tracing.slow_watch("query", lambda: self._query_attrs(sql))

    async def _op_status(self) -> dict:
        """LSNs, replication role/lag, shed + cache stats."""
        rep = self.replication
        payload: dict = {
            "role": rep.role if rep is not None else "standalone",
            "epoch": rep.epoch if rep is not None else 0,
            "shed_counts": dict(self.shed_counts),
        }
        status_extra = getattr(self.service, "status_extra", None)
        if status_extra is not None:
            # Both async facades implement this (the cluster one fans out
            # to its workers), so cache stats and LSN positions show up on
            # every deployment shape — not just a wrapped QueryService.
            payload.update(await status_extra())
        if rep is not None and rep.hub is not None:
            followers = rep.hub.subscriber_snapshot()
            payload["followers"] = followers
            payload["replicated_lsn"] = rep.hub.replicated_lsn()
            if followers and "durable_lsn" in payload:
                payload["replication_lag"] = payload["durable_lsn"] - min(
                    f["acked_lsn"] for f in followers.values()
                )
        if rep is not None and rep.follower is not None:
            payload["follower"] = dict(rep.follower.status)
        return payload

    async def _op_promote(self, epoch: int) -> dict:
        """Turn this replica into the shard's primary at a new epoch.

        The caller (the cluster front end) has already bumped the epoch
        file, fencing the old primary; this end stops the follower loop
        and starts a replication hub so the surviving replicas can
        re-subscribe here.
        """
        rep = self.replication
        if rep is None or rep.role != "replica" or rep.follower is None:
            raise ValueError("only a running replica can be promoted")
        from ..replication.primary import ReplicationHub

        loop = asyncio.get_running_loop()
        follower, rep.follower = rep.follower, None
        await loop.run_in_executor(None, follower.shutdown)
        inner = self.service.service
        hub = ReplicationHub(inner.database, ack_replicas=rep.ack_replicas)
        hub.attach()
        rep.hub = hub
        rep.role = "primary"
        rep.epoch = epoch
        return {
            "role": "primary",
            "epoch": epoch,
            "applied_lsn": inner.database.wal.last_lsn,
        }

    async def _op_follow(self, host: str, port: int) -> dict:
        """Repoint this replica's subscription at a new primary."""
        rep = self.replication
        if rep is None or rep.follower is None:
            raise ValueError("this worker is not following anyone")
        rep.follower.retarget(host, port)
        return {
            "upstream": f"{host}:{port}",
            "applied_lsn": self.service.service.database.wal.last_lsn,
        }


def _rows_table(table: str, rows: dict, schema) -> Table:
    if not rows:
        raise ValueError("ingest/register requests need a non-empty 'rows' mapping")
    return Table.from_dict(rows, name=table, schema=schema)


# --------------------------------------------------------------------------- #
# The op table


class Op(NamedTuple):
    """One wire op: its handler, admission class and typed argument fields.

    ``required`` / ``optional`` map each JSON argument field to its type;
    a JSON request is checked against them before the handler runs, and
    an absent (or ``null``) optional field takes the handler's default.
    A ``mutates`` op runs the write sequence of :meth:`QueryServer._call`.
    """

    handler: Callable[..., Awaitable]
    kind: str = "query"
    required: dict[str, type] = {}
    optional: dict[str, type] = {}
    mutates: bool = False

    def args_from(self, name: str, request: dict) -> dict:
        """Typed handler arguments of one JSON request (ValueError naming
        the op and the field on a missing or mistyped one)."""
        args = {}
        for key, expected in {**self.required, **self.optional}.items():
            value = request.get(key)
            if value is None:
                if key in self.required:
                    raise ValueError(f"{name} requests need a {key!r} field")
                continue
            # bool subclasses int, but JSON true is not an integer.
            if not isinstance(value, expected) or (
                isinstance(value, bool) and expected is not bool
            ):
                raise ValueError(
                    f"{name} field {key!r} must be {expected.__name__}, "
                    f"not {type(value).__name__}"
                )
            args[key] = value
        return args


#: Every wire op: the one place that names an op, its handler, its
#: admission class, its typed argument fields and whether it mutates.
#: Both dialects decode into these handler calls.
OPS: dict[str, Op] = {
    "ping": Op(QueryServer._op_ping),
    "tables": Op(QueryServer._op_tables),
    "stat": Op(QueryServer._op_stat, required={"table": str}),
    "query": Op(QueryServer._op_query, required={"sql": str}, optional={"trace": dict}),
    "ingest": Op(
        QueryServer._op_ingest,
        kind="ingest",
        required={"table": str, "rows": dict},
        optional={"coalesce": bool},
        mutates=True,
    ),
    "register": Op(
        QueryServer._op_register,
        required={"table": str, "rows": dict},
        optional={"schema": list, "params": dict, "partition_size": int},
        mutates=True,
    ),
    "drop": Op(QueryServer._op_drop, required={"table": str}, mutates=True),
    "status": Op(QueryServer._op_status),
    "metrics": Op(QueryServer._op_metrics),
    "trace": Op(QueryServer._op_trace, required={"trace_id": str}),
    "explain": Op(
        QueryServer._op_explain, required={"sql": str}, optional={"analyze": bool}
    ),
    "workload": Op(QueryServer._op_workload),
    "audit": Op(QueryServer._op_audit),
    "promote": Op(QueryServer._op_promote, required={"epoch": int}),
    "follow": Op(QueryServer._op_follow, required={"host": str, "port": int}),
    "checkpoint": Op(QueryServer._op_checkpoint),
    "persist": Op(QueryServer._op_persist),
}


def _decode_json_request(request) -> tuple[str, dict]:
    """JSON dialect codec: ``(op name, typed handler arguments)``."""
    if not isinstance(request, dict):
        raise ValueError("requests must be JSON objects")
    name = request.get("op")
    op = OPS.get(name) if isinstance(name, str) else None
    if op is None:
        raise ValueError(f"unknown op {name!r}")
    return name, op.args_from(name, request)


def _decode_query_frame(payload: bytes, trace: tuple[bytes, bytes] | None):
    args: dict = {"sql": framing.decode_query(payload)}
    if trace is not None:
        args["trace"] = {"trace_id": trace[0].hex(), "span_id": trace[1].hex()}
    return "query", args


def _encode_query_frame(result: dict) -> bytes:
    if "explain" in result:
        raise ValueError(
            "the binary result block cannot carry an EXPLAIN plan; "
            "send EXPLAIN queries in an OP_JSON frame"
        )
    return framing.encode_result(result)


def _decode_ingest_frame(payload: bytes, trace: tuple[bytes, bytes] | None):
    table, rows, coalesce = framing.decode_ingest(payload)
    return "ingest", {"table": table, "rows": rows, "coalesce": coalesce}


#: Binary codecs onto :data:`OPS`: op code -> ``(decode(payload, trace)
#: -> (op name, args), encode(result) -> payload)``.  ``OP_QUERY_BATCH``,
#: ``OP_SUBSCRIBE`` and ``OP_WAL_ACK`` keep their own framing.
_BINARY_CODECS = {
    framing.OP_PING: (lambda payload, trace: ("ping", {}), lambda result: b""),
    framing.OP_QUERY: (_decode_query_frame, _encode_query_frame),
    framing.OP_INGEST: (_decode_ingest_frame, framing.encode_json),
    framing.OP_JSON: (
        lambda payload, trace: _decode_json_request(framing.decode_json(payload)),
        framing.encode_json,
    ),
}


class AsyncQueryClient:
    """Minimal line-protocol client for :class:`QueryServer` (tests, examples).

    One request is in flight per connection at a time; concurrent callers
    sharing a client serialize on an internal lock, so open one client per
    simulated dashboard session for parallel traffic.  Error responses
    raise :class:`~repro.service.wire.WireError` (a ``RuntimeError``), or
    :class:`~repro.service.wire.OverloadedError` for a shed request.
    """

    def __init__(
        self, host: str, port: int, line_limit: int = DEFAULT_LINE_LIMIT
    ) -> None:
        self.host = host
        self.port = port
        self.line_limit = line_limit
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._lock = asyncio.Lock()

    async def connect(self) -> "AsyncQueryClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=self.line_limit
        )
        sock = self._writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "AsyncQueryClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def request(self, payload: dict) -> dict:
        if self._writer is None:
            raise RuntimeError("client is not connected")
        async with self._lock:
            self._writer.write(json.dumps(payload).encode("utf-8") + b"\n")
            await self._writer.drain()
            line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def query(self, sql: str) -> dict:
        """Send a query, returning the decoded result payload (raises on error)."""
        return wire.response_result(await self.request({"op": "query", "sql": sql}))

    async def ingest(self, table: str, rows: dict, coalesce: bool = True) -> dict:
        return wire.response_result(
            await self.request(
                {"op": "ingest", "table": table, "rows": rows, "coalesce": coalesce}
            )
        )


# --------------------------------------------------------------------------- #
# Process entry point


def _build_arg_parser():
    import argparse

    from ..gd.partitioned import DEFAULT_PARTITION_SIZE

    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve the approximate query engine over newline-delimited JSON/TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks a free port")
    parser.add_argument(
        "--data-dir",
        default=None,
        help="durable data directory (WAL + snapshots); omit for a purely "
        "in-memory server.  With --shards N this is the cluster root: one "
        "shard-NNNNN data directory per worker plus the CLUSTER manifest",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="run a sharded cluster: N worker subprocesses (each a full "
        "durable engine) behind a scatter-gather front end; 1 (default) "
        "serves a single-process engine",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=30.0,
        help="seconds between background snapshot checkpoints (with --data-dir)",
    )
    parser.add_argument(
        "--fsync",
        action="store_true",
        help="fsync every WAL append (with --data-dir); slower, survives "
        "power loss rather than just process death",
    )
    parser.add_argument(
        "--partition-size", type=int, default=DEFAULT_PARTITION_SIZE
    )
    parser.add_argument(
        "--coalesce-delay",
        type=float,
        default=DEFAULT_MAX_BATCH_DELAY,
        help="max seconds the ingest coalescer keeps a batch open waiting "
        "for more writers",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--result-cache-size",
        type=int,
        default=DEFAULT_RESULT_CACHE_SIZE,
        help="entries in the synopsis-version-keyed result cache "
        "(0 disables; with --shards this applies to every worker)",
    )
    parser.add_argument(
        "--max-inflight-queries",
        type=int,
        default=DEFAULT_MAX_INFLIGHT_QUERIES,
        help="admission control: queries in flight beyond this are shed "
        "with an Overloaded error (0 disables the limit)",
    )
    parser.add_argument(
        "--max-inflight-ingests",
        type=int,
        default=DEFAULT_MAX_INFLIGHT_INGESTS,
        help="admission control: ingests in flight beyond this are shed "
        "with an Overloaded error (0 disables the limit)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=0,
        help="(with --shards) follower workers per shard; they serve "
        "staleness-bounded read scatters and one is promoted when the "
        "shard's primary dies",
    )
    parser.add_argument(
        "--max-replica-lag",
        type=int,
        default=256,
        help="(cluster) a replica serves reads only while its applied LSN "
        "is within this many records of the primary's durable LSN",
    )
    parser.add_argument(
        "--replica-of",
        default=None,
        metavar="HOST:PORT",
        help="run as a read replica subscribed to the given primary "
        "(requires --data-dir; the worker refuses external writes)",
    )
    parser.add_argument(
        "--follower-id",
        default=None,
        help="stable subscriber identity for --replica-of (defaults to the "
        "data directory name)",
    )
    parser.add_argument(
        "--epoch",
        type=int,
        default=0,
        help="replication epoch this worker was spawned at (fencing)",
    )
    parser.add_argument(
        "--epoch-file",
        default=None,
        help="path to the shard's epoch file; mutations re-check it before "
        "acking, so a fenced zombie primary cannot acknowledge writes",
    )
    parser.add_argument(
        "--ack-replicas",
        type=int,
        default=0,
        help="semi-synchronous replication: delay each mutation ack until "
        "this many followers durably acknowledged it (0 = async)",
    )
    parser.add_argument(
        "--ack-timeout",
        type=float,
        default=30.0,
        help="seconds a mutation ack may wait on the replication barrier",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve a Prometheus-text /metrics endpoint on this port "
        "(0 picks a free port; a cluster front end serves the fan-out "
        "merged fleet registry)",
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        help="log completed root query spans slower than this many "
        "milliseconds as structured JSON lines (default: "
        "REPRO_SLOW_QUERY_MS, else off)",
    )
    parser.add_argument(
        "--slow-log-file",
        default=None,
        help="route slow-query JSON lines to this size-rotated file "
        "instead of stderr (default: REPRO_SLOW_LOG_FILE, else stderr)",
    )
    parser.add_argument(
        "--slow-log-max-mb",
        type=float,
        default=tracing.DEFAULT_SLOW_LOG_MAX_MB,
        help="rotate the slow-query log file at this size; at most "
        f"{tracing.SLOW_LOG_KEEP} rotated generations are kept "
        "(default: REPRO_SLOW_LOG_MAX_MB, else %(default)s)",
    )
    parser.add_argument(
        "--audit-sample",
        type=float,
        default=0.0,
        help="fraction of served queries the background accuracy auditor "
        "recomputes exactly against the lossless GD rows (0 disables; "
        "try 0.01)",
    )
    parser.add_argument(
        "--audit-interval",
        type=float,
        default=5.0,
        help="seconds between background audit passes (with --audit-sample)",
    )
    parser.add_argument(
        "--workload-capacity",
        type=int,
        default=256,
        help="distinct normalized query templates the workload analytics "
        "log retains (LRU; 0 disables the log and the auditor's "
        "stratified replay)",
    )
    return parser


def _admission_kwargs(args) -> dict:
    return {
        "max_inflight_queries": args.max_inflight_queries or None,
        "max_inflight_ingests": args.max_inflight_ingests or None,
    }


def _apply_slow_query_threshold(args) -> None:
    millis = getattr(args, "slow_query_ms", None)
    if millis is not None:
        tracing.TRACER.slow_threshold_seconds = max(millis, 0.0) / 1000.0
    path = getattr(args, "slow_log_file", None)
    if path:
        tracing.TRACER.configure_slow_log(
            path,
            max_mb=getattr(args, "slow_log_max_mb", tracing.DEFAULT_SLOW_LOG_MAX_MB),
        )


def _attach_answer_quality(service, args):
    """Wire the workload log and (optionally) the accuracy auditor onto a
    query service; returns the started auditor (or ``None``) so the serve
    loop can stop its daemon on shutdown."""
    capacity = getattr(args, "workload_capacity", 0) or 0
    if capacity > 0:
        from ..audit.workload import WorkloadLog

        service.workload_log = WorkloadLog(capacity=capacity)
    sample = getattr(args, "audit_sample", 0.0) or 0.0
    if sample > 0:
        from ..audit.auditor import AccuracyAuditor

        service.auditor = AccuracyAuditor(
            service,
            sample_rate=sample,
            interval_seconds=getattr(args, "audit_interval", 5.0),
            workload=service.workload_log,
        ).start()
    return service.auditor


def _start_metrics_endpoint(args, snapshot_fn, ready_fn=None):
    """Start the /metrics HTTP endpoint when --metrics-port was given."""
    if getattr(args, "metrics_port", None) is None:
        return None
    from ..obs.exposition import MetricsHTTPServer

    endpoint = MetricsHTTPServer(
        snapshot_fn, host=args.host, port=args.metrics_port, ready_fn=ready_fn
    ).start()
    print(f"metrics on {args.host}:{endpoint.port}", flush=True)
    return endpoint


def _install_stop_handlers(loop, stop: asyncio.Event) -> None:
    """SIGINT/SIGTERM set the stop event for a graceful shutdown.

    ``REPRO_HANG_ON_SIGTERM=1`` registers a no-op SIGTERM handler instead —
    the wedged-worker drill for the supervisor's SIGTERM → SIGKILL
    escalation (the process then only dies to SIGKILL).
    """
    import os
    import signal

    hang = os.environ.get("REPRO_HANG_ON_SIGTERM") == "1"
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            if hang and signum == signal.SIGTERM:
                loop.add_signal_handler(signum, lambda: None)
            else:
                loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # non-unix event loops
            pass


async def serve_cluster(args) -> None:
    """Run a sharded cluster front end until SIGINT/SIGTERM.

    Spawns ``--shards`` worker subprocesses (each the plain single-process
    server on its own shard data directory), scatter-gathers through
    :class:`~repro.cluster.service.ClusterQueryService` and serves the
    same JSON-lines protocol on the front-end port.
    """
    from ..cluster.service import AsyncClusterService, ClusterQueryService
    from ..storage.cluster import ClusterLayout

    worker_options = {
        "checkpoint_interval": args.checkpoint_interval,
        "coalesce_delay": args.coalesce_delay,
        "workers_per_shard": args.workers,
        "fsync": args.fsync,
        "result_cache_size": args.result_cache_size,
        # Workers own the rows, so auditing runs inside each worker.
        "audit_sample": args.audit_sample,
        "audit_interval": args.audit_interval,
        "workload_capacity": args.workload_capacity,
    }
    if args.data_dir and ClusterLayout(args.data_dir).read_manifest() is not None:
        cluster = ClusterQueryService.open(
            args.data_dir,
            mode="process",
            expected_shards=args.shards,
            partition_size=args.partition_size,
            replicas=args.replicas or None,
            max_replica_lag=args.max_replica_lag,
            worker_options=worker_options,
        )
        print(
            f"recovered cluster of {cluster.num_shards} shard(s), "
            f"{len(cluster.table_names)} table(s) from {args.data_dir}",
            flush=True,
        )
    else:
        cluster = ClusterQueryService(
            num_shards=args.shards,
            path=args.data_dir or None,
            mode="process",
            partition_size=args.partition_size,
            replicas=args.replicas,
            max_replica_lag=args.max_replica_lag,
            worker_options=worker_options,
        )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    _install_stop_handlers(loop, stop)
    _apply_slow_query_threshold(args)
    listening = threading.Event()
    metrics_endpoint = _start_metrics_endpoint(
        args,
        cluster.metrics,
        # Ready = the front end accepts connections AND every worker
        # answers a supervisor ping.
        ready_fn=lambda: listening.is_set() and cluster.ready(),
    )
    try:
        async with AsyncClusterService(
            cluster, max_workers=args.workers
        ) as front_end:
            async with QueryServer(
                front_end, host=args.host, port=args.port, **_admission_kwargs(args)
            ) as server:
                print(f"listening on {server.host}:{server.port}", flush=True)
                listening.set()
                await stop.wait()
    finally:
        if metrics_endpoint is not None:
            metrics_endpoint.stop()
        # Graceful worker shutdown: SIGTERM triggers each worker's final
        # checkpoint, so the next start recovers from snapshots.
        await loop.run_in_executor(None, cluster.close)


async def serve_replica(args) -> None:
    """Run a read replica: recover the local data dir, subscribe to the
    primary, serve queries (and refuse external writes) until stopped."""
    from ..replication import FollowerLoop, ReplicaApplier, ReplicationState

    if not args.data_dir:
        raise SystemExit("--replica-of requires --data-dir")
    host, _, port_text = args.replica_of.rpartition(":")
    if not host or not port_text.isdigit():
        raise SystemExit("--replica-of must be HOST:PORT")
    database = Database.open(
        args.data_dir, fsync=args.fsync, partition_size=args.partition_size
    )
    service = ConcurrentQueryService(
        database=database, result_cache_size=args.result_cache_size
    )
    applier = ReplicaApplier(service)
    follower_id = args.follower_id or Path(args.data_dir).name
    follower = FollowerLoop(applier, follower_id, host, int(port_text))
    replication = ReplicationState(
        role="replica",
        epoch=args.epoch,
        epoch_file=Path(args.epoch_file) if args.epoch_file else None,
        follower=follower,
        ack_replicas=args.ack_replicas,
    )
    checkpointer = BackgroundCheckpointer(
        service, interval_seconds=args.checkpoint_interval
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    _install_stop_handlers(loop, stop)
    _apply_slow_query_threshold(args)
    # Replicas are the preferred audit host: replication applies the same
    # committed batches, so the exact recomputation never taxes the primary.
    auditor = _attach_answer_quality(service, args)
    listening = threading.Event()
    metrics_endpoint = _start_metrics_endpoint(
        args, obs_metrics.REGISTRY.snapshot, ready_fn=listening.is_set
    )
    async with AsyncQueryService(
        service=service,
        max_workers=args.workers,
        max_batch_delay=args.coalesce_delay,
    ) as async_service:
        async with QueryServer(
            async_service,
            host=args.host,
            port=args.port,
            replication=replication,
            **_admission_kwargs(args),
        ) as server:
            checkpointer.start()
            follower.start()
            print(f"listening on {server.host}:{server.port}", flush=True)
            listening.set()
            try:
                await stop.wait()
            finally:
                # A promotion swaps rep.follower for a hub; only stop the
                # loop if we are still following someone.
                if auditor is not None:
                    await loop.run_in_executor(None, auditor.stop)
                if replication.follower is not None:
                    await loop.run_in_executor(
                        None, replication.follower.shutdown
                    )
                final = await loop.run_in_executor(None, checkpointer.stop)
                if final is None and checkpointer.last_error is not None:
                    print(
                        "final checkpoint failed: "
                        f"{checkpointer.last_error!r}; the next start "
                        "will recover this state from the WAL instead",
                        flush=True,
                    )
    if metrics_endpoint is not None:
        metrics_endpoint.stop()
    database.close()


async def serve(args) -> None:
    """Run a server until SIGINT/SIGTERM; durable when --data-dir is set."""
    if getattr(args, "shards", 1) > 1 or getattr(args, "replicas", 0) > 0:
        # Replicas are follower subprocesses under the cluster supervisor,
        # so even a 1-shard deployment with replicas is a cluster.
        await serve_cluster(args)
        return
    if getattr(args, "replica_of", None):
        await serve_replica(args)
        return

    if args.data_dir:
        from ..storage.cluster import ClusterLayout

        manifest = ClusterLayout(args.data_dir).read_manifest()
        if manifest is not None:
            # Opening a cluster root as a single-node data dir would boot
            # an empty catalog and scribble wal/snapshots into the cluster
            # directory — refuse instead of silently "losing" the data.
            raise SystemExit(
                f"{args.data_dir!r} is a sharded cluster root "
                f"({manifest.num_shards} shard(s)); start it with "
                f"--shards {manifest.num_shards}"
            )
        database = Database.open(
            args.data_dir, fsync=args.fsync, partition_size=args.partition_size
        )
        info = database.recovery_info
        print(
            f"recovered {len(database.table_names)} table(s) from {args.data_dir} "
            f"(snapshot lsn {info.snapshot_lsn}, {info.replayed_records} WAL "
            f"record(s) replayed, {info.rebuilt_partitions} partition "
            f"synopsis(es) rebuilt in {info.seconds:.2f}s)",
            flush=True,
        )
    else:
        database = Database(partition_size=args.partition_size)
    service = ConcurrentQueryService(
        database=database, result_cache_size=args.result_cache_size
    )
    checkpointer = (
        BackgroundCheckpointer(service, interval_seconds=args.checkpoint_interval)
        if args.data_dir
        else None
    )
    replication = None
    if args.data_dir:
        # Every durable server can feed followers; it only *behaves* as a
        # fenced/semi-sync primary when the cluster wires it up that way.
        from ..replication import ReplicationHub, ReplicationState

        ack_replicas = getattr(args, "ack_replicas", 0)
        epoch_file = getattr(args, "epoch_file", None)
        hub = ReplicationHub(
            database,
            ack_replicas=ack_replicas,
            ack_timeout=getattr(args, "ack_timeout", 30.0),
        )
        hub.attach()
        replication = ReplicationState(
            role="primary" if (epoch_file or ack_replicas) else "standalone",
            epoch=getattr(args, "epoch", 0),
            epoch_file=Path(epoch_file) if epoch_file else None,
            hub=hub,
            ack_replicas=ack_replicas,
        )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    _install_stop_handlers(loop, stop)
    _apply_slow_query_threshold(args)
    auditor = _attach_answer_quality(service, args)
    # Readiness: recovery already completed above (Database.open replays
    # the WAL before returning), so ready == accepting connections.
    listening = threading.Event()
    metrics_endpoint = _start_metrics_endpoint(
        args, obs_metrics.REGISTRY.snapshot, ready_fn=listening.is_set
    )
    async with AsyncQueryService(
        service=service,
        max_workers=args.workers,
        max_batch_delay=args.coalesce_delay,
    ) as async_service:
        async with QueryServer(
            async_service,
            host=args.host,
            port=args.port,
            replication=replication,
            **_admission_kwargs(args),
        ) as server:
            if checkpointer is not None:
                checkpointer.start()
            print(f"listening on {server.host}:{server.port}", flush=True)
            listening.set()
            try:
                await stop.wait()
            finally:
                if auditor is not None:
                    await loop.run_in_executor(None, auditor.stop)
                if checkpointer is not None:
                    # Final checkpoint so the next start recovers from a
                    # snapshot instead of replaying the whole WAL.
                    final = await loop.run_in_executor(None, checkpointer.stop)
                    if final is None and checkpointer.last_error is not None:
                        print(
                            "final checkpoint failed: "
                            f"{checkpointer.last_error!r}; the next start "
                            "will recover this state from the WAL instead",
                            flush=True,
                        )
    if metrics_endpoint is not None:
        metrics_endpoint.stop()
    if args.data_dir:
        database.close()


def main(argv=None) -> None:
    args = _build_arg_parser().parse_args(argv)
    asyncio.run(serve(args))


if __name__ == "__main__":
    main()
