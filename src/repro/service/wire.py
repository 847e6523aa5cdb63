"""Synchronous wire clients + payload helpers.

Two blocking clients for :class:`~repro.service.server.QueryServer`:

* :class:`ClusterClient` — the legacy newline-delimited-JSON client, one
  request in flight per connection.  Kept as the negotiated fallback and
  as a handy operational client for scripts and tests.
* :class:`PipelinedClient` — the binary-protocol client
  (:mod:`repro.service.framing`): many requests in flight per connection,
  a background reader thread matches response frames to requests by id.
  This is what the cluster front end (:mod:`repro.cluster`) multiplexes
  its scatters over.

Both inherit their op methods from :class:`WireOps` and differ only in
transport (plus the binary client's fast paths).

The module additionally owns the JSON payload encodings shared by both
ends of the protocol — tables, schemas and
:class:`~repro.core.params.PairwiseHistParams` — so the server and every
client agree on one encoding.
"""

from __future__ import annotations

import json
import math
import socket
import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np

from ..core.params import PairwiseHistParams
from ..data.schema import ColumnSchema, ColumnType, TableSchema
from ..data.table import Table
from . import framing

#: Mirrors the server's per-line buffer limit.
DEFAULT_LINE_LIMIT = 32 * 1024 * 1024


# --------------------------------------------------------------------------- #
# Payload encodings (shared by the async server and every client)


def table_payload(table: Table) -> dict:
    """JSON-encodable column mapping for ``register`` / ``ingest`` requests."""
    payload: dict[str, list] = {}
    for column in table.schema:
        values = table.column(column.name)
        if column.is_categorical:
            payload[column.name] = [None if v is None else str(v) for v in values]
        else:
            floats = np.asarray(values, dtype=float)
            payload[column.name] = [
                None if not math.isfinite(v) else v for v in floats.tolist()
            ]
    return payload


def schema_payload(schema: TableSchema) -> list[dict]:
    """JSON-encodable schema for ``register`` requests (skips inference)."""
    return [
        {
            "name": column.name,
            "type": column.ctype.value,
            "decimals": column.decimals,
            "nullable": bool(column.nullable),
            "categories": column.categories,
        }
        for column in schema
    ]


def schema_from_payload(payload: list[dict]) -> TableSchema:
    """Inverse of :func:`schema_payload`."""
    if not isinstance(payload, list) or not all(isinstance(c, dict) for c in payload):
        raise ValueError("schema payloads must be a list of column objects")
    columns = []
    for entry in payload:
        columns.append(
            ColumnSchema(
                name=str(entry["name"]),
                ctype=ColumnType(entry["type"]),
                decimals=int(entry.get("decimals", 0)),
                categories=entry.get("categories"),
                nullable=bool(entry.get("nullable", True)),
            )
        )
    return TableSchema(columns)


_PARAMS_FIELDS = (
    "sample_size",
    "min_points",
    "alpha",
    "min_spacing",
    "max_initial_bins",
    "max_refine_depth",
    "seed",
    "max_merged_cells",
)


def params_payload(params: PairwiseHistParams) -> dict:
    """JSON-encodable construction parameters for ``register`` requests."""
    return {field: getattr(params, field) for field in _PARAMS_FIELDS}


def params_from_payload(payload: dict) -> PairwiseHistParams:
    """Inverse of :func:`params_payload` (unknown keys are rejected)."""
    if not isinstance(payload, dict):
        raise ValueError("params payloads must be a JSON object")
    unknown = set(payload) - set(_PARAMS_FIELDS)
    if unknown:
        raise ValueError(f"unknown params fields: {sorted(unknown)}")
    return PairwiseHistParams(**payload)


# --------------------------------------------------------------------------- #
# Blocking client


class WireError(RuntimeError):
    """An ``{"ok": false}`` response frame, surfaced as an exception."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message


class OverloadedError(WireError):
    """The server shed this request at admission (``STATUS_OVERLOADED``).

    The request was refused *before* any work started, so retrying later
    is always safe — including for ingest.
    """


class UnsentRequestError(ConnectionError):
    """The connection failed before the request hit the socket.

    The server definitely never saw the request, so retrying it (on a
    fresh connection) cannot double-apply anything — the distinction a
    non-idempotent caller (ingest) needs.  A failure *after* the send is
    a plain :class:`ConnectionError`: the server may or may not have
    applied the request.
    """


def wire_error(error_type: str, message: str) -> WireError:
    """The exception for one error response in either dialect: a shed
    request is an :class:`OverloadedError`, anything else a
    :class:`WireError`."""
    cls = OverloadedError if error_type == framing.OVERLOADED_ERROR_TYPE else WireError
    return cls(error_type, message)


def response_result(response: dict):
    """The ``result`` of one JSON-dialect response, or its error raised."""
    if not response.get("ok"):
        raise wire_error(
            str(response.get("error_type", "Error")), str(response.get("error", ""))
        )
    return response["result"]


class WireOps:
    """The convenience ops both blocking clients share.

    Each sends one :data:`repro.service.server.OPS` request through
    :meth:`call`; a subclass supplies the transport and may override an
    op with a binary fast path.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 30.0,
        line_limit: int = DEFAULT_LINE_LIMIT,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.line_limit = line_limit

    def __enter__(self):
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def call(self, payload: dict):
        """Send one op request; its result, or the error raised."""
        raise NotImplementedError

    def ping(self) -> bool:
        return self.call({"op": "ping"}) == "pong"

    def tables(self) -> list[str]:
        return self.call({"op": "tables"})["tables"]

    def stat(self, table: str) -> dict:
        return self.call({"op": "stat", "table": table})

    def query(self, sql: str, trace: tuple[str, str] | None = None) -> dict:
        """``trace=(trace_id_hex, span_id_hex)`` tags the query for tracing."""
        request: dict = {"op": "query", "sql": sql}
        if trace is not None:
            request["trace"] = {"trace_id": trace[0], "span_id": trace[1]}
        return self.call(request)

    def ingest(self, table: str, rows: Table | dict, coalesce: bool = True) -> dict:
        payload = table_payload(rows) if isinstance(rows, Table) else rows
        return self.call(
            {"op": "ingest", "table": table, "rows": payload, "coalesce": coalesce}
        )

    def register(
        self,
        table: Table,
        params: PairwiseHistParams | None = None,
        partition_size: int | None = None,
    ) -> dict:
        request: dict = {
            "op": "register",
            "table": table.name,
            "rows": table_payload(table),
            "schema": schema_payload(table.schema),
        }
        if params is not None:
            request["params"] = params_payload(params)
        if partition_size is not None:
            request["partition_size"] = partition_size
        return self.call(request)

    def drop(self, table: str) -> dict:
        return self.call({"op": "drop", "table": table})

    def checkpoint(self) -> dict:
        return self.call({"op": "checkpoint"})

    def persist(self) -> int:
        return self.call({"op": "persist"})["last_lsn"]

    def status(self) -> dict:
        """Replication/health snapshot (role, LSNs, lag, shed counts)."""
        return self.call({"op": "status"})

    def promote(self, epoch: int) -> dict:
        """Tell a replica to become the primary at ``epoch``."""
        return self.call({"op": "promote", "epoch": epoch})

    def follow(self, host: str, port: int) -> dict:
        """Repoint a replica's subscription at a new primary."""
        return self.call({"op": "follow", "host": host, "port": port})

    def metrics(self) -> dict:
        """Registry snapshot (fan-out merged when talking to a cluster)."""
        return self.call({"op": "metrics"})["metrics"]

    def trace(self, trace_id: str) -> list[dict]:
        """Finished spans for ``trace_id`` (fan-out merged on a cluster)."""
        return self.call({"op": "trace", "trace_id": trace_id})["spans"]

    def explain(self, sql: str, analyze: bool = False) -> dict:
        """Structured EXPLAIN plan; ``analyze=True`` also executes."""
        return self.call({"op": "explain", "sql": sql, "analyze": analyze})["explain"]

    def workload(self) -> dict:
        """Normalized-template workload log (fan-out merged on a cluster)."""
        return self.call({"op": "workload"})["workload"]

    def audit(self) -> dict:
        """Accuracy-auditor stats (fan-out merged on a cluster)."""
        return self.call({"op": "audit"})["audit"]


class ClusterClient(WireOps):
    """Blocking newline-delimited-JSON client for :class:`QueryServer`.

    One request is in flight per connection at a time; concurrent callers
    sharing a client serialize on an internal lock (the cluster front end
    opens one client per worker shard, so shard calls still fan out in
    parallel).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 30.0,
        line_limit: int = DEFAULT_LINE_LIMIT,
    ) -> None:
        super().__init__(host, port, timeout, line_limit)
        self._sock: socket.socket | None = None
        self._rfile = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Lifecycle

    def connect(self) -> "ClusterClient":
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    @property
    def connected(self) -> bool:
        return self._sock is not None

    # ------------------------------------------------------------------ #
    # Protocol

    def request(self, payload: dict) -> dict:
        """Send one frame, wait for its response frame (raw, ok or not).

        Failures before the frame is written raise
        :class:`UnsentRequestError` (safe to retry verbatim); failures
        after it raise :class:`ConnectionError` (the server may have
        applied the request even though no response arrived).
        """
        if self._sock is None:
            raise UnsentRequestError("client is not connected")
        frame = json.dumps(payload).encode("utf-8") + b"\n"
        with self._lock:
            try:
                self._sock.sendall(frame)
            except OSError as exc:
                raise UnsentRequestError(f"wire send failed: {exc}") from exc
            try:
                line = self._rfile.readline(self.line_limit)
            except OSError as exc:
                raise ConnectionError(f"wire response failed: {exc}") from exc
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def call(self, payload: dict):
        """Like :meth:`request`, raising :class:`WireError` on error frames
        (:class:`OverloadedError` for a shed request)."""
        return response_result(self.request(payload))


# --------------------------------------------------------------------------- #
# Pipelined binary client


class PipelinedClient(WireOps):
    """Blocking binary-protocol client with true pipelining.

    ``submit_*`` methods write one frame and return a
    :class:`~concurrent.futures.Future` immediately — many requests ride
    one connection concurrently, and a background reader thread resolves
    each future as its response frame arrives (responses may come back in
    any order; they are matched by request id).  The synchronous ops
    (``query`` / ``ingest`` / ``call`` / ...) are the :class:`WireOps`
    ones, each waiting on its own future.

    Error semantics match :class:`ClusterClient`: a failure *before* the
    frame hits the socket raises :class:`UnsentRequestError` (safe to
    retry verbatim); a connection failure afterwards fails the future
    with a plain :class:`ConnectionError` (the server may have applied
    the request).  Error frames raise :class:`WireError`; admission-shed
    frames raise :class:`OverloadedError`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 30.0,
        line_limit: int = DEFAULT_LINE_LIMIT,
    ) -> None:
        super().__init__(host, port, timeout, line_limit)
        self._sock: socket.socket | None = None
        self._rfile = None
        self._reader: threading.Thread | None = None
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[int, tuple[Future, int]] = {}
        self._next_id = 0
        self._closed = False
        #: Set (under ``_pending_lock``) when the reader thread dies; any
        #: later submit must refuse instead of writing into a socket whose
        #: responses nobody will ever read.
        self._dead_exc: Exception | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle

    def connect(self) -> "PipelinedClient":
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # The connect timeout must not apply to the reader's blocking
        # read — an idle connection is not an error.  Per-request
        # timeouts are enforced on the futures instead.
        sock.settimeout(None)
        sock.sendall(framing.MAGIC)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._closed = False
        self._dead_exc = None
        self._reader = threading.Thread(
            target=self._read_loop, name="aqp-pipeline-reader", daemon=True
        )
        self._reader.start()
        return self

    def close(self) -> None:
        self._closed = True
        sock, rfile, reader = self._sock, self._rfile, self._reader
        self._sock = self._rfile = self._reader = None
        if sock is not None:
            # Unblock the reader thread *before* closing the buffered
            # file: rfile.close() needs the buffer lock the reader holds
            # while blocked in readinto(), so closing it first deadlocks.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=1.0)
        for closable in (rfile, sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:
                    pass
        self._fail_pending(ConnectionError("client closed"))

    @property
    def connected(self) -> bool:
        return self._sock is not None and not self._closed

    # ------------------------------------------------------------------ #
    # Frame plumbing

    def _submit(
        self,
        op: int,
        payload: bytes,
        trace: tuple[bytes, bytes] | None = None,
    ) -> Future:
        """Write one request frame; its future resolves with the response.

        ``trace=(trace_id16, span_id8)`` appends the trace trailer so the
        server joins this request to an existing trace.
        """
        future: Future = Future()
        with self._send_lock:
            sock = self._sock
            if sock is None or self._closed:
                raise UnsentRequestError("client is not connected")
            self._next_id += 1
            request_id = self._next_id
            # Register before sending so a same-thread-fast response can
            # never race past its pending entry.  The dead-reader check
            # shares the lock with _fail_pending, so either this entry is
            # registered before the reader's drain (and gets failed by
            # it), or the death is observed here — a future can never be
            # orphaned between a dead reader and a successful send.
            with self._pending_lock:
                if self._dead_exc is not None:
                    raise UnsentRequestError(
                        f"wire reader died: {self._dead_exc}"
                    ) from self._dead_exc
                self._pending[request_id] = (future, op)
            try:
                sock.sendall(framing.encode_frame(op, request_id, payload, trace))
            except OSError as exc:
                with self._pending_lock:
                    self._pending.pop(request_id, None)
                raise UnsentRequestError(f"wire send failed: {exc}") from exc
        return future

    def _read_loop(self) -> None:
        rfile = self._rfile
        try:
            while True:
                header = rfile.read(framing.HEADER_SIZE)
                if len(header) < framing.HEADER_SIZE:
                    raise ConnectionError("server closed the connection")
                status, request_id, payload_len = framing.decode_header(header)
                if payload_len > self.line_limit:
                    raise ConnectionError(
                        f"response frame of {payload_len} bytes exceeds the "
                        f"{self.line_limit} byte limit"
                    )
                payload = rfile.read(payload_len) if payload_len else b""
                if len(payload) < payload_len:
                    raise ConnectionError("server closed the connection mid-frame")
                with self._pending_lock:
                    entry = self._pending.pop(request_id, None)
                if entry is None:
                    continue  # e.g. a duplicate/late frame; nobody waits on it
                future, op = entry
                if status == framing.STATUS_OK:
                    try:
                        result = self._decode_ok(op, payload)
                    except Exception as exc:
                        future.set_exception(exc)
                    else:
                        future.set_result(result)
                else:
                    future.set_exception(wire_error(*framing.decode_error(payload)))
        except Exception as exc:
            if not isinstance(exc, ConnectionError):
                exc = ConnectionError(f"wire reader failed: {exc}")
            self._fail_pending(exc)

    def _fail_pending(self, exc: Exception) -> None:
        with self._pending_lock:
            self._dead_exc = exc
            pending = list(self._pending.values())
            self._pending.clear()
        for future, _ in pending:
            if not future.done():
                future.set_exception(exc)

    @staticmethod
    def _decode_ok(op: int, payload: bytes):
        if op == framing.OP_PING:
            return True
        if op == framing.OP_QUERY:
            return framing.decode_result(payload)
        if op == framing.OP_QUERY_BATCH:
            return framing.decode_batch_response(payload)
        return framing.decode_json(payload)  # OP_INGEST / OP_JSON

    def _result(self, future: Future):
        try:
            return future.result(timeout=self.timeout)
        except FutureTimeoutError:
            # The request was sent; whether the server applied it is
            # unknown — the ambiguous-outcome error, like a mid-flight
            # connection loss.
            raise ConnectionError(
                f"no response within {self.timeout}s"
            ) from None

    # ------------------------------------------------------------------ #
    # Pipelined submissions

    def submit_ping(self) -> Future:
        return self._submit(framing.OP_PING, b"")

    def submit_query(
        self, sql: str, trace: tuple[bytes, bytes] | None = None
    ) -> Future:
        """Future of a decoded result payload (same shape as the JSON path)."""
        return self._submit(framing.OP_QUERY, framing.encode_query(sql), trace)

    def submit_query_batch(self, sqls: list[str]) -> Future:
        """Future of per-query outcome dicts (``ok``/``result``/``error``)."""
        return self._submit(framing.OP_QUERY_BATCH, framing.encode_query_batch(sqls))

    def submit_ingest(self, table: str, rows: Table, coalesce: bool = True) -> Future:
        """Binary ingest: rows travel as the codec table format, not JSON."""
        return self._submit(
            framing.OP_INGEST, framing.encode_ingest(table, rows, coalesce)
        )

    def submit_call(self, payload: dict) -> Future:
        """Cold-path JSON op over a binary frame (register, drop, stat, ...)."""
        return self._submit(framing.OP_JSON, framing.encode_json(payload))

    # ------------------------------------------------------------------ #
    # Synchronous calls: the shared WireOps, with binary fast paths

    def call(self, payload: dict):
        return self._result(self.submit_call(payload))

    def ping(self) -> bool:
        return self._result(self.submit_ping()) is True

    def query(self, sql: str, trace: tuple[bytes, bytes] | None = None) -> dict:
        """``trace=(trace_id16, span_id8)`` rides the binary trace trailer."""
        from ..audit.explain import split_explain

        # The binary result block cannot carry a structured plan, so the
        # SQL-prefix form rides the OP_JSON cold path instead.
        if split_explain(sql) is not None:
            return super().query(sql)
        return self._result(self.submit_query(sql, trace))

    def query_batch(self, sqls: list[str]) -> list[dict]:
        return self._result(self.submit_query_batch(sqls))

    def ingest(self, table: str, rows: Table | dict, coalesce: bool = True) -> dict:
        if isinstance(rows, Table):
            return self._result(self.submit_ingest(table, rows, coalesce))
        return super().ingest(table, rows, coalesce)
