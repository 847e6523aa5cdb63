"""The wire op table: one definition of every op, shared by both dialects.

The contract under test (see ``repro.service.server.OPS`` and
``repro.service.wire.WireOps``):

* every op answers the same response over the JSON-lines dialect and over
  the binary protocol's ``OP_JSON`` frame;
* every op in the table is reachable through a client method, and every
  client method sends a request the table accepts;
* argument fields are typed by the table: bad input is a clean
  ``ValueError`` naming the op and the field, on both dialects;
* a shed request raises :class:`OverloadedError` in every client.
"""

from __future__ import annotations

import asyncio

import pytest

from conftest import make_simple_table

from repro import (
    AsyncQueryClient,
    AsyncQueryService,
    PairwiseHistParams,
    QueryServer,
)
from repro.service.server import OPS, _decode_json_request
from repro.service.wire import (
    ClusterClient,
    OverloadedError,
    PipelinedClient,
    WireError,
    WireOps,
    params_payload,
    schema_payload,
    table_payload,
)

PARAMS = PairwiseHistParams.with_defaults(sample_size=None, seed=1)
SQL = "SELECT AVG(x) FROM stream WHERE y > 50"
SIDE = make_simple_table(rows=300, seed=8, name="side")
EXTRA_ROW = {
    "x": [1.0],
    "y": [2.0],
    "z": [3.0],
    "w": [4.0],
    "with_nulls": [None],
    "category": ["alpha"],
}
REGISTER_SIDE = {
    "op": "register",
    "table": "side",
    "rows": table_payload(SIDE),
    "schema": schema_payload(SIDE.schema),
    "params": params_payload(PARAMS),
}
DROP_SIDE = {"op": "drop", "table": "side"}


async def serve(scenario, **server_kwargs):
    """Boot a one-table server; run the blocking ``scenario`` in a thread."""
    async with AsyncQueryService(partition_size=600, max_workers=2) as svc:
        await svc.register_table(
            make_simple_table(rows=1200, seed=50, name="stream"), params=PARAMS
        )
        async with QueryServer(svc, **server_kwargs) as server:
            return await asyncio.to_thread(scenario, server.address, server)


def send(dialect: str, clients: dict, request: dict) -> dict:
    """One raw request over JSON-lines or an ``OP_JSON`` frame, answered
    in the JSON-lines response shape."""
    if dialect == "json-lines":
        return clients["json-lines"].request(request)
    try:
        result = clients["op-json"].submit_call(request).result(timeout=30.0)
    except WireError as exc:
        return {"ok": False, "error": exc.message, "error_type": exc.error_type}
    return {"ok": True, "result": result}


def with_clients(address, body):
    with ClusterClient(*address) as json_lines, PipelinedClient(*address) as binary:
        return body({"json-lines": json_lines, "op-json": binary})


# --------------------------------------------------------------------------- #
# Dialect parity over the whole table

#: Per op: (setup requests, the request, cleanup requests).
PARITY_CASES = {
    "ping": ([], {"op": "ping"}, []),
    "tables": ([], {"op": "tables"}, []),
    "stat": ([], {"op": "stat", "table": "stream"}, []),
    "query": ([], {"op": "query", "sql": SQL}, []),
    "ingest": ([], {"op": "ingest", "table": "stream", "rows": EXTRA_ROW}, []),
    "register": ([], REGISTER_SIDE, [DROP_SIDE]),
    "drop": ([REGISTER_SIDE], DROP_SIDE, []),
    "status": ([], {"op": "status"}, []),
    "metrics": ([], {"op": "metrics"}, []),
    "trace": ([], {"op": "trace", "trace_id": "ab" * 16}, []),
    "explain": ([], {"op": "explain", "sql": SQL, "analyze": False}, []),
    "workload": ([], {"op": "workload"}, []),
    "audit": ([], {"op": "audit"}, []),
    "promote": ([], {"op": "promote", "epoch": 2}, []),
    "follow": ([], {"op": "follow", "host": "127.0.0.1", "port": 9}, []),
    "checkpoint": ([], {"op": "checkpoint"}, []),
    "persist": ([], {"op": "persist"}, []),
}

#: Fields that differ between two identical requests: timings and
#: parse-cache peeks (the first request warms the cache for the second).
VOLATILE = {"seconds", "parse_cache"}


def stable(value):
    if isinstance(value, dict):
        return {k: stable(v) for k, v in value.items() if k not in VOLATILE}
    if isinstance(value, list):
        return [stable(v) for v in value]
    return value


def test_parity_cases_cover_the_whole_table():
    assert set(PARITY_CASES) == set(OPS)


@pytest.mark.parametrize("op", sorted(PARITY_CASES))
def test_both_dialects_answer_every_op_identically(op):
    setup, request, cleanup = PARITY_CASES[op]

    def body(clients):
        responses = []
        for dialect in ("json-lines", "op-json"):
            for step in setup:
                assert send(dialect, clients, step)["ok"]
            responses.append(stable(send(dialect, clients, request)))
            for step in cleanup:
                assert send(dialect, clients, step)["ok"]
        return responses

    json_lines, op_json = asyncio.run(
        serve(lambda address, server: with_clients(address, body))
    )
    if op == "metrics":
        # Metric values move with every request; the catalog must not.
        json_lines = sorted(json_lines["result"]["metrics"])
        op_json = sorted(op_json["result"]["metrics"])
        assert json_lines
    assert json_lines == op_json


class Recorder(WireOps):
    """A client whose transport records each request instead of sending it."""

    def __init__(self) -> None:
        super().__init__("unused", 0)
        self.sent: list[dict] = []

    def call(self, payload: dict):
        self.sent.append(payload)
        return {"pong": True}


#: Per op: how a client method sends it.
CLIENT_CALLS = {
    "ping": lambda c: c.ping(),
    "tables": lambda c: c.tables(),
    "stat": lambda c: c.stat("stream"),
    "query": lambda c: c.query(SQL, trace=("ab" * 16, "cd" * 8)),
    "ingest": lambda c: c.ingest("stream", EXTRA_ROW, coalesce=False),
    "register": lambda c: c.register(SIDE, params=PARAMS, partition_size=100),
    "drop": lambda c: c.drop("side"),
    "status": lambda c: c.status(),
    "metrics": lambda c: c.metrics(),
    "trace": lambda c: c.trace("ab" * 16),
    "explain": lambda c: c.explain(SQL, analyze=True),
    "workload": lambda c: c.workload(),
    "audit": lambda c: c.audit(),
    "promote": lambda c: c.promote(3),
    "follow": lambda c: c.follow("127.0.0.1", 9),
    "checkpoint": lambda c: c.checkpoint(),
    "persist": lambda c: c.persist(),
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_every_op_is_reachable_through_a_client_method(op):
    """Each op has a same-named method on both clients, and the request it
    sends passes the table's typed-field check."""
    assert op in CLIENT_CALLS, f"no client method sends {op!r}"
    for cls in (ClusterClient, PipelinedClient):
        assert callable(getattr(cls, op, None)), f"{cls.__name__}.{op} is missing"
    recorder = Recorder()
    try:
        CLIENT_CALLS[op](recorder)
    except (KeyError, TypeError):
        pass  # the canned response lacks the op's result key
    (request,) = recorder.sent
    name, _ = _decode_json_request(request)
    assert name == op


# --------------------------------------------------------------------------- #
# Typed argument fields

#: (request, op, field) — each was mishandled before the table typed it.
BAD_FIELDS = [
    # bool("false") is True: this ran EXPLAIN ANALYZE (it executed the query).
    ({"op": "explain", "sql": SQL, "analyze": "false"}, "explain", "analyze"),
    # bool("no") is True: this ingested with coalescing on.
    (
        {"op": "ingest", "table": "stream", "rows": EXTRA_ROW, "coalesce": "no"},
        "ingest",
        "coalesce",
    ),
    # AttributeError: 'int' object has no attribute ...
    ({"op": "query", "sql": 123}, "query", "sql"),
    # TypeError: '<' not supported ...
    ({**REGISTER_SIDE, "partition_size": "abc"}, "register", "partition_size"),
    # JSON true passed as an integer (bool subclasses int).
    ({"op": "promote", "epoch": True}, "promote", "epoch"),
    ({"op": "follow", "host": "127.0.0.1", "port": True}, "follow", "port"),
]


@pytest.mark.parametrize("dialect", ["json-lines", "op-json"])
@pytest.mark.parametrize(
    "request_, op, field", BAD_FIELDS, ids=[f"{op}.{f}" for _, op, f in BAD_FIELDS]
)
def test_mistyped_fields_are_a_clean_value_error(dialect, request_, op, field):
    def body(clients):
        response = send(dialect, clients, request_)
        stat = send(dialect, clients, {"op": "stat", "table": "stream"})
        return response, stat, send(dialect, clients, {"op": "tables"})

    response, stat, tables = asyncio.run(
        serve(lambda address, server: with_clients(address, body))
    )
    assert response["ok"] is False
    assert response["error_type"] == "ValueError"
    assert op in response["error"] and repr(field) in response["error"]
    # Refused before the handler ran: nothing was ingested or registered.
    assert stat["result"]["rows"] == 1200
    assert tables["result"]["tables"] == ["stream"]


# --------------------------------------------------------------------------- #
# One error mapping for every client


def test_shed_request_raises_overloaded_in_every_client():
    async def async_query(address):
        async with AsyncQueryClient(*address) as client:
            await client.query("SELECT COUNT(*) FROM stream")

    def scenario(address, server):
        with ClusterClient(*address) as json_lines:
            with pytest.raises(OverloadedError):
                json_lines.query("SELECT COUNT(*) FROM stream")
            # Other error responses stay plain WireErrors (ingest has its
            # own admission limit, so this one is admitted).
            with pytest.raises(WireError) as excinfo:
                json_lines.ingest("nope", EXTRA_ROW)
            assert not isinstance(excinfo.value, OverloadedError)
        with PipelinedClient(*address) as binary:
            with pytest.raises(OverloadedError):
                binary.call({"op": "tables"})
        with pytest.raises(OverloadedError) as excinfo:
            asyncio.run(async_query(address))
        assert isinstance(excinfo.value, RuntimeError)

    asyncio.run(serve(scenario, max_inflight_queries=0))
