"""The closed-loop load generator: one client, one operation at a time.

``run_gateway`` is the in-process side of a run. It reads the process's
peak RSS at the end of the timed phase, before the oracle builds its twin
database, so the figure is the gateway's and the load generator's.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter

from repro.enforce.decision import PolicyViolation
from repro.engine.executor import Result
from repro.extract.handlers import HandlerOutcome, run_handler
from repro.serve import EnforcementGateway, GatewayConfig

from perfbench import tracing
from perfbench.workloads import Op, build_database, rounds_for, warmup_ops


@dataclass
class Record:
    """What one attempted operation did, as the load generator saw it."""

    op: Op
    status: str  # "ok", "blocked" or "error: ..."
    latency_s: float
    digest: str = ""
    blocked_sql: str = ""
    facts_at_block: int = -1


def digest(outcome) -> str:
    """An order-insensitive fingerprint of an operation's outcome.

    Row order and the order of a handler's per-row queries are left out:
    the statements carry no ORDER BY, so any order is a correct one.
    """
    if isinstance(outcome, HandlerOutcome):
        returned = outcome.returned
        body = (
            outcome.aborted,
            outcome.abort_message,
            sorted(repr((sql, tuple(values))) for sql, values in outcome.queries_issued),
            None if returned is None else _result_body(returned),
        )
    elif isinstance(outcome, Result):
        body = _result_body(outcome)
    else:
        body = outcome
    return hashlib.blake2b(repr(body).encode(), digest_size=12).hexdigest()


def _result_body(result: Result) -> tuple:
    return tuple(result.columns), sorted(map(repr, result.rows))


def execute(op: Op, connection, handlers) -> tuple[str, object]:
    """Run one op; returns (status, outcome-or-exception)."""
    try:
        if op.kind == "handler":
            outcome = run_handler(
                handlers[op.name], connection, op.params, {"user_id": op.user}
            )
        else:
            outcome = connection.sql(op.sql, list(op.args))
    except PolicyViolation as violation:
        return "blocked", violation
    except Exception as exc:  # every other failure is reported, not raised
        return f"error: {type(exc).__name__}: {exc}", exc
    return "ok", outcome


def finish(op: Op, status: str, outcome, latency_s: float, facts: int) -> Record:
    if status == "ok":
        return Record(op, status, latency_s, digest(outcome))
    if status == "blocked":
        return Record(op, status, latency_s, blocked_sql=outcome.decision.sql,
                      facts_at_block=facts)
    return Record(op, status, latency_s)


def set_up(spec, seed: int):
    """Build the database and the gateway; returns (seconds, app, db, gateway)."""
    gc.collect()
    started = perf_counter()
    app, db = build_database(spec, seed, "sqlite")
    gateway = EnforcementGateway(db, app.ground_truth_policy(), GatewayConfig())
    return perf_counter() - started, app, db, gateway


def timed_setups(spec, seed: int, count: int) -> list[float]:
    """``count`` more set-ups, torn down at once, timed for ``setup_s``."""
    times = []
    for _ in range(count):
        seconds, _app, db, gateway = set_up(spec, seed)
        gateway.close()
        db.close()
        times.append(seconds)
    return times


def run_gateway(spec, seed: int, trace: bool, rounds: int, spans_path: str | None) -> dict:
    """Set up, replay the warm-up ops untimed and ``rounds`` rounds timed,
    and report records (the warm-up's apart), set-up times, peak RSS and
    (traced) per-layer metrics."""
    # Set-ups are timed half before and half after the timed phase, so
    # that setup_s is not decided by the host's speed at one moment.
    before_count = (spec.setups + 1) // 2
    setup_times = timed_setups(spec, seed, before_count - 1)
    seconds, app, db, gateway = set_up(spec, seed)
    setup_times.append(seconds)
    stream = rounds_for(spec, db, seed)
    tracer = None
    scripted: list = []

    def replay(ops, records: list[Record]) -> None:
        fresh: dict[str, object] = {}
        for op in ops:
            bindings = app.session_bindings({"user_id": op.user})
            if op.fresh is None:
                connection = gateway.connect(bindings)
            else:
                connection = fresh.get(op.fresh)
                if connection is None:
                    connection = fresh[op.fresh] = gateway.connect(bindings, fresh=True)
                    if tracer is not None:
                        scripted.append(connection)
            span = tracer.begin("request", len(tracer.spans), op.kind) if tracer else None
            op_started = perf_counter()
            status, outcome = execute(op, connection, app.handlers)
            latency = perf_counter() - op_started
            if tracer is not None:
                tracer.end(span)
            records.append(finish(op, status, outcome, latency, len(connection.trace.facts)))

    warmup: list[Record] = []
    replay(warmup_ops(spec, db), warmup)
    if trace:
        tracer = tracing.Tracer()
        tracer.install_gateway()
    before = gateway.snapshot().counters
    records: list[Record] = []
    for _ in range(rounds):
        replay(next(stream), records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"records": records, "warmup": warmup, "rounds": rounds,
              "peak_rss_mb": peak_rss_mb, "ops_per_round": spec.ops_per_round}
    if tracer is not None:
        tracer.uninstall()
        layer = tracing.span_metrics(tracer.spans)
        layer.update(tracing.gateway_counter_metrics(before, gateway.snapshot().counters))
        traces = [c.trace for c in gateway.connections()] + [c.trace for c in scripted]
        layer.update(tracing.trace_state_metrics(traces))
        if spans_path:
            tracer.write(spans_path)
        result["per_layer"] = layer
    gateway.close()
    db.close()
    del gateway, db, scripted, stream
    setup_times += timed_setups(spec, seed, spec.setups - before_count)
    result["setup_s"] = statistics.median(setup_times)
    return result

