"""Spans for the traced run, and the per-layer metrics computed from them.

Only the traced mode (``--trace 1``) builds a :class:`Tracer`; untimed
and untraced runs never patch anything. The tracer wraps public
functions of each layer on their classes, records one span per call made
while a request is open (name, start, end, parent span, request id, a
tag), keeps the spans in memory and writes them out as JSON at the end.
A layer's self time is its span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

from repro.engine.database import Database
from repro.engine.executor import Result
from repro.enforce.checker import ComplianceChecker
from repro.enforce.proxy import EnforcementProxy
from repro.enforce.trace import Trace
from repro.net.client import NetClientConnection
from repro.serve.cache import SharedDecisionCache
from repro.serve.gateway import GatewayConnection
from repro.sqlir import ast

#: Every per-layer metric, with its unit and better direction, in the
#: order BENCHMARK.json lists them.
PER_LAYER = (
    ("sqlir.parse_us", "us", "lower"),
    ("serve.decide_us", "us", "lower"),
    ("engine.execute_us", "us", "lower"),
    ("trace.certify_us", "us", "lower"),
    ("cache.lookup_us", "us", "lower"),
    ("handlers.stmts_per_req", "count", "lower"),
    ("handlers.residual_us", "us", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("serve.write_us", "us", "lower"),
    ("serve.templates_invalidated", "count", "lower"),
    ("checker.checks", "count", "lower"),
    ("checker.compiled_hits", "count", "higher"),
    ("checker.allow_ms", "ms", "lower"),
    ("checker.allow_busy_s", "s", "lower"),
    ("checker.block_ms", "ms", "lower"),
    ("checker.block_busy_s", "s", "lower"),
    ("relalg.memo_hit_ratio", "ratio", "higher"),
    ("relalg.memo_evictions", "count", "lower"),
    ("trace.facts_max", "count", "lower"),
    ("trace.sessions_at_cap", "count", "lower"),
    ("trace.entries", "count", "lower"),
    ("engine.busy_s", "s", "lower"),
    ("trace.busy_s", "s", "lower"),
    ("net.hello_ms", "ms", "lower"),
    ("net.rtt_us", "us", "lower"),
    ("net.server_us", "us", "lower"),
    ("net.gateway_us", "us", "lower"),
    ("net.residual_us", "us", "lower"),
)

NAME, START, END, PARENT, REQUEST, TAG = range(6)


class Tracer:
    """Records spans around calls into the program's layers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request: int | None = None
        self._patches: list[tuple[type, str, object]] = []

    # -- spans --------------------------------------------------------------------

    def begin(self, name: str, request: int, tag: str = "") -> int:
        self._request = request
        return self._open(name, tag)

    def end(self, index: int, tag: str | None = None) -> None:
        self._close(index, tag)
        self._request = None

    def _open(self, name: str, tag: str = "") -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), 0.0, parent, self._request, tag])
        self._stack.append(index)
        return index

    def _close(self, index: int, tag: str | None = None) -> None:
        span = self.spans[index]
        span[END] = perf_counter()
        if tag is not None:
            span[TAG] = tag
        self._stack.pop()

    # -- wrappers -----------------------------------------------------------------

    def wrap(self, owner: type, attr: str, name: str, tag=None, when=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``when(args)`` filters which calls get a span; ``tag(self_obj,
        result, before)`` labels the span from the call's outcome, where
        ``before`` is whatever ``tag.before(self_obj)`` returned.
        """
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._request is None or (when is not None and not when(args)):
                return original(*args, **kwargs)
            before = tag.before(args[0]) if hasattr(tag, "before") else None
            index = tracer._open(name)
            label = "raised"
            try:
                result = original(*args, **kwargs)
                label = tag(args[0], result, before) if tag is not None else ""
                return result
            finally:
                tracer._close(index, label)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install_gateway(self) -> None:
        """Wrap the in-process request path: statement, parse, decide,
        cache probe, checker, engine and trace certification."""
        self.wrap(
            EnforcementProxy, "sql", "stmt",
            tag=lambda _self, result, _b: "select" if isinstance(result, Result) else "write",
        )
        self.wrap(Database, "parse", "sqlir.parse", when=lambda args: isinstance(args[1], str))
        self.wrap(GatewayConnection, "decide", "serve.decide")
        self.wrap(SharedDecisionCache, "lookup", "cache.lookup")
        self.wrap(ComplianceChecker, "check", "checker.check", tag=_CheckTag())
        self.wrap(
            Database, "sql", "engine.sql",
            tag=lambda _self, result, _b: "select" if isinstance(result, Result) else "write",
            when=lambda args: isinstance(args[1], ast.Statement),
        )
        self.wrap(ComplianceChecker, "translate", "trace.translate")
        self.wrap(Trace, "record", "trace.record")

    def install_wire(self) -> None:
        """Wrap the wire client: connection set-up (HELLO) and statements."""
        self.wrap(NetClientConnection, "__init__", "net.hello")
        self.wrap(NetClientConnection, "query", "net.rtt")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "request", "tag"],
                 "spans": self.spans},
                handle,
            )


class _CheckTag:
    """Labels a checker span ``compiled`` (template replay), ``allow`` or
    ``block`` (full containment search)."""

    @staticmethod
    def before(checker: ComplianceChecker) -> int:
        skeletons = checker.skeletons
        return skeletons.compiled_hits if skeletons is not None else 0

    def __call__(self, checker, decision, before) -> str:
        if checker.skeletons is not None and checker.skeletons.compiled_hits != before:
            return "compiled"
        return "allow" if decision.allowed else "block"


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def counter_delta(before: dict, after: dict, name: str) -> float:
    return after.get(name, 0) - before.get(name, 0)


def span_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures the spans alone determine (missing layers read 0)."""
    children: dict[int, float] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + span[END] - span[START]

    def duration(index: int) -> float:
        return spans[index][END] - spans[index][START]

    def self_time(index: int) -> float:
        return duration(index) - children.get(index, 0.0)

    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)

    def durations(name: str, tag: str | None = None) -> list[float]:
        return [
            duration(i) for i in by_name.get(name, ()) if tag is None or spans[i][TAG] == tag
        ]

    handler_requests = [i for i in by_name.get("request", ()) if spans[i][TAG] == "handler"]
    handler_set = set(handler_requests)
    statement_name = "net.rtt" if "net.rtt" in by_name else "stmt"
    statements = [i for i in by_name.get(statement_name, ()) if spans[i][PARENT] in handler_set]
    certify = [
        duration(i)
        for i in by_name.get("trace.translate", ())
        if spans[spans[i][PARENT]][NAME] == "stmt"
    ] + durations("trace.record")
    selects = durations("engine.sql", "select")
    allows = durations("checker.check", "allow")
    blocks = durations("checker.check", "block")
    return {
        "sqlir.parse_us": _mean(durations("sqlir.parse")) * 1e6,
        "serve.decide_us": _mean([self_time(i) for i in by_name.get("serve.decide", ())]) * 1e6,
        "engine.execute_us": _mean(selects) * 1e6,
        "trace.certify_us": sum(certify) / len(durations("trace.record")) * 1e6
        if certify else 0.0,
        "cache.lookup_us": _mean(durations("cache.lookup")) * 1e6,
        "handlers.stmts_per_req": len(statements) / len(handler_requests)
        if handler_requests else 0.0,
        "handlers.residual_us": _mean([self_time(i) for i in handler_requests]) * 1e6,
        "serve.write_us": _mean(durations("stmt", "write")) * 1e6,
        "checker.allow_ms": _mean(allows) * 1e3,
        "checker.allow_busy_s": sum(allows),
        "checker.block_ms": _mean(blocks) * 1e3,
        "checker.block_busy_s": sum(blocks),
        "engine.busy_s": sum(durations("engine.sql")),
        "trace.busy_s": sum(certify),
        "net.hello_ms": _mean(durations("net.hello")) * 1e3,
        "net.rtt_us": _mean(durations("net.rtt")) * 1e6,
    }


def gateway_counter_metrics(before: dict, after: dict) -> dict[str, float]:
    """Per-layer figures from ``EnforcementGateway.snapshot()`` counters
    (or a STATS gateway section), as deltas over the timed phase."""
    hits = counter_delta(before, after, "cache_hits")
    misses = counter_delta(before, after, "cache_misses")
    memo_hits = counter_delta(before, after, "memo_containment_hits")
    memo_misses = counter_delta(before, after, "memo_containment_misses")
    evictions = sum(
        counter_delta(before, after, f"memo_{memo}_evictions")
        for memo in ("containment", "descriptors", "analysis")
    )
    return {
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.templates_invalidated": counter_delta(before, after, "templates_invalidated"),
        "checker.compiled_hits": counter_delta(before, after, "compiled_hits"),
        # Every miss check of the default in-process checker passes the
        # batcher, so its counter is the number of checks, also over the wire.
        "checker.checks": counter_delta(before, after, "batch_checks"),
        "relalg.memo_hit_ratio": memo_hits / (memo_hits + memo_misses)
        if memo_hits + memo_misses else 0.0,
        "relalg.memo_evictions": evictions,
    }


def trace_state_metrics(traces: list[Trace]) -> dict[str, float]:
    """Per-layer figures from the sessions' traces at the end of the run."""
    return {
        "trace.facts_max": float(max((len(t.facts) for t in traces), default=0)),
        "trace.sessions_at_cap": float(sum(len(t.facts) >= t.max_facts for t in traces)),
        "trace.entries": float(sum(len(t.entries) for t in traces)),
    }


def stage_totals(stats: dict, section: str, stage: str) -> tuple[float, float]:
    """(count, total seconds) of one STATS stage histogram."""
    doc = stats.get(section, {}).get("stages", {}).get(stage)
    if not doc:
        return 0.0, 0.0
    return float(doc["count"]), float(doc["total_s"])


def wire_server_metrics(before: dict, after: dict, rtt_us: float) -> dict[str, float]:
    """Server-side split of a wire statement from STATS stage totals.

    Trace certification has no STATS stage, so it lands in
    ``net.residual_us`` together with framing, the event loop and the
    kernel's loopback path.
    """
    def delta(section: str, stage: str) -> tuple[float, float]:
        count_b, total_b = stage_totals(before, section, stage)
        count_a, total_a = stage_totals(after, section, stage)
        return count_a - count_b, total_a - total_b

    requests, request_s = delta("net", "net_request")
    stage_means = {}
    gateway_s = 0.0
    for stage in ("parse", "check", "execute"):
        count, total = delta("gateway", stage)
        stage_means[stage] = total / count * 1e6 if count else 0.0
        gateway_s += total
    gateway_us = gateway_s / requests * 1e6 if requests else 0.0
    return {
        "sqlir.parse_us": stage_means["parse"],
        "serve.decide_us": stage_means["check"],
        "engine.execute_us": stage_means["execute"],
        "net.server_us": request_s / requests * 1e6 if requests else 0.0,
        "net.gateway_us": gateway_us,
        "net.residual_us": rtt_us - gateway_us,
    }


def complete(metrics: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric by name with its unit; layers a workload
    does not exercise read 0."""
    return {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit, _better in PER_LAYER
    }
