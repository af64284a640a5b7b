"""Checks a run's outputs against computations made apart from the program.

The twin is the workload's database built again on the memory backend.
Every completed operation is replayed on it in the order the run made
them, without enforcement, and must give the same outcome (results,
aborts, and the statements a handler issued). While replaying, each
session's trace is rebuilt from the twin's results, which gives every
statement's decision-time facts; every ``recheck_stride``-th executed
SELECT is then re-checked by a fresh checker with no decision cache, no
compiled templates and no containment memo, and must be allowed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.enforce.checker import ComplianceChecker
from repro.enforce.trace import Trace
from repro.extract.handlers import run_handler
from repro.relalg import memo
from repro.sqlir.params import bind_parameters
from repro.sqlir.printer import to_sql

from perfbench.load import digest
from perfbench.workloads import build_database


class _Blocked(Exception):
    """Raised by the twin connection at the statement the run blocked."""


@dataclass
class _Facts:
    """A frozen trace: the facts a session held when a decision was made."""

    facts: tuple

    def relevant_facts(self, relations: set[str]) -> list:
        return [fact for fact in self.facts if fact.rel in relations]


class _TwinConnection:
    """Executes statements on the twin and rebuilds the session's trace."""

    def __init__(self, verifier: "Verifier", trace: Trace, bindings: dict,
                 stop_sql: str = ""):
        self.verifier = verifier
        self.trace = trace
        self.bindings = bindings
        self.stop_sql = stop_sql

    def query(self, sql, args=()):
        verifier = self.verifier
        bound = bind_parameters(verifier.twin.parse(sql), list(args))
        text = to_sql(bound)
        if self.stop_sql and text == self.stop_sql:
            raise _Blocked(text)
        verifier.selects += 1
        if verifier.selects % verifier.stride == 0:
            decision = verifier.checker.check(
                bound, self.bindings, _Facts(self.trace.facts), allow_compiled=False
            )
            verifier.rechecked += 1
            if not decision.allowed:
                verifier.problem(f"re-check blocks an allowed statement: {text}")
        result = verifier.twin.sql(bound)
        query = verifier.checker.translate(bound)
        single = query.disjuncts[0] if query is not None and len(query.disjuncts) == 1 else None
        self.trace.record(text, single, result)
        return result


@dataclass
class Verifier:
    """Replays a run's records on the twin; collects every problem found."""

    spec: object
    seed: int
    problems: list[str] = field(default_factory=list)
    selects: int = 0
    rechecked: int = 0
    stride: int = 1

    def __post_init__(self) -> None:
        self.app, self.twin = build_database(self.spec, self.seed, "memory")
        self.checker = ComplianceChecker(self.twin.schema, self.app.ground_truth_policy())
        self.stride = self.spec.recheck_stride
        self.traces: dict[object, Trace] = {}

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def verify(self, records) -> None:
        """Check a run's records, in the order they were made."""
        previous = memo.set_memoization(False)
        try:
            for index, record in enumerate(records):
                self._verify_one(index, record)
        finally:
            memo.set_memoization(previous)
            self.twin.close()

    def _verify_one(self, index: int, record) -> None:
        op = record.op
        where = f"op {index} ({op.kind} {op.name or op.sql} user {op.user})"
        if record.status.startswith("error"):
            self.problem(f"{where}: {record.status}")
            return
        if op.kind == "probe":
            if record.status != "blocked":
                self.problem(f"{where}: attack probe was allowed")
            return
        key = op.fresh or op.user
        trace = self.traces.setdefault(key, Trace())
        bindings = self.app.session_bindings({"user_id": op.user})
        if op.kind == "rsvp":
            outcome = self.twin.sql(op.sql, list(op.args))
        else:
            stop = record.blocked_sql if record.status == "blocked" else ""
            connection = _TwinConnection(self, trace, bindings, stop)
            try:
                outcome = run_handler(
                    self.app.handlers[op.name], connection, op.params, {"user_id": op.user}
                )
            except _Blocked:
                if len(trace.facts) < trace.max_facts:
                    self.problem(
                        f"{where}: compliant statement blocked with"
                        f" {len(trace.facts)} facts, below the cap: {record.blocked_sql}"
                    )
                return
            if stop:
                self.problem(f"{where}: blocked statement never issued on the twin")
                return
        if record.status == "blocked":
            self.problem(f"{where}: write blocked")
        elif digest(outcome) != record.digest:
            self.problem(f"{where}: outcome differs from the twin's")


def expected_failure(record) -> bool:
    """The named fault: a compliant statement blocked in a session whose
    trace holds ``max_facts`` facts."""
    return (
        record.status == "blocked"
        and record.op.kind == "handler"
        and record.facts_at_block >= Trace().max_facts
    )
