"""Self-tests of the benchmark: tiny runs with every check on, planted
errors that each check must catch, and the wire server's clean-up.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.extract.handlers import run_handler  # noqa: E402


def bench(*argv: str, seconds: int = 1, cwd: Path = ROOT) -> tuple[dict | None, str, int]:
    """Run the benchmark; returns (last-line JSON or None, stdout, exit code).
    At the tiny sizes one second is one round."""
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.run", "--seconds", str(seconds), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    result = None
    if done.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return result, done.stdout + done.stderr, done.returncode


@pytest.mark.parametrize(
    ("workload", "rounds", "ops", "failed"),
    [
        ("calendar-rsvp", 3, 150, 0),
        ("social-long", 2, 120, 2),  # one scripted fact-cap block per round
        ("calendar-wire", 3, 60, 0),
    ],
)
def test_tiny_run_is_correct(workload, rounds, ops, failed):
    result, output, code = bench("--workload", workload, "--seed", "3", "--tiny",
                                 seconds=rounds)
    assert code == 0, output
    assert result["correct"], output
    assert (result["attempted"], result["failed"]) == (ops, failed)
    assert set(result["metrics"]) == {
        "req_per_s", "req_p50_ms", "req_p99_ms", "peak_rss_mb", "setup_s"
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    counts = (
        "handlers.stmts_per_req", "cache.hits", "cache.misses", "checker.checks",
        "serve.templates_invalidated", "trace.entries",
    )
    runs = []
    for _ in range(2):
        result, output, code = bench(
            "--workload", "calendar-rsvp", "--seed", "5", "--tiny", "--trace", "1",
            seconds=4,
        )
        assert code == 0 and result["correct"], output
        runs.append({name: result["metrics"][name]["value"] for name in counts})
    assert runs[0] == runs[1]
    assert runs[0]["checker.checks"] > 0 and runs[0]["serve.templates_invalidated"] > 0


# Planted errors: a real tiny run's records, one of them doctored, must
# fail the same checks a run's records go through.


class _Issued(Exception):
    """Carries the first statement a handler issues, as the oracle prints it."""


class _FirstStatement:
    def __init__(self, db):
        self.db = db

    def query(self, sql, args=()):
        from repro.sqlir.params import bind_parameters
        from repro.sqlir.printer import to_sql

        raise _Issued(to_sql(bind_parameters(self.db.parse(sql), list(args))))


@pytest.fixture(scope="module")
def tiny_runs():
    from perfbench.load import run_gateway
    from perfbench.workloads import spec_for

    runs = {}
    for workload in ("calendar-rsvp", "social-long"):
        spec = spec_for(workload, tiny=True)
        runs[workload] = spec, run_gateway(spec, 3, False, 2, None)
    return runs


def problems_with(tiny_runs, workload, doctor) -> list[str]:
    """The problems ``run.check`` finds after ``doctor`` changes one record."""
    from perfbench.run import check

    spec, result = tiny_runs[workload]
    records = list(result["records"])
    index = next(i for i, record in enumerate(records) if doctor(record) is not None)
    records[index] = doctor(records[index])
    return check(spec, 3, dict(result, records=records))[0]


def test_untouched_records_pass(tiny_runs):
    from perfbench.run import check

    for spec, result in tiny_runs.values():
        assert check(spec, 3, result)[0] == []


def test_changed_result_row_is_caught(tiny_runs):
    def doctor(record):
        if record.op.kind == "handler" and record.status == "ok":
            return replace(record, digest="0" * 24)

    problems = problems_with(tiny_runs, "calendar-rsvp", doctor)
    assert any("outcome differs from the twin's" in p for p in problems), problems


def test_allowed_probe_is_caught(tiny_runs):
    def doctor(record):
        if record.op.kind == "probe":
            return replace(record, status="ok", digest="0" * 24)

    problems = problems_with(tiny_runs, "social-long", doctor)
    assert any("attack probe was allowed" in p for p in problems), problems


def test_block_below_the_cap_is_caught(tiny_runs):
    from perfbench.workloads import build_database

    spec, _ = tiny_runs["calendar-rsvp"]
    app, db = build_database(spec, 3, "memory")

    def doctor(record):
        if record.op.kind != "handler":
            return None
        with pytest.raises(_Issued) as issued:
            run_handler(app.handlers[record.op.name], _FirstStatement(db),
                        record.op.params, {"user_id": record.op.user})
        return replace(record, status="blocked", digest="",
                       blocked_sql=str(issued.value), facts_at_block=0)

    try:
        problems = problems_with(tiny_runs, "calendar-rsvp", doctor)
    finally:
        db.close()
    assert any("below the cap" in p for p in problems), problems
    assert any("unexpected failure" in p for p in problems), problems


def test_unexpected_failure_kind_fails_the_run(tiny_runs):
    from perfbench.load import Record
    from perfbench.oracle import expected_failure
    from perfbench.workloads import Op

    op = Op("handler", 1, "friend_feed")
    assert expected_failure(Record(op, "blocked", 0.1, facts_at_block=256))
    assert not expected_failure(Record(op, "blocked", 0.1, facts_at_block=12))
    assert not expected_failure(Record(op, "error: EngineError: boom", 0.1))

    def doctor(record):
        if record.op.kind == "handler":
            return replace(record, status="error: EngineError: planted", digest="")

    problems = problems_with(tiny_runs, "calendar-rsvp", doctor)
    assert any("unexpected failure" in p for p in problems), problems


def test_wire_server_is_stopped_when_a_run_fails(tmp_path, monkeypatch):
    from perfbench import wire
    from perfbench.workloads import spec_for

    started = []

    class Recorded(wire.ServerProcess):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    def broken_drive(*_args, **_kwargs):
        raise RuntimeError("planted failure in the load generator")

    monkeypatch.setattr(wire, "ServerProcess", Recorded)
    monkeypatch.setattr(wire, "_drive", broken_drive)
    affinity = os.sched_getaffinity(0)
    try:
        with pytest.raises(RuntimeError, match="planted failure"):
            wire.run_wire(spec_for("calendar-wire", tiny=True), 3, False, 1, None, tmp_path)
    finally:
        os.sched_setaffinity(0, affinity)  # run_wire pins the calling process
    assert started
    assert all(server.returncode is not None and not server.alive() for server in started)


def test_wire_server_drains_when_started_with_sigint_ignored(tmp_path):
    """A shell's background job runs with SIGINT ignored; the server must
    still take the graceful stop instead of waiting for SIGKILL."""
    import signal

    from perfbench import wire
    from perfbench.workloads import spec_for

    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        server = wire.ServerProcess(
            spec_for("calendar-wire", tiny=True), 3, wire.bench_cpu(), tmp_path / "serve.log"
        )
    finally:
        signal.signal(signal.SIGINT, previous)
    server.stop(timeout_s=5.0)
    assert server.returncode == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    result, output, code = bench(
        "--workload", "calendar-rsvp", "--seed", "1", "--trace", "0", cwd=tmp_path
    )
    assert code != 0 and result is None, output
