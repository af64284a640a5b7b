"""calendar-wire: the calendar stream sent to a ``repro serve`` child.

The server is this benchmark's own child process, started with the
``serve`` defaults on the sqlite backend. It and the load generator are
pinned to one CPU: unpinned, runs fell now and then into a mode of
cross-CPU wake-ups that tripled the per-statement round trip. The server
is stopped on every exit path, and its peak RSS is read when it is reaped.
"""

from __future__ import annotations

import ctypes
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from repro.net.client import AdminClient, NetClientConnection

from perfbench import tracing
from perfbench.load import Record, execute, finish
from perfbench.workloads import build_database, data_seed, rounds_for

ROOT = Path(__file__).resolve().parent.parent
_PR_SET_PDEATHSIG = 1
#: How long a server may take from start until it is listening.
LISTEN_TIMEOUT_S = 60.0


def bench_cpu() -> int:
    return max(os.sched_getaffinity(0))


def _child_setup(cpu: int) -> None:  # pragma: no cover - runs in the child
    os.sched_setaffinity(0, {cpu})
    # A shell's background job inherits SIGINT ignored, and the server then
    # never sees the graceful stop; restore the default so it drains.
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    # Die with the benchmark even if it is killed without a chance to clean up.
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


class ServerProcess:
    """One ``repro serve`` child, started pinned and reaped by :meth:`stop`."""

    def __init__(self, spec, seed: int, cpu: int, log_path: Path):
        self.rss_mb = 0.0
        self.returncode: int | None = None
        command = [
            sys.executable, "-m", "repro", "serve", "--app", spec.app,
            "--size", str(spec.size), "--seed", str(data_seed(spec, seed)),
            "--backend", "sqlite", "--port", "0",
        ]
        # Unbuffered: ``repro serve`` prints its "listening on" line without
        # a flush, and a pipe would hold it back.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
        self._log = open(log_path, "ab")
        started = perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
            preexec_fn=lambda: _child_setup(cpu),
        )
        try:
            self.port = self._await_listening()
        except BaseException:
            self.stop()
            raise
        self.setup_s = perf_counter() - started

    def _await_listening(self) -> int:
        """The port from the server's "listening on" line; raises if the
        server exits first or does not listen within LISTEN_TIMEOUT_S."""
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + LISTEN_TIMEOUT_S
        pending = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"repro serve did not listen within {LISTEN_TIMEOUT_S:.0f}s"
                )
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("repro serve exited before listening (see perfbench/out/)")
            pending += chunk
            *lines, pending = pending.split(b"\n")
            for raw in lines:
                line = raw.decode("utf-8", "replace").strip()
                if " listening on " in line:
                    return int(line.rsplit(":", 1)[1])

    def stop(self, timeout_s: float = 10.0) -> None:
        """SIGINT (graceful drain), SIGKILL after ``timeout_s``; reap and
        record peak RSS. Idempotent."""
        if self.returncode is not None:
            return
        proc = self.proc
        try:
            proc.send_signal(signal.SIGINT)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + timeout_s
        reaped = None
        while reaped is None:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                reaped = status, usage
            elif time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = status, usage
            else:
                time.sleep(0.02)
        status, usage = reaped
        self.returncode = proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        proc.stdout.close()
        self._log.close()

    def alive(self) -> bool:
        try:
            os.kill(self.proc.pid, 0)
        except ProcessLookupError:
            return False
        return True


def stats(port: int) -> dict:
    with AdminClient("127.0.0.1", port) as admin:
        return admin.stats()


def run_wire(spec, seed: int, trace: bool, rounds: int, spans_path: str | None,
             out_dir: Path) -> dict:
    """Start the server(s), drive ``rounds`` rounds and stop every server
    started, on every exit path."""
    cpu = bench_cpu()
    os.sched_setaffinity(0, {cpu})
    log_path = out_dir / f"serve-{os.getpid()}.log"
    servers: list[ServerProcess] = []

    def start() -> ServerProcess:
        servers.append(ServerProcess(spec, seed, cpu, log_path))
        return servers[-1]

    try:
        # Half the timed starts come before the timed phase and half after
        # it; the last one before it serves the run.
        for _ in range((spec.setups + 1) // 2 - 1):
            start().stop()
        server = start()
        result = _drive(spec, seed, trace, rounds, spans_path, server)
        server.stop()
        for _ in range(spec.setups // 2):
            start().stop()
    finally:
        for server_process in servers:
            server_process.stop()
    result["setup_s"] = statistics.median(s.setup_s for s in servers)
    result["peak_rss_mb"] = server.rss_mb
    result["server_left_running"] = any(s.alive() for s in servers)
    return result


def _drive(spec, seed, trace, rounds, spans_path, server) -> dict:
    app, db = build_database(spec, seed, "memory")  # the stream's initial state
    stream = rounds_for(spec, db, seed)
    db.close()
    tracer = tracing.Tracer() if trace else None
    before = stats(server.port) if tracer else None
    if tracer is not None:
        tracer.install_wire()
    records: list[Record] = []
    connection = None
    try:
        for _ in range(rounds):
            for op in next(stream):
                span = tracer.begin("request", len(tracer.spans), op.kind) if tracer else None
                op_started = perf_counter()
                status, outcome = "error: no connection", None
                if op.connect:
                    try:
                        connection = NetClientConnection(
                            "127.0.0.1", server.port, user=op.user
                        )
                    except Exception as exc:  # reported as this op's failure
                        connection = None
                        status, outcome = f"error: connect: {exc!r}", exc
                if connection is not None:
                    status, outcome = execute(op, connection, app.handlers)
                if op.disconnect and connection is not None:
                    connection.close()
                    connection = None
                latency = perf_counter() - op_started
                if tracer is not None:
                    tracer.end(span)
                records.append(finish(op, status, outcome, latency, -1))
    finally:
        if connection is not None:
            connection.close()
        if tracer is not None:
            tracer.uninstall()
    result = {"records": records, "rounds": rounds, "ops_per_round": spec.ops_per_round}
    if tracer is not None:
        after = stats(server.port)
        layer = tracing.span_metrics(tracer.spans)
        layer.update(
            tracing.gateway_counter_metrics(
                before["gateway"]["counters"], after["gateway"]["counters"]
            )
        )
        layer.update(tracing.wire_server_metrics(before, after, layer["net.rtt_us"]))
        if spans_path:
            tracer.write(spans_path)
        result["per_layer"] = layer
    return result
