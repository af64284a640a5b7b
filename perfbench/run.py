"""The repository's benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 -m perfbench.run --workload calendar-rsvp --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (and writes the spans to ``perfbench/out/``). The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

if not (ROOT / "src" / "repro").is_dir():
    sys.stderr.write("perfbench: no src/repro next to perfbench/; run it in a full checkout\n")
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

from perfbench import load, tracing, wire  # noqa: E402
from perfbench.oracle import Verifier, expected_failure  # noqa: E402
from perfbench.workloads import FULL, spec_for  # noqa: E402


def percentile_ms(records, share: float) -> float:
    """Nearest-rank percentile of op latency; failed ops sort above every
    completed one."""
    ordered = sorted(records, key=lambda r: (failed(r), r.latency_s))
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1].latency_s * 1e3


def throughput(records) -> float:
    """Completed ops per second of the time the client spent in them."""
    return sum(not failed(r) for r in records) / sum(r.latency_s for r in records)


def end_to_end(result: dict) -> dict[str, dict]:
    records = result["records"]
    return {
        "req_per_s": {"value": throughput(records), "unit": "1/s"},
        "req_p50_ms": {"value": percentile_ms(records, 0.50), "unit": "ms"},
        "req_p99_ms": {"value": percentile_ms(records, 0.99), "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": result["setup_s"], "unit": "s"},
    }


def failed(record) -> bool:
    """A failure: a compliant op that did not complete, or any error."""
    if record.op.kind == "probe":
        return record.status.startswith("error")
    return record.status != "ok"


def check(spec, seed: int, result: dict) -> tuple[list[str], Verifier]:
    """Every problem found in a run's result: the oracle's, plus failures
    of an unexpected kind, cut rounds and a server left running. The
    untimed warm-up ops are checked like the timed ones."""
    records = result["records"]
    checked = result.get("warmup", []) + records
    verifier = Verifier(spec, seed)
    verifier.verify(checked)
    problems = list(verifier.problems)
    for record in checked:
        if failed(record) and not expected_failure(record):
            problems.append(f"unexpected failure: {record.op.kind} {record.op.name}"
                            f" ({record.status})")
            break
    if len(records) != result["rounds"] * result["ops_per_round"]:
        problems.append("a round was cut short")
    if result.get("server_left_running"):
        problems.append("the repro serve child is still running")
    return problems, verifier


def run(args) -> dict:
    spec = spec_for(args.workload, args.tiny)
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = (
        str(OUT / f"spans-{args.workload}-seed{args.seed}.json") if args.trace else None
    )
    rounds = spec.rounds(args.seconds)
    if spec.wire:
        result = wire.run_wire(spec, args.seed, bool(args.trace), rounds, spans_path, OUT)
    else:
        result = load.run_gateway(spec, args.seed, bool(args.trace), rounds, spans_path)
    records = result["records"]
    started = time.perf_counter()
    problems, verifier = check(spec, args.seed, result)
    verify_s = time.perf_counter() - started
    failures = sum(map(failed, records))
    if args.trace:
        metrics = tracing.complete(result["per_layer"])
    else:
        metrics = end_to_end(result)
    kinds: dict[str, int] = {}
    for record in records:
        kinds[record.op.kind] = kinds.get(record.op.kind, 0) + 1
    print(f"workload {args.workload}: {result['rounds']} rounds, {len(records)} ops {kinds},"
          f" {failures} failed; oracle replay and {verifier.rechecked} re-checks"
          f" took {verify_s:.1f}s; {throughput(records):.1f} req/s"
          f"{' traced' if args.trace else ''}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    if args.trace and spans_path:
        print(f"  spans written to {Path(spans_path).relative_to(ROOT)}")
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": failures,
        "metrics": metrics,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knob: the small sizes, one round per second.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _terminate(signum, _frame):
    # Turn SIGTERM into SystemExit so every ``finally`` (the wire
    # server's stop) runs.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
