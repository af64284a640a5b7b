"""Workload definitions: sizes, round make-up and the seeded op streams.

A run replays a fixed number of whole *rounds*: ``--seconds`` divided by
the workload's nominal round time on the reference machine, so a seed
always gets the same work and the same counts, and a faster program
does not run more operations (and grow its traces further) than the
parent it is compared with. Every round of a workload has the same
make-up (the same number of handler runs, RSVP writes, attack probes
and scripted operations), so the share of operations expected to fail
is a constant of the workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.workloads import calendar_app, social


@dataclass(frozen=True)
class Op:
    """One operation of a round, as the load generator issues it.

    ``kind`` is ``"handler"`` (an application request), ``"rsvp"`` (a
    write statement) or ``"probe"`` (an attack query that must be
    blocked). ``fresh`` names a scripted session that is opened fresh
    (empty trace) instead of resuming the user's long-lived one.
    ``connect`` / ``disconnect`` mark the first and last op of a wire
    session.
    """

    kind: str
    user: int
    name: str = ""
    params: dict = field(default_factory=dict)
    sql: str = ""
    args: tuple = ()
    fresh: str | None = None
    connect: bool = False
    disconnect: bool = False


@dataclass(frozen=True)
class Spec:
    """Everything that sizes one workload (see README.md for the why)."""

    app: str
    size: int
    #: ``None``: the data seed is the run's ``--seed``; an int pins it.
    data_seed: int | None
    ops_per_round: int
    writes_per_round: int = 0
    probes_per_round: int = 0
    wire: bool = False
    session_len: int = 0
    #: Nominal seconds per round on the reference machine (2 cores).
    round_s: float = 1.0
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 5
    #: Every ``recheck_stride``-th executed SELECT is re-checked offline.
    recheck_stride: int = 1

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))


FULL = {
    "calendar-rsvp": Spec(
        "calendar", size=2000, data_seed=None,
        ops_per_round=100, writes_per_round=2, round_s=0.15, setups=21,
        recheck_stride=40,
    ),
    "social-long": Spec(
        "social", size=200, data_seed=17,
        ops_per_round=1000, probes_per_round=4, round_s=3.0, setups=31,
        recheck_stride=40,
    ),
    "calendar-wire": Spec(
        "calendar", size=2000, data_seed=None,
        ops_per_round=100, wire=True, session_len=5, round_s=0.2, setups=9,
        recheck_stride=20,
    ),
}

#: Small sizes for the self-tests: every check on, seconds per workload.
TINY = {
    "calendar-rsvp": Spec(
        "calendar", size=40, data_seed=None,
        ops_per_round=50, writes_per_round=5, setups=2, recheck_stride=1,
    ),
    "social-long": Spec(
        "social", size=140, data_seed=17,
        ops_per_round=60, probes_per_round=2, setups=2, recheck_stride=1,
    ),
    "calendar-wire": Spec(
        "calendar", size=40, data_seed=None,
        ops_per_round=20, wire=True, session_len=5, setups=1, recheck_stride=1,
    ),
}

APPS = {"calendar": calendar_app, "social": social}


def spec_for(workload: str, tiny: bool = False) -> Spec:
    table = TINY if tiny else FULL
    if workload not in table:
        raise SystemExit(
            f"unknown workload {workload!r}; choose one of {', '.join(sorted(table))}"
        )
    return table[workload]


def data_seed(spec: Spec, seed: int) -> int:
    return seed if spec.data_seed is None else spec.data_seed


def build_database(spec: Spec, seed: int, backend: str):
    app = APPS[spec.app].make_app()
    return app, app.make_database(spec.size, data_seed(spec, seed), backend=backend)


class CalendarStream:
    """Seeded calendar requests, with the app's request mix.

    Mirrors ``calendar_app.request_stream``'s shares (show_event on an
    attended event 45%, on a random event 15%, my_events 20%,
    event_attendees 10%, my_profile 10%) but draws per user, so a wire
    session can hold several requests of one user, and tracks the
    attendance the RSVP writes it emits create.
    """

    def __init__(self, db, rng: random.Random):
        self.rng = rng
        self.users = sorted(row[0] for row in db.query("SELECT UId FROM Users").rows)
        self.events = db.row_count("Events")
        self.attended: dict[int, list[int]] = {}
        for uid, eid in sorted(db.query("SELECT UId, EId FROM Attendance").rows):
            self.attended.setdefault(uid, []).append(eid)

    def request(self, uid: int, **flags) -> Op:
        rng = self.rng
        mine = self.attended.get(uid, [])
        kind = rng.random()
        if kind < 0.45 and mine:
            return Op("handler", uid, "show_event", {"event_id": rng.choice(mine)}, **flags)
        if kind < 0.60:
            eid = rng.randrange(1, self.events + 1)
            return Op("handler", uid, "show_event", {"event_id": eid}, **flags)
        if kind < 0.80:
            return Op("handler", uid, "my_events", **flags)
        if kind < 0.90 and mine:
            return Op(
                "handler", uid, "event_attendees", {"event_id": rng.choice(mine)}, **flags
            )
        return Op("handler", uid, "my_profile", **flags)

    def rsvp(self, uid: int) -> Op:
        """Attend a new event (INSERT) or reschedule an attended one (UPDATE)."""
        rng = self.rng
        mine = self.attended.setdefault(uid, [])
        if mine and rng.random() < 0.5:
            eid = rng.choice(mine)
            time = 900 + 25 * rng.randrange(0, 20)
            return Op(
                "rsvp", uid, "update",
                sql="UPDATE Events SET Time = ? WHERE EId = ?", args=(time, eid),
            )
        while True:
            eid = rng.randrange(1, self.events + 1)
            if eid not in mine:
                break
        mine.append(eid)
        return Op(
            "rsvp", uid, "insert",
            sql="INSERT INTO Attendance (UId, EId) VALUES (?, ?)", args=(uid, eid),
        )


def calendar_rsvp_rounds(spec: Spec, stream: CalendarStream):
    """Rounds of ``ops_per_round`` ops, ``writes_per_round`` of them RSVPs,
    each op from a uniformly drawn user over long-lived sessions."""
    rng = stream.rng
    while True:
        writes = set(rng.sample(range(spec.ops_per_round), spec.writes_per_round))
        ops = []
        for position in range(spec.ops_per_round):
            uid = rng.choice(stream.users)
            ops.append(stream.rsvp(uid) if position in writes else stream.request(uid))
        yield ops


def calendar_wire_rounds(spec: Spec, stream: CalendarStream):
    """Rounds of wire sessions: one user, ``session_len`` requests, one
    connection per session."""
    while True:
        ops = []
        for _ in range(spec.ops_per_round // spec.session_len):
            uid = stream.rng.choice(stream.users)
            for index in range(spec.session_len):
                ops.append(
                    stream.request(
                        uid,
                        connect=index == 0,
                        disconnect=index == spec.session_len - 1,
                    )
                )
        yield ops


def cap_user(db) -> int:
    """The scripted session's user: the lowest user id with a friend
    (fixed, because social-long's data seed is fixed)."""
    return db.query("SELECT MIN(UId1) FROM Friendships").rows[0][0]


def social_long_rounds(spec: Spec, db, seed: int):
    """Rounds of the social app's compliant stream over long-lived
    sessions, plus one scripted session that fills its trace.

    A long-lived session's first request is its friend feed (the app's
    landing page), so the Friendships facts its later feeds need are
    certified while the trace still has room.

    The scripted session is opened fresh each round for the same user on
    the fixed data, so its inputs do not depend on the seed: the public
    wall and the directory fill its trace to ``max_facts``, the app's
    attack queries are interleaved at seeded positions and must be
    blocked, and its closing friend feed is blocked every time (the named
    fault: ``Trace`` drops the new Friendships facts at the cap).
    """
    app = APPS["social"].make_app()
    rng = random.Random(seed)
    probes = app.attack_queries(db, None)[: spec.probes_per_round]
    capped = cap_user(db)
    started: set[int] = set()
    pending: list = []
    round_index = 0
    while True:
        scripted = f"cap-{round_index}"
        ops = [
            Op("handler", capped, name, fresh=scripted)
            for name in ("public_wall", "user_directory")
        ]
        compliant = spec.ops_per_round - 3 - len(probes)
        probe_at = sorted(rng.sample(range(compliant), len(probes)))
        for position in range(compliant):
            if not pending:
                pending = app.request_stream(db, rng, 1000)
                pending.reverse()
            request = pending.pop()
            uid = request.session["user_id"]
            if uid not in started:
                started.add(uid)
                ops.append(Op("handler", uid, "friend_feed"))
            else:
                ops.append(Op("handler", uid, request.handler, dict(request.params)))
            while probe_at and probe_at[0] == position:
                probe_at.pop(0)
                sql, args = probes[len(probes) - len(probe_at) - 1]
                ops.append(Op("probe", capped, sql=sql, args=tuple(args), fresh=scripted))
        ops.append(Op("handler", capped, "friend_feed", fresh=scripted))
        round_index += 1
        yield ops


def warmup_ops(spec: Spec, db) -> list[Op]:
    """Ops replayed untimed before social-long's timed phase: one scripted
    session as a round has it (its trace filled to the cap, the probes,
    the blocked friend feed), so the first round's block search does not
    start from a cold containment memo. Its inputs do not depend on the
    seed; the other workloads have none."""
    if spec.app != "social":
        return []
    app = APPS["social"].make_app()
    capped = cap_user(db)
    ops = [
        Op("handler", capped, name, fresh="warm-up")
        for name in ("public_wall", "user_directory")
    ]
    for sql, args in app.attack_queries(db, None)[: spec.probes_per_round]:
        ops.append(Op("probe", capped, sql=sql, args=tuple(args), fresh="warm-up"))
    ops.append(Op("handler", capped, "friend_feed", fresh="warm-up"))
    return ops


def rounds_for(spec: Spec, db, seed: int):
    """The workload's endless iterator of rounds. The calendar streams read
    the data they need from ``db`` now; the social stream reads ``db`` as
    it goes."""
    if spec.app == "social":
        return social_long_rounds(spec, db, seed)
    stream = CalendarStream(db, random.Random(seed))
    if spec.wire:
        return calendar_wire_rounds(spec, stream)
    return calendar_rsvp_rounds(spec, stream)
