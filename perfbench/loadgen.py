"""The benchmark's own load generator: due times, lateness, failures.

Every request has a *due time* — when its user wanted it served.  An
open-loop schedule fixes due times in advance, independent of how fast
the system answers; a closed loop makes a request due when the previous
one's answer arrived.  Latency is always measured from the due time, so
a stall that delays later submissions shows in their latency, and the
generator separately records how late it ran (``lateness``).

A request that is refused at submission, shed, expires, errors, or is
answered ``stale`` (nothing was erased) is a failure: its latency is
``+inf``, so it counts against every percentile instead of dropping out
of them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

#: What a failed request reads as in a printed percentile.  JSON has no
#: infinity; a value this large cannot be mistaken for a measurement.
FAILED_LATENCY_S = 1.0e6

clock = time.perf_counter


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``); ``inf`` counts.

    With ``n`` samples the p90 has ``n - ceil(0.9 n)`` samples above
    it, so ``n >= 100`` leaves at least ten beyond the reported value.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    value = ordered[rank - 1]
    return FAILED_LATENCY_S if math.isinf(value) else value


@dataclass
class Request:
    """One erasure request: its schedule, its answer, and its clocks."""

    client_id: int
    due: float
    ready_round: int = 0
    submitted: Optional[float] = None
    answered: Optional[float] = None
    response: object = None
    error: Optional[BaseException] = None
    future: object = None

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.response is not None
            and self.response.status == "ok"
        )

    @property
    def latency(self) -> float:
        if not self.ok or self.answered is None:
            return math.inf
        return self.answered - self.due

    @property
    def lateness(self) -> float:
        return 0.0 if self.submitted is None else max(0.0, self.submitted - self.due)


@dataclass
class Ledger:
    """Requests of one episode plus the generator's own lateness samples."""

    requests: List[Request] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.requests)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.requests if not r.ok)

    def latencies(self) -> List[float]:
        return [r.latency for r in self.requests]

    def queue_waits(self) -> List[float]:
        return [r.response.queue_seconds for r in self.requests if r.ok]

    def outcomes(self) -> list:
        return [o for r in self.requests if r.ok for o in r.response.outcomes]


def submit(daemon, request: Request, ledger: Ledger) -> None:
    """Submit ``request`` now; stamp its answer from the worker thread.

    The done-callback runs in the daemon worker that resolves the
    future, so ``answered`` is the moment the response exists — not the
    moment the generator gets round to looking at it.
    """
    request.submitted = clock()
    ledger.requests.append(request)
    ledger.lateness.append(request.lateness)
    try:
        future = daemon.submit(request.client_id)
    except Exception as exc:  # refused at admission: a failure, not a crash
        request.error = exc
        request.answered = clock()
        return

    def stamp(done, request=request):
        now = clock()
        try:
            request.response = done.result()
        except Exception as exc:
            request.error = exc
        request.answered = now  # last: waiters poll it to see the answer

    future.add_done_callback(stamp)
    request.future = future


def wait_all(ledger: Ledger, timeout: float) -> None:
    """Block until every submitted request has an answer (or time out)."""
    deadline = clock() + timeout
    for request in ledger.requests:
        if request.future is None:
            continue
        try:
            request.future.result(timeout=max(0.0, deadline - clock()))
        except Exception:
            pass  # recorded by the done-callback
        # The callback runs right after the future resolves; wait for it.
        while request.answered is None and clock() < deadline:
            time.sleep(0.001)


def burst(daemon, client_ids: List[int]) -> Ledger:
    """Mass-GDPR burst: every request due at one instant, submitted at once."""
    ledger = Ledger()
    due = clock()
    for cid in client_ids:
        submit(daemon, Request(cid, due), ledger)
    return ledger


def closed_loop(daemon, client_ids: List[int], timeout: float) -> Ledger:
    """One client: each request is due when the previous answer arrived."""
    ledger = Ledger()
    due = clock()
    for cid in client_ids:
        request = Request(cid, due)
        submit(daemon, request, ledger)
        wait_all(Ledger([request]), timeout)
        due = request.answered if request.answered is not None else clock()
    return ledger


def paced_live(
    session,
    daemon,
    start: float,
    rate_hz: float,
    num_rounds: int,
    erasures: List[Request],
    timeout: float,
) -> Ledger:
    """Open loop over a live training session, from this one thread.

    Round ``r``'s permit is due at ``start + r / rate_hz`` and granted
    then, whatever state the system is in.  An erasure is submitted once
    due *and* its vehicle's rounds are trained in (``ready_round``) — a
    vehicle unknown to the record cannot be erased — so a training stall
    shows as erasure lateness and latency.
    """
    ledger = Ledger()
    permits = [start + r / rate_hz for r in range(num_rounds)]
    pending: List[Request] = []
    upcoming = sorted(erasures, key=lambda q: q.due)
    next_round = 0
    give_up = start + timeout
    while next_round < num_rounds or upcoming or pending:
        now = clock()
        if now > give_up or session.error is not None:
            break
        while upcoming and upcoming[0].due <= now:
            pending.append(upcoming.pop(0))
        if pending and (session.watermark >= pending[0].ready_round or session.done):
            submit(daemon, pending.pop(0), ledger)
            continue
        if next_round < num_rounds and permits[next_round] <= now:
            ledger.lateness.append(now - permits[next_round])
            session.allow_rounds(1)
            next_round += 1
            continue
        wake = [give_up]
        if next_round < num_rounds:
            wake.append(permits[next_round])
        if upcoming:
            wake.append(upcoming[0].due)
        pause = max(0.0, min(wake) - clock())
        if pending:
            session.wait_for_round(pending[0].ready_round, timeout=pause)
        else:
            time.sleep(pause)
    for request in pending + upcoming:  # never submitted: failures
        request.error = TimeoutError("never submitted")
        ledger.requests.append(request)
    return ledger


class Stopwatch:
    """Round-commit timestamps, appended by the trainer's round callback
    and read once the trainer has finished."""

    def __init__(self):
        self.marks: List[float] = []

    def __call__(self, *_args) -> None:
        self.marks.append(clock())
