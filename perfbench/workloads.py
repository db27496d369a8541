"""The three benchmark workloads, each run as repeated *episodes*.

An episode builds a federation from its seed (set-up), trains a record
and serves erasures through the public API (measured), and returns what
it observed plus its correctness gate: a check against a sequential
cold reference that the caller runs once every timed window is over.  Why each workload exists, and
why its sizes and rates were chosen, is in README.md.

All workloads use the ``ci`` MNIST profile model (an MLP with 13,162
parameters) and its hyper-parameters; only the federation's size and
join layout are set here.
"""

from __future__ import annotations

import functools
import hashlib
import shutil
import tempfile
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.datasets import make_synthetic_mnist
from repro.eval.config import config_for
from repro.eval.workloads import build_workload
from repro.fl import FederatedSimulation, LiveTrainingSession, ParticipationSchedule
from repro.nn.metrics import accuracy
from repro.serving import ErasureDaemon
from repro.storage import SignGradientStore, TieredSignGradientStore
from repro.unlearning import SignRecoveryUnlearner, UnlearningService

from loadgen import Ledger, Request, Stopwatch, burst, clock, closed_loop, paced_live, wait_all

#: Longest any single wait inside an episode may take before the
#: episode is abandoned as failed (keeps a run inside its time limit).
EPISODE_TIMEOUT_S = 60.0

#: Where the tiered store of ``serial-cold`` lives while an episode runs.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Round at which the first erasable vehicle joins.
FIRST_JOIN = 2


@dataclass(frozen=True)
class Layout:
    """Federation shape: ``base`` vehicles from round 0, ``late`` erasable
    vehicles joining at ``FIRST_JOIN + i * join_every``, plus the
    profile's own late joiner (highest id), which is never erased."""

    base: int
    late: int
    rounds: int
    join_every: int = 1

    @property
    def num_clients(self) -> int:
        return self.base + self.late + 1

    def targets(self) -> List[int]:
        return list(range(self.base, self.base + self.late))

    def joins(self) -> Dict[int, int]:
        return {
            cid: FIRST_JOIN + i * self.join_every
            for i, cid in enumerate(self.targets())
        }


#: burst-dict: 18 erasable vehicles over a 24-round record.  Erase
#: latency varies from episode to episode even with no CPU steal (one
#: seed's 36-vehicle bursts read erase p50 of 2.4-4.1 s), so six short
#: bursts per run let the median outvote it.
BURST = Layout(base=12, late=18, rounds=24)

#: serial-cold: 13 erasable vehicles over a 20-round record, eight
#: episodes per run for the same reason as burst-dict's.
SERIAL = Layout(base=12, late=13, rounds=20)
SERIAL_HOT_BUDGET = 256 * 1024
SERIAL_COLD_AFTER = 8

#: live-iov: one vehicle joins every 4 rounds and asks to be erased 4
#: rounds later; rounds are due at LIVE_RATE_HZ (2.5 erasures/s).  Ten
#: erasures per episode make ten short episodes per run, so the median
#: over episodes outvotes the few that a host stall slowed.
LIVE = Layout(base=12, late=10, rounds=44, join_every=4)
LIVE_RATE_HZ = 10.0
LIVE_ERASE_AFTER = 4

LAYOUTS = {"live-iov": LIVE, "burst-dict": BURST, "serial-cold": SERIAL}

#: Warm-up layouts: one small untimed episode per run first exercises
#: every code path (lazy imports, thread pools, allocator growth), as a
#: long-running RSU would have before the requests measured here.
WARMUP = {
    "burst-dict": Layout(base=4, late=8, rounds=12),
    "serial-cold": Layout(base=4, late=6, rounds=12),
    "live-iov": Layout(base=4, late=3, rounds=16, join_every=4),
}

WORKERS = 2

#: ErasureDaemon settings per workload (all: 2 workers, queue of 64).
DAEMON = {
    "live-iov": {},
    "burst-dict": {"fusion_width": 8},
    "serial-cold": {"prefetch_depth": 2},
}

#: Test-set size for ``final_accuracy`` (the profile's 500 would add
#: ±0.02 of sampling noise to each federation's accuracy).
ACCURACY_SAMPLES = 2000
ACCURACY_SEED = 20240

#: A gate's verdict: ``(correct, digest of the output, digest of the
#: reference)``.
Verdict = Tuple[bool, Optional[str], Optional[str]]


@dataclass
class Episode:
    """What one episode measured (times in seconds).

    ``gate`` checks the episode's output against its sequential cold
    reference.  It is left to the caller so that it runs after every
    timed window and after the run's peak RSS is read.
    """

    setup_s: float
    train_s: float
    rounds: int
    round_latencies: List[float]
    ledger: Ledger
    erase_s: float
    store_bytes: int
    store_entries: int
    phases_s: float
    accuracy: float
    gate: Callable[[], Verdict]
    decode_hits: int = 0
    decode_misses: int = 0
    notes: Dict[str, object] = field(default_factory=dict)


def digest(params: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(params).tobytes()).hexdigest()


def _federation(seed: int, layout: Layout, store):
    config = config_for(
        "mnist",
        "ci",
        seed=seed,
        num_rounds=layout.rounds,
        num_clients=layout.num_clients,
    )
    schedule = ParticipationSchedule.with_events(
        range(layout.num_clients), joins=layout.joins()
    )
    workload = build_workload(config, schedule=schedule)
    sim = FederatedSimulation(
        model=workload.model,
        clients=workload.clients,
        learning_rate=config.learning_rate,
        schedule=workload.schedule,
        gradient_store=store,
        aggregator=config.aggregator,
    )
    return config, workload, sim


def _open_store(name: str):
    """The sign store of workload ``name`` and its directory, if any."""
    if name != "serial-cold":
        return SignGradientStore(delta=1e-6), None
    OUT_DIR.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix="tiered-", dir=OUT_DIR)
    store = TieredSignGradientStore(
        directory,
        delta=1e-6,
        hot_budget_bytes=SERIAL_HOT_BUDGET,
        cold_after=SERIAL_COLD_AFTER,
        spill_mode="background",
    )
    return store, directory


def _close_store(store, directory) -> None:
    if directory is not None:
        store.close()
        shutil.rmtree(directory, ignore_errors=True)


def _service(config, record, model, tracer=None, **kwargs) -> UnlearningService:
    if tracer is not None:
        kwargs["_lock"] = tracer.traced_lock(
            threading.RLock(), "unlearning.service.lock_wait"
        )
    return UnlearningService(
        record=record,
        model=model,
        clip_threshold=config.clip_threshold,
        buffer_size=config.buffer_size,
        refresh_period=config.refresh_period,
        **kwargs,
    )


def _daemon(name: str, service) -> ErasureDaemon:
    return ErasureDaemon(service, capacity=64, workers=WORKERS, **DAEMON[name]).start()


def _unlearner(config) -> SignRecoveryUnlearner:
    return SignRecoveryUnlearner(
        clip_threshold=config.clip_threshold,
        buffer_size=config.buffer_size,
        refresh_period=config.refresh_period,
    )


def _store_size(store) -> tuple:
    entries = sum(len(store.clients_at(t)) for t in store.rounds())
    return int(store.nbytes()), entries


@functools.lru_cache(maxsize=1)
def _accuracy_set(image_size: int):
    """Held-out images, the same in every run, so accuracy differences
    between runs come from the federations and not from the test draw.
    They are never shown to the program."""
    return make_synthetic_mnist(
        ACCURACY_SAMPLES, np.random.default_rng(ACCURACY_SEED), image_size=image_size
    )


def _test_accuracy(config, model, params: np.ndarray) -> float:
    test = _accuracy_set(config.image_size)
    model.set_flat_params(params)
    return accuracy(model.predict(test.x), test.y)


def _free_running(stamps: Stopwatch, start: float) -> List[float]:
    """Free-running rounds are due when the previous round committed."""
    due = [start] + stamps.marks[:-1]
    return [done - d for done, d in zip(stamps.marks, due)]


def _window(tracer):
    return nullcontext() if tracer is None else tracer.window()


def setup_sample(name: str, seed: int) -> float:
    """Set workload ``name`` up once more without running it; return the
    seconds it took.  These extra samples steady the ``setup_s`` median.
    The service is built over the untrained record: constructing it
    reads nothing from the record."""
    layout = LAYOUTS[name]
    start = clock()
    store, directory = _open_store(name)
    try:
        config, workload, sim = _federation(seed, layout, store)
        service = _service(config, sim.record_view(0), workload.model)
        if name == "live-iov":
            service.bind_live(LiveTrainingSession(sim, layout.rounds, paced=True))
        daemon = _daemon(name, service)
        elapsed = clock() - start
        daemon.stop(mode="abort", timeout=EPISODE_TIMEOUT_S)
    finally:
        _close_store(store, directory)
    return elapsed


# ----------------------------------------------------------------------
# stop-the-world workloads: burst-dict and serial-cold
# ----------------------------------------------------------------------
def _committed(service, ledger: Ledger):
    """Clients erased, in commit order, and the params served for the
    erasure that committed last (``None`` when none did)."""
    # The service's own log is in commit order; ``erased_clients`` is
    # sorted, and fused groups may commit out of queue order.
    committed = list(service._erased)
    if not committed:
        return committed, None
    last = committed[-1]
    params = next(r.response.params for r in ledger.requests if r.ok and r.client_id == last)
    return committed, params


def _stop_the_world_gate(seed, layout, ledger, committed, served) -> Verdict:
    """The served final params equal one cold unlearn of every committed
    client over a freshly trained dict-store record of the same
    federation, and the committed clients are those answered ``ok``.

    The record is trained again rather than kept: a kept store would
    keep its service's decode cache alive (the cache's finalizer holds
    it until the store dies) and inflate every later episode's memory.
    """
    if served is None:
        return False, None, None
    answered = {r.client_id for r in ledger.requests if r.ok}
    config, workload, sim = _federation(seed, layout, SignGradientStore(delta=1e-6))
    record = sim.run(layout.rounds)
    reference = digest(_unlearner(config).unlearn(record, committed, workload.model).params)
    output = digest(served)
    return output == reference and answered == set(committed), output, reference


def _stop_the_world(name, seed, tracer, layout, serve) -> Episode:
    """Train a record into workload ``name``'s store, then ``serve(daemon,
    targets)`` the erasures; the two share everything else."""
    start = clock()
    store, directory = _open_store(name)
    try:
        config, workload, sim = _federation(seed, layout, store)
        setup = clock() - start

        stamps = Stopwatch()
        with _window(tracer):
            t0 = clock()
            record = sim.run(layout.rounds, round_callback=stamps)
            if directory is not None:
                # Write-path work is part of training: make the record
                # durable and demote old rounds to the cold tier.
                store.flush()
                store.compact(cold_after=SERIAL_COLD_AFTER)
            train_s = clock() - t0
        store_bytes, entries = _store_size(store)

        start = clock()
        service = _service(config, record, workload.model, tracer)
        daemon = _daemon(name, service)
        setup += clock() - start
        try:
            with _window(tracer):
                e0 = clock()
                ledger = serve(daemon, layout.targets())
                erase_s = max(r.answered or clock() for r in ledger.requests) - e0
            cache = service.decode_cache
            hits, misses = (cache.hits, cache.misses) if cache is not None else (0, 0)
        finally:
            daemon.stop(mode="abort", timeout=EPISODE_TIMEOUT_S)
        committed, served = _committed(service, ledger)
        final = served if served is not None else record.final_params()
        return Episode(
            setup_s=setup,
            train_s=train_s,
            rounds=layout.rounds,
            round_latencies=_free_running(stamps, t0),
            ledger=ledger,
            erase_s=erase_s,
            store_bytes=store_bytes,
            store_entries=entries,
            phases_s=train_s + erase_s,
            accuracy=_test_accuracy(config, workload.model, final),
            gate=functools.partial(
                _stop_the_world_gate, seed, layout, ledger, committed, served
            ),
            decode_hits=hits,
            decode_misses=misses,
        )
    finally:
        _close_store(store, directory)


def _burst(daemon, targets):
    ledger = burst(daemon, targets)
    wait_all(ledger, EPISODE_TIMEOUT_S)
    return ledger


def burst_dict(seed: int, tracer=None, layout: Layout = BURST) -> Episode:
    """Dict-store record, then every erasure due at once (mass GDPR)."""
    return _stop_the_world("burst-dict", seed, tracer, layout, _burst)


def serial_cold(seed: int, tracer=None, layout: Layout = SERIAL) -> Episode:
    """Tiered record with a cold tier; one client erasing closed-loop."""
    serve = functools.partial(closed_loop, timeout=EPISODE_TIMEOUT_S)
    return _stop_the_world("serial-cold", seed, tracer, layout, serve)


# ----------------------------------------------------------------------
# live-iov
# ----------------------------------------------------------------------
def live_iov(seed: int, tracer=None, layout: Layout = LIVE) -> Episode:
    """Paced live training; each late vehicle erased a few rounds after joining."""
    start = clock()
    store, _ = _open_store("live-iov")
    config, workload, sim = _federation(seed, layout, store)
    stamps = Stopwatch()
    session = LiveTrainingSession(sim, layout.rounds, round_callback=stamps, paced=True)
    service = _service(config, sim.record_view(0), workload.model, tracer).bind_live(
        session
    )
    daemon = _daemon("live-iov", service)
    ready = {cid: join + LIVE_ERASE_AFTER for cid, join in layout.joins().items()}
    setup = clock() - start
    try:
        with _window(tracer):
            t0 = clock()
            # A vehicle's erasure is due with the permit of its ready round.
            requests = [
                Request(cid, t0 + r / LIVE_RATE_HZ, ready_round=r)
                for cid, r in ready.items()
                if r < layout.rounds
            ]
            session.start()
            ledger = paced_live(
                session,
                daemon,
                t0,
                LIVE_RATE_HZ,
                layout.rounds,
                requests,
                timeout=EPISODE_TIMEOUT_S,
            )
            wait_all(ledger, EPISODE_TIMEOUT_S)
            record = session.result(timeout=EPISODE_TIMEOUT_S)
            end = max([stamps.marks[-1]] + [r.answered or clock() for r in ledger.requests])
    finally:
        session.release_pacing()
        session.stop()
        daemon.stop(mode="abort", timeout=EPISODE_TIMEOUT_S)
    answered = [r.answered for r in ledger.requests if r.answered is not None]
    first_due = min(r.due for r in ledger.requests) if ledger.requests else t0
    store_bytes, entries = _store_size(store)
    commits = record.metadata.get("merge_commits", [])
    return Episode(
        setup_s=setup,
        train_s=stamps.marks[-1] - t0,
        rounds=len(stamps.marks),
        round_latencies=[
            done - (t0 + r / LIVE_RATE_HZ) for r, done in enumerate(stamps.marks)
        ],
        ledger=ledger,
        erase_s=(max(answered) if answered else end) - first_due,
        store_bytes=store_bytes,
        store_entries=entries,
        phases_s=end - t0,
        accuracy=_test_accuracy(config, workload.model, record.final_params()),
        gate=functools.partial(
            _first_commit_gate, seed, layout, commits[0] if commits else None, ledger
        ),
    )


def _first_commit_gate(seed: int, layout: Layout, commit, ledger: Ledger) -> Verdict:
    """The first live commit equals training the same federation to the
    commit round, then unlearning (the sequential reference)."""
    if commit is None or commit["mode"] != "replay":
        return False, None, None
    clients = list(commit["clients"])
    answer = next((r for r in ledger.requests if r.ok and r.client_id in clients), None)
    if answer is None:
        return False, None, None
    config, workload, sim = _federation(seed, layout, SignGradientStore(delta=1e-6))
    record = sim.run(int(commit["commit_round"]))
    reference = digest(_unlearner(config).unlearn(record, clients, workload.model).params)
    output = digest(answer.response.params)
    return output == reference, output, reference


WORKLOADS: Dict[str, Callable] = {
    "live-iov": live_iov,
    "burst-dict": burst_dict,
    "serial-cold": serial_cold,
}
