"""Per-layer timing for the traced run, installed from the benchmark.

:class:`LayerTracer` wraps public functions of each layer of the
program (see :func:`_layer_functions`) with a span recorder.  Spans go to
a per-thread event list — no shared counter, no lock on the hot path —
and the lists are merged once the run is over.  ``repro.telemetry`` is
not used: its depth and sequence counters are shared by all threads.

Accounting (:meth:`LayerTracer.report`):

- On each thread, the innermost open span owns the time: a layer's
  *self time* excludes the spans nested inside it.  A *wait* span (lock
  or gate acquisition) owns its time as waiting, not as work.
- Across threads, each instant of the traced windows is split equally
  among the threads doing work at that instant, each share going to
  the layer innermost on that thread.  Summed over layers this is the
  wall time the layers account for; the rest of the window — no layer
  working on any thread — is ``proc.unattributed_s``.  So layer self times plus the unattributed
  remainder equal the window's wall time exactly, even when the trainer
  and a replay run side by side.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List, Tuple

clock = time.perf_counter

#: Span names whose nn.step calls are replay rounds (not training).
REPLAY_LAYERS = ("unlearning.recovery.unlearn", "unlearning.forest.fused")


def _layer_functions():
    """``(owner, attribute, layer)`` for every public function traced."""
    from repro.fl import live, server
    from repro.fl.aggregation import AGGREGATORS
    from repro.fl.client import VehicleClient
    from repro.nn.arena import BranchArena
    from repro.nn.optim import SGD
    from repro.storage import prefetch, store, tiered
    from repro.unlearning import estimator, forest, lbfgs, recovery, service

    svc = service.UnlearningService
    return [
        (svc, "handle_erasure_request", "unlearning.service.erase"),
        (svc, "handle_erasure_batch", "unlearning.service.erase"),
        (svc, "handle_erasure_batch_fused", "unlearning.service.erase"),
        (recovery.SignRecoveryUnlearner, "unlearn", "unlearning.recovery.unlearn"),
        (forest, "fused_unlearn", "unlearning.forest.fused"),
        (estimator.GradientEstimator, "estimate_displaced", "unlearning.estimator.estimate"),
        (lbfgs.LbfgsBuffer, "hvp", "unlearning.lbfgs.hvp"),
        (SGD, "step_", "nn.step"),
        (BranchArena, "step_rows", "nn.step"),
        *[(AGGREGATORS, name, "fl.aggregation") for name in list(AGGREGATORS)],
        (store.SignGradientStore, "get_round", "storage.get_round"),
        (tiered.TieredSignGradientStore, "get_round", "storage.get_round"),
        (store.SignGradientStore, "put_round", "storage.put_round"),
        (tiered.TieredSignGradientStore, "put_round", "storage.put_round"),
        (tiered.TieredSignGradientStore, "flush", "storage.flush"),
        (tiered.TieredSignGradientStore, "compact", "storage.flush"),
        (prefetch.RoundPrefetcher, "fetch", "storage.prefetch.fetch"),
        (VehicleClient, "compute_update", "fl.client.update"),
        (server.RsuServer, "run_round", "fl.server.round"),
        (server.RsuServer, "skip_round", "fl.server.round"),
        (live.LiveTrainingSession, "pin_snapshot", "fl.live.pin"),
    ]


class _ThreadLog:
    """One thread's span events: ``(time, layer or None, wait, amount)``.

    ``layer=None`` closes the innermost open span.  ``amount`` is the
    work count of a call (rows stepped by a fused SGD step, else 1).
    """

    __slots__ = ("events",)

    def __init__(self):
        self.events: List[Tuple[float, object, bool, int]] = []


class LayerTracer:
    """Installs span wrappers on the program's layer functions."""

    def __init__(self):
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._saved: list = []
        self.windows: List[Tuple[float, float]] = []

    # -- recording ----------------------------------------------------
    def _events(self) -> list:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._logs_lock:
                self._logs.append(log)
        return log.events

    @contextmanager
    def span(self, layer: str, wait: bool = False):
        events = self._events()
        events.append((clock(), layer, wait, 1))
        try:
            yield
        finally:
            events.append((clock(), None, False, 0))

    def _wrap(self, fn, layer: str):
        events_of = self._events
        amount_of = _rows if layer == "nn.step" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            events = events_of()
            amount = amount_of(fn, args) if amount_of is not None else 1
            events.append((clock(), layer, False, amount))
            try:
                return fn(*args, **kwargs)
            finally:
                events.append((clock(), None, False, 0))

        return traced

    def _wrap_commit_gate(self, fn):
        tracer = self

        @contextmanager
        def commit_gate(*args, **kwargs):
            gate = fn(*args, **kwargs)
            with tracer.span("fl.live.gate_wait", wait=True):
                value = gate.__enter__()
            try:
                with tracer.span("fl.live.gate_hold"):
                    yield value
            except BaseException:
                if not gate.__exit__(*sys.exc_info()):
                    raise
            else:
                gate.__exit__(None, None, None)

        return commit_gate

    def traced_lock(self, lock, layer: str) -> "TracedLock":
        """A lock whose acquisitions are wait spans named ``layer``."""
        return TracedLock(self, lock, layer)

    # -- install / remove ---------------------------------------------
    def install(self) -> None:
        """Wrap every layer function (idempotent per install/remove pair)."""
        from repro.fl.live import LiveTrainingSession

        if self._saved:
            return
        for owner, name, layer in _layer_functions():
            if isinstance(owner, dict):
                original = owner[name]
                owner[name] = self._wrap(original, layer)
            else:
                original = getattr(owner, name)
                setattr(owner, name, self._wrap(original, layer))
            self._saved.append((owner, name, original))
        original = LiveTrainingSession.commit_gate
        LiveTrainingSession.commit_gate = self._wrap_commit_gate(original)
        self._saved.append((LiveTrainingSession, "commit_gate", original))

    def remove(self) -> None:
        """Restore every wrapped function."""
        for owner, name, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._saved = []

    @contextmanager
    def window(self):
        """Mark a traced measurement window; spans outside are dropped."""
        start = clock()
        try:
            yield
        finally:
            self.windows.append((start, clock()))

    # -- accounting -----------------------------------------------------
    def _inside(self, t: float) -> bool:
        return any(start <= t <= end for start, end in self.windows)

    def report(self) -> Dict[str, float]:
        """Merge the thread logs into per-layer metrics (see module doc).

        Only work inside the traced windows counts: calls and total
        durations by their start time, self time clipped to the windows.
        """
        calls: Counter = Counter()
        inclusive: Dict[str, float] = defaultdict(float)
        replay_rounds = 0
        segments: List[Tuple[float, float, str]] = []
        with self._logs_lock:
            logs = list(self._logs)
        for log in logs:
            stack: List[Tuple[str, bool, float]] = []
            since = None
            for t, layer, wait, amount in list(log.events):
                if stack and not stack[-1][1] and since is not None and t > since:
                    segments.append((since, t, stack[-1][0]))
                if layer is not None:
                    if self._inside(t):
                        calls[layer] += 1
                        if layer == "nn.step" and any(s[0] in REPLAY_LAYERS for s in stack):
                            replay_rounds += amount
                    stack.append((layer, wait, t))
                elif stack:
                    name, _, start = stack.pop()
                    if self._inside(start):
                        inclusive[name] += t - start
                since = t
        attributed = _sweep(_clip(segments, self.windows))
        wall = sum(end - start for start, end in self.windows)
        return {
            "calls": dict(calls),
            "inclusive": dict(inclusive),
            "self": attributed,
            "wall": wall,
            "unattributed": wall - sum(attributed.values()),
            "replay_rounds": replay_rounds,
        }


class TracedLock:
    """Lock proxy recording each acquisition as a wait span."""

    def __init__(self, tracer: LayerTracer, lock, layer: str):
        self._tracer = tracer
        self._lock = lock
        self._layer = layer

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        with self._tracer.span(self._layer, wait=True):
            return self._lock.acquire(blocking, timeout)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def _rows(fn, args) -> int:
    """Replay rounds one step call performs: rows for a fused step."""
    if fn.__name__ == "step_rows" and len(args) > 1:
        return len(args[1])
    return 1


def _clip(segments, windows):
    """Intersect segments with the traced windows."""
    clipped = []
    for start, end, layer in segments:
        for w_start, w_end in windows:
            lo, hi = max(start, w_start), min(end, w_end)
            if hi > lo:
                clipped.append((lo, hi, layer))
    return clipped


def _sweep(segments) -> Dict[str, float]:
    """Split wall time equally among the threads working at each instant."""
    points = []
    for start, end, layer in segments:
        points.append((start, 1, layer))
        points.append((end, -1, layer))
    points.sort(key=lambda p: (p[0], p[1]))
    active: Counter = Counter()
    busy = 0
    out: Dict[str, float] = defaultdict(float)
    last = None
    for t, delta, layer in points:
        if busy and last is not None and t > last:
            share = (t - last) / busy
            for name, n in active.items():
                if n:
                    out[name] += share * n
        active[layer] += delta
        busy += delta
        last = t
    return dict(out)
