"""The paper's federated-unlearning scheme (Algorithm 1).

Complete pipeline, entirely on the server:

1. **Backtrack** (Eq. 5): roll the global model to ``w_F``.
2. **Seed** each remaining client's L-BFGS buffer from the historical
   information that existed *before* round ``F`` ("recovered
   information", §IV-B) — vector pairs
   ``(w_j − w_F, g_j^i − g_F^i)`` for the last ``s`` pre-``F`` rounds.
3. **Replay** rounds ``F … T−1``: estimate every remaining client's
   gradient with Eq. 6, clip with Eq. 7, aggregate with the training
   aggregation rule, and step with the training learning rate
   (the paper applies "the same settings as the original FL training").
4. **Refresh** the vector pairs every ``refresh_period`` rounds
   (paper: 21) with the recovery-round differences, because "outdated
   vector pairs … lead to a gradual divergence".

The stored gradients here are *directions* in ``{−1, 0, +1}`` (decoded
from the 2-bit sign store), so recovery is sign-SGD-like; this is
exactly the paper's design and the source of its storage savings.

No client is ever contacted: ``client_gradient_calls`` is 0 by
construction, which the integration tests assert.

Resilience: recovery over hundreds of rounds is itself a long-running
server job, and the record it replays may have rotted on disk.  With a
``checkpoint_dir`` the unlearner atomically checkpoints its replay
state every ``checkpoint_every`` rounds and resumes from the last
checkpoint after a crash, returning the same
:class:`~repro.unlearning.base.UnlearnResult` an uninterrupted run
would.  Missing or undecodable per-``(round, client)`` gradient entries
and missing checkpoints are skipped and counted (``missing_entries`` /
``missing_checkpoints`` in the stats) instead of raising.

One engine: the replay round loop lives in
:mod:`repro.unlearning.forest`, whose tree executor serves K ≥ 1
forget sets; :meth:`SignRecoveryUnlearner.unlearn` is its call with
one request.  This module holds what the loop is parameterized by — the
unlearner's hyperparameters, estimator seeding, checkpoint files — and
the :class:`ReplayForest` it resumes from.  The replay-loop metrics
(``recovery_round_seconds`` and friends) are emitted there; the
per-estimate clip rate and drift come from
:mod:`repro.unlearning.estimator` — see ``docs/METRICS.md``.

Parallel recovery: with ``backend="thread"``/``"process"`` the
per-client Eq. 6 HVP + Eq. 7 clip fan out through
:mod:`repro.parallel` (:meth:`SignRecoveryUnlearner._estimate_parallel`).
Each worker gets a snapshot of the client's compact L-BFGS state and
the round's shared displacement, runs the exact serial arithmetic, and
the parent does all estimator bookkeeping and telemetry from the
returned numbers — so the recovered parameters are **bitwise identical
to the serial run** and the pool reports its shape and timing via
``recovery_parallel_*``.

Amortized serving: successive erasure requests replay overlapping
windows — forgetting ``{a}`` then ``{a, b}`` repeats every round up to
``b``'s first appearance.  A :class:`ReplayForest` snapshots each
replayed round's committed state (parameters, L-BFGS buffers, progress
counters — replay is RNG-free, so no generator state exists to key)
into a shared tree keyed by the **effective forget set**
``S ∩ P[F..t)``: the trajectory at round ``t`` depends on the forget
set only through the forgotten clients that participated since the
backtrack round, so arbitrary overlapping requests — supersets,
subsets, or *incomparable* sets — share every common prefix segment
and fork only at the first round where their participation differs.
The restored state is exactly what a cold replay would have reached
(clients the storing request had forgotten are re-seeded, which the
effective-set match makes exact), so cached-prefix results stay
bitwise identical (``tests/test_service_cache.py`` and
``tests/test_replay_forest.py`` assert this, stats included).  Forest
traffic feeds the ``recovery_cache_*`` and ``recovery_forest_*``
metrics; ``docs/REPLAY.md`` is the design doc.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.fl.client import VehicleClient
from repro.fl.history import TrainingRecord
from repro.nn.model import Sequential
from repro.parallel.estimates import run_estimate, tasks_from_round
from repro.parallel.executor import Executor, pool_utilization
from repro.parallel.policy import resolve_execution
from repro.storage.prefetch import RoundDecodeCache
from repro.unlearning.base import ModelFactory, UnlearnResult, UnlearningMethod
from repro.telemetry.core import current_telemetry
from repro.unlearning.estimator import GradientEstimator
from repro.utils.serialization import load_state, save_state_atomic

__all__ = ["ReplayForest", "SignRecoveryUnlearner"]

_CHECKPOINT = "recovery.npz"


class _ReplaySnapshot:
    """Committed replay state at the *start* of one round.

    ``params`` is an owned copy of the recovered vector; ``estimators``
    maps client id to ``(pairs, estimates_made, accepted, rejected)``
    with the L-BFGS vector pairs copied out of the live buffers;
    ``progress`` holds the stats counters accumulated so far, so a
    resumed run's final ``UnlearnResult.stats`` is byte-identical to a
    cold one's.
    """

    __slots__ = ("params", "estimators", "progress")

    def __init__(self, params, estimators, progress):
        self.params = params
        self.estimators = estimators
        self.progress = progress


class _ForestNode:
    """One shared snapshot in the forest: committed start-of-round state
    keyed (within its root) by ``(round, effective forget set)``."""

    __slots__ = ("snapshot", "last_used")

    def __init__(self, snapshot: _ReplaySnapshot):
        self.snapshot = snapshot
        self.last_used = 0


class _ForestRoot:
    """All trajectories sharing one ``(record, hyperparameters,
    backtrack round)`` anchor.  ``cum[i]`` caches the union of
    participants over rounds ``[F, F+i)`` — the basis for the
    effective-forget-set keying below."""

    __slots__ = (
        "record_ref",
        "base_key",
        "forget_round",
        "cum",
        "nodes",
        "last_used",
    )

    def __init__(self, record_ref, base_key, forget_round, cum):
        self.record_ref = record_ref
        self.base_key = base_key
        self.forget_round = forget_round
        self.cum: List[FrozenSet[int]] = cum
        self.nodes: Dict[Tuple[int, FrozenSet[int]], _ForestNode] = {}
        self.last_used = 0


class ReplayForest:
    """Shares every common replay prefix across erasure requests — a
    tree of committed snapshots, not a per-forget-set line.

    Replay is fully deterministic given (record, hyperparameters,
    forget set): each remaining client's estimator is seeded and
    refreshed independently, and a round's aggregation sees only that
    round's non-forgotten participants.  The trajectory up to round
    ``t`` therefore depends on the forget set ``S`` only through its
    **effective forget set** ``E_t = S ∩ P[F..t)`` — the forgotten
    clients that actually participated since the backtrack round ``F``.
    Two requests whose effective sets agree at ``t`` have byte-identical
    state at ``t``, whether or not either forget set contains the other
    (see ``docs/REPLAY.md`` for the argument).

    Snapshots are therefore stored as forest *nodes* keyed by
    ``(t, E_t)`` under a *root* keyed by ``(record identity,
    hyperparameter key, backtrack round)``.  A lookup for forget set
    ``S`` resumes from the deepest node whose key equals
    ``(t, S ∩ P[F..t))`` — the fork-at-divergence rule: overlapping but
    *incomparable* forget sets share every round before the first one
    where their symmetric difference participates.  On restore,
    estimators of clients in ``S`` are dropped; clients forgotten by
    the storing request but *remaining* for this one are absent from
    the node and are re-seeded by the caller (sound because an
    effective-set match proves they never participated in ``[F, t)``,
    so their seeded state equals their cold state).

    The record is held by weak reference: the forest never keeps a
    superseded history alive.  Eviction is two-level LRU: whole roots
    beyond ``max_entries`` (``__len__`` counts roots) and individual
    snapshot nodes beyond ``max_nodes`` across all roots.  Evicting a
    node only deepens a future request's replay — restored state is
    always copied out, so eviction can never corrupt a sibling branch.

    Counters ``hits``/``misses``/``evictions``/``rounds_saved`` mirror
    the ``recovery_cache_*`` telemetry; ``node_evictions`` and the node
    count feed the ``recovery_forest_*`` family (see
    ``docs/METRICS.md``).
    """

    def __init__(self, max_entries: int = 8, max_nodes: int = 4096):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        self.max_entries = max_entries
        self.max_nodes = max_nodes
        self._roots: List[_ForestRoot] = []
        # Snapshot-isolated erasures replay (and salvage) concurrently;
        # the forest is their shared rendezvous, so its public surface
        # is serialized by one reentrant lock.  Sections are short
        # (state copies, no replay work), so contention is negligible.
        self._lock = threading.RLock()
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rounds_saved = 0
        self.node_evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._roots)

    @property
    def node_count(self) -> int:
        """Snapshot nodes currently held across all roots."""
        with self._lock:
            return sum(len(root.nodes) for root in self._roots)

    # ------------------------------------------------------------------
    @staticmethod
    def _anchor(record):
        """Root-identity object for ``record``.

        A pinned :class:`~repro.fl.live.RecordSnapshot` carries a
        ``forest_anchor`` pointing at the live record it froze — so
        replays against any watermark of one live history, and the
        merge commits over the history itself, all share one root (and
        therefore every common prefix segment).  Plain records anchor
        to themselves.
        """
        return getattr(record, "forest_anchor", record)

    @staticmethod
    def _cumulative(record, forget_round: int) -> List[FrozenSet[int]]:
        cum: List[FrozenSet[int]] = []
        seen: set = set()
        for t in range(forget_round, record.num_rounds):
            cum.append(frozenset(seen))
            seen |= set(record.ledger.participants_at(t))
        cum.append(frozenset(seen))
        return cum

    @staticmethod
    def _extend_cum(root: _ForestRoot, record) -> None:
        """Grow ``root.cum`` through ``record.num_rounds``.

        A root created from a snapshot view covers rounds up to its
        watermark; a later lookup/store over a deeper view (the live
        record at commit time, or a fresher snapshot) extends the
        cached participant unions from the passed record's ledger.
        Participation of past rounds is append-only — events only ever
        land on the current round — so extension never rewrites an
        existing entry.
        """
        F = root.forget_round
        want = record.num_rounds - F + 1
        while len(root.cum) < want:
            t = F + len(root.cum) - 1
            root.cum.append(
                root.cum[-1] | frozenset(record.ledger.participants_at(t))
            )

    def _find_root(
        self, record, base_key, forget_round: int
    ) -> Optional[_ForestRoot]:
        anchor = self._anchor(record)
        for root in self._roots:
            if (
                root.record_ref() is anchor
                and root.forget_round == forget_round
                and root.base_key == base_key
            ):
                return root
        return None

    def lookup(
        self,
        record,
        base_key: Tuple,
        forget: FrozenSet[int],
        forget_round: int,
    ) -> Optional[Tuple[int, _ReplaySnapshot]]:
        """Deepest reusable ``(resume_round, snapshot)`` for a request.

        Matches nodes under the root with the same record,
        hyperparameters, and backtrack round (the refresh cadence and
        estimator seeding are anchored at the backtrack round, so a
        different anchor is a different trajectory) whose key equals
        ``(t, forget ∩ P[F..t))``.  Returns None — and counts a miss —
        when no node deeper than the backtrack round matches.
        """
        telemetry = current_telemetry()
        forget = frozenset(forget)
        with self._lock:
            root = self._find_root(record, base_key, forget_round)
            best: Optional[Tuple[int, _ForestNode]] = None
            if root is not None:
                self._extend_cum(root, record)
                for (t, effective), node in root.nodes.items():
                    if t <= forget_round:
                        continue
                    if t > record.num_rounds:
                        # Node from a deeper view of the same live
                        # history — beyond this request's watermark.
                        continue
                    if best is not None and t <= best[0]:
                        continue
                    if forget & root.cum[t - forget_round] == effective:
                        best = (t, node)
            if best is None:
                self.misses += 1
                if telemetry.enabled:
                    telemetry.inc("recovery_cache_misses_total")
                return None
            resume, node = best
            self._tick += 1
            root.last_used = self._tick
            node.last_used = self._tick
            saved = resume - forget_round
            self.hits += 1
            self.rounds_saved += saved
            if telemetry.enabled:
                telemetry.inc("recovery_cache_hits_total")
                telemetry.inc("recovery_cache_rounds_saved_total", saved)
                telemetry.observe("recovery_forest_hit_depth", saved)
            snapshot = node.snapshot
            restored = _ReplaySnapshot(
                params=np.array(snapshot.params, dtype=np.float64),
                estimators={
                    cid: state
                    for cid, state in snapshot.estimators.items()
                    if cid not in forget
                },
                progress=dict(snapshot.progress),
            )
            restored.progress["displacement_norms"] = list(
                snapshot.progress["displacement_norms"]
            )
            return resume, restored

    def store(
        self,
        record,
        base_key: Tuple,
        forget: FrozenSet[int],
        forget_round: int,
        snapshots: Dict[int, _ReplaySnapshot],
    ) -> None:
        """Commit one replay's per-round snapshots into the forest.

        Each snapshot at round ``t`` lands on the node keyed by
        ``(t, forget ∩ P[F..t))``.  An existing node keeps its snapshot
        and absorbs estimator entries for clients it lacked (coverage
        only ever grows); new nodes join the shared tree, so a later
        request matches them regardless of which forget set committed
        them.  Whole roots beyond ``max_entries`` and nodes beyond
        ``max_nodes`` are evicted LRU.
        """
        if not snapshots:
            return
        telemetry = current_telemetry()
        with self._lock:
            self._tick += 1
            forget = frozenset(forget)
            root = self._find_root(record, base_key, forget_round)
            if root is None:
                root = _ForestRoot(
                    weakref.ref(self._anchor(record)),
                    base_key,
                    forget_round,
                    self._cumulative(record, forget_round),
                )
                root.last_used = self._tick
                self._roots.append(root)
                # Roots whose record has been garbage-collected can never
                # match again — purge them before counting the cap.
                self._roots = [
                    r for r in self._roots if r.record_ref() is not None
                ]
                while len(self._roots) > self.max_entries:
                    victim = min(self._roots, key=lambda r: r.last_used)
                    self._roots.remove(victim)
                    self.evictions += 1
                    if telemetry.enabled:
                        telemetry.inc("recovery_cache_evictions_total")
            root.last_used = self._tick
            self._extend_cum(root, record)
            for t, snap in snapshots.items():
                key = (t, forget & root.cum[t - forget_round])
                node = root.nodes.get(key)
                if node is None:
                    node = _ForestNode(snap)
                    root.nodes[key] = node
                else:
                    # Keep the established snapshot (byte-identical state by
                    # the effective-set argument) but widen its estimator
                    # coverage with clients this replay tracked and the
                    # stored one had forgotten.
                    for cid, state in snap.estimators.items():
                        node.snapshot.estimators.setdefault(cid, state)
                node.last_used = self._tick
            while self._node_count_locked() > self.max_nodes:
                victim_root = None
                victim_key = None
                victim_tick = None
                for r in self._roots:
                    for k, n in r.nodes.items():
                        if victim_tick is None or n.last_used < victim_tick:
                            victim_root, victim_key, victim_tick = (
                                r, k, n.last_used,
                            )
                del victim_root.nodes[victim_key]
                self.node_evictions += 1
                if telemetry.enabled:
                    telemetry.inc("recovery_forest_node_evictions_total")
            if telemetry.enabled:
                telemetry.set_gauge("recovery_cache_entries", len(self._roots))
                telemetry.set_gauge(
                    "recovery_forest_nodes", self._node_count_locked()
                )

    def _node_count_locked(self) -> int:
        return sum(len(root.nodes) for root in self._roots)


class SignRecoveryUnlearner(UnlearningMethod):
    """Backtracking + sign-direction recovery (the paper's scheme).

    Parameters
    ----------
    clip_threshold:
        ``L`` of Eq. 7 (paper default 1).
    buffer_size:
        ``s``, the number of L-BFGS vector pairs (paper default 2).
    refresh_period:
        Rounds between vector-pair refreshes (paper default 21).
    round_callback:
        Optional ``(recovery_round, params)`` hook called after every
        replay round that took a model step, used by the figures to
        trace accuracy during recovery.
    checkpoint_dir:
        When set, replay state is checkpointed here (atomically) every
        ``checkpoint_every`` rounds, and :meth:`unlearn` resumes from
        an existing checkpoint instead of restarting.  The checkpoint
        is removed on successful completion.
    checkpoint_every:
        Replay rounds between checkpoints.
    backend, workers:
        Execution engine for the per-client estimation fan-out
        (``serial``/``thread``/``process``); None falls back to the
        process-wide default from
        :func:`repro.parallel.policy.default_execution`.  Every backend
        recovers bitwise-identical parameters.
    prefix_cache:
        Optional :class:`ReplayForest` shared across requests.
        When set, :meth:`unlearn` resumes from the deepest reusable
        cached snapshot (unless a crash checkpoint takes precedence)
        and commits this replay's per-round snapshots back.  The
        rounds skipped this way are reported via
        ``last_cached_prefix_rounds``, *not* in the result stats —
        cached and cold runs return byte-identical results.
    cancel_check:
        Optional no-arg callable invoked *between* replay rounds — the
        cooperative cancellation checkpoint.  Raising from it (e.g. a
        :class:`~repro.serving.requests.DeadlineExceededError` from the
        serving daemon) aborts the replay at a committed round
        boundary: the rounds already replayed are salvaged into the
        prefix cache (they are exactly the snapshots a completed run
        would have committed), so an aborted request wastes nothing
        and the next request over the same forget set resumes them —
        recovering parameters byte-identical to an uninterrupted cold
        replay.
    prefetch_depth:
        Look-ahead window of the replay data-path pipeline
        (:mod:`repro.storage.prefetch`): while round ``t`` computes,
        rounds ``t+1 .. t+depth`` bulk-decode on a background thread.
        ``0`` is the synchronous path (no pipeline); ``None`` (default)
        defers to :func:`repro.storage.prefetch.default_prefetch_depth`,
        which ``python -m repro.eval --prefetch-depth`` sets.  Recovered
        parameters are bitwise identical at every depth.
    decode_cache:
        Optional shared :class:`~repro.storage.prefetch.RoundDecodeCache`
        so concurrent/successive requests over the same record resolve
        each round's decode once (the service wires its own in).
    prefetch_executor:
        Optional externally-owned executor for the background decodes;
        a private thread engine is built per replay when omitted.
    """

    name = "ours"

    def __init__(
        self,
        clip_threshold: float = 1.0,
        buffer_size: int = 2,
        refresh_period: int = 21,
        round_callback: Optional[Callable[[int, np.ndarray], None]] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 5,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        prefix_cache: Optional[ReplayForest] = None,
        cancel_check: Optional[Callable[[], None]] = None,
        prefetch_depth: Optional[int] = None,
        decode_cache: Optional[RoundDecodeCache] = None,
        prefetch_executor: Optional[Executor] = None,
    ):
        if refresh_period < 1:
            raise ValueError("refresh_period must be >= 1")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if prefetch_depth is not None and prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        self.clip_threshold = clip_threshold
        self.buffer_size = buffer_size
        self.refresh_period = refresh_period
        self.round_callback = round_callback
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.execution = resolve_execution(backend, workers)
        self.prefix_cache = prefix_cache
        self.cancel_check = cancel_check
        self.prefetch_depth = prefetch_depth
        self.decode_cache = decode_cache
        self.prefetch_executor = prefetch_executor
        #: Replay rounds the last :meth:`unlearn` call skipped thanks to
        #: a prefix-cache hit (0 on a cold run).
        self.last_cached_prefix_rounds = 0

    # ------------------------------------------------------------------
    def _seed_estimators(
        self,
        record: TrainingRecord,
        remaining: Sequence[int],
        forget_round: int,
    ) -> Dict[int, GradientEstimator]:
        """Build one estimator per remaining client, seeded with pre-``F``
        history where it exists.

        For client ``i`` the anchor is the earliest round ``a ≥ F`` at
        which ``i`` participated (``a = F`` when it was present, the
        paper's setting).  Pairs are ``(w_j − w_a, g_j^i − g_a^i)`` for
        the last ``s`` pre-``F`` rounds ``j`` where ``i`` participated.
        Clients with no usable pre-``F`` history start with an empty
        buffer — Eq. 6 then degenerates to ``ḡ = g`` until the refresh
        policy supplies pairs, which is the bootstrap the paper
        prescribes for late joiners.  Entries that fail to load from a
        damaged record are treated as absent.
        """
        estimators: Dict[int, GradientEstimator] = {}
        for cid in remaining:
            est = GradientEstimator(
                buffer_size=self.buffer_size, clip_threshold=self.clip_threshold
            )
            anchor = next(
                (
                    t
                    for t in range(forget_round, record.num_rounds)
                    if record.gradients.has(t, cid)
                ),
                None,
            )
            if anchor is not None:
                try:
                    w_anchor = record.params_at(anchor)
                    g_anchor = record.gradients.get(anchor, cid)
                except Exception:  # damaged anchor: start with an empty buffer
                    estimators[cid] = est
                    continue
                pre_rounds = [
                    j
                    for j in range(max(0, forget_round - 4 * self.buffer_size), forget_round)
                    if record.gradients.has(j, cid)
                ][-self.buffer_size :]
                for j in pre_rounds:
                    try:
                        est.seed_pair(
                            record.params_at(j) - w_anchor,
                            record.gradients.get(j, cid) - g_anchor,
                        )
                    except Exception:
                        continue
            estimators[cid] = est
        return estimators

    # ------------------------------------------------------------------
    def _estimate_parallel(
        self,
        executor: Executor,
        present: List[Tuple[int, np.ndarray]],
        estimators: Dict[int, GradientEstimator],
        displacement_vec: np.ndarray,
        record: TrainingRecord,
        refresh_now: bool,
    ) -> Tuple[List[np.ndarray], List[float]]:
        """Fan one branch's round of Eq. 6/7 steps across the executor.

        Snapshots each client's compact L-BFGS state *before* dispatch
        (the serial arithmetic also estimates from pre-refresh state),
        merges results in participant order, and performs the estimator
        bookkeeping, refresh seeding, and telemetry re-emission the
        workers withheld — so counters and recovered parameters match
        the serial backend exactly.
        """
        telemetry = current_telemetry()
        tasks = tasks_from_round(
            present, estimators, displacement_vec, self.clip_threshold
        )
        results, pool_stats = executor.run(run_estimate, tasks)
        estimates: List[np.ndarray] = []
        weights: List[float] = []
        busy_seconds = 0.0
        for (cid, stored), result in zip(present, results):
            estimators[cid].estimates_made += 1
            busy_seconds += result.duration_seconds
            if telemetry.enabled:
                telemetry.inc("lbfgs_hvp_total")
                telemetry.observe("lbfgs_hvp_seconds", result.hvp_seconds)
                if result.estimate.size:
                    telemetry.observe("recovery_clip_rate", result.clip_rate)
                    telemetry.observe("recovery_estimate_drift", result.drift)
            estimates.append(result.estimate)
            weights.append(record.weight_of(cid))
            if refresh_now:
                estimators[cid].seed_pair(
                    displacement_vec, result.estimate - stored
                )
        if telemetry.enabled:
            telemetry.observe(
                "recovery_parallel_dispatch_seconds", pool_stats.dispatch_seconds
            )
            telemetry.observe(
                "recovery_parallel_gather_seconds", pool_stats.gather_seconds
            )
            telemetry.set_gauge(
                "recovery_parallel_utilization",
                pool_utilization(
                    busy_seconds, executor.workers, pool_stats.wall_seconds
                ),
            )
        return estimates, weights

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_path(self) -> str:
        assert self.checkpoint_dir is not None
        return os.path.join(self.checkpoint_dir, _CHECKPOINT)

    def _fingerprint(
        self, record: TrainingRecord, forget_ids: Sequence[int], forget_round: int
    ) -> Dict:
        """Identity of one logical recovery — a checkpoint from a
        different request or record must never be resumed."""
        return {
            "forget_ids": sorted(int(c) for c in forget_ids),
            "forget_round": int(forget_round),
            "num_rounds": int(record.num_rounds),
            "clip_threshold": float(self.clip_threshold),
            "buffer_size": int(self.buffer_size),
            "refresh_period": int(self.refresh_period),
        }

    # ------------------------------------------------------------------
    # forest snapshots
    # ------------------------------------------------------------------
    def _cache_base_key(self, record: TrainingRecord) -> Tuple:
        """Everything besides the forget set that shapes the trajectory.

        Deliberately watermark-agnostic: ``num_rounds`` is *not* part of
        the key, so replays pinned at different watermarks of one live
        history share a root — the replayed prefix of a longer window is
        byte-identical to the shorter window's full replay, and lookup
        already refuses nodes beyond the requesting view's watermark.
        """
        return (
            float(record.learning_rate),
            str(record.aggregator),
            float(self.clip_threshold),
            int(self.buffer_size),
            int(self.refresh_period),
        )

    def _estimators_from_snapshot(
        self, states: Dict[int, Tuple]
    ) -> Dict[int, GradientEstimator]:
        estimators: Dict[int, GradientEstimator] = {}
        for cid, (pairs, made, accepted, rejected) in states.items():
            est = GradientEstimator(
                buffer_size=self.buffer_size, clip_threshold=self.clip_threshold
            )
            for dw, dg in pairs:
                # Copies keep the cached snapshot immutable across
                # however many requests restore from it.
                est.buffer.add_pair(dw.copy(), dg.copy())
            est.estimates_made = int(made)
            est.pairs_accepted = int(accepted)
            est.pairs_rejected = int(rejected)
            estimators[cid] = est
        return estimators

    def _save_checkpoint(
        self,
        fingerprint: Dict,
        next_round: int,
        recovered: np.ndarray,
        estimators: Dict[int, GradientEstimator],
        progress: Dict,
    ) -> None:
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.inc("recovery_checkpoints_total")
        arrays: Dict[str, np.ndarray] = {"recovered": recovered}
        est_meta: Dict[str, Dict] = {}
        for cid, est in estimators.items():
            pairs = est.buffer.pairs()
            for j, (dw, dg) in enumerate(pairs):
                arrays[f"p_{cid}_{j}_w"] = dw
                arrays[f"p_{cid}_{j}_g"] = dg
            est_meta[str(cid)] = {
                "num_pairs": len(pairs),
                "estimates_made": est.estimates_made,
                "pairs_accepted": est.pairs_accepted,
                "pairs_rejected": est.pairs_rejected,
            }
        save_state_atomic(
            self._checkpoint_path(),
            arrays,
            {
                "fingerprint": fingerprint,
                "next_round": next_round,
                "estimators": est_meta,
                "progress": progress,
            },
        )

    def _load_checkpoint(
        self, fingerprint: Dict
    ) -> Optional[Tuple[int, _ReplaySnapshot]]:
        """``(next_round, state)`` from this request's crash checkpoint."""
        path = self._checkpoint_path()
        if not os.path.exists(path):
            return None
        arrays, meta = load_state(path)
        if meta.get("fingerprint") != fingerprint:
            raise ValueError(
                f"recovery checkpoint at {path} belongs to a different request "
                f"({meta.get('fingerprint')} != {fingerprint}); delete it to restart"
            )
        estimators = {
            int(cid): (
                [
                    (arrays[f"p_{cid}_{j}_w"], arrays[f"p_{cid}_{j}_g"])
                    for j in range(int(info["num_pairs"]))
                ],
                info["estimates_made"],
                info["pairs_accepted"],
                info["pairs_rejected"],
            )
            for cid, info in meta["estimators"].items()
        }
        recovered = np.array(arrays["recovered"], dtype=np.float64)
        return int(meta["next_round"]), _ReplaySnapshot(
            recovered, estimators, dict(meta["progress"])
        )

    # ------------------------------------------------------------------
    def unlearn(
        self,
        record: TrainingRecord,
        forget_ids: Sequence[int],
        model: Sequential,
        clients: Optional[Dict[int, VehicleClient]] = None,
        model_factory: Optional[ModelFactory] = None,
    ) -> UnlearnResult:
        """Run Algorithm 1: one request through the replay engine
        (:func:`repro.unlearning.forest.fused_unlearn`).

        Raises the request's error (invalid forget set, cancellation) as
        is.  ``clients``/``model_factory`` are ignored — the method is
        server-only.
        """
        # Imported here: the engine module builds on this one.
        from repro.unlearning import forest

        self.last_cached_prefix_rounds = 0
        (outcome,), _ = forest.fused_unlearn(
            self, record, [forget_ids], cancel_checks=[self.cancel_check]
        )
        self.last_cached_prefix_rounds = outcome.cached_prefix_rounds
        if outcome.error is not None:
            raise outcome.error
        return outcome.result
