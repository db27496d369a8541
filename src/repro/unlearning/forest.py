"""Algorithm 1's replay engine: one execution tree for K ≥ 1 requests.

This module holds the only implementation of the recovery replay
(backtrack to ``w_F``, then replay rounds ``F … T−1`` with Eq. 6
estimates, Eq. 7 clipping and periodic pair refresh).
:meth:`SignRecoveryUnlearner.unlearn
<repro.unlearning.recovery.SignRecoveryUnlearner.unlearn>` is its call
with one request; :func:`fused_unlearn` serves K concurrent forget sets.

:class:`~repro.unlearning.recovery.ReplayForest` makes *successive*
erasure requests cheap by resuming each one from the deepest shared
snapshot.  The executor makes *concurrent* requests cheap: K forget sets
replay through **one execution tree** in lockstep.  Each tree node holds
the live state of every request whose trajectory is still identical —
by the effective-forget-set argument (``docs/REPLAY.md``), request
``m``'s state at round ``t`` depends on its forget set ``S_m`` only
through ``S_m ∩ P[F..t)`` — and the node **forks** at the first round
``t`` where its members partition by ``S_m ∩ P_t`` (the
fork-at-divergence rule).  Until then, every shared round is decoded,
estimated, snapshotted, and stepped **once** instead of once per
request.  Only the rounds some branch reads are decoded.

Branch fusion: live branch parameters live in a stacked
:class:`~repro.nn.arena.BranchArena` ``(K, d)`` matrix.  Per round, the
Eq. 6 displacement for all sibling branches is one broadcast subtract
over the stacked rows and the Eq. 2 step is one stacked
multiply-subtract (:meth:`~repro.nn.arena.BranchArena.step_rows`) —
element-wise ufuncs, so each row is bitwise identical to a vector-shaped
step.  The *reductions* — per-client L-BFGS HVPs, per-branch
aggregation, per-branch displacement norms — deliberately stay at
vector call shapes: BLAS-backed multi-column GEMM and multi-RHS solves
are **not** bitwise-identical per column to their vector-shaped
equivalents (measured on this substrate; see ``docs/REPLAY.md``), and
byte-identity against cold replay is the contract everything above
relies on.  With ``backend="thread"``/``"process"`` each branch's
per-client estimates fan out through
:meth:`~repro.unlearning.recovery.SignRecoveryUnlearner._estimate_parallel`,
which returns the serial arithmetic's bytes.

Cooperative cancellation is per branch: each request brings its own
``cancel_check`` (e.g. a serving deadline), polled between rounds.  An
aborted member leaves its node; the survivors re-seed estimators for
any clients only the aborted member was forgetting (sound by the same
effective-set argument — those clients cannot have participated yet)
and keep replaying.  Aborted work is never wasted: every committed
snapshot is salvaged into the forest — also when any other exception
escapes the replay — so the verbatim retry resumes almost for free.

Calls with one request also honour the unlearner's crash checkpoints
(``checkpoint_dir``, reported as ``resumed_from``) and its
``round_callback``; with K > 1 they are not consulted, and the forest
is the durability story.

Telemetry: ``recovery_round_seconds`` and the other replay-loop metrics
of ``docs/METRICS.md``, plus ``recovery_forest_forks_total`` /
``recovery_forest_fork_depth`` / ``recovery_forest_fused_branches`` /
``recovery_forest_shared_rounds_total``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.aggregation import AGGREGATORS
from repro.fl.history import TrainingRecord
from repro.nn.arena import BranchArena
from repro.parallel.executor import Executor, make_executor
from repro.storage.prefetch import RoundPrefetcher, default_prefetch_depth
from repro.telemetry.core import current_telemetry
from repro.unlearning.backtrack import backtrack
from repro.unlearning.base import (
    UnlearnResult,
    remaining_ids,
    resolve_forget_round,
)
from repro.unlearning.recovery import (
    ReplayForest,
    SignRecoveryUnlearner,
    _ReplaySnapshot,
)
from repro.utils.logging import get_logger

__all__ = ["BranchOutcome", "FusedReplayStats", "fused_unlearn"]

_log = get_logger("unlearning.forest")


@dataclass
class BranchOutcome:
    """What one branch of a fused replay produced.

    Exactly one of ``result``/``error`` is set.  ``cached_prefix_rounds``
    is the forest amortization for this branch (0 cold), mirroring
    ``SignRecoveryUnlearner.last_cached_prefix_rounds``.
    """

    result: Optional[UnlearnResult]
    error: Optional[BaseException]
    cached_prefix_rounds: int = 0


@dataclass
class FusedReplayStats:
    """Work accounting for one :func:`fused_unlearn` call.

    ``member_rounds`` is what K independent replays (with the same
    forest hits) would have executed; ``executed_node_rounds`` is what
    the tree actually executed; ``shared_rounds`` is the difference
    credited to fusion (Σ members−1 over executed node-rounds).
    """

    requests: int = 0
    executed_node_rounds: int = 0
    member_rounds: int = 0
    shared_rounds: int = 0
    forks: int = 0
    peak_branches: int = 0
    aborted: int = 0


class _ExecNode:
    """Live state of one branch of the execution tree: the requests
    whose trajectories are still identical."""

    __slots__ = (
        "members",
        "union",
        "row",
        "recovered",
        "estimators",
        "rounds_replayed",
        "skipped_rounds",
        "missing_entries",
        "missing_checkpoints",
        "displacement_norms",
        "snapshots",
        "pairs_cache",
        "resume",
        "store_forget",
    )

    def __init__(self):
        self.members: List[int] = []
        self.union: FrozenSet[int] = frozenset()
        self.row = -1
        self.recovered: Optional[np.ndarray] = None
        self.estimators: Dict[int, object] = {}
        self.rounds_replayed = 0
        self.skipped_rounds = 0
        self.missing_entries = 0
        self.missing_checkpoints = 0
        self.displacement_norms: List[float] = []
        self.snapshots: Dict[int, _ReplaySnapshot] = {}
        self.pairs_cache: Dict[int, List] = {}
        self.resume = 0
        self.store_forget: FrozenSet[int] = frozenset()

    def progress(self, resumed_from: Optional[int]) -> Dict:
        """The stats counters accumulated so far, as snapshots and crash
        checkpoints store them."""
        return {
            "rounds_replayed": self.rounds_replayed,
            "skipped_rounds": self.skipped_rounds,
            "missing_entries": self.missing_entries,
            "missing_checkpoints": self.missing_checkpoints,
            "displacement_norms": list(self.displacement_norms),
            "resumed_from": resumed_from,
        }


def _copy_estimators(unlearner: SignRecoveryUnlearner, estimators: Dict) -> Dict:
    """Deep-copy a node's estimators for a forked sibling (pairs are
    copied on both export and import, so nothing aliases)."""
    states = {
        cid: (
            est.buffer.pairs(),
            est.estimates_made,
            est.pairs_accepted,
            est.pairs_rejected,
        )
        for cid, est in estimators.items()
    }
    return unlearner._estimators_from_snapshot(states)


def _node_snapshot(node: _ExecNode) -> _ReplaySnapshot:
    """Snapshot a node's committed state.

    A client's L-BFGS pairs change only on refresh rounds, so between
    refreshes every snapshot shares the same copied-out pairs list from
    ``node.pairs_cache`` (refreshed clients are invalidated).  The lists
    are never mutated after creation — ``pairs()`` returns copies and
    restores copy again — so sharing is safe.
    """
    estimators = {}
    for cid, est in node.estimators.items():
        if cid not in node.pairs_cache:
            node.pairs_cache[cid] = est.buffer.pairs()
        estimators[cid] = (
            node.pairs_cache[cid],
            est.estimates_made,
            est.pairs_accepted,
            est.pairs_rejected,
        )
    # Snapshots restore transparently: a forest hit is not a crash
    # resume, and stats must match a cold run's.
    return _ReplaySnapshot(node.recovered.copy(), estimators, node.progress(None))


def fused_unlearn(
    unlearner: SignRecoveryUnlearner,
    record: TrainingRecord,
    forget_sets: Sequence[Sequence[int]],
    cancel_checks: Optional[Sequence[Optional[Callable[[], None]]]] = None,
) -> Tuple[List[BranchOutcome], FusedReplayStats]:
    """Replay K erasure requests through one shared execution tree.

    Returns one :class:`BranchOutcome` per request (order preserved):
    ``result`` is byte-identical — parameters *and* stats — to a cold
    replay of ``forget_sets[k]`` on its own (asserted in
    ``tests/test_replay_forest.py``), or ``error`` carries the
    per-branch failure (invalid request, cooperative cancellation).
    Requests whose backtrack rounds differ replay as separate trees
    within the same call; sharing only ever happens under one anchor.
    Any other exception escapes after the committed snapshots of every
    live branch are stored in the forest.
    """
    K = len(forget_sets)
    checks: List[Optional[Callable[[], None]]] = (
        list(cancel_checks) if cancel_checks is not None else [None] * K
    )
    if len(checks) != K:
        raise ValueError("cancel_checks must align with forget_sets")
    outcomes: List[Optional[BranchOutcome]] = [None] * K
    stats = FusedReplayStats(requests=K)
    telemetry = current_telemetry()
    if telemetry.enabled and K:
        telemetry.observe("recovery_forest_fused_branches", K)

    forget_of: Dict[int, FrozenSet[int]] = {}
    groups: Dict[int, List[int]] = {}
    for i, ids in enumerate(forget_sets):
        forget = frozenset(int(c) for c in ids)
        try:
            forget_round = resolve_forget_round(record, sorted(forget))
            if not remaining_ids(record, forget):
                raise ValueError("cannot recover: no remaining clients")
        except Exception as exc:
            outcomes[i] = BranchOutcome(result=None, error=exc)
            continue
        forget_of[i] = forget
        groups.setdefault(forget_round, []).append(i)

    for forget_round in sorted(groups):
        _run_group(
            unlearner,
            record,
            forget_round,
            groups[forget_round],
            forget_of,
            checks,
            outcomes,
            stats,
            single=K == 1,
        )
    assert all(o is not None for o in outcomes)
    return outcomes, stats  # type: ignore[return-value]


def _run_group(
    unlearner: SignRecoveryUnlearner,
    record: TrainingRecord,
    forget_round: int,
    idxs: List[int],
    forget_of: Dict[int, FrozenSet[int]],
    checks: List[Optional[Callable[[], None]]],
    outcomes: List[Optional[BranchOutcome]],
    stats: FusedReplayStats,
    single: bool,
) -> None:
    aggregate = AGGREGATORS[record.aggregator]
    forest: Optional[ReplayForest] = unlearner.prefix_cache
    base_key = unlearner._cache_base_key(record)
    num_rounds = record.num_rounds
    telemetry = current_telemetry()
    replay_window = max(1, num_rounds - forget_round)
    bulk = getattr(record.gradients, "supports_bulk_round", False)

    # ------------------------------------------------------------- resume
    # A crash checkpoint (one-request calls only) takes precedence over
    # the forest: it may be deeper and carries real resume semantics.
    fingerprint: Optional[Dict] = None
    resumed_from: Optional[int] = None
    resumes: Dict[int, int] = {}
    restored: Dict[int, Optional[_ReplaySnapshot]] = {}
    cached: Dict[int, int] = {}
    for i in idxs:
        hit = None
        if single and unlearner.checkpoint_dir is not None:
            fingerprint = unlearner._fingerprint(
                record, sorted(forget_of[i]), forget_round
            )
            hit = unlearner._load_checkpoint(fingerprint)
            if hit is not None:
                resumed_from = hit[0]
                _log.info("resuming recovery at round %d", resumed_from)
        cached[i] = 0
        if hit is None and forest is not None:
            hit = forest.lookup(record, base_key, forget_of[i], forget_round)
            if hit is not None:
                cached[i] = hit[0] - forget_round
        resumes[i], restored[i] = hit if hit is not None else (forget_round, None)
        stats.member_rounds += num_rounds - resumes[i]

    # Requests sharing (resume round, effective set S ∩ P[F..resume))
    # have byte-identical state there — they start in one node.
    seen: Dict[int, FrozenSet[int]] = {}
    buckets: Dict[Tuple[int, FrozenSet[int]], List[int]] = {}
    for i in sorted(idxs):
        r = resumes[i]
        if r not in seen:
            seen[r] = frozenset().union(
                *(record.ledger.participants_at(t) for t in range(forget_round, r))
            )
        buckets.setdefault((r, forget_of[i] & seen[r]), []).append(i)

    arena = BranchArena(len(idxs), int(record.final_params().size))
    active: List[_ExecNode] = []
    for (resume, _effective), members in sorted(
        buckets.items(), key=lambda kv: (kv[0][0], min(kv[1]))
    ):
        node = _ExecNode()
        node.members = list(members)
        node.union = frozenset().union(*(forget_of[m] for m in members))
        node.resume = resume
        node.store_forget = forget_of[members[0]]
        snap = restored[members[0]]
        if snap is None:
            params, _ = backtrack(record, sorted(forget_of[members[0]]))
            node.row = arena.acquire(params)
            node.estimators = unlearner._seed_estimators(
                record, remaining_ids(record, node.union), forget_round
            )
        else:
            node.row = arena.acquire(snap.params)
            ests = unlearner._estimators_from_snapshot(snap.estimators)
            # The snapshot was filtered by one member's forget set; the
            # node must exclude every member's.
            ests = {c: e for c, e in ests.items() if c not in node.union}
            missing = [
                c for c in remaining_ids(record, node.union) if c not in ests
            ]
            if missing:
                ests.update(
                    unlearner._seed_estimators(record, missing, forget_round)
                )
            node.estimators = ests
            progress = snap.progress
            node.rounds_replayed = int(progress["rounds_replayed"])
            node.skipped_rounds = int(progress["skipped_rounds"])
            node.missing_entries = int(progress["missing_entries"])
            node.missing_checkpoints = int(progress["missing_checkpoints"])
            node.displacement_norms = [
                float(n) for n in progress["displacement_norms"]
            ]
        node.recovered = arena.row(node.row)
        active.append(node)

    def flush_snapshots(node: _ExecNode) -> None:
        if forest is not None and node.snapshots:
            forest.store(
                record, base_key, node.store_forget, forget_round, node.snapshots
            )
        node.snapshots = {}

    def retire(node: _ExecNode) -> None:
        flush_snapshots(node)
        arena.release(node.row)
        active.remove(node)

    def refit_union(node: _ExecNode) -> None:
        """After members left (abort), the node may forget fewer
        clients: re-seed estimators for the newly remaining ones (they
        cannot have participated yet — otherwise the departed member
        would have forked off earlier)."""
        new_union = frozenset().union(*(forget_of[m] for m in node.members))
        if new_union == node.union:
            node.store_forget = forget_of[node.members[0]]
            return
        flush_snapshots(node)  # committed under the old effective keying
        missing = [
            c
            for c in remaining_ids(record, new_union)
            if c not in node.estimators
        ]
        if missing:
            node.estimators.update(
                unlearner._seed_estimators(record, missing, forget_round)
            )
        node.union = new_union
        node.store_forget = forget_of[node.members[0]]

    def node_skip(node: _ExecNode, t: int, missing_checkpoint: bool = False) -> None:
        node.skipped_rounds += 1
        if missing_checkpoint:
            node.missing_checkpoints += 1
        if telemetry.enabled:
            telemetry.inc("recovery_rounds_skipped_total")
            telemetry.set_gauge(
                "recovery_progress", (t - forget_round + 1) / replay_window
            )

    def replay_round(
        t: int, participants_t: List[int], live: List[_ExecNode]
    ) -> bool:
        """Round ``t`` for every live branch: one shared read, per-branch
        Eq. 6/7 estimates, one stacked step.  True when a branch stepped."""
        reading: List[Tuple[_ExecNode, List[int]]] = []
        for node in live:
            participants = [c for c in participants_t if c not in node.union]
            if participants:
                reading.append((node, participants))
            else:
                # Only forgotten clients contributed at t originally; the
                # remaining-clients counterfactual has no update this round.
                node_skip(node, t)
        if not reading:
            return False
        try:
            historical = record.params_at(t)
        except Exception:
            # Damaged record: without w_t neither Eq. 6's displacement
            # nor the refresh pairs exist — skip the round, keep going.
            for node, _ in reading:
                node_skip(node, t, missing_checkpoint=True)
            return False
        # One shared read of the round: usually already decoded in the
        # background; a failed bulk decode falls back to per-client
        # reads, which isolate the broken entries.
        round_updates: Optional[Dict[int, np.ndarray]] = None
        if prefetcher is not None:
            round_updates = prefetcher.fetch(t)
        elif bulk:
            try:
                round_updates = record.gradients.get_round(t)
            except Exception:
                round_updates = None
        entry_memo: Dict[int, Optional[np.ndarray]] = {}

        def stored_of(cid: int) -> Optional[np.ndarray]:
            if round_updates is not None:
                return round_updates.get(cid)
            if cid not in entry_memo:
                try:
                    entry_memo[cid] = record.gradients.get(t, cid)
                except Exception:
                    entry_memo[cid] = None
            return entry_memo[cid]

        ready: List[Tuple[_ExecNode, List[Tuple[int, np.ndarray]]]] = []
        for node, participants in reading:
            present = [(c, stored_of(c)) for c in participants]
            present = [(c, g) for c, g in present if g is not None]
            round_missing = len(participants) - len(present)
            node.missing_entries += round_missing
            if telemetry.enabled and round_missing:
                telemetry.inc("recovery_missing_entries_total", round_missing)
            if present:
                ready.append((node, present))
            else:
                node_skip(node, t)
        if not ready:
            return False

        # Stacked Eq. 6 displacement: one broadcast subtract over every
        # sibling row (element-wise ⇒ bitwise-identical per row).
        rows = [node.row for node, _ in ready]
        disp_block = arena.rows(rows) - historical
        refresh_now = (t - forget_round + 1) % unlearner.refresh_period == 0
        step_grads: List[np.ndarray] = []
        for (node, present), disp_vec in zip(ready, disp_block):
            if executor is None:
                # Reductions keep vector call shapes — see the module
                # docstring for why this is load-bearing.
                estimates: List[np.ndarray] = []
                weights: List[float] = []
                for cid, stored in present:
                    estimate = node.estimators[cid].estimate_displaced(
                        stored, disp_vec
                    )
                    estimates.append(estimate)
                    weights.append(record.weight_of(cid))
                    if refresh_now:
                        # add_pair copies, so sharing disp_vec is safe.
                        node.estimators[cid].seed_pair(disp_vec, estimate - stored)
            else:
                estimates, weights = unlearner._estimate_parallel(
                    executor, present, node.estimators, disp_vec, record,
                    refresh_now,
                )
            if refresh_now:
                # These clients' L-BFGS pairs just changed; the next
                # snapshot must copy them afresh.
                for cid, _ in present:
                    node.pairs_cache.pop(cid, None)
            displacement = float(np.linalg.norm(disp_vec))
            node.displacement_norms.append(displacement)
            step_grads.append(aggregate(estimates, weights))
            node.rounds_replayed += 1
            if telemetry.enabled:
                telemetry.inc("recovery_rounds_total")
                telemetry.set_gauge("recovery_displacement_norm", displacement)
                telemetry.set_gauge(
                    "recovery_progress", (t - forget_round + 1) / replay_window
                )
        # Fused Eq. 2: one stacked multiply-subtract for every stepping
        # branch (bitwise-identical per row to SGD.step_).
        arena.step_rows(rows, np.stack(step_grads), record.learning_rate)
        stats.executed_node_rounds += len(ready)
        for node, _ in ready:
            shared = len(node.members) - 1
            if shared:
                stats.shared_rounds += shared
                if telemetry.enabled:
                    telemetry.inc("recovery_forest_shared_rounds_total", shared)
        return True

    # -------------------------------------------------------------- replay
    start = min(node.resume for node in active)
    executor: Optional[Executor] = None
    prefetcher: Optional[RoundPrefetcher] = None
    try:
        if unlearner.execution.backend != "serial":
            # Estimation tasks are self-contained (compact L-BFGS state
            # + displacement travel in the task): no worker context.
            executor = make_executor(
                unlearner.execution.backend, unlearner.execution.workers
            )
            if telemetry.enabled:
                telemetry.set_gauge(
                    "recovery_parallel_workers", unlearner.execution.workers
                )
        depth = (
            unlearner.prefetch_depth
            if unlearner.prefetch_depth is not None
            else default_prefetch_depth()
        )
        if depth > 0 and bulk:
            # Pipeline the shared read over exactly the rounds some
            # member reads: a round whose participants every member
            # forgets is skipped before any storage read.
            reads = []
            for t in range(start, num_rounds):
                p_t = frozenset(record.ledger.participants_at(t))
                if any(resumes[m] <= t and not p_t <= forget_of[m] for m in idxs):
                    reads.append(t)
            if reads:
                # Cancellation is per member, so only a lone member's
                # check may stop the look-ahead.
                prefetcher = RoundPrefetcher(
                    record.gradients,
                    reads,
                    depth=depth,
                    cache=unlearner.decode_cache,
                    cancel_check=checks[idxs[0]] if len(idxs) == 1 else None,
                    executor=unlearner.prefetch_executor,
                )
        for t in range(start, num_rounds):
            live = [n for n in active if n.resume <= t]
            # Per-member cooperative cancellation, between rounds only,
            # so an abort always lands on committed state.
            for node in list(live):
                for m in list(node.members):
                    check = checks[m]
                    if check is None:
                        continue
                    try:
                        check()
                    except BaseException as exc:
                        outcomes[m] = BranchOutcome(
                            result=None,
                            error=exc,
                            cached_prefix_rounds=cached[m],
                        )
                        node.members.remove(m)
                        stats.aborted += 1
                if not node.members:
                    retire(node)
                    live.remove(node)
                else:
                    refit_union(node)
            if not live:
                continue

            # Committed start-of-round state — one snapshot per node, shared
            # by every member.
            if forest is not None:
                for node in live:
                    node.snapshots[t] = _node_snapshot(node)

            # Fork at divergence: members whose forget sets intersect this
            # round's participants differently stop sharing here.
            participants_t = record.ledger.participants_at(t)
            p_set = set(participants_t)
            for node in list(live):
                parts: Dict[FrozenSet[int], List[int]] = {}
                for m in node.members:
                    parts.setdefault(forget_of[m] & p_set, []).append(m)
                if len(parts) == 1:
                    continue
                stats.forks += len(parts) - 1
                if telemetry.enabled:
                    telemetry.inc("recovery_forest_forks_total", len(parts) - 1)
                    telemetry.observe("recovery_forest_fork_depth", t - forget_round)
                flush_snapshots(node)
                part_list = sorted(parts.values(), key=min)
                children: List[Tuple[_ExecNode, List[int]]] = [(node, part_list[0])]
                for member_part in part_list[1:]:
                    clone = _ExecNode()
                    clone.row = arena.acquire(node.recovered)
                    clone.recovered = arena.row(clone.row)
                    clone.estimators = _copy_estimators(unlearner, node.estimators)
                    clone.rounds_replayed = node.rounds_replayed
                    clone.skipped_rounds = node.skipped_rounds
                    clone.missing_entries = node.missing_entries
                    clone.missing_checkpoints = node.missing_checkpoints
                    clone.displacement_norms = list(node.displacement_norms)
                    clone.pairs_cache = dict(node.pairs_cache)
                    clone.resume = node.resume
                    children.append((clone, member_part))
                for child, member_part in children:
                    child.members = list(member_part)
                    child.union = frozenset().union(
                        *(forget_of[m] for m in member_part)
                    )
                    child.store_forget = forget_of[member_part[0]]
                    # Clients only the *other* parts forget become remaining
                    # here; by the fork invariant they have not participated
                    # yet, so seeding reproduces their cold state.
                    missing = [
                        c
                        for c in remaining_ids(record, child.union)
                        if c not in child.estimators
                    ]
                    if missing:
                        child.estimators.update(
                            unlearner._seed_estimators(record, missing, forget_round)
                        )
                    if child is not node:
                        active.append(child)
                        live.append(child)
            # Post-fork width: children forked this round replay it too.
            stats.peak_branches = max(stats.peak_branches, len(live))

            with telemetry.span("recovery_round_seconds"):
                stepped = replay_round(t, participants_t, live)
            if single:
                # One request ⇒ one node, never forked.
                (node,) = live
                if (
                    fingerprint is not None
                    and (t - forget_round + 1) % unlearner.checkpoint_every == 0
                ):
                    unlearner._save_checkpoint(
                        fingerprint,
                        next_round=t + 1,
                        recovered=node.recovered,
                        estimators=node.estimators,
                        progress=node.progress(resumed_from),
                    )
                if stepped and unlearner.round_callback is not None:
                    unlearner.round_callback(t, node.recovered.copy())
    except BaseException:
        # Abort (substrate fault, callback): every snapshot collected so
        # far is committed start-of-round state, so salvaging it can never
        # expose a half-replayed round — the retry resumes the prefix and
        # recovers parameters byte-identical to a cold replay.
        for node in active:
            flush_snapshots(node)
        raise
    finally:
        if prefetcher is not None:
            # Cancels in-flight decodes and releases every cache pin
            # even on abort paths.
            prefetcher.close()
        if executor is not None:
            executor.close()

    # ------------------------------------------------------------ finalize
    for node in list(active):
        if forest is not None:
            # Final committed state: a repeated identical request — or a
            # superset whose extra clients never participated — replays
            # zero rounds.
            node.snapshots[num_rounds] = _node_snapshot(node)
        base_accepted = sum(e.pairs_accepted for e in node.estimators.values())
        base_rejected = sum(e.pairs_rejected for e in node.estimators.values())
        norms = node.displacement_norms
        for m in node.members:
            # Clients forgotten by siblings but remaining for this
            # member never participated (fork invariant), so their cold
            # estimators are exactly the seeded ones — count their pair
            # stats for parity with a standalone replay.
            extra = sorted(node.union - forget_of[m])
            accepted, rejected = base_accepted, base_rejected
            if extra:
                seeded = unlearner._seed_estimators(record, extra, forget_round)
                accepted += sum(e.pairs_accepted for e in seeded.values())
                rejected += sum(e.pairs_rejected for e in seeded.values())
            outcomes[m] = BranchOutcome(
                result=UnlearnResult(
                    params=node.recovered.copy(),
                    method=unlearner.name,
                    rounds_replayed=node.rounds_replayed,
                    client_gradient_calls=0,
                    stats={
                        "forget_round": forget_round,
                        "skipped_rounds": node.skipped_rounds,
                        "missing_entries": node.missing_entries,
                        "missing_checkpoints": node.missing_checkpoints,
                        "resumed_from": resumed_from,
                        "pairs_accepted": accepted,
                        "pairs_rejected": rejected,
                        "mean_displacement": (
                            float(np.mean(norms)) if norms else 0.0
                        ),
                        "max_displacement": float(np.max(norms)) if norms else 0.0,
                    },
                ),
                error=None,
                cached_prefix_rounds=cached[m],
            )
        retire(node)
        if fingerprint is not None and os.path.exists(unlearner._checkpoint_path()):
            os.remove(unlearner._checkpoint_path())
    _log.info(
        "replay over %d requests from round %d: %d node-rounds executed for "
        "%d member-rounds (%d shared, %d forks, peak width %d)",
        len(idxs),
        forget_round,
        stats.executed_node_rounds,
        stats.member_rounds,
        stats.shared_rounds,
        stats.forks,
        stats.peak_branches,
    )
