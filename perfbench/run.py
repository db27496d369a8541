"""End-to-end RSU benchmark: train, erase, check, report.

    python3 perfbench/run.py --workload burst-dict --seed 1 --seconds 15 --trace 0

Runs one workload (see README.md) for ``--seconds`` of repeated
episodes, checks every episode's output against a sequential cold
reference outside the timed windows, appends a row to the trajectory,
and prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced and traced episodes and reports the
per-layer metrics of the traced ones plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Concurrency comes from the trainer and the daemon's workers, one BLAS
# thread each.  OpenBLAS's own pool (one thread per CPU by default)
# would put several spinning threads per worker on the CPUs and measure
# the scheduler.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

#: A run holds at least this many erasures.
MIN_ERASURES = 100
#: ``setup_s`` is the median of at least this many set-ups.
SETUP_SAMPLES = 8
#: Episodes stop starting after this long, whatever the sample count,
#: so a run that degrades still ends within its time limit.
RUN_CAP_S = 110.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_rounds_per_s": "1/s",
    "round_p50_s": "s",
    "round_p90_s": "s",
    "erase_p50_s": "s",
    "erase_p90_s": "s",
    "erasures_per_s": "1/s",
    "peak_rss_mb": "MB",
    "store_bytes_per_update": "B",
    "final_accuracy": "ratio",
}

#: Span layer -> (calls metric, self-time metric).
LAYER_METRICS = {
    "unlearning.service.erase": ("unlearning.service.erase_calls", "unlearning.service.erase_s"),
    "unlearning.recovery.unlearn": (None, "unlearning.recovery.unlearn_s"),
    "unlearning.forest.fused": (None, "unlearning.forest.fused_s"),
    "unlearning.estimator.estimate": (
        "unlearning.estimator.estimate_calls",
        "unlearning.estimator.estimate_s",
    ),
    "unlearning.lbfgs.hvp": ("unlearning.lbfgs.hvp_calls", "unlearning.lbfgs.hvp_s"),
    "nn.step": ("nn.step_calls", "nn.step_s"),
    "fl.aggregation": ("fl.aggregation.calls", "fl.aggregation.s"),
    "storage.get_round": ("storage.get_round_calls", "storage.get_round_s"),
    "storage.put_round": ("storage.put_round_calls", "storage.put_round_s"),
    "storage.flush": (None, "storage.flush_s"),
    "storage.prefetch.fetch": (None, "storage.prefetch.fetch_s"),
    "fl.client.update": ("fl.client.update_calls", "fl.client.update_s"),
    "fl.server.round": (None, "fl.server.round_s"),
    "fl.live.pin": (None, "fl.live.pin_s"),
    "fl.live.gate_hold": (None, "fl.live.commit_s"),
}

#: Span layer -> metric of its total (inclusive) duration.
INCLUSIVE_METRICS = {
    "fl.live.gate_hold": "fl.live.gate_hold_s",
    "fl.live.gate_wait": "fl.live.gate_wait_s",
    "unlearning.service.lock_wait": "unlearning.service.lock_wait_s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def _reset_peak_rss() -> None:
    """Hand freed memory back to the kernel, then restart its peak-RSS
    count (``VmHWM``) of this process, so the next peak is the next
    episode's own and not the heap earlier episodes left behind."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):
        pass  # not glibc
    try:
        with open("/proc/self/clear_refs", "w") as refs:
            refs.write("5")
    except OSError:
        pass  # no procfs: the peak then spans the run so far


def _peak_rss_mb() -> float:
    """Peak RSS since the last reset, in MB."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _steal_s() -> float:
    """CPU time the hypervisor gave to other guests, all CPUs, so far.

    Printed per episode: on a shared host it explains most of the
    run-to-run spread of the latency metrics.
    """
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def episode_seed(seed: int, index: int) -> int:
    """Inputs of episode ``index``: a federation drawn from the run seed."""
    return seed * 1000 + index


def run_episodes(name, fn, seed, seconds, trace):
    """Repeat episodes until the time is spent and p90 has its samples.

    Each episode draws its own federation from the run seed, so a run
    measures several federations and its medians depend less on one
    draw.  Under ``trace`` episodes come in pairs over the same
    federation, untraced then traced, so the pair's difference is the
    tracing overhead.  Returns the warm-up episode too: its gate is run
    with the others.
    """
    from layertrace import LayerTracer
    from workloads import WARMUP

    tracer = LayerTracer() if trace else None
    warmup = fn(episode_seed(seed, 999), None, layout=WARMUP[name])
    episodes = []
    start = time.perf_counter()
    cpu = 0.0
    while True:
        index = len(episodes)
        traced = bool(trace) and index % 2 == 1
        sub_seed = episode_seed(seed, index // 2 if trace else index)
        if traced:
            tracer.install()
            cpu0 = time.process_time()
        _reset_peak_rss()
        steal0 = _steal_s()
        try:
            episode = fn(sub_seed, tracer if traced else None)
        finally:
            if traced:
                tracer.remove()
                cpu += time.process_time() - cpu0
        episode.notes.update(
            traced=traced,
            seed=sub_seed,
            peak_rss_mb=_peak_rss_mb(),
            steal_s=_steal_s() - steal0,
        )
        episodes.append(episode)
        erasures = sum(e.ledger.attempted for e in episodes)
        elapsed = time.perf_counter() - start
        enough = erasures >= MIN_ERASURES and (not trace or index % 2 == 1)
        if elapsed >= seconds and enough:
            break
        if elapsed >= RUN_CAP_S and (not trace or index % 2 == 1):
            break
    warmup.notes.update(traced=False, seed=episode_seed(seed, 999))
    return warmup, episodes, tracer, cpu


def setup_samples(name, seed, episodes):
    """``setup_s`` samples: each episode's set-up, plus set-ups alone of
    further federations until there are SETUP_SAMPLES."""
    from workloads import setup_sample

    samples = [e.setup_s for e in episodes]
    index = len(episodes)
    while len(samples) < SETUP_SAMPLES:
        samples.append(setup_sample(name, episode_seed(seed, index)))
        index += 1
    return samples


def check(episodes):
    """Correctness gate: run each episode's check against its reference.

    Returns ``(ok, digests)``: ``digests`` maps each episode seed whose
    output matched its reference to the SHA-256 of that output, so a
    later run can check it reproduces them.
    """
    ok = True
    digests = {}
    for e in episodes:
        correct, output, reference = e.gate()
        if correct:
            digests[e.notes["seed"]] = output
        else:
            ok = False
            print(f"episode seed {e.notes['seed']}: output {output} differs from "
                  f"the reference {reference}")
    return ok, digests


def _episode_median(episodes, samples, q):
    """Each episode's ``q``-quantile of ``samples(episode)``, median over
    the episodes: a host stall that slows one episode moves one vote."""
    from loadgen import percentile

    return _median([percentile(samples(e), q) for e in episodes])


def end_to_end(episodes, setups):
    def rounds(e):
        return e.round_latencies

    def erase(e):
        return e.ledger.latencies()

    values = {
        "setup_s": _median(setups),
        "train_rounds_per_s": _median([e.rounds / e.train_s for e in episodes]),
        "round_p50_s": _episode_median(episodes, rounds, 0.5),
        "round_p90_s": _episode_median(episodes, rounds, 0.9),
        "erase_p50_s": _episode_median(episodes, erase, 0.5),
        "erase_p90_s": _episode_median(episodes, erase, 0.9),
        "erasures_per_s": _median(
            [(e.ledger.attempted - e.ledger.failed) / e.erase_s for e in episodes]
        ),
        "peak_rss_mb": _median([e.notes["peak_rss_mb"] for e in episodes]),
        "store_bytes_per_update": sum(e.store_bytes for e in episodes)
        / max(1, sum(e.store_entries for e in episodes)),
        "final_accuracy": statistics.mean(e.accuracy for e in episodes),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(episodes, tracer, cpu_seconds):
    from loadgen import percentile

    traced = [e for e in episodes if e.notes["traced"]]
    plain = [e for e in episodes if not e.notes["traced"]]
    report = tracer.report()
    calls, own, inclusive = report["calls"], report["self"], report["inclusive"]
    values = {}
    for layer, (calls_name, self_name) in LAYER_METRICS.items():
        if calls_name:
            values[calls_name] = (calls.get(layer, 0), "count")
        values[self_name] = (own.get(layer, 0.0), "s")
    for layer, name in INCLUSIVE_METRICS.items():
        values[name] = (inclusive.get(layer, 0.0), "s")

    ledgers = [e.ledger for e in traced]
    waits = [w for ledger in ledgers for w in ledger.queue_waits()]
    outcomes = [o for ledger in ledgers for o in ledger.outcomes()]
    served = sum(ledger.attempted for ledger in ledgers)
    erase_calls = calls.get("unlearning.service.erase", 0)
    cached = sum(o.cached_prefix_rounds for o in outcomes)
    replayed = report["replay_rounds"]
    live = [o for o in outcomes if o.commit_round is not None]
    hits = sum(e.decode_hits for e in traced)
    lookups = hits + sum(e.decode_misses for e in traced)
    wall = report["wall"]
    values.update(
        {
            "serving.queue_wait_p50_s": (percentile(waits, 0.5), "s"),
            "serving.queue_wait_p90_s": (percentile(waits, 0.9), "s"),
            "serving.group_size_mean": (served / erase_calls if erase_calls else 0.0, "count"),
            "unlearning.service.commit_conflicts": (
                sum(o.commit_conflicts for o in outcomes), "count"),
            "unlearning.recovery.rounds_replayed": (replayed, "count"),
            "unlearning.recovery.prefix_reuse_ratio": (
                cached / (cached + replayed) if cached + replayed else 0.0, "ratio"),
            "storage.decode_cache.hit_rate": (hits / lookups if lookups else 0.0, "ratio"),
            "fl.live.tail_rounds_mean": (
                _median([float(o.commit_round - o.snapshot_watermark) for o in live])
                if live else 0.0, "count"),
            "proc.wall_s": (wall, "s"),
            "proc.cpu_util": (cpu_seconds / wall if wall else 0.0, "cores"),
            "proc.unattributed_s": (report["unattributed"], "s"),
            "loadgen.lateness_p90_s": (
                percentile([x for ledger in ledgers for x in ledger.lateness], 0.9), "s"),
            "trace.overhead_frac": (_overhead(plain, traced), "ratio"),
        }
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _overhead(plain, traced) -> float:
    """Traced over untraced wall of the same federations, minus one.

    The first pair is left out when there are others: it also pays the
    process's warm-up, which only its untraced half sees.
    """
    pairs = list(zip(plain, traced))[1:] or list(zip(plain, traced))
    if not pairs:
        return 0.0
    return sum(t.phases_s for _, t in pairs) / sum(p.phases_s for p, _ in pairs) - 1.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import trajectory
    from loadgen import percentile
    import workloads

    fn = workloads.WORKLOADS.get(args.workload)
    if fn is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    warmup, episodes, tracer, cpu = run_episodes(
        args.workload, fn, args.seed, args.seconds, args.trace
    )
    if not args.trace:
        setups = setup_samples(args.workload, args.seed, episodes)
    correct, digests = check([warmup] + episodes)
    source = trajectory.source_digest()
    host = trajectory.host_fingerprint()
    key = trajectory.host_key(host)
    for sub_seed, seen in trajectory.prior_digests(args.workload, source, key).items():
        if sub_seed in digests and digests[sub_seed] != seen:
            print(f"episode seed {sub_seed}: digest differs from an earlier run of this code")
            correct = False

    if args.trace:
        metrics = per_layer(episodes, tracer, cpu)
    else:
        metrics = end_to_end(episodes, setups)
    attempted = sum(e.ledger.attempted for e in episodes)
    failed = sum(e.ledger.failed for e in episodes)

    row = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "episodes": len(episodes),
        "host": host,
        "host_key": key,
        "commit": trajectory.git_commit(),
        "source_sha256": source,
        "digests": {str(k): v for k, v in digests.items()},
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "steal_s": sum(e.notes["steal_s"] for e in episodes),
        "metrics": {k: v["value"] for k, v in metrics.items()},
    }
    trajectory.append(row)
    print(f"host {json.dumps(host, sort_keys=True)}")
    for i, e in enumerate(episodes):
        rounds, erase = e.round_latencies, e.ledger.latencies()
        print(f"episode {i}: seed {e.notes['seed']} traced={e.notes['traced']} "
              f"setup {e.setup_s:.3f}s train {e.rounds} rounds {e.train_s:.3f}s "
              f"erase {e.ledger.attempted} ({e.ledger.failed} failed) {e.erase_s:.3f}s "
              f"round p50/p90 {percentile(rounds, 0.5):.4f}/{percentile(rounds, 0.9):.4f}s "
              f"erase p50/p90 {percentile(erase, 0.5):.4f}/{percentile(erase, 0.9):.4f}s "
              f"peak {e.notes['peak_rss_mb']:.0f}MB steal {e.notes['steal_s']:.2f}s")
    print(f"episodes {len(episodes)} erasures {attempted} failed {failed} correct {correct}")
    if args.trace:
        own = sum(metrics[name]["value"] for _, name in LAYER_METRICS.values())
        print(f"accounting: layer self times {own:.4f} s "
              f"+ unattributed {metrics['proc.unattributed_s']['value']:.4f} s "
              f"= wall {metrics['proc.wall_s']['value']:.4f} s")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
