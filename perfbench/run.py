"""Run one benchmark workload against this checkout's ``src/repro``.

Usage::

    python3 perfbench/run.py --workload wide-paper --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Either way the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print every metric by name with its unit, plus ``error_rate``
(= failed / attempted).  The exit code is 0 only when every delivery
matched the oracle, no call raised and, in the traced run, the layers'
self times cover at least ``MIN_COVERAGE`` of the traced time.

One process runs one workload, single-threaded, as one closed-loop
client.  A run is the window -- a fixed, seeded list of operations
sized to last about ``--seconds`` on the reference machine -- cut into
slices, with set-up rounds before, between and after them (each builds
the system from scratch and registers a population; all but the kept
one withdraw it again where the workload tears down); then the oracle.

Every time is elapsed time (``time.perf_counter``), divided by the
run's speed factor (see ``speed.py``): a fixed reference task is timed
between the calls, and times are reported on the scale of a machine on
which it takes ``REFERENCE_SECONDS``.  The unscaled figures and the CPU
time of the window's calls are printed next to them.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import SpeedProbe, speed_factor  # noqa: E402
from tracing import LAYER_TIMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: set-up rounds of an untraced run; ``setup_s`` is their median.  All
#: but two of them sit between slices of the window.
SETUP_ROUNDS = 9
#: where the traced run writes its spans
TRACE_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "events_per_s": "events/s",
    "ops_per_s": "ops/s",
    "publish_p50_ms": "ms",
    "publish_p90_ms": "ms",
    "subscribe_p50_ms": "ms",
    "subscribe_p90_ms": "ms",
    "unsubscribe_p50_ms": "ms",
    "unsubscribe_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    "indexes.updates": "count",
    "indexes.fulfilled_per_event": "count",
    "indexes.distinct_pairs_per_batch": "count",
    "core.candidates_probed": "count",
    "core.matches_found": "count",
    "core.match_yield": "ratio",
    "core.model_bytes": "bytes",
    "sharded.shards_probed": "count",
    "sharded.shards_pruned": "count",
    "sharded.prune_ratio": "ratio",
    "broker.notifications_per_event": "count",
    "broker.matched_event_ratio": "ratio",
    "network.brokers_per_event": "count",
    "network.hops_per_event": "count",
    "routing.covers_calls": "count",
    "routing.prefilter_pruned": "count",
    "routing.suppression_ratio": "ratio",
    "routing.reinstated": "count",
    "runtime.gc_collections": "count",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}
#: share of the traced time the layers' self times must cover
MIN_COVERAGE = 0.9


def load_repro():
    """Import ``repro`` from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: {src / 'repro'} not found; run from a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: repro came from {repro.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return repro


def p50_p90(samples: list[float]) -> tuple[float, float]:
    """Median and 90th percentile of ``samples``."""
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return statistics.median(samples), deciles[8]


def set_up(workload, number: int):
    """One set-up round: build the system, register population ``number``."""
    workload.use_population(number)
    gc.collect()
    start = perf_counter()
    system = workload.make_system()
    workload.populate(system)
    return perf_counter() - start, system


def samples_since(workload, marks: dict[str, int]) -> dict[str, list[float]]:
    return {kind: samples[marks[kind] :] for kind, samples in workload.samples.items()}


def marks_of(workload) -> dict[str, int]:
    return {kind: len(samples) for kind, samples in workload.samples.items()}


def measure(workload, count: int) -> tuple[dict, dict, list, dict]:
    """The untraced run: the window in slices, set-up rounds between.

    Population 0 is the kept round, built for the window and warmed up
    by ``warmup_ops`` untimed operations before it.  The other rounds
    run on a second instance of the workload (same seed): one before the
    kept round, one between each two slices of the window and one after
    it, so they see the same drift of the machine as the window does.

    Every time is scaled by the speed factor of the part of the run it
    was measured in: a window sample by its slice's (the speed reference
    is timed after every ``reference_every``-th op), a set-up round's by
    the run's.  Rates divide the window's work by its scaled busy time;
    latency percentiles are taken over all scaled samples of the window,
    or of the set-up rounds for the kinds the window does not sample
    (the batch workloads' subscribes and unsubscribes); ``setup_s`` is
    the median round.
    Returns the metrics, the sample counts, the ops and the unscaled
    metrics.
    """
    spare = type(workload)(workload.repro, workload.seed)
    setup_times = []
    #: per set-up round: its latency samples by kind
    rounds = []
    probe = SpeedProbe()

    def spare_round(number: int) -> None:
        probe.sample()
        marks = marks_of(spare)
        seconds, system = set_up(spare, number)
        setup_times.append(seconds)
        if spare.tears_down:
            spare.teardown(system)
        rounds.append(samples_since(spare, marks))
        system = None
        gc.collect()
        probe.sample()

    spare_round(1)
    marks = marks_of(workload)
    seconds, system = set_up(workload, 0)
    setup_times.append(seconds)
    rounds.append(samples_since(workload, marks))
    warmup = workload.warmup_ops
    ops = workload.make_ops(warmup + count)
    for op in ops[:warmup]:
        workload.run_op(system, op)
    slices = SETUP_ROUNDS - 2
    cuts = [warmup + round(count * number / slices) for number in range(slices + 1)]
    every = workload.reference_every
    gc.collect()
    workload.busy = workload.cpu_busy = 0.0
    #: per slice of the window: latency samples, busy seconds, events,
    #: ops and the reference timings (then: the speed factor) of the slice
    parts = []
    for number in range(slices):
        if number:
            spare_round(number + 1)
        marks = marks_of(workload)
        busy, events, references = workload.busy, workload.events_published, len(probe.samples)
        for position in range(cuts[number], cuts[number + 1]):
            workload.run_op(system, ops[position])
            if position % every == 0:
                probe.sample()
        parts.append(
            (
                samples_since(workload, marks),
                workload.busy - busy,
                workload.events_published - events,
                cuts[number + 1] - cuts[number],
                probe.samples[references:],
            )
        )
    window_busy = workload.busy
    cpu_share = workload.cpu_busy / window_busy
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    live = workload.live(system)
    system = None
    spare_round(SETUP_ROUNDS - 1)
    workload.attempted += spare.attempted
    workload.failed += spare.failed
    run_factor = speed_factor(probe.samples)
    # a slice too short to hold a reference timing takes the run's factor
    parts = [
        (*part[:4], speed_factor(part[4]) if part[4] else run_factor) for part in parts
    ]

    def summarize(scaled: bool) -> dict[str, float]:
        def factor(part_factor: float) -> float:
            return part_factor if scaled else 1.0

        metrics = {"setup_s": statistics.median(setup_times) / factor(run_factor)}
        for kind in ("publish", "subscribe", "unsubscribe"):
            pooled = [x / factor(f) for samples, _, _, _, f in parts for x in samples[kind]]
            if not pooled:
                pooled = [x / factor(run_factor) for samples in rounds for x in samples[kind]]
            if len(pooled) < 2:
                raise SystemExit(f"perfbench: too few {kind} samples")
            p50, p90 = p50_p90(pooled)
            metrics[f"{kind}_p50_ms"] = p50 * 1e3
            metrics[f"{kind}_p90_ms"] = p90 * 1e3
        metrics["events_per_s"] = sum(events for _, _, events, _, _ in parts) / sum(
            sum(samples["publish"]) / factor(f) for samples, _, _, _, f in parts
        )
        metrics["ops_per_s"] = count / sum(busy / factor(f) for _, busy, _, _, f in parts)
        metrics["peak_rss_mb"] = peak_rss_mb
        return metrics

    counts = {
        kind: sum(len(samples[kind]) for samples, *_ in parts)
        + sum(len(samples[kind]) for samples in rounds)
        for kind in workload.samples
    }
    counts["warmup_ops"] = warmup
    counts["setup_rounds"] = SETUP_ROUNDS
    counts["live"] = live
    counts["window_cpu_share"] = round(cpu_share, 3)
    counts["reference_samples"] = len(probe.samples)
    counts["speed_factor"] = round(run_factor, 4)
    counts["slice_speed_factors"] = ",".join(f"{part[-1]:.3f}" for part in parts)
    return summarize(True), counts, ops, summarize(False)


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def is_network(system) -> bool:
    return hasattr(system, "routing_table")


def brokers_of(system) -> list:
    return system.brokers() if is_network(system) else [system]


def public_stats(system) -> dict[str, float]:
    """The program's own counters, summed over brokers and engines."""
    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0) + value

    for broker in brokers_of(system):
        for key, value in broker.engine.counters.snapshot().items():
            add(f"core.{key}", value)
        add("broker.events_published", broker.stats.events_published)
        add("broker.events_matched", broker.stats.events_matched)
        add("broker.notifications", broker.stats.notifications_delivered)
    if is_network(system):
        stats = system.stats
        add("network.events_published", stats.events_published)
        add("network.broker_hops", stats.broker_hops)
        add("network.matches_computed", stats.matches_computed)
        add("network.reinstated", stats.reinstated_registrations)
        for broker in system.brokers():
            table = system.routing_table(broker.name)
            for neighbor in system.neighbors(broker.name):
                index = table.index_for(neighbor)
                if index is not None:
                    prefilter = index.prefilter_stats()
                    add("routing.covers_calls", prefilter["covers_calls"])
                    pruned = prefilter["signature_pruned"] + prefilter["interval_pruned"]
                    add("routing.prefilter_pruned", pruned)
    return totals


def accumulate(totals: dict, before: dict, after: dict) -> None:
    for key, value in after.items():
        totals[key] = totals.get(key, 0) + value - before.get(key, 0)


def phase1_shape(tracer: Tracer) -> tuple[float, float]:
    """Fulfilled predicates per event and distinct (attribute, value)
    pairs per phase-1 call, from the recorded phase-1 arguments/results."""
    events = fulfilled = pairs = 0
    calls = len(tracer.phase1_calls)
    for argument, result in tracer.phase1_calls:
        batch = [argument] if hasattr(argument, "items") else argument
        events += len(batch)
        pairs += len({(a, type(v), v) for event in batch for a, v in event.items()})
        if hasattr(result, "active_bits"):
            columns = result.columns
            fulfilled += sum(columns[bit].bit_count() for bit in result.active_bits)
        elif isinstance(result, set):
            fulfilled += len(result)
        else:
            fulfilled += sum(len(ids) for ids in result)
    return (fulfilled / events if events else 0.0, pairs / calls if calls else 0.0)


def traced(workload, count: int) -> tuple[dict, dict, list, Tracer]:
    """The traced run: a traced set-up round (with its teardown), an
    untraced kept round, then the window in blocks that alternate
    untraced and traced."""
    tracer = Tracer()
    stats: dict[str, float] = {}
    workload.use_population(1)
    gc.collect()
    system = workload.make_system()
    tracer.target_system(system)
    before = public_stats(system)
    tracer.install()
    start = perf_counter()
    workload.populate(system, tracer.span)
    if workload.tears_down:
        workload.teardown(system)
    traced_total = perf_counter() - start
    tracer.remove()
    accumulate(stats, before, public_stats(system))
    tracer.reset_targets()

    workload.use_population(0)
    system = None
    gc.collect()
    system = workload.make_system()
    workload.populate(system)
    tracer.target_system(system)
    ops = workload.make_ops(count)
    gc.collect()
    block = workload.trace_block
    traced_ops = untraced_ops = 0
    traced_time = untraced_time = 0.0
    for number, first in enumerate(range(0, len(ops), block)):
        chunk = ops[first : first + block]
        if number % 2 == 0:
            start = perf_counter()
            for op in chunk:
                workload.run_op(system, op)
            untraced_time += perf_counter() - start
            untraced_ops += len(chunk)
            continue
        before = public_stats(system)
        tracer.install()
        start = perf_counter()
        for op in chunk:
            workload.run_op(system, op, tracer.span)
        elapsed = perf_counter() - start
        tracer.remove()
        accumulate(stats, before, public_stats(system))
        traced_time += elapsed
        traced_total += elapsed
        traced_ops += len(chunk)

    times = tracer.self_times()
    metrics: dict[str, float] = dict(times)
    fulfilled_per_event, pairs_per_call = phase1_shape(tracer)
    metrics["indexes.updates"] = tracer.count("indexes.update_s")
    metrics["indexes.fulfilled_per_event"] = fulfilled_per_event
    metrics["indexes.distinct_pairs_per_batch"] = pairs_per_call
    candidates = stats.get("core.candidates_probed", 0)
    matches = stats.get("core.matches_found", 0)
    probed = stats.get("core.shards_probed", 0)
    pruned = stats.get("core.shards_pruned", 0)
    metrics["core.candidates_probed"] = candidates
    metrics["core.matches_found"] = matches
    metrics["core.match_yield"] = matches / candidates if candidates else 0.0
    metrics["core.model_bytes"] = sum(b.engine.memory_bytes() for b in brokers_of(system))
    metrics["sharded.shards_probed"] = probed
    metrics["sharded.shards_pruned"] = pruned
    metrics["sharded.prune_ratio"] = pruned / (probed + pruned) if probed + pruned else 0.0
    def ratio(numerator: str, denominator: float) -> float:
        return stats.get(numerator, 0) / denominator if denominator else 0.0

    broker_events = stats.get("broker.events_published", 0)
    network_events = stats.get("network.events_published", 0)
    entering = network_events if is_network(system) else broker_events
    metrics["broker.notifications_per_event"] = ratio("broker.notifications", entering)
    metrics["broker.matched_event_ratio"] = ratio("broker.events_matched", broker_events)
    metrics["network.brokers_per_event"] = ratio("network.matches_computed", network_events)
    metrics["network.hops_per_event"] = ratio("network.broker_hops", network_events)
    metrics["routing.covers_calls"] = stats.get("routing.covers_calls", 0)
    metrics["routing.prefilter_pruned"] = stats.get("routing.prefilter_pruned", 0)
    metrics["routing.suppression_ratio"] = (
        system.suppression_ratio() if is_network(system) else 0.0
    )
    metrics["routing.reinstated"] = stats.get("network.reinstated", 0)
    metrics["runtime.gc_collections"] = tracer.count("runtime.gc_s")
    metrics["trace.overhead"] = (traced_time / traced_ops) / (untraced_time / untraced_ops)
    metrics["trace.coverage"] = sum(times.values()) / traced_total
    counts = {
        "traced_ops": traced_ops,
        "untraced_ops": untraced_ops,
        "spans": len(tracer.spans),
        "live": workload.live(system),
    }
    return metrics, counts, ops, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    repro = load_repro()
    workload = WORKLOADS[args.workload](repro, args.seed)
    count = max(2, round(args.seconds * workload.ops_per_second))

    breakdown = {}
    raw = {}
    if args.trace:
        metrics, counts, ops, tracer = traced(workload, count)
        units = PER_LAYER_UNITS
        breakdown = tracer.breakdown()
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"trace-{args.workload}.tsv")
        if metrics["trace.coverage"] < MIN_COVERAGE:
            print(
                f"perfbench: layer self times cover {metrics['trace.coverage']:.1%} "
                f"of the traced time (< {MIN_COVERAGE:.0%})",
                file=sys.stderr,
            )
            workload.failed += 1
    else:
        metrics, counts, ops, raw = measure(workload, count)
        units = END_TO_END_UNITS

    failed = workload.failed + workload.check(ops)
    attempted = workload.attempted
    correct = failed == 0
    shape = " ".join(f"{key}={value}" for key, value in counts.items())
    print(f"# {args.workload} seed={args.seed} trace={args.trace} ops={len(ops)} {shape}")
    for root, layers in sorted(breakdown.items()):
        total = sum(layers.values())
        shares = ", ".join(
            f"{name} {time / total:.0%}"
            for name, time in sorted(layers.items(), key=lambda item: -item[1])
            if time >= 0.01 * total
        )
        print(f"# under {root} ({total:.3f} s): {shares}")
    for name in units:
        unscaled = ""
        if raw.get(name, metrics[name]) != metrics[name]:
            unscaled = f"   (unscaled {raw[name]:.6g})"
        print(f"{name:34s} {metrics[name]:14.6g} {units[name]}{unscaled}")
    print(f"{'error_rate':34s} {failed / attempted:14.6g} ratio ({failed} of {attempted} ops)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
