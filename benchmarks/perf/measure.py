"""One workload, measured in this process (the child of ``run.py``).

Protocol, after Karimov et al. (fixed workload, fixed window, driver
outside the system under test):

1. cold pass — import, build, submit, wait until RUNNING: ``setup_s`` is
   the (calibrated) CPU this process has used by then; a 0.05 sim-s
   window then warms caches and the topology is killed;
2. timed repeats — each a fresh cluster with the same seed, timing only
   the run phase, until about ``--seconds`` of run phase have been
   measured (at least two, so determinism can be checked); each repeat's
   CPU time is calibrated against the box's speed at that moment
   (``Calibrator``) and the median repeat is reported;
3. with ``--trace 1`` — one untraced repeat (the overhead baseline) and
   one repeat under the stack sampler, which yields the per-layer
   numbers.

Prints one JSON document on the last line of stdout; ``run.py`` turns
it into the report. Numbers are *host* (CPU/wall/RSS of this process;
noisy) or *sim* (what the modelled cluster did; exact for a seed).
"""

from __future__ import annotations

# lint: allow-file[D001] — measurement harness: reads host clocks by
# design; nothing in this file runs inside the simulated world.

import argparse
import gc
import hashlib
import heapq
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

from layers import Spans, StackSampler

#: Fewest timed repeats: two digests are needed to show determinism.
MIN_REPEATS = 2
MAX_REPEATS = 12
CACHE_WARM_SIM_S = 0.05


def views(scenario) -> dict:
    """Cumulative counters from the engines' public stats views.

    The Storm handle has no Stream Manager, checkpoint or autoscaler
    views; those read as empty and difference to zero.
    """
    cluster, handle = scenario.cluster, scenario.handle

    def view(name: str) -> dict:
        reader = getattr(handle, name, None)
        return dict(reader()) if reader else {}

    network = getattr(cluster, "base_network", cluster.network)
    return {
        "totals": handle.totals(),
        "sm": view("sm_totals"),
        "ledger": dict(cluster.ledger.by_category),
        "events": cluster.sim.events_processed,
        "tiers": network.tier_counts(),
        "checkpoint": view("checkpoint_stats"),
        "chaos": cluster.chaos_stats(),
        "failure": view("failure_stats"),
        "autoscale": view("autoscaler_stats"),
        "pool": view("pool_stats"),
    }


def sim_digest(after: dict, counts: Optional[dict]) -> str:
    """sha256 over the exact simulated results of one repeat."""
    canonical = json.dumps(
        {"totals": after["totals"], "sm_totals": after["sm"],
         "ledger": after["ledger"], "events": after["events"],
         "counts": counts}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_counters(before: dict, after: dict, outcome: dict) -> Dict[str, float]:
    """Exact per-layer counters, differenced over the run phase."""

    def delta(group: str, key: str) -> float:
        return float(after[group].get(key, 0) - before[group].get(key, 0))

    events = float(after["events"] - before["events"])
    executed = delta("totals", "executed")
    inter_machine = sum(delta("tiers", tier) for tier in
                        ("cross_machine", "same_rack", "cross_rack"))
    spent = {cat: delta("ledger", cat) for cat in
             ("fetch", "user", "engine", "write")}
    triggered = delta("checkpoint", "triggered")
    latency = outcome["latency"]
    counters = {
        "simulation.events.events": events,
        "simulation.events.events_per_tuple": _ratio(events, executed),
        "simulation.network.messages":
            sum(delta("tiers", tier) for tier in after["tiers"]),
        "simulation.network.cross_rack_share":
            _ratio(delta("tiers", "cross_rack"), inter_machine),
        "core.stream_manager.tuples_per_batch":
            _ratio(delta("sm", "tuples_routed"), delta("sm", "batches_in")),
        "core.instance.emitted": delta("totals", "emitted"),
        "core.instance.executed": executed,
        "core.acking.acked": delta("totals", "acked"),
        "core.acking.failed": delta("totals", "failed"),
        "metrics.stats.latency_weight": latency.count if latency else 0.0,
        "metrics.stats.latency_p50_ms":
            1e3 * latency.percentile(0.50) if latency else 0.0,
        "metrics.stats.latency_p99_ms":
            1e3 * latency.percentile(0.99) if latency else 0.0,
        "sim_latency_mean_ms": outcome.get("sim_latency_mean_ms", 0.0),
        "checkpoint.commit_ratio":
            _ratio(delta("checkpoint", "committed"), triggered),
        "checkpoint.recovery_sim_s": outcome.get("recovery_sim_s", 0.0),
        "core.topology_master.tm_failovers": delta("failure", "tm_failovers"),
        "core.topology_master.master_epoch":
            float(after["failure"].get("master_epoch", 0)),
        "serialization.pool_hit_ratio":
            _ratio(delta("pool", "hits"), delta("pool", "acquires")),
    }
    for cat, cost in spent.items():
        counters[f"simulation.costs.{cat}_share"] = \
            _ratio(cost, sum(spent.values()))
    for key in ("tuples_routed", "batches_in", "batches_out", "drains",
                "retransmits", "dropped_batches", "backpressure_starts"):
        counters[f"core.stream_manager.{key}"] = delta("sm", key)
    for key in ("triggered", "committed", "aborted", "restores"):
        counters[f"checkpoint.{key}"] = delta("checkpoint", key)
    for key in ("drops", "partition_drops"):
        counters[f"chaos.{key}"] = delta("chaos", key)
    for key in ("rescales_up", "rescales_down"):
        counters[f"autoscale.{key}"] = delta("autoscale", key)
    return counters


class Calibrator:
    """A fixed, simulator-shaped kernel that measures how fast this box is
    *right now*: a heap of timestamped events over a table of small
    objects, the instruction and memory mix of the event loop.

    This is a shared 2-core VM; neighbours slow it by 10-50 % for seconds
    to minutes. ``one_repeat`` samples the kernel throughout a repeat
    (about every ``EVERY_S`` of CPU) and scales the repeat's CPU time by
    ``NOMINAL_S / mean(samples)``, which cuts the run-to-run range of
    ``run_cpu_s`` about threefold (README, "Noise"). The kernel belongs to
    the benchmark and never changes with ``src/``.
    """

    CELLS = 30_000
    EVENTS = 12_000
    #: The kernel's CPU time on the quiet box the baseline was taken on,
    #: so calibrated seconds read as quiet-box seconds.
    NOMINAL_S = 0.010
    EVERY_S = 0.2

    def __init__(self) -> None:
        self._table = {(i * 7919) % 1_000_003: [i, float(i), 0]
                       for i in range(self.CELLS)}
        self._keys = list(self._table)

    def speed(self, samples: List[float]) -> float:
        """Factor that turns CPU seconds measured while ``samples`` were
        taken into quiet-box seconds."""
        return self.NOMINAL_S / statistics.mean(samples)

    def sample(self) -> float:
        """CPU seconds of one kernel pass, after an untimed pass that pulls
        the kernel's own working set back into cache — so the sample says
        how fast the box is, not what the simulator left in the cache."""
        self._pass()
        start = time.process_time()
        self._pass()
        return time.process_time() - start

    def _pass(self) -> None:
        table, keys, cells = self._table, self._keys, self.CELLS
        heap: list = []
        push, pop = heapq.heappush, heapq.heappop
        now = 0.0
        for i in range(self.EVENTS):
            cell = table[keys[(i * 104_729) % cells]]
            cell[2] += 1
            now += 0.001
            push(heap, (now + cell[1] % 3.0, i, cell))
            if i % 2:
                pop(heap)


def one_repeat(workload, seed: int, run_id: str,
               calibrator: Optional[Calibrator] = None,
               sampler: Optional[StackSampler] = None) -> dict:
    """Fresh cluster, same seed; time the run phase only.

    ``run_cpu_raw_s`` is the CPU of the run phase's steps;
    ``run_cpu_s`` is that, calibrated (equal to it without a calibrator).
    """
    gc.collect()  # every repeat starts from the same heap state
    scenario = workload(seed)
    spans = Spans(run_id)
    with spans.span("setup"):
        scenario.setup()
    before = views(scenario)
    raw = since_sample = 0.0
    samples = [calibrator.sample()] if calibrator else []
    wall = time.perf_counter()
    with spans.span("run"), (sampler.sampling() if sampler else nullcontext()):
        mark = time.process_time()
        for _ in scenario.run(spans.span):
            step = time.process_time() - mark
            raw += step
            since_sample += step
            if calibrator and since_sample >= calibrator.EVERY_S:
                samples.append(calibrator.sample())
                since_sample = 0.0
            mark = time.process_time()
    run_wall_s = time.perf_counter() - wall
    if calibrator:
        samples.append(calibrator.sample())
    speed = calibrator.speed(samples) if calibrator else 1.0
    after = views(scenario)
    outcome = scenario.outcome()
    scenario.handle.kill()
    failed_checks = [check for check in outcome["checks"] if not check[1]]
    return {
        "run_cpu_s": raw * speed,
        "run_cpu_raw_s": raw,
        "run_wall_s": run_wall_s,
        "setup_warm_s": spans.cpu("setup"),
        "executed": after["totals"]["executed"] - before["totals"]["executed"],
        "sim_throughput_tps": outcome["sim_throughput_tps"],
        "sim_latency_mean_ms": outcome.get("sim_latency_mean_ms"),
        "attempted": outcome["attempted"],
        "failed": (outcome["spout_failed"] + outcome["count_deviation"]
                   + len(failed_checks)),
        "checks": [list(check) for check in outcome["checks"]],
        "digest": sim_digest(after, outcome["counts"]),
        "counters": layer_counters(before, after, outcome),
        "spans": spans.records,
    }


def _summary(values: List[float]) -> dict:
    return {"value": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def cold_pass(workload, seed: int):
    """Build and start the topology in this (fresh) process.

    Returns the scenario, a calibrator and ``setup_s``: the CPU this
    process has used up to RUNNING — ``process_time()`` counts from process
    start, so it holds the interpreter start and the imports — calibrated
    by three samples taken right after.
    """
    scenario = workload(seed)
    scenario.setup()
    raw = time.process_time()
    calibrator = Calibrator()
    speed = calibrator.speed([calibrator.sample() for _ in range(3)])
    return scenario, calibrator, raw * speed


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    scenario, calibrator, setup_s = cold_pass(workload, seed)
    kernel = scenario.cluster.sim.kernel
    scenario.cluster.run_for(CACHE_WARM_SIM_S)
    scenario.handle.kill()
    del scenario

    # Timed repeats, until the measured run phase is as close to
    # ``seconds`` as whole repeats get. In a traced run one is enough: it
    # is only the baseline of trace_overhead_ratio, and like the traced
    # repeat it runs uncalibrated (calibration ticks would be charged to
    # no layer), so the per-layer numbers are raw CPU seconds.
    if trace:
        calibrator = None
    timed: List[dict] = []
    spent = 0.0
    while len(timed) < (1 if trace else MIN_REPEATS) or (
            not trace and len(timed) < MAX_REPEATS
            and spent + 0.5 * spent / len(timed) < seconds):
        timed.append(one_repeat(workload, seed,
                                f"{workload.name}/r{len(timed)}", calibrator))
        spent += timed[-1]["run_wall_s"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    repeats = list(timed)
    per_layer: Dict[str, float] = {}
    files: Dict[str, int] = {}
    if trace:
        sampler = StackSampler()
        traced = one_repeat(workload, seed, f"{workload.name}/traced",
                            sampler=sampler)
        repeats.append(traced)
        # The kernel delivers ITIMER_PROF no faster than its own tick (4 ms
        # at HZ=250), so a tick is worth run_cpu_s / samples, not interval.
        tick_s = traced["run_cpu_raw_s"] / max(sampler.samples, 1)
        for layer, ticks in sampler.by_layer().items():
            per_layer[f"{layer}.self_cpu_s"] = ticks * tick_s
        per_layer.update(traced["counters"])
        per_layer.update({
            "trace_overhead_ratio": traced["run_cpu_raw_s"]
            / statistics.median(r["run_cpu_raw_s"] for r in timed),
            "sampler_samples": float(sampler.samples),
            "run_wall_s": traced["run_wall_s"],
            "setup_warm_s": traced["setup_warm_s"],
        })
        files = dict(sorted(sampler.by_file.items(),
                            key=lambda item: -item[1])[:25])

    last = repeats[-1]
    digests = sorted({r["digest"] for r in repeats})
    deterministic = len(digests) == 1
    checks = last["checks"] + [[
        "sim_digest identical across the timed repeats"
        + (" and the traced repeat" if trace else ""), deterministic,
        f"{len(repeats)} repeats, {len(digests)} distinct digest(s)"]]
    failed = last["failed"] + (not deterministic)
    return {
        "workload": workload.name, "seed": seed, "kernel": kernel,
        "trace": int(trace), "setup_s": setup_s,
        "end_to_end": {
            "run_cpu_s": _summary([r["run_cpu_s"] for r in timed]),
            "tuples_per_cpu_s": _summary([r["executed"] / r["run_cpu_s"]
                                          for r in timed]),
            "peak_rss_mb": {"value": peak_rss_mb, "n": 1},
            "sim_throughput_tps": {"value": last["sim_throughput_tps"],
                                   "n": 1},
        },
        "run_cpu_raw_s": _summary([r["run_cpu_raw_s"] for r in timed]),
        "per_layer": per_layer,
        "sim_latency_mean_ms": last["sim_latency_mean_ms"],
        "attempted": last["attempted"],
        "failed": failed,
        "checks": checks,
        "sim_digest": digests[0] if deterministic else None,
        "repeats": [{key: r[key] for key in
                     ("run_cpu_s", "run_cpu_raw_s", "run_wall_s",
                      "setup_warm_s", "digest")} for r in repeats],
        "sampled_files": files,
        "spans": [span for r in repeats for span in r["spans"]],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="cold pass only: print setup_s and exit")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        print(json.dumps({"setup_s": cold_pass(workload, args.seed)[2]}))
        return 0
    print(json.dumps(measure(workload, args.seed, args.seconds,
                             bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
