"""The seven benchmark workloads.

Each workload is one end-to-end scenario of the paper's evaluation (or
of the subsystems grown on top of it), built with the same topology and
cluster builders the figure modules use. Load comes from the workload's
own simulated spouts; the engine receives only the built ``Topology``.
``seed`` feeds the cluster (placement RNG, chaos RNG) and nothing else.

A scenario is driven in three steps by ``measure.py``:

* ``setup()``  — build topology + cluster, submit, wait until RUNNING;
* ``run(span)`` — the timed run phase: simulate the warm-up + measure
  window (or the whole bounded stream) and read the results through the
  same public views a figure point reads, each phase in ``span(name)``.
  It is a generator that yields every tenth of a window (or poll step
  of a bounded stream), so the harness can sample the box's speed
  between steps (``measure.Calibrator``);
* ``outcome()`` — simulated results and workload-specific checks,
  computed from what ``run`` read.

The reads belong to the run phase because every figure pays them: on
acked workloads ``latency_stats()`` merges every spout's reservoir, and
that merge is most of what ``metrics.stats`` costs today.
"""

from __future__ import annotations

import copy
from collections import Counter
from typing import Callable, ContextManager, Dict, Iterator, List, Tuple

from repro.api.component import ComponentContext
from repro.api.config_keys import TopologyConfigKeys as Keys
from repro.baselines.storm.cluster import StormCluster
from repro.baselines.storm.config_keys import StormConfigKeys as StormKeys
from repro.chaos import FaultPlan, MasterFault, Partition
from repro.common.config import Config
from repro.common.resources import Resource
from repro.common.units import GB
from repro.core.heron import HeronCluster
from repro.experiments import chaos_faults, elastic, fig14_resource_breakdown
from repro.experiments.harness import (DUAL_XEON_MACHINE, HDINSIGHT_MACHINE,
                                       PERF_CORPUS, heron_perf_config,
                                       machines_for)
from repro.workloads.elastic import elastic_wordcount_topology
from repro.workloads.kafka_redis import kafka_redis_topology
from repro.workloads.stateful_wordcount import stateful_wordcount_topology
from repro.workloads.wordcount import wordcount_topology

Span = Callable[[str], ContextManager[None]]
Check = Tuple[str, bool, str]

#: Steps a simulated window is advanced in (see ``Scenario.run``).
STEPS = 10


class Scenario:
    """One workload instance: a topology running on a fresh cluster."""

    name = ""
    why = ""
    #: Acked workloads report acked-tuple throughput and ack latency.
    acked = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cluster = None
        self.handle = None
        self.topology = None

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, span: Span) -> Iterator[None]:
        raise NotImplementedError

    def _advance(self, seconds: float) -> Iterator[None]:
        """``cluster.run_for(seconds)`` in ``STEPS`` steps; the last target
        is the one ``run_for`` computes, so results are identical."""
        sim = self.cluster.sim
        start = sim.now
        for step in range(1, STEPS):
            sim.run_until(start + seconds * step / STEPS)
            yield
        sim.run_until(start + seconds)
        yield

    def outcome(self) -> dict:
        """``sim_throughput_tps``, ``attempted``, ``spout_failed``,
        ``count_deviation``, ``counts`` (exact final counts or None),
        ``latency`` (merged ack-latency stats or None), ``checks`` and
        optionally ``sim_latency_mean_ms`` / ``recovery_sim_s``."""
        raise NotImplementedError

    def _spout_totals(self) -> Dict[str, float]:
        totals = {"emitted": 0.0, "acked": 0.0, "failed": 0.0}
        snapshot = self.handle.snapshot()
        for name in self.topology.spouts:
            for key in totals:
                totals[key] += snapshot[name][key]
        return totals


class Windowed(Scenario):
    """Steady-state run: warm up, then difference counters over a window."""

    warmup = 0.0
    measure = 0.0

    def run(self, span: Span) -> Iterator[None]:
        with span("warmup"):
            yield from self._advance(self.warmup)
        with span("collect"):
            self._start = self._read()
        yield
        with span("measure"):
            yield from self._advance(self.measure)
        with span("collect"):
            self._end = self._read()
        yield

    def _read(self) -> dict:
        """What a figure point reads at a window boundary."""
        return {"now": self.cluster.now,
                "totals": self.handle.totals(),
                "spouts": self._spout_totals(),
                "ledger": dict(self.cluster.ledger.by_category),
                "latency": self.handle.latency_stats() if self.acked
                else None}

    def outcome(self) -> dict:
        start, end = self._start, self._end
        window = end["now"] - start["now"]
        counter = "acked" if self.acked else "executed"
        result = {
            "sim_throughput_tps":
                (end["totals"][counter] - start["totals"][counter]) / window,
            "attempted": int(end["spouts"]["emitted"]
                             - start["spouts"]["emitted"]),
            "spout_failed": int(end["spouts"]["failed"]),
            "count_deviation": 0,
            "counts": None,
            "latency": end["latency"],
            "checks": [self._conservation(end["spouts"])],
        }
        if self.acked:
            weight = end["latency"].count - start["latency"].count
            total = end["latency"].total - start["latency"].total
            result["sim_latency_mean_ms"] = \
                1e3 * total / weight if weight > 0 else 0.0
        return result

    @staticmethod
    def _conservation(spouts: Dict[str, float]) -> Check:
        ok = (spouts["acked"] + spouts["failed"] <= spouts["emitted"]
              and spouts["failed"] == 0)
        return ("conservation: acked + failed <= emitted, failed == 0", ok,
                f"emitted {spouts['emitted']:.0f} acked {spouts['acked']:.0f}"
                f" failed {spouts['failed']:.0f}")


# -- WordCount (Figs. 2-3) ---------------------------------------------------

WC_PARALLELISM = 25


class WordCountAcked(Windowed):
    name = "wc_acked"
    why = ("Paper headline (Figs. 2-3): acked WordCount p25, closed loop; "
           "the only workload where the ack path and the latency "
           "reservoir (metrics.stats) carry the time.")
    acked = True
    warmup, measure = 0.2, 0.5

    def setup(self) -> None:
        config = heron_perf_config(acks=self.acked, max_pending=10_000)
        self.cluster = HeronCluster.on_yarn(
            machines=machines_for(WC_PARALLELISM, 4, HDINSIGHT_MACHINE),
            machine_resource=HDINSIGHT_MACHINE, seed=self.seed)
        self.topology = wordcount_topology(
            WC_PARALLELISM, corpus_size=PERF_CORPUS, config=config)
        self.handle = self.cluster.submit_topology(self.topology)
        self.handle.wait_until_running()


class WordCountUnacked(WordCountAcked):
    name = "wc_unacked"
    why = ("Same topology and window with acks off: bypasses core.acking "
           "and metrics.stats, so a reservoir or ack-path change must not "
           "move it while grouping, actor and Stream Manager changes do.")
    acked = False


class StormAcked(Windowed):
    name = "storm_acked"
    why = ("Same acked WordCount on the Storm baseline: bypasses core.*, so "
           "a kernel or actor gain shows here too and a Stream Manager "
           "gain must not.")
    acked = True
    warmup, measure = 0.5, 2.0

    def setup(self) -> None:
        config = heron_perf_config(acks=True, max_pending=10_000)
        config.set(StormKeys.TRANSFER_FLUSH_MS, 10.0)
        self.cluster = StormCluster(
            supervisors=machines_for(WC_PARALLELISM, 4, HDINSIGHT_MACHINE),
            supervisor_resource=HDINSIGHT_MACHINE, seed=self.seed)
        self.topology = wordcount_topology(
            WC_PARALLELISM, corpus_size=PERF_CORPUS, config=config)
        self.handle = self.cluster.submit_topology(self.topology)


# -- Kafka -> filter -> aggregate -> Redis (Fig. 14) ---------------------------

class KafkaRedis(Windowed):
    name = "kafka_redis"
    why = ("Fig. 14 production topology at paper scale, open loop paced by "
           "the broker: four stages, shuffle + fields groupings, timer "
           "driven, no latency recording; its resource pie checks the "
           "model.")
    scale = dict(spouts=24, filters=24, aggregators=24, sinks=12)
    events_per_min = 80e6
    warmup, measure = 1.0, 1.0

    def _machines(self) -> int:
        # Same sizing as fig14_resource_breakdown.measure_shard.
        return max((sum(self.scale.values()) // 4 + 2) * 5 // 4 // 4 + 3, 4)

    def setup(self) -> None:
        config = (Config().set(Keys.SAMPLE_CAP, 24)
                  .set(Keys.BATCH_SIZE, 1000)
                  .set(Keys.INSTANCES_PER_CONTAINER, 4))
        self.topology, self.broker, self.redis = kafka_redis_topology(
            events_per_min=self.events_per_min, config=config, **self.scale)
        self.cluster = HeronCluster.on_yarn(
            machines=self._machines(), machine_resource=DUAL_XEON_MACHINE,
            seed=self.seed)
        self.handle = self.cluster.submit_topology(self.topology)
        self.handle.wait_until_running()

    def outcome(self) -> dict:
        result = super().outcome()
        result["checks"] += self._ledger_checks()
        return result

    def _ledger_checks(self) -> List[Check]:
        """Fig. 14 shares over the measure window, same tolerance as
        ``fig14_resource_breakdown.check_shapes``."""
        fig = fig14_resource_breakdown
        spent = {cat: self._end["ledger"].get(cat, 0.0)
                 - self._start["ledger"].get(cat, 0.0)
                 for cat in fig.CATEGORY_ORDER}
        grand = sum(spent.values())
        checks = []
        for cat in fig.CATEGORY_ORDER:
            target = fig.PAPER_BREAKDOWN[cat]
            share = spent[cat] / grand if grand else 0.0
            checks.append((f"fig14: {cat} share ~= {target:.0%}",
                           abs(share - target) <= max(0.06, target * 0.4),
                           f"measured {share:.1%}"))
        return checks


class BigCluster(KafkaRedis):
    name = "bigcluster_s"
    why = ("Fig. 14 topology x3 (252 instances, 35 machines), a small "
           "experiments.bigcluster: fan-out shrinks batches so host cost "
           "follows events, not tuples; per-message overhead and the "
           "kernel choice show here.")
    scale = dict(spouts=72, filters=72, aggregators=72, sinks=36)
    events_per_min = 120e6
    warmup, measure = 0.1, 0.1

    def _machines(self) -> int:
        # Same sizing as experiments.bigcluster.stress.
        return max(4, sum(self.scale.values()) // 4 // 2 + 4)

    def _ledger_checks(self) -> List[Check]:
        return []  # the pie is calibrated at Fig. 14 scale only


# -- bounded stateful streams ----------------------------------------------------

class Bounded(Scenario):
    """Bounded replayable stream run to a fixed horizon; final word counts
    must equal an engine-independent replay of the spouts exactly."""

    horizon = 0.0
    #: Poll step for drain detection (simulated seconds).
    step = 0.1

    def run(self, span: Span) -> Iterator[None]:
        cluster, handle = self.cluster, self.handle
        self._drained_at = cluster.now
        executed = handle.totals()["executed"]
        with span("measure"):
            while cluster.now < self.horizon:
                cluster.run_for(self.step)
                now_executed = handle.totals()["executed"]
                if now_executed != executed:
                    executed, self._drained_at = now_executed, cluster.now
                yield
        with span("collect"):
            self._counts = self.final_counts()
            self._spouts = self._spout_totals()
        yield

    def final_counts(self) -> Counter:
        counts: Counter = Counter()
        for (component, _task), inst in \
                self.handle._runtime.instances.items():
            if component == "count":
                counts.update(inst.user.counts)
        return counts

    def reference_counts(self) -> Counter:
        """Replay every spout task through its public protocol (``open`` +
        ``next_tuple`` against a recording collector) — no engine."""
        recorder = _Recorder()
        for name, spec in self.topology.spouts.items():
            for task in self.handle.physical_plan.task_ids[name]:
                spout = copy.deepcopy(spec.spout)
                spout.init_state(None)
                spout.open(ComponentContext(self.topology.name, name, task,
                                            spec.parallelism,
                                            self.topology.config), recorder)
                for _ in range(spout.total_tuples):
                    spout.next_tuple(recorder)
        return recorder.counts

    def outcome(self) -> dict:
        counts = self._counts
        reference = _reference_cache(self)
        deviation = sum(abs(counts.get(w, 0) - reference.get(w, 0))
                        for w in set(counts) | set(reference))
        total = sum(reference.values())
        spouts = self._spouts
        return {
            # Spouts are paced on absolute simulated time, so the drain
            # time counts from 0, not from when the topology was RUNNING.
            "sim_throughput_tps": total / self._drained_at,
            "attempted": int(total),
            "spout_failed": int(spouts["failed"]),
            "count_deviation": int(deviation),
            "counts": dict(sorted(counts.items())),
            "latency": None,
            "checks": [
                ("final word counts equal the engine-independent replay",
                 deviation == 0,
                 f"deviation {deviation:g} over {total:,} tuples"),
                ("conservation: spout failed == 0", spouts["failed"] == 0,
                 f"failed {spouts['failed']:.0f}"),
            ] + self._checks(),
        }

    def _checks(self) -> List[Check]:
        return []


class _Recorder:
    """Collector that only counts the first field of what spouts emit."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def emit(self, values, stream="default", anchors=None) -> None:
        self.counts[values[0]] += 1


_REFERENCES: Dict[str, Counter] = {}


def _reference_cache(scenario: Bounded) -> Counter:
    """The replay depends on the topology and task ids only, both fixed
    per workload, so every repeat of a process shares one replay."""
    if scenario.name not in _REFERENCES:
        _REFERENCES[scenario.name] = scenario.reference_counts()
    return _REFERENCES[scenario.name]


class StatefulFaults(Bounded):
    name = "stateful_faults"
    why = ("Control plane and recovery path under compound faults: "
           "checkpoint barriers, a partition, go-back-N retransmits, "
           "rollback/restore and a Topology Master kill, with exact final "
           "counts.")
    horizon = 7.0
    partition_at, partition_secs, master_kill_at = 0.3, 1.0, 2.5

    def setup(self) -> None:
        config = chaos_faults._partition_config(True) \
            .set(Keys.RELIABLE_DELIVERY, True)
        # One container per machine, so the partition isolates one Stream
        # Manager and never the Topology Master. No random link drops: with
        # LinkFaults(drop_rate=0.01) on top of the partition, final counts
        # deviate on about 1 seed in 25 (e.g. 20, 205) — an engine defect
        # recorded in the README, not something a benchmark can run on.
        self.cluster = HeronCluster.on_yarn(
            machines=8,
            machine_resource=Resource(cpu=4, ram=8 * GB, disk=100 * GB),
            seed=self.seed, fault_plan=FaultPlan())
        self.topology = stateful_wordcount_topology(
            4, total_tuples=75_000, rate=15_000.0, config=config)
        self.handle = self.cluster.submit_topology(self.topology)
        self.handle.wait_until_running()
        runtime = self.handle._runtime
        tm_machine = runtime.tmaster.location.machine_id
        victim = next(sm.location.machine_id for sm in runtime.sms.values()
                      if sm.location.machine_id != tm_machine)
        now = self.cluster.now
        self._fault_at = now + self.partition_at
        self.cluster.chaos.add_partition(Partition(
            start=self._fault_at, duration=self.partition_secs,
            machines=frozenset({victim})))
        self.handle.inject_master_fault(MasterFault(
            at=now + self.master_kill_at, kind="kill-process"))

    def outcome(self) -> dict:
        result = super().outcome()
        restored_at = self.handle.checkpoint_stats()["last_restore_at"]
        result["recovery_sim_s"] = \
            restored_at - self._fault_at if restored_at >= 0 else 0.0
        return result

    def _checks(self) -> List[Check]:
        failures = self.handle.failure_stats()
        restores = self.handle.checkpoint_stats()["restores"]
        return [
            ("the partition forced a rollback", restores >= 1,
             f"restores {restores:g}"),
            ("the master kill was survived under a higher epoch",
             failures["tm_failovers"] >= 1 and failures["master_epoch"] >= 2,
             f"failovers {failures['tm_failovers']:g} "
             f"epoch {failures['master_epoch']:g}"),
        ]


class ElasticSweep(Bounded):
    name = "elastic_sweep"
    why = ("Autoscaled diurnal sweep (experiments.elastic, fast schedule): "
           "the only user of autoscale, checkpoint.repartition and "
           "packing.repack, routed by KeyGroupGrouping instead of fields "
           "hashing.")
    horizon = elastic.FAST_DRAIN_AT + elastic.SETTLE_SECS
    step = 0.25  # the figure's own sampling step

    def setup(self) -> None:
        total = elastic._schedule_total(elastic.FAST_SCHEDULE,
                                        elastic.FAST_DRAIN_AT)
        self.topology = elastic_wordcount_topology(
            elastic.SPOUTS, elastic.INITIAL_COUNTS,
            schedule=elastic.FAST_SCHEDULE, total_tuples=total,
            count_cost_per_tuple=elastic.COUNT_COST,
            config=elastic._config(True))
        self.cluster = HeronCluster.on_yarn(machines=8, seed=self.seed)
        self.handle = self.cluster.submit_topology(self.topology)
        self.handle.wait_until_running()

    def _checks(self) -> List[Check]:
        stats = self.handle.autoscaler_stats()
        return [("the autoscaler scaled up and back down",
                 stats["rescales_up"] >= 1 and stats["rescales_down"] >= 1,
                 f"up {stats['rescales_up']:g} down "
                 f"{stats['rescales_down']:g}")]


WORKLOADS: Dict[str, type] = {cls.name: cls for cls in (
    WordCountAcked, WordCountUnacked, StormAcked, KafkaRedis, BigCluster,
    StatefulFaults, ElasticSweep)}

