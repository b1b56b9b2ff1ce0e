"""Layer table, stack sampler and phase spans for the perf harness.

A *layer* is a module (or package) of ``src/repro``; the table below is
the only place that says which file belongs to which layer. The sampler
charges each ``ITIMER_PROF`` tick to the innermost Python frame whose
file lies under ``src/repro``, so time spent in C built-ins (``sorted``,
``min``, ``heapq``) lands on the repro function that called them.
Sampling is used instead of ``cProfile`` because per-call
instrumentation costs ~3.5x on this code and inflates call-heavy layers.
"""

from __future__ import annotations

# lint: allow-file[D001] — measurement harness: reads host clocks by
# design; nothing in this file runs inside the simulated world.

import signal
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: Path prefix (relative to ``src/repro``) -> layer, first match wins, so
#: single files come before the package that holds them. Every package
#: under ``src/repro`` must appear (test_perf_harness checks it); a
#: package-level ``other`` says "not a layer any workload should spend
#: time in".
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("simulation/events.py", "simulation.events"),
    ("simulation/calqueue.py", "simulation.calqueue"),
    ("simulation/actors.py", "simulation.actors"),
    ("simulation/network.py", "simulation.network"),
    ("simulation/costs.py", "simulation.costs"),
    ("simulation/cluster.py", "simulation.cluster"),
    ("simulation/", "other"),
    ("core/stream_manager.py", "core.stream_manager"),
    ("core/instance.py", "core.instance"),
    ("core/acking.py", "core.acking"),
    ("core/topology_master.py", "core.topology_master"),
    ("core/metrics_manager.py", "core.metrics_manager"),
    ("core/", "core.heron"),
    ("api/grouping.py", "api.grouping"),
    ("api/tuples.py", "api.tuples"),
    ("api/", "other"),
    ("metrics/", "metrics.stats"),
    ("checkpoint/", "checkpoint"),
    ("statemgr/", "statemgr"),
    ("chaos/", "chaos"),
    ("packing/", "packing"),
    ("scheduler/", "scheduler"),
    ("autoscale/", "autoscale"),
    ("serialization/", "serialization"),
    ("analysis/", "analysis"),
    ("workloads/", "workloads"),
    ("baselines/storm/", "baselines.storm"),
    ("baselines/", "other"),
    ("common/", "common"),
    ("experiments/", "other"),
    ("tuning/", "other"),
)

#: Reported layers, in table order, ``other`` last.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for _prefix, layer in LAYER_PREFIXES if layer != "other")) + ("other",)

_MARKER = "/src/repro/"


def layer_of(filename: str) -> Optional[str]:
    """Layer of a source file, or ``None`` if it is not under src/repro."""
    index = filename.rfind(_MARKER)
    if index < 0:
        return None
    relative = filename[index + len(_MARKER):]
    for prefix, layer in LAYER_PREFIXES:
        if relative.startswith(prefix):
            return layer
    return "other"


class StackSampler:
    """CPU-time stack sampler on ``ITIMER_PROF``.

    ``by_file`` counts ticks per repro source file; ticks whose stack
    holds no repro frame (harness, stdlib) are counted under ``""``.
    """

    def __init__(self, interval: float = 0.001) -> None:
        self.interval = interval
        self.by_file: Dict[str, int] = {}
        self._known: Dict[str, bool] = {}

    def _on_tick(self, _signum, frame) -> None:
        known = self._known
        while frame is not None:
            filename = frame.f_code.co_filename
            inside = known.get(filename)
            if inside is None:
                inside = known[filename] = _MARKER in filename
            if inside:
                break
            frame = frame.f_back
        key = filename if frame is not None else ""
        self.by_file[key] = self.by_file.get(key, 0) + 1

    @contextmanager
    def sampling(self) -> Iterator[None]:
        previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)

    @property
    def samples(self) -> int:
        return sum(self.by_file.values())

    def by_layer(self) -> Dict[str, int]:
        """Ticks per layer, every layer present (0 when never hit)."""
        counts = dict.fromkeys(LAYERS, 0)
        for filename, ticks in self.by_file.items():
            counts[layer_of(filename) or "other"] += ticks
        return counts


class Spans:
    """Phase spans around the harness's own calls into the public API.

    Each span is ``{run, name, parent, start_s, end_s, cpu_s}``; spans of
    one workload repeat share the ``run`` id. Kept in memory, written by
    the caller when the benchmark ends.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.records: List[dict] = []
        self._stack: List[str] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {"run": self.run_id, "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start_s": time.perf_counter()}
        self.records.append(record)
        self._stack.append(name)
        cpu = time.process_time()
        try:
            yield
        finally:
            record["cpu_s"] = time.process_time() - cpu
            record["end_s"] = time.perf_counter()
            self._stack.pop()

    def cpu(self, name: str) -> float:
        """Total CPU seconds of the spans called ``name``."""
        return sum(r["cpu_s"] for r in self.records if r["name"] == name)
