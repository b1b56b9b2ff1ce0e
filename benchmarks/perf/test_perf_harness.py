"""Self-tests of the perf harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf``; outside the
tier-1 ``testpaths`` on purpose, so tier-1 time is unchanged.
"""

from __future__ import annotations

# lint: allow-file[D001] — the sampler test burns host CPU on purpose.

import importlib.util
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_layer_table_maps_every_source_file():
    package = ROOT / "src" / "repro"
    unmapped = [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if path.parent != package and not any(
            str(path.relative_to(package)).startswith(prefix)
            for prefix, _layer in layers.LAYER_PREFIXES)]
    assert not unmapped, f"add these to layers.LAYER_PREFIXES: {unmapped}"
    assert layers.layer_of(str(package / "metrics" / "stats.py")) \
        == "metrics.stats"
    assert layers.layer_of("/usr/lib/python3/heapq.py") is None


def test_names_are_well_formed_and_match_benchmark_json():
    spec_workloads = [w["name"] for w in SPEC["workloads"]]
    assert spec_workloads == list(workloads.WORKLOADS)
    for item in SPEC["workloads"]:
        assert item["why"] == workloads.WORKLOADS[item["name"]].why
    names = spec_workloads + [m["name"] for m in
                              SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert {f"{layer}.self_cpu_s" for layer in layers.LAYERS} <= per_layer


def _load(path: Path, source: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sampler_charges_the_innermost_repro_frame(tmp_path):
    def burn(seconds):  # a non-repro frame: must land on its repro caller
        end = time.process_time() + seconds
        while time.process_time() < end:
            sum(range(2000))

    package = tmp_path / "src" / "repro"
    stats = _load(package / "metrics" / "stats.py",
                  "def compact(burn):\n    burn(0.4)\n")
    grouping = _load(package / "api" / "grouping.py",
                     "def route(burn, stats):\n"
                     "    stats.compact(burn)\n    burn(0.2)\n")
    sampler = layers.StackSampler()
    with sampler.sampling():
        grouping.route(burn, stats)
    by_layer = sampler.by_layer()
    assert sampler.samples >= 30
    assert by_layer["metrics.stats"] + by_layer["api.grouping"] \
        == sampler.samples
    # 0.4 s vs 0.2 s of CPU: the split is 2:1 within sampling error.
    assert by_layer["metrics.stats"] > 1.3 * by_layer["api.grouping"] > 0


class TinyWordCount(workloads.WordCountAcked):
    name = "tiny"
    # ~0.1 CPU-s: well above the ~1 ms steps process_time() moves in here.
    warmup, measure = 0.5, 5.0

    def setup(self) -> None:
        from repro.core.heron import HeronCluster
        from repro.experiments.harness import heron_perf_config
        from repro.workloads.wordcount import wordcount_topology
        self.cluster = HeronCluster.on_yarn(machines=3, seed=self.seed)
        self.topology = wordcount_topology(
            2, corpus_size=1000,
            config=heron_perf_config(acks=True, max_pending=1000))
        self.handle = self.cluster.submit_topology(self.topology)
        self.handle.wait_until_running()


def test_digest_is_stable_across_in_process_repeats():
    first = measure.one_repeat(TinyWordCount, 7, "tiny/0",
                               calibrator=measure.Calibrator())
    second = measure.one_repeat(TinyWordCount, 7, "tiny/1",
                                sampler=layers.StackSampler())
    assert first["digest"] == second["digest"]
    assert first["run_cpu_s"] != first["run_cpu_raw_s"] > 0
    assert second["run_cpu_s"] == second["run_cpu_raw_s"] > 0
    assert first["failed"] == 0 and first["attempted"] > 0
    assert first["sim_latency_mean_ms"] > 0
    assert first["counters"] == second["counters"]
    spans = {span["name"]: span for span in first["spans"]}
    assert set(spans) == {"setup", "run", "warmup", "measure", "collect"}
    assert spans["measure"]["parent"] == "run"
    assert spans["setup"]["parent"] is None


@pytest.mark.parametrize("a, b, better, bound, spread, expected", [
    ([1.0], [1.2], "lower", 0.05, 0.01, "regressed"),
    ([1.0] * 10, [0.8] * 10, "lower", 0.05, 0.01, "improved"),
    ([1.0] * 10, [0.93] * 10, "lower", 0.25, 0.02, "improved"),
    ([1.0], [0.8], "lower", 0.05, 0.01, "unchanged"),  # one pair: no claim
    ([5.0], [5.1], "higher", 0.0, 0.0, "improved"),  # exact: one is enough
    ([1.0], [0.8], "higher", 0.05, 0.01, "regressed"),
    ([1.0], [1.02], "lower", 0.05, 0.01, "unchanged"),
    ([1.0], [1.02], "lower", 0.05, 0.10, "unresolved"),
    ([1.0], [0.93], "lower", 0.05, 0.10, "unresolved"),
    # better on the medians but winning only 2 of 3 pairs: no claim
    ([1.0, 1.0, 1.0], [0.8, 0.8, 1.1], "lower", 0.05, 0.01, "unchanged"),
    ([5.0], [5.0], "higher", 0.0, 0.0, "unchanged"),
    ([5.0], [4.999], "higher", 0.0, 0.0, "regressed"),
])
def test_compare_verdicts(a, b, better, bound, spread, expected):
    assert compare.verdict(a, b, better, bound, spread)[1] == expected


def test_run_one_workload_end_to_end(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workloads", "elastic_sweep",
         "--seconds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] == 56_000
    expected = {m["name"]: m["unit"]
                for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert {name: metric["unit"] for name, metric
            in last["metrics"].items()} == expected
    entry = json.loads(out.read_text())["workloads"]["elastic_sweep"]
    assert entry["sim_digest"] and entry["failed_share"] == 0
    assert entry["per_layer"]["autoscale.rescales_up"] >= 1
    assert entry["per_layer"]["metrics.stats.self_cpu_s"] == 0
    assert entry["per_layer"]["trace_overhead_ratio"] > 0
    assert {span["name"] for span in entry["spans"]} \
        == {"setup", "run", "measure", "collect"}
    lines, regressed = compare.compare([json.loads(out.read_text())] * 2,
                                       [json.loads(out.read_text())] * 2,
                                       SPEC)
    assert regressed == 0 and not any("DIFFERENT" in line for line in lines)
