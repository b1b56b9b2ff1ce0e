"""The repo's benchmark: seven end-to-end simulator workloads behind one command.

    python3 benchmarks/perf/run.py [--workloads a,b] [--seed N] [--trace 0|1]
                                   [--seconds S] [--out FILE] [--list]

Each workload runs in fresh child processes (``measure.py``) with
``PYTHONHASHSEED=0`` and every ``REPRO_*`` variable removed, so the
defaults are what is measured. ``--trace 0`` gives the end-to-end
metrics, ``--trace 1`` the per-layer ones from a sampled run; without
``--trace`` both are run. Every metric is printed by name with its unit,
the correctness checks are evaluated, and the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. Exits 1
if any check failed. Names, units and bounds live in ``BENCHMARK.json``.
"""

from __future__ import annotations

# lint: allow-file[D001] — measurement harness: reads host clocks by
# design; nothing in this file runs inside the simulated world.

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Cold set-up is sampled in this many extra children (plus the measuring
#: child's own cold pass) because imports happen once per process.
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 170


def child_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload: str, seed: int, extra: List[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), "--workload", workload,
         "--seed", str(seed)] + extra,
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"measure.py failed on {workload} "
                         f"(exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float,
                 traces: List[int]) -> dict:
    """One workload's report entry: end-to-end and/or per-layer metrics."""
    docs = {trace: run_child(workload, seed, ["--seconds", str(seconds),
                                              "--trace", str(trace)])
            for trace in traces}
    # Both children run the same seed, so either one's verdict holds; keep
    # the worse, and require their simulated results to agree.
    worst = max(docs.values(), key=lambda doc: doc["failed"])
    entry = {"workload": workload, "seed": seed, "kernel": worst["kernel"],
             "attempted": worst["attempted"], "failed": worst["failed"],
             "checks": list(worst["checks"]),
             "sim_digest": worst["sim_digest"]}
    if len({doc["sim_digest"] for doc in docs.values()}) > 1:
        entry["sim_digest"] = None
        entry["failed"] += 1
        entry["checks"].append(["sim_digest identical across children",
                                False, "traced and untraced runs differ"])
    entry["failed_share"] = entry["failed"] / entry["attempted"]
    if 0 in docs:
        setups = [docs[0]["setup_s"]] + [
            run_child(workload, seed, ["--setup-only"])["setup_s"]
            for _ in range(SETUP_CHILDREN)]
        entry["end_to_end"] = dict(docs[0]["end_to_end"], setup_s={
            "value": statistics.median(setups), "min": min(setups),
            "max": max(setups), "n": len(setups)})
        entry["run_cpu_raw_s"] = docs[0]["run_cpu_raw_s"]
        entry["sim_latency_mean_ms"] = docs[0]["sim_latency_mean_ms"]
    if 1 in docs:
        entry["per_layer"] = docs[1]["per_layer"]
        entry["sampled_files"] = docs[1]["sampled_files"]
    entry["repeats"] = [r for doc in docs.values() for r in doc["repeats"]]
    entry["spans"] = [span for doc in docs.values() for span in doc["spans"]]
    return entry


def print_entry(entry: dict, units: Dict[str, str]) -> None:
    print(f"\n== {entry['workload']}  seed={entry['seed']} "
          f"kernel={entry['kernel']} digest={entry['sim_digest']}")
    for name, metric in entry.get("end_to_end", {}).items():
        spread = (f"   min {metric['min']:.6g}  max {metric['max']:.6g}"
                  if "min" in metric else "")
        print(f"  {name:<22} {metric['value']:>16.6g} {units[name]:<13}"
              f" n={metric['n']}{spread}")
    if "run_cpu_raw_s" in entry:
        raw = entry["run_cpu_raw_s"]
        print(f"  {'(run_cpu_s uncalibrated':<22} {raw['value']:>16.6g} s"
              f"             n={raw['n']}   min {raw['min']:.6g}  "
              f"max {raw['max']:.6g})")
    if entry.get("sim_latency_mean_ms") is not None:
        print(f"  {'sim_latency_mean_ms':<22} "
              f"{entry['sim_latency_mean_ms']:>16.6g} ms")
    print(f"  {'failed_share':<22} {entry['failed_share']:>16.6g} ratio        "
          f" ops_failed={entry['failed']} ops_attempted={entry['attempted']}")
    layers = entry.get("per_layer")
    if layers:
        total = sum(v for k, v in layers.items() if k.endswith(".self_cpu_s"))
        print(f"  per-layer ({layers['sampler_samples']:.0f} samples, "
              f"trace overhead x{layers['trace_overhead_ratio']:.3f}):")
        for name, value in layers.items():
            share = (f"  {value / total:6.1%}" if total and
                     name.endswith(".self_cpu_s") else "")
            print(f"    {name:<44} {value:>14.6g} {units[name]}{share}")
    for name, ok, detail in entry["checks"]:
        print(f"  [{'PASS' if ok else 'FAIL'}] {name} ({detail})")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        help="comma-separated names (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="run-phase seconds to measure per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only, 1: per-layer only "
                             "(default: both)")
    parser.add_argument("--out", help="write the full report (metrics, "
                                      "checks, spans) to this JSON file")
    parser.add_argument("--list", action="store_true",
                        help="print workload and metric names and exit")
    args = parser.parse_args(argv)

    spec = json.loads(SPEC_PATH.read_text())
    known = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    if args.list:
        for kind in ("workloads", "end_to_end", "per_layer"):
            print(f"{kind}:")
            for item in spec[kind]:
                print(f"  {item['name']}" + (f" [{item['unit']}]"
                                              if "unit" in item else ""))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark "
              "measures the simulator in this checkout", file=sys.stderr)
        return 2
    names = args.workloads.split(",") if args.workloads else known
    unknown = [name for name in names if name not in known]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {known}")
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    traces = [0, 1] if args.trace is None else [args.trace]

    report = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    metrics: Dict[str, dict] = {}
    for name in names:
        entry = run_workload(name, args.seed, seconds, traces)
        report["workloads"][name] = entry
        print_entry(entry, units)
        values = {key: metric["value"] for key, metric
                  in entry.get("end_to_end", {}).items()}
        values.update(entry.get("per_layer", {}))
        prefix = f"{name}/" if len(names) > 1 else ""
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    entries = report["workloads"].values()
    failed = sum(entry["failed"] for entry in entries)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(e["attempted"] for e in entries),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
