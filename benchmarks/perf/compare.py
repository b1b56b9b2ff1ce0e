"""Compare ``run.py --out`` reports: ``compare.py A.json B.json``.

Either side may be a comma-separated list of reports of one commit
(``A1.json,A2.json,... B1.json,B2.json,...``, paired in order); a claim
needs at least ten such pairs, run in alternating order (README,
"Before/after"). One row per workload x end-to-end metric: the median
of each side, the delta as a share of A, the bound from
``BENCHMARK.json``, the run-to-run spread, and a verdict:

* ``regressed``  — B is worse than A by more than the bound;
* ``improved``   — B is better by more than the spread and wins at
  least nine tenths of at least ten pairs (exact metrics need one);
* ``unresolved`` — neither, but the spread is wider than the bound, so
  "unchanged" cannot be claimed;
* ``unchanged``  — neither, and the spread is within the bound.

The spread is the interquartile distance of a side's per-report values
as a share of their median (the larger side counts); with one report per
side it falls back to the range of that report's timed repeats.
``sim_*`` values and ``failed_share`` repeat exactly for a seed, so when
every report used the same seed their bound is 0. Then come digest
equality per workload and the per-layer ``self_cpu_s`` deltas. Exits 1
on any regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Fewest pairs from which a gain on a noisy (bound > 0) metric is claimed.
MIN_PAIRS = 10

#: Exact per-workload values kept beside ``end_to_end`` in a report.
EXACT_EXTRAS = {"sim_latency_mean_ms": "lower", "failed_share": "lower"}


def spread_of(values: List[float], single: Optional[dict] = None) -> float:
    """Run-to-run spread as a share of the median."""
    median = statistics.median(values)
    if not median:
        return 0.0
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(median)
    if single and "min" in single:
        return (single["max"] - single["min"]) / abs(median)
    return 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float,
            spread: float) -> Tuple[float, str]:
    """(delta of the medians as a share of A's, verdict) for one metric."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    delta = (med_b - med_a) / med_a if med_a else \
        (0.0 if med_b == med_a else float("inf"))
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * delta
    if worse > bound:
        return delta, "regressed"
    pairs = min(len(a), len(b))
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    if (bound == 0 or pairs >= MIN_PAIRS) and -worse > spread \
            and wins >= 0.9 * pairs:
        return delta, "improved"
    return delta, "unresolved" if spread > bound else "unchanged"


def _metric(entry: dict, key: str) -> Optional[dict]:
    if key in EXACT_EXTRAS:
        return None if entry.get(key) is None else {"value": entry[key]}
    return entry.get("end_to_end", {}).get(key)


def compare(side_a: List[dict], side_b: List[dict],
            spec: dict) -> Tuple[List[str], int]:
    """Report lines and the number of regressed rows."""
    seeds = {report["seed"] for report in side_a + side_b}
    same_seed = len(seeds) == 1
    metrics = [(m["name"], m["better"],
                0.0 if same_seed and m["name"].startswith("sim_")
                else m["bound"]) for m in spec["end_to_end"]]
    if same_seed:
        metrics += [(key, better, 0.0)
                    for key, better in EXACT_EXTRAS.items()]
    lines = [f"A: {len(side_a)} report(s)   B: {len(side_b)} report(s)   "
             f"seeds {sorted(seeds)}",
             f"{'workload':<16}{'metric':<22}{'A':>14}{'B':>14}{'delta':>9}"
             f"{'bound':>7}{'spread':>8}  verdict"]
    regressed = 0
    first_a, first_b = side_a[0]["workloads"], side_b[0]["workloads"]
    shared = [name for name in first_a if name in first_b]
    for name in shared:
        for key, better, bound in metrics:
            found_a = [_metric(r["workloads"][name], key) for r in side_a]
            found_b = [_metric(r["workloads"][name], key) for r in side_b]
            if None in found_a or None in found_b:
                continue
            a = [m["value"] for m in found_a]
            b = [m["value"] for m in found_b]
            spread = max(spread_of(a, found_a[0]), spread_of(b, found_b[0]))
            delta, word = verdict(a, b, better, bound, spread)
            regressed += word == "regressed"
            lines.append(f"{name:<16}{key:<22}{statistics.median(a):>14.6g}"
                         f"{statistics.median(b):>14.6g}{delta:>+9.2%}"
                         f"{bound:>7.0%}{spread:>8.1%}  {word}")
    lines.append("")
    for name in shared:
        digests_a = {r["workloads"][name]["sim_digest"] for r in side_a}
        digests_b = {r["workloads"][name]["sim_digest"] for r in side_b}
        same = digests_a == digests_b and None not in digests_a
        lines.append(f"{name:<16}sim_digest "
                     f"{'identical' if same else 'DIFFERENT'} "
                     f"({', '.join(sorted(str(d)[:12] for d in digests_a))} vs "
                     f"{', '.join(sorted(str(d)[:12] for d in digests_b))})")
        layers_a = [r["workloads"][name].get("per_layer") for r in side_a]
        layers_b = [r["workloads"][name].get("per_layer") for r in side_b]
        if not all(layers_a) or not all(layers_b):
            continue
        for key in layers_a[0]:
            if not key.endswith(".self_cpu_s"):
                continue
            cpu_a = statistics.median(layer[key] for layer in layers_a)
            cpu_b = statistics.median(layer[key] for layer in layers_b)
            if cpu_a or cpu_b:
                base = f"{(cpu_b - cpu_a) / cpu_a:+.1%} of A" if cpu_a \
                    else "new"
                lines.append(f"    {key:<36}{cpu_a:>9.3f} s ->"
                             f"{cpu_b:>9.3f} s  ({base})")
    return lines, regressed


def load_side(argument: str) -> List[dict]:
    return [json.loads(Path(path).read_text())
            for path in argument.split(",")]


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec: Dict = json.loads(SPEC_PATH.read_text())
    lines, regressed = compare(load_side(args[0]), load_side(args[1]), spec)
    print("\n".join(lines))
    print(f"\n{regressed} regressed row(s)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
