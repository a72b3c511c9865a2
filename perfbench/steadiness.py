#!/usr/bin/env python3
"""Steadiness self-check: do two sets of runs of one commit agree?

    python3 perfbench/steadiness.py

Run from the repository root.  Each of two sets runs the benchmark
command from BENCHMARK.json ten times per workload, every run with a new
seed (1000.. in the first set, 2000.. in the second), and prints every
run's values.  For each end-to-end metric and workload it then prints the
spread of each set (the distance between the first and third quartile as
a share of the median) and how far the second set's median is worse than
the first's, and checks them against the metric's bound.  As in the
acceptance rule the bounds come with, every spread but setup_s's must stay
within the bound, and no median, setup_s's included, may be worse by more
than the bound.  The exit code is 0 only when every check holds and every
run succeeded.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(first: list[float], second: list[float], better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def run_sets(spec: dict) -> dict:
    workloads = [w["name"] for w in spec["workloads"]]
    results: dict = {w: [] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            values: dict[str, list[float]] = {}
            for r in range(RUNS):
                seed = 1000 * (s + 1) + r
                cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                         "--seconds",
                                         str(spec["run_seconds"]),
                                         "--trace", "0"]
                out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                     text=True, timeout=900)
                lines = out.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else {}
                if out.returncode != 0 or not result.get("correct"):
                    print(out.stdout + out.stderr, file=sys.stderr)
                    raise SystemExit(f"{w} seed {seed} failed "
                                     f"(exit {out.returncode})")
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{n}={m['value']:.4g}"
                    for n, m in result["metrics"].items()), flush=True)
            results[w].append(values)
    return results


def check(spec: dict, results: dict) -> bool:
    ok = True
    print(f"\n{'workload':<14} {'metric':<16} {'bound':>6} "
          f"{'spreads':>16} {'worse by':>9}")
    for w, sets in results.items():
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            spreads = [spread(s[name]) for s in sets]
            shift = worse_by(sets[0][name], sets[1][name], m["better"])
            bad = shift > bound or (
                name != "setup_s" and any(x > bound for x in spreads))
            ok &= not bad
            print(f"{w:<14} {name:<16} {bound:>6.3f} "
                  f"{' '.join(f'{x:.4f}' for x in spreads):>16} "
                  f"{shift:>9.4f}{'  FAIL' if bad else ''}")
    return ok


def main() -> int:
    if len(sys.argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return 0 if check(spec, run_sets(spec)) else 1


if __name__ == "__main__":
    sys.exit(main())
