"""Print the figures that the ROADMAP baseline quotes, from traced runs.

Usage (from the repository root), after a traced run of every workload:

    python3 perfbench/run.py --workload all --trace 1
    python3 perfbench/baseline.py

Reads .perfbench_work/<workload>/result.json and trace.jsonl.
"""
import json
import statistics
import sys
from collections import defaultdict

from run import WORK
from spans import self_times


def split(workload: str) -> dict:
    """Median over traced samples of the time in each traced function
    (self time), keyed by span name and the caller's span name."""
    by_run = defaultdict(list)
    for line in open(WORK / workload / "trace.jsonl"):
        rec = json.loads(line)
        by_run[rec["run_id"]].append(rec["span"])
    per_run = []
    for spans in by_run.values():
        acc = defaultdict(float)
        for span, own in zip(spans, self_times(spans)):
            parent = spans[span[3]][0] if span[3] >= 0 else "-"
            acc[f"{span[0]} <- {parent}"] += own
        per_run.append(acc)
    keys = {k for acc in per_run for k in acc}
    return {k: statistics.median(acc.get(k, 0.0) for acc in per_run)
            for k in keys}


def main() -> int:
    results = {}
    for name in ("reduce-iterate", "kam-divisor", "oracle-compare",
                 "oracle-scar", "measure-gamma"):
        path = WORK / name / "result.json"
        if not path.exists():
            print(f"missing traced run of {name}", file=sys.stderr)
            return 2
        results[name] = json.loads(path.read_text())
    for name, rec in results.items():
        m = {k: v["value"] for k, v in rec["metrics"].items()}
        solve = m["trace.solve_s"]
        print(f"## {name}: untraced setup_s median "
              f"{rec['timings']['setup_s']['median']:.3f} s "
              f"(n={rec['timings']['setup_s']['n']}), "
              f"untraced solve_s {rec['timings']['solve_s']['median']:.3f} s, "
              f"traced solve_s {solve:.3f} s, scipy.integrate import "
              f"{m['cli.import.scipy_integrate_s']:.3f} s")
        for key, value in sorted(split(name).items(), key=lambda kv: -kv[1]):
            if value >= 0.005 * solve:
                print(f"  {key:<48} {value:9.4f} s  {100 * value / solve:5.1f} %")
        if m["kam.divisors.modes"]:
            print(f"  divisor modes {m['kam.divisors.modes']:.0f}, "
                  f"{m['kam.divisors.us_per_mode']:.1f} us per mode")
        if m["series.bracket.pairs"]:
            print(f"  bracket pairs {m['series.bracket.pairs']:.0f}, terms out "
                  f"{m['series.bracket.terms_out']:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
