"""Write reference.json: the outputs the checks compare against.

Usage (from the repository root, at the commit the references belong to):

    python3 perfbench/make_reference.py

For every input set 0..BANK-1 of the iterate, compare and scar workloads it
runs the command once, through the same launcher as the benchmark's
samples, and stores the values the checks need: the norm trajectory,
`max_abs_error`, and the passing mass fraction.  A command that fails is
stored with its exit code, so the check fails for that seed as well.
measure-gamma stores the gamma table, which does not depend on the seed.
Every workload is redone on each call, so `commit` and `src_sha256`
describe every entry.
"""
from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

from run import BENCH, WORK, Runner, environment
from workloads import BANK, WORKLOADS, _num, read_csv, write_inputs


def run_cli(command: str, inputs: Path, out: Path) -> int:
    runner = Runner(inputs, time.perf_counter())
    return runner.spawn([command, "--config", str(inputs / "run.ini"),
                         "--out", str(out)])["rc"]


def values(command: str, out: Path) -> dict:
    if command == "iterate":
        return {"trajectory": [_num(r["perturbation_norm"])
                               for r in read_csv(out / "norms.csv")]}
    if command == "compare":
        summary = json.loads((out / "summary.json").read_text())
        return {"max_abs_error": float(summary["max_abs_error"])}
    if command == "scar":
        rep = json.loads((out / "scar.json").read_text())
        return {"passing_fraction": rep["mass"]["passing_fraction"]}
    return {"table": [[_num(v) for v in r.values()]
                      for r in read_csv(out / "gamma.csv")]}


def main() -> int:
    env = environment(0)
    ref = {"src_sha256": env["src_sha256"], "commit": env["git_commit"]}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        for name, wl in WORKLOADS.items():
            if name == "measure-gamma":
                inputs = tmp / name
                write_inputs(wl.generate(0), inputs)
                rc = run_cli("gamma", inputs, inputs / "out")
                ref[name] = values("gamma", inputs / "out") if rc == 0 \
                    else {"rc": rc}
                continue
            ref[name] = {}
            for seed in range(BANK):
                inputs = tmp / name / str(seed)
                write_inputs(wl.generate(seed), inputs)
                command = wl.commands[0]
                rc = run_cli(command, inputs, inputs / "out")
                ref[name][str(seed)] = values(command, inputs / "out") \
                    if rc == 0 else {"rc": rc}
                print(name, seed, rc, ref[name][str(seed)], flush=True)
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
