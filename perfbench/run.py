"""resonorm benchmark: cold CLI processes in a closed loop, one at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

A run generates the workload's inputs from the seed, imports
`resonorm.cli` in SETUP_PROBES fresh interpreters, then starts one
`resonorm` process after the other (through `child.py`) until S seconds
have passed.  Every child gets BLAS pinned to one thread and imports the
package from `src/` of this checkout.  Each sample's outputs are checked
and compared byte for byte with the first sample's.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced samples and reports the per-layer metrics; the names and units
of both come from BENCHMARK.json.  The last line of standard output is
one JSON object (correct, attempted, failed, metrics); the full record,
with the environment, every sample and the spans, goes to
.perfbench_work/<workload>/.  With one workload the exit code is 0 and a
failed sample shows as "correct": false; with `all` the object sums over
the workloads, names each metric `<workload>.<metric>`, and the exit code
is 1 when any sample failed.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import layer_metrics
from workloads import WORKLOADS, CheckFailed, write_inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0        # a child still running after this is killed
IMPORTTIME_PROBES = 2

# metric name -> unit, as BENCHMARK.json lists them
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(SRC))
    return env


class Runner:
    """Starts child processes for one benchmark run and enforces its
    time limit: a child still running at the limit is killed."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.env = child_env()
        self.deadline = started + RUN_LIMIT_S
        self.count = 0

    def spawn(self, args, *, trace: bool = False) -> dict:
        """Run child.py once; wall time from spawn to exit, peak RSS from
        the child's own rusage."""
        self.count += 1
        tag = f"c{self.count:04d}"
        timing = self.work / f"{tag}.timing.json"
        spans = self.work / f"{tag}.spans.json" if trace else None
        cmd = [sys.executable, str(BENCH / "child.py"), str(timing),
               str(spans) if spans else "-", tag, *args]
        with open(self.work / f"{tag}.stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(
                max(self.deadline - time.perf_counter(), 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        rec = {"tag": tag, "args": list(args), "wall_s": wall,
               "rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode}
        if proc.returncode == 0 or timing.exists():
            try:
                rec.update(json.loads(timing.read_text()))
            except (OSError, ValueError):
                rec["rc"] = rec["rc"] or 1
        if spans is not None and spans.exists():
            rec["spans"] = json.loads(spans.read_text())["spans"]
        return rec


def tree_digest(directory: Path) -> dict:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes())
            .hexdigest() for p in sorted(directory.rglob("*")) if p.is_file()}


def run_sample(runner, wl, inputs, index, seed, ref, *, trace=False) -> dict:
    """One workload execution: its CLI commands in sequence."""
    base = runner.work / "samples" / f"{index:03d}"
    outs, procs = {}, []
    for command in wl.commands:
        outs[command] = base / command
        procs.append(runner.spawn(
            [command, "--config", str(inputs / "run.ini"),
             "--out", str(outs[command])], trace=trace))
    sample = {
        "index": index, "traced": trace,
        "wall_s": sum(p["wall_s"] for p in procs),
        "solve_s": sum(p.get("solve_s", 0.0) for p in procs),
        "import_s": [p["import_s"] for p in procs if "import_s" in p],
        "peak_rss_mb": max(p["rss_mb"] for p in procs),
        "rc": [p["rc"] for p in procs], "ok": False, "values": {},
    }
    if trace:
        merged = []
        for p in procs:
            off = len(merged)
            merged += [[n, a, b, par + off if par >= 0 else -1, at]
                       for n, a, b, par, at in p.get("spans", [])]
        sample["spans"] = merged
    bad = next((p for p in procs if p["rc"] != 0), None)
    if bad:
        stderr = (runner.work / f"{bad['tag']}.stderr").read_text()
        sample["error"] = f"exit code {bad['rc']} from {bad['args'][0]}: " \
            + stderr[-400:]
        return sample
    try:
        sample["values"] = wl.check(outs, seed, ref, inputs)
        sample["digest"] = {c: tree_digest(o) for c, o in outs.items()}
        sample["ok"] = True
    except CheckFailed as exc:
        sample["error"] = f"check failed: {exc}"
    except (OSError, KeyError, ValueError, IndexError) as exc:
        sample["error"] = f"unreadable output: {type(exc).__name__}: {exc}"
    return sample


def scipy_integrate_import_s(runner) -> float:
    """Cumulative import time of scipy.integrate under `-X importtime`."""
    found = 0.0
    err = runner.work / "importtime.stderr"
    with open(err, "wb") as fh:
        subprocess.run([sys.executable, "-X", "importtime", "-c",
                        "import resonorm.cli"], cwd=ROOT, env=runner.env,
                       stdout=subprocess.DEVNULL, stderr=fh, check=True,
                       timeout=60)
    for line in err.read_text().splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.integrate":
            found = int(parts[1]) / 1e6
    return found


def timing_summary(values) -> dict:
    """Median and sample count; a higher percentile only when at least
    ten samples lie beyond it."""
    values = sorted(values)
    out = {"median": statistics.median(values), "n": len(values)}
    for q in (0.99, 0.9):
        if len(values) * (1.0 - q) >= 10:
            out[f"p{round(q * 100)}"] = values[int(q * len(values))]
            break
    return out


def host_probe_s() -> float:
    """Median time of a fixed pure-Python loop.  The load average does not
    show contention from outside this machine; this does, so a change in
    the host's speed between runs can be told from a change in the program."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(seed: int) -> dict:
    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           "seed": seed, "git_commit": None,
           "threads_env": {k: child_env()[k] for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS")}}
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            env[pkg] = None
    try:
        import numpy
        env["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]
    except (ImportError, KeyError, TypeError):
        env["blas"] = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.exists() else ref
        env["git_commit"] = ref
    digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        digest.update(str(p.relative_to(SRC)).encode() + p.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    wl = WORKLOADS[name]
    ref = json.loads((BENCH / "reference.json").read_text())[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, started)
    record = {"workload": name, "why": wl.why, "seed": seed,
              "seconds": seconds, "trace": trace,
              "load_before": os.getloadavg(), "env": environment(seed),
              "host_probe_before_s": host_probe_s()}

    # set-up: inputs, one untimed import (bytecode, file cache), probes
    inputs = work / "inputs"
    record["input_sha256"] = write_inputs(wl.generate(seed), inputs)
    runner.spawn([])
    probes = [runner.spawn([]) for _ in range(SETUP_PROBES)]
    module = Path(probes[0].get("module", "?"))
    if SRC not in module.parents:
        raise SystemExit(f"error: resonorm imported from {module}, "
                         f"not from {SRC}")
    if trace:
        record["scipy_integrate_import_s"] = statistics.median(
            scipy_integrate_import_s(runner) for _ in range(IMPORTTIME_PROBES))

    # measurement: closed loop, one child at a time.  A sample is started
    # only while at least half of a typical sample fits before the end, so
    # a run measures about `seconds` on average.
    samples = []
    t_start = time.perf_counter()
    t_end = t_start + seconds
    while True:
        traced = trace and len(samples) % 2 == 1
        samples.append(run_sample(runner, wl, inputs, len(samples), seed, ref,
                                  trace=traced))
        now = time.perf_counter()
        typical = statistics.median(s["wall_s"] for s in samples)
        if now + 0.5 * typical >= t_end and (not trace or len(samples) >= 2):
            break
        if now >= runner.deadline:
            break
    record["measured_s"] = time.perf_counter() - t_start
    record["load_after"] = os.getloadavg()
    record["host_probe_after_s"] = host_probe_s()

    # determinism across reruns into separate --out directories
    first = next((s for s in samples if s["ok"]), None)
    for s in samples:
        if s["ok"] and s["digest"] != first["digest"]:
            s["ok"] = False
            s["error"] = f"outputs differ from sample {first['index']}"

    good = [s for s in samples if s["ok"]] or samples
    failed = sum(not s["ok"] for s in samples)
    untraced = [s for s in good if not s["traced"]] or good
    import_times = [p["import_s"] for p in probes if "import_s" in p] + \
        [t for s in good for t in s["import_s"]]
    record["samples"] = [{k: v for k, v in s.items() if k != "spans"}
                         for s in samples]
    record["timings"] = {
        "wall_s": timing_summary(s["wall_s"] for s in untraced),
        "setup_s": timing_summary(import_times),
        "solve_s": timing_summary(s["solve_s"] for s in untraced),
        "peak_rss_mb": timing_summary(s["peak_rss_mb"] for s in untraced),
    }
    record["values"] = first["values"] if first else {}
    record["fail_frac"] = failed / len(samples)
    record["errors"] = sorted({s["error"] for s in samples if "error" in s})

    if trace:
        traced = [s for s in good if s["traced"]]
        per_sample = [layer_metrics(s["spans"]) for s in traced] or \
            [layer_metrics([])]
        layer = {key: statistics.median(m[key] for m in per_sample)
                 for key in per_sample[0]}
        traced_solve = statistics.median(s["solve_s"] for s in traced) \
            if traced else 0.0
        layer["cli.import.scipy_integrate_s"] = \
            record["scipy_integrate_import_s"]
        layer["trace.solve_s"] = traced_solve
        layer["trace.overhead_s"] = traced_solve - \
            record["timings"]["solve_s"]["median"]
        metrics = {k: {"value": float(layer[k]), "unit": u}
                   for k, u in PER_LAYER.items()}
        with open(work / "trace.jsonl", "w") as fh:
            for s in traced:
                for span in s["spans"]:
                    fh.write(json.dumps({"run_id": f"{name}/{seed}/"
                                         f"{s['index']}", "span": span})
                             + "\n")
    else:
        metrics = {k: {"value": float(record["timings"][k]["median"]),
                       "unit": u} for k, u in END_TO_END.items()}
    record["metrics"] = metrics
    result = {"correct": failed == 0, "attempted": len(samples),
              "failed": failed, "metrics": metrics}
    record["result"] = result
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_record(rec: dict):
    print(f"# {rec['workload']} seed={rec['seed']} trace={int(rec['trace'])} "
          f"samples={len(rec['samples'])} fail_frac={rec['fail_frac']:.3f} "
          f"inputs={rec['input_sha256'][:16]} host_probe_s="
          f"{rec['host_probe_before_s']:.4f}/{rec['host_probe_after_s']:.4f}")
    if not rec["trace"]:
        for key, unit in END_TO_END.items():
            t = rec["timings"][key]
            extra = "".join(f" {k}={v:.6g}" for k, v in t.items()
                            if k not in ("median", "n"))
            print(f"{key:<14} {t['median']:.6g} {unit} n={t['n']}{extra}")
    else:
        for key, m in rec["metrics"].items():
            print(f"{key:<36} {m['value']:.6g} {m['unit']}")
    for key, value in rec["values"].items():
        print(f"{key:<14} {value!r}")
    for err in rec["errors"]:
        print(f"error: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "resonorm" / "cli.py").is_file():
        print(f"error: no resonorm sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        rec = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
        print_record(rec)
        print(json.dumps(rec["result"]))
        return 0
    results = {}
    for name in WORKLOADS:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_record(rec)
        results[name] = rec["result"]
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": m for name, r in results.items()
                    for key, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
