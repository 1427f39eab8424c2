"""One cold `resonorm` process, timed from inside.

Usage: child.py TIMING_JSON TRACE_JSON|- RUN_ID [resonorm arguments...]

Does what the `resonorm` console script does (import `resonorm.cli`, call
`main`), and records the import time, the command time after import, the
exit code and the imported module's path in TIMING_JSON.  Without
resonorm arguments it only imports.  With a TRACE_JSON path it installs
the span wrappers of `spans.py` after the import and writes the spans at
exit.
"""
import json
import sys
import time


def main() -> int:
    timing_path, trace_path, run_id = sys.argv[1:4]
    argv = sys.argv[4:]
    t0 = time.perf_counter()
    import resonorm.cli as cli
    t1 = time.perf_counter()
    tracer = None
    if trace_path != "-":
        from spans import Tracer
        tracer = Tracer(run_id)
        tracer.install()
    t2 = time.perf_counter()
    rc = cli.main(argv) if argv else 0
    t3 = time.perf_counter()
    with open(timing_path, "w") as fh:
        json.dump({"import_s": t1 - t0, "solve_s": t3 - t2, "rc": rc,
                   "module": cli.__file__}, fh)
    if tracer is not None:
        tracer.dump(trace_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
