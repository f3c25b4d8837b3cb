"""One survcobra CLI invocation in a fresh process.

    python3 benchmarks/child.py SRC_DIR TRACE(0|1) CLI_ARG...

Times the set-up (imports) from the first statement, then `cli.main`, and
prints one JSON line: exit_code, setup_s, import_s, wall_s, cpu_s (user +
system during `cli.main`) and peak_rss_mb (this process's maximum RSS).
With TRACE 1 the layer tracer is installed first and the line also holds
the per-span self times, counts and parent/child edges.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    src, trace, argv = os.path.abspath(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import survcobra.cli as cli

    import_s = time.perf_counter() - T0
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"survcobra was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    rec = None
    if trace:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
    cpu0 = _cpu_s()
    t1 = time.perf_counter()
    code = cli.main(argv)
    t2 = time.perf_counter()
    result = {
        "exit_code": code,
        "setup_s": t1 - T0,
        "import_s": import_s,
        "wall_s": t2 - t1,
        "cpu_s": _cpu_s() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rec is not None:
        result["self_s"] = dict(rec.self_s)
        result["counts"] = dict(rec.counts)
        result["edges"] = [[p, c, s] for (p, c), s in sorted(rec.edges.items())]
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
