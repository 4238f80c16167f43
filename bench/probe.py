"""Run one rookgon CLI query the way the ``rookgon`` console script does,
while sampling how fast this machine runs Python at that moment.

    PYTHONPATH=src python3 bench/probe.py --out speed.json -- gonality --rook 4,4

Every 5 ms of process CPU time, from before the package is imported until
the query returns, a SIGPROF handler times a fixed snippet of dict and
tuple work (about 0.1 ms).  The samples fall on the same CPU, at the same
moments, as the query itself.  On a shared virtual machine the speed of
identical Python code drifts by up to 2x over tens of seconds; dividing a
query's time by the snippet's mean time removes that drift.  The report
still goes to stdout unchanged.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

INTERVAL_S = 0.005


def snippet() -> None:
    d = {}
    for i in range(375):
        t = (i % 97, i % 13, i & 7)
        d[t] = d.get(t, 0) + 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the samples")
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="rookgon CLI arguments, after --")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    total = 0.0
    count = 0

    def sample(signum, frame):
        nonlocal total, count
        t0 = time.perf_counter()
        snippet()
        total += time.perf_counter() - t0
        count += 1

    snippet()  # warm the code path before the first sample
    signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        from rookgon.cli import main as cli_main
        code = cli_main(argv)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        sys.stdout.flush()
        if count == 0:  # a query shorter than one interval
            t0 = time.perf_counter()
            snippet()
            total, count = time.perf_counter() - t0, 1
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"snippet_s": total / count, "samples": count}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
