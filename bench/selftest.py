"""Fast check of the benchmark's own code (about 10 s).

    python3 bench/selftest.py

Pushes smoke-size queries through the same entry point (run.py) and tracer
that the real workloads use, and checks that:

- BENCHMARK.json, the workload table and the frozen expectations agree;
- an untraced run reports every end-to-end metric, and a traced run every
  per-layer metric, with correct outputs;
- two traced runs give identical work counts, and the pool path is seen
  (pool CPU above 0, fewer useful representatives than yielded);
- a wrong report is caught, and claim ids map to their families;
- a directory holding only BENCHMARK.json and bench/ exits non-zero
  without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402

FAILURES = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def bench_run(*args, cwd=harness.ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and proc.returncode == 0 else None)


def check_tables(spec: dict) -> None:
    names = [w["name"] for w in spec["workloads"]]
    expect(all(n in harness.WORKLOADS for n in names), "BENCHMARK.json workloads exist")
    expect([m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER),
           "BENCHMARK.json per_layer matches run.PER_LAYER")
    expected = harness.load_expected()
    queries = [harness.SETUP_QUERY] + [q for qs in harness.WORKLOADS.values() for q in qs]
    expect(all(q.id in expected and tuple(expected[q.id]["argv"]) == q.argv
               for q in queries), "every query has a frozen expectation")


def check_detection() -> None:
    expected = harness.load_expected()
    q = harness.WORKLOADS["smoke"][0]
    good = json.dumps({**expected[q.id]["fields"], "extra": 1}).encode()
    expect(harness.check_report(q, good, expected) == [], "matching report passes")
    bad = json.loads(good)
    bad["value"] += 1
    expect(len(harness.check_report(q, json.dumps(bad).encode(), expected)) == 1,
           "wrong value is caught")
    qb = harness.SETUP_QUERY
    expect(harness.check_report(qb, b"{}\n", expected) != [], "wrong bytes are caught")
    expect([harness.claim_family(c) for c in
            ("cert-rank1-2x2x3", "burn-maximal-2-3-4", "gon2-3x3", "rank-duality",
             "cube-diagonal-3", "gon-refute-4x4")] ==
           ["cert-rank1", "burn-maximal", "gon2", "rank-duality", "cube-diagonal",
            "gon-refute"], "claim families")


def check_runs(spec: dict) -> None:
    _, res = bench_run("--workload", "smoke", "--seed", "1", "--seconds", "1",
                       "--trace", "0")
    expect(res is not None and res["correct"] and res["failed"] == 0,
           "untraced smoke run is correct")
    if res:
        m = res["metrics"]
        expect(list(m) == sorted(e["name"] for e in spec["end_to_end"]),
               "untraced run reports every end-to-end metric")
        expect(all(v["value"] > 0 and math.isfinite(v["value"]) for v in m.values()),
               "end-to-end metrics are positive")
    counts = []
    for seed in ("1", "2"):
        _, res = bench_run("--workload", "smoke", "--seed", seed, "--seconds", "1",
                           "--trace", "1")
        expect(res is not None and res["correct"] and res["failed"] == 0,
               f"traced smoke run (seed {seed}) is correct")
        if res is None:
            return
        m = {k: v["value"] for k, v in res["metrics"].items()}
        expect(set(m) == set(run.PER_LAYER), "traced run reports every per-layer metric")
        counts.append({c: m[c] for c in run.COUNTS})
    expect(counts[0] == counts[1], "work counts repeat across traced runs")
    expect(m["gonality.pool_cpu_s"] > 0 and 0 < m["gonality.useful_rep_ratio"] < 1,
           "pool path: worker CPU and wasted representatives are seen")
    expect(all(m[c] > 0 for c in ("symmetry.orbit_reps", "divisors.rank_tests",
                                  "graphs.flows", "graphs.eggs_enumerated")),
           "orbit stream, rank, flow and egg counters all fire")
    expect(m["gonality.search_s"] >= m["symmetry.orbit_stream_s"] > 0,
           "search time includes its orbit stream")


def check_bare_directory() -> None:
    bare = harness.STATE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(harness.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = bench_run("--workload", "gonality-4x4", "--seed", "1", "--seconds", "10",
                        "--trace", "0", cwd=bare)
    expect(proc.returncode != 0 and proc.stdout.strip() == "",
           "a directory without the sources exits non-zero and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    check_tables(spec)
    check_detection()
    check_runs(spec)
    check_bare_directory()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
