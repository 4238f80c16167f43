"""Benchmark entry point: run one workload through the rookgon CLI and
print one JSON result line.

    python3 bench/run.py --workload gonality-4x4 --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it measures set-up time, then runs passes over the
workload's queries, each in a fresh process, and reports the end-to-end
metrics; times are rescaled to a reference machine speed that
bench/probe.py samples inside each query (see README.md).  With ``--trace 1`` it runs one untraced pass and one traced pass
(bench/tracer.py) and reports the per-layer metrics.  Every report is
checked against the frozen values in bench/frozen; the last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

SETUP_LAUNCHES = 9
# A run stops starting queries this long after it began, so that it
# exits well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0
# Snippet time (bench/probe.py) at which normalized seconds equal wall
# seconds; about its mean on an idle 2-vCPU Xeon VM under Python 3.11.
REFERENCE_SNIPPET_S = 0.0001

CLAIM_FAMILIES = ("burn-maximal", "cert-rank1", "cut-bound", "gon", "gon-refute",
                  "gon2", "gon3", "squares-hitting", "squares-order",
                  "star-hitting", "sym-agreement")

COUNTS = ("symmetry.orbit_reps", "symmetry.elements_calls", "symmetry.group_too_large",
          "divisors.rank_tests", "divisors.rank_memo_entries",
          "divisors.winnable_checks", "graphs.flows", "graphs.flows_cut_short",
          "graphs.eggs_enumerated")
PER_LAYER = {
    "symmetry.orbit_stream_s": "s", "symmetry.elements_s": "s",
    "divisors.rank_at_least_s": "s", "divisors.verify_rank_s": "s",
    "gonality.search_s": "s", "gonality.pool_cpu_s": "s",
    "gonality.useful_rep_ratio": "ratio",
    "graphs.flow_s": "s", "graphs.egg_enum_s": "s",
    "scrambles.hitting_s": "s", "scrambles.cut_scan_s": "s",
    "scrambles.cut_floor_s": "s", "cli.main_s": "s", "trace.overhead_s": "s",
    **{name: "count" for name in COUNTS},
    **{f"suite.claim_s.{fam}": "s" for fam in CLAIM_FAMILIES + ("other",)},
}


def _log(obj) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


class Run:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.expected = harness.load_expected()
        self.attempted = 0
        self.failed = 0

    def query(self, q: harness.Query, cmd, side_file=None):
        """Launch one query; returns its Outcome, or None when the run is
        out of time.  ``side_file`` is written by the child (probe or
        trace) and must exist afterwards."""
        self.attempted += 1
        if time.monotonic() >= self.deadline:
            self.failed += 1
            _log({"query": q.id, "problems": ["not started: run time limit reached"]})
            return None
        if side_file is not None:
            side_file.unlink(missing_ok=True)
        out = harness.launch(q, cmd, self.deadline, self.expected)
        if side_file is not None and out.returncode == 0 and not side_file.exists():
            out.problems.append(f"child wrote no {side_file.name}")
        if out.problems:
            self.failed += 1
        _log({"query": q.id, "wall_s": round(out.wall_s, 4),
              "cpu_s": round(out.cpu_s, 4), "peak_rss_mb": round(out.maxrss_mb, 1),
              "problems": out.problems})
        return out

    def probed(self, q: harness.Query):
        """Launch one query under bench/probe.py; returns (Outcome, speed
        factor) where wall / factor is the time at the reference speed."""
        path = harness.STATE / "io" / "speed.json"
        out = self.query(q, harness.probe_command(q.argv, path), path)
        if out is None or not path.exists():
            return out, None
        speed = json.loads(path.read_text())
        _log({"query": q.id, **speed})
        return out, speed["snippet_s"] / REFERENCE_SNIPPET_S

    def setup(self):
        """One set-up launch; returns its normalized wall time or None."""
        out, factor = self.probed(harness.SETUP_QUERY)
        if out is None or out.problems or factor is None:
            return None
        return out.wall_s / factor


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def measure(run: Run, queries, seconds: float) -> dict:
    """End-to-end metrics.  Set-up launches come before and after the
    passes so that their median spans the run; passes repeat while
    another pass of the last one's length fits in ``seconds``."""
    run.setup()  # compiles bytecode; not timed
    setup = [run.setup() for _ in range(SETUP_LAUNCHES // 2)]
    started = time.monotonic()
    walls, cpus, rss = [], [], []
    out_of_time = False
    while not out_of_time:
        pass_wall = norm_wall = norm_cpu = 0.0
        complete = True
        for q in queries:
            out, factor = run.probed(q)
            if out is None:
                out_of_time = True
                break
            pass_wall += out.wall_s
            rss.append(out.maxrss_mb)
            if factor is None:
                complete = False
                continue
            norm_wall += out.wall_s / factor
            norm_cpu += out.cpu_s / factor
        if complete and not out_of_time:
            walls.append(norm_wall)
            cpus.append(norm_cpu)
        if time.monotonic() - started + pass_wall > seconds:
            break
    setup += [run.setup() for _ in range(SETUP_LAUNCHES - len(setup))]
    setup = [t for t in setup if t is not None]
    if not walls or not setup:
        return {}
    return {
        "wall_norm_s": _metric(statistics.median(walls), "s"),
        "cpu_norm_s": _metric(statistics.median(cpus), "s"),
        "peak_rss_mb": _metric(max(rss), "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }


def _same_counts(workload: str, counts: dict) -> bool:
    """Compare work counts with an earlier traced run of the same code on
    the same workload, recording them if there was none."""
    path = harness.STATE / "counts" / f"{harness.source_digest()}-{workload}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            _log({"problem": "work counts differ from an earlier run of the same code",
                  "earlier": earlier, "now": counts})
            return False
        return True
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    tmp.replace(path)
    return True


def trace(run: Run, workload: str, queries) -> tuple:
    """Per-layer metrics from one untraced and one traced pass."""
    plain = [run.probed(q)[0] for q in queries]
    traced = []
    for q in queries:
        path = harness.STATE / "io" / f"trace-{q.id}.json"
        traced.append((run.query(q, harness.traced_command(q.argv, path), path), path))
    if any(o is None or o.problems for o in plain + [o for o, _ in traced]):
        return {}, False
    ok = True
    for p, (t, _) in zip(plain, traced):
        if p.stdout != t.stdout:
            run.failed += 1
            ok = False
            _log({"query": t.query.id, "problems": ["traced report differs from untraced"]})
    values = {name: 0.0 if unit == "s" else 0 for name, unit in PER_LAYER.items()}
    needed = yielded = 0
    for _, path in traced:
        data = json.loads(path.read_text())
        for name, v in data["metrics"].items():
            values[name] += v
        needed += data["reps_needed"]
        yielded += data["reps_yielded"]
    values["gonality.useful_rep_ratio"] = needed / yielded if yielded else 1.0
    values["trace.overhead_s"] = (sum(o.wall_s for o, _ in traced)
                                  - sum(o.wall_s for o in plain))
    for p in plain:
        for fam, secs in harness.claim_seconds(p.stderr).items():
            key = f"suite.claim_s.{fam if fam in CLAIM_FAMILIES else 'other'}"
            values[key] += secs
    ok = _same_counts(workload, {c: values[c] for c in COUNTS}) and ok
    return {n: _metric(values[n], u) for n, u in PER_LAYER.items()}, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = harness.check_layout()
    if problem:
        print(f"error: {problem}; run from a rookgon checkout", file=sys.stderr)
        return 2
    run = Run(time.monotonic() + RUN_LIMIT_S)
    queries = harness.ordered(args.workload, args.seed)
    _log({"workload": args.workload, "seed": args.seed, "trace": args.trace,
          "queries": [q.id for q in queries], **harness.environment()})
    if args.trace:
        metrics, ok = trace(run, args.workload, queries)
    else:
        metrics, ok = measure(run, queries, args.seconds), True
    ok = ok and bool(metrics) and run.failed == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": ok, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
