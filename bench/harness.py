"""Workload definitions, process launching and report checks shared by
the benchmark scripts in this directory.

Every query runs as a fresh ``rookgon`` process, because the package
memoizes across calls (suite hosts and gonality results, ``lru_cache`` cut
floors, ``SymmetryGroup._elements``, rank memos on each graph).  Children
import the package from this checkout's ``src`` directory, never with a
result cache, and resource usage is read per child with ``wait4`` so that
it includes the child's own pool workers.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FROZEN = BENCH / "frozen"
STATE = ROOT / ".bench_state"


@dataclass(frozen=True)
class Query:
    id: str
    argv: tuple
    check: str  # "gonality", "order" or "bytes"


def _q(qid: str, check: str, *argv: str) -> Query:
    return Query(qid, tuple(argv), check)


# Why each workload exists is recorded in README.md beside this file.
WORKLOADS = {
    "gonality-4x4": (
        _q("gon-4x4", "gonality", "gonality", "--rook", "4,4"),
    ),
    "rank-nosym": (
        _q("nosym-3x4", "gonality", "gonality", "--rook", "3,4", "--no-symmetry"),
        _q("nosym-2x5-k3", "gonality", "gonality", "--rook", "2,5", "--k", "3",
           "--no-symmetry"),
        _q("nosym-2x2x3-k2", "gonality", "gonality", "--rook", "2,2,3", "--k", "2",
           "--no-symmetry"),
    ),
    "scramble-orders": (
        _q("uniform-3x3x3-k3", "order", "scramble", "order", "--family", "uniform",
           "--dims", "3,3,3", "--k", "3"),
        _q("star-6x6", "order", "scramble", "order", "--family", "star",
           "--dims", "6,6", "--cut-mode", "auto"),
        _q("star-squares-6x6", "order", "scramble", "order", "--family",
           "star-squares", "--dims", "6,6", "--cut-mode", "auto"),
    ),
    "verify-full-t2": (
        _q("verify-full-t2", "bytes", "verify", "--suite", "full", "--threads", "2"),
    ),
    # Smoke-size inputs for selftest.py; not part of BENCHMARK.json.
    "smoke": (
        _q("smoke-gon-2x3", "gonality", "gonality", "--rook", "2,3"),
        _q("smoke-gon-3x4-t2", "gonality", "gonality", "--rook", "3,4",
           "--threads", "2"),
        _q("smoke-uniform-2x3-k1", "order", "scramble", "order", "--family",
           "uniform", "--dims", "2,3", "--k", "1"),
        _q("smoke-verify-t2", "bytes", "verify", "--suite", "smoke", "--threads", "2"),
    ),
}

# A process that starts, imports the package and exits without solving.
SETUP_QUERY = _q("setup", "bytes", "graph", "gen", "--rook", "2,2")

CHECKED_FIELDS = {
    "gonality": ("value", "witness", "orbit_counts"),
    "order": ("hitting_number", "min_egg_cut", "cut_exact", "order", "egg_count"),
}


# ----------------------------------------------------------------------
# launching
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    query: Query
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: str
    problems: list


def check_layout() -> Optional[str]:
    """Why this directory cannot be benchmarked, or None when it can."""
    if not (SRC / "rookgon" / "__init__.py").is_file():
        return f"no rookgon sources under {SRC}"
    if not (FROZEN / "expected.json").is_file():
        return f"no frozen expectations under {FROZEN}"
    return None


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("ROOKGON_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_command(argv) -> list:
    return [sys.executable, "-m", "rookgon.cli", *argv]


def probe_command(argv, speed_file: Path) -> list:
    return [sys.executable, str(BENCH / "probe.py"), "--out", str(speed_file),
            "--", *argv]


def traced_command(argv, trace_file: Path) -> list:
    return [sys.executable, str(BENCH / "tracer.py"), "--out", str(trace_file),
            "--", *argv]


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(query: Query, cmd: list, deadline: float,
           expected: Optional[dict] = None) -> Outcome:
    """Run one child to completion and check its report.

    The child gets its own session so that a timeout kills its pool
    workers too; ``wait4`` returns the child's usage including every
    worker it reaped.
    """
    io_dir = STATE / "io"
    io_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = io_dir / "stdout", io_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT, start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # workers left behind by a crashed child, if any
    stdout = out_path.read_bytes()
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: {stderr.strip()[-300:]}")
    elif expected is not None:
        problems = check_report(query, stdout, expected)
    return Outcome(query, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0, stdout, stderr, problems)


# ----------------------------------------------------------------------
# frozen expectations
# ----------------------------------------------------------------------

def load_expected() -> dict:
    with open(FROZEN / "expected.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_report(query: Query, stdout: bytes, expected: dict) -> list:
    """Differences between a report and its frozen expectation."""
    exp = expected.get(query.id)
    if exp is None:
        return [f"no frozen expectation for {query.id}"]
    if tuple(exp["argv"]) != query.argv:
        return [f"frozen expectation for {query.id} was made for {exp['argv']}"]
    if query.check == "bytes":
        want = (FROZEN / exp["report"]).read_bytes()
        if stdout != want:
            return [f"report differs from frozen {exp['report']}"]
        return []
    try:
        rec = json.loads(stdout)
    except ValueError:
        return ["report is not JSON"]
    return [f"{k}: got {rec.get(k)!r}, frozen {v!r}"
            for k, v in exp["fields"].items() if rec.get(k) != v]


# ----------------------------------------------------------------------
# workload order and suite stderr
# ----------------------------------------------------------------------

def ordered(workload: str, seed: int) -> list:
    """The workload's queries in a seed-determined order.  Each query runs
    in a fresh process, so the order changes no output."""
    queries = list(WORKLOADS[workload])
    random.Random(seed).shuffle(queries)
    return queries


_CLAIM_LINE = re.compile(r"^\[suite\] (PASS|FAIL)\s+(\S+) \(([0-9.]+)s\)$")
_DIMS_TAG = re.compile(r"-\d+(?:[x-]\d+)*$")


def claim_family(claim_id: str) -> str:
    """Claim id without its trailing dims tag: cert-rank1-2x2x3 -> cert-rank1."""
    return _DIMS_TAG.sub("", claim_id)


def claim_seconds(stderr: str) -> dict:
    """Seconds per claim family, from run_suite's per-claim stderr lines."""
    out: dict = {}
    for line in stderr.splitlines():
        m = _CLAIM_LINE.match(line.strip())
        if m:
            fam = claim_family(m.group(2))
            out[fam] = out.get(fam, 0.0) + float(m.group(3))
    return out


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------

def source_digest() -> str:
    """Digest of the package and benchmark sources: runs with equal
    digests ran the same code."""
    h = hashlib.sha256()
    for path in sorted(list((SRC / "rookgon").glob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }
