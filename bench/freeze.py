"""Freeze the checked fields of every benchmark query from the current code.

    python3 bench/freeze.py

Writes bench/frozen/expected.json and the reference reports it names.
Run it only on a commit whose outputs are trusted.  Two cross-checks must
hold before anything is written:

- a ``--no-symmetry`` gonality query gives the same value and witness as
  the same query with symmetry pruning;
- a byte-checked query (``verify ... --threads 2``) gives exactly the
  report of its single-worker form, which is what is frozen.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def _reference_argv(q: harness.Query):
    argv = list(q.argv)
    if "--no-symmetry" in argv:
        argv.remove("--no-symmetry")
        return argv
    if "--threads" in argv:
        i = argv.index("--threads")
        return argv[:i + 1] + ["1"] + argv[i + 2:]
    return None


def _run(q: harness.Query, argv) -> bytes:
    out = harness.launch(q, harness.cli_command(argv), time.monotonic() + 600.0)
    if out.returncode != 0:
        raise SystemExit(f"{q.id}: {' '.join(argv)} failed: {out.problems}")
    print(f"{q.id}: {' '.join(argv)} ({out.wall_s:.2f}s)", flush=True)
    return out.stdout


def freeze(q: harness.Query) -> dict:
    report = _run(q, q.argv)
    ref_argv = _reference_argv(q)
    reference = _run(q, ref_argv) if ref_argv else None
    entry = {"argv": list(q.argv)}
    if q.check == "bytes":
        if reference is not None and reference != report:
            raise SystemExit(f"{q.id}: report differs from {' '.join(ref_argv)}")
        name = f"{q.id}.report"
        (harness.FROZEN / name).write_bytes(reference or report)
        entry["report"] = name
        if ref_argv:
            entry["reference_argv"] = ref_argv
        return entry
    rec = json.loads(report)
    if reference is not None:
        ref = json.loads(reference)
        for key in ("value", "witness"):
            if rec[key] != ref[key]:
                raise SystemExit(f"{q.id}: {key} {rec[key]} disagrees with "
                                 f"{' '.join(ref_argv)} ({ref[key]})")
        entry["reference_argv"] = ref_argv
    entry["fields"] = {k: rec[k] for k in harness.CHECKED_FIELDS[q.check]}
    return entry


def main() -> int:
    harness.FROZEN.mkdir(exist_ok=True)
    queries = [harness.SETUP_QUERY] + [q for qs in harness.WORKLOADS.values() for q in qs]
    expected = {q.id: freeze(q) for q in queries}
    with open(harness.FROZEN / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
