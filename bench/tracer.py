"""Run one rookgon CLI query in this process with each layer's public
entry points wrapped from outside, then write per-layer times and work
counts as JSON.

    PYTHONPATH=src python3 bench/tracer.py --out trace.json -- gonality --rook 4,4

The report goes to stdout exactly as ``python3 -m rookgon.cli`` writes
it.  Nothing under ``src/rookgon`` is modified: every wrapper replaces a
function in each package module that holds a reference to it, because
callers look functions up by the name they imported.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
from collections import defaultdict

import rookgon.cli
from rookgon import divisors, gonality, graphs, scrambles, symmetry

# Spans whose reported time includes the spans nested inside them; every
# other span reports self time.
INCLUSIVE = ("gonality.search_s", "cli.main_s")


def _child_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.pool_cpu_s = 0.0
        self.reps_needed = 0
        self.reps_yielded = 0
        self._open = []     # time covered by child spans, per open span
        self._graphs = {}   # graphs whose rank memos are reported
        self._level = None  # reps of the current level inside k_gonality
        self._done = 0      # reps of finished levels inside k_gonality

    # -- spans ---------------------------------------------------------

    def _enter(self) -> float:
        self._open.append(0.0)
        return time.perf_counter()

    def _leave(self, name: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        child = self._open.pop()
        self.inclusive[name] += dt
        self.self_time[name] += dt - child
        if self._open:
            self._open[-1] += dt

    def span(self, name: str, fn, after=None):
        """Wrap a function; ``after(args, result)`` updates counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._leave(name, t0)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def gen_span(self, name: str, fn, on_item):
        """Wrap a generator function, timing each ``next()``: the call
        itself only builds the generator and takes no time."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            self._start_stream(name)
            while True:
                t0 = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(name, t0)
                on_item(item)
                yield item
        return wrapper

    # -- per-layer hooks -------------------------------------------------

    def _start_stream(self, name: str) -> None:
        if name == "symmetry.orbit_stream_s" and self._level is not None:
            self._done += len(self._level)
            self._level = []

    def _orbit_rep(self, rep) -> None:
        self.counts["symmetry.orbit_reps"] += 1
        if self._level is not None:
            self._level.append(rep)

    def _egg(self, egg) -> None:
        self.counts["graphs.eggs_enumerated"] += 1

    def _rank_test(self, args, ok) -> None:
        self.counts["divisors.rank_tests"] += 1
        g = args[0]
        self._graphs[id(g)] = g

    def _flow(self, args, out) -> None:
        self.counts["graphs.flows"] += 1

    def _flow_value(self, args, out) -> None:
        self.counts["graphs.flows"] += 1
        if not out[1]:
            self.counts["graphs.flows_cut_short"] += 1

    def wrap_k_gonality(self, fn):
        """Search time, pool CPU and the share of yielded representatives
        a serial scan would have needed."""
        timed = self.span("gonality.search_s", fn)

        @functools.wraps(fn)
        def k_gonality(*args, **kwargs):
            cpu0 = _child_cpu()  # pool workers are reaped before the call returns
            self._level, self._done = [], 0
            try:
                res = timed(*args, **kwargs)
            finally:
                self.pool_cpu_s += _child_cpu() - cpu0
                level, done = self._level, self._done
                self._level = None
            self.reps_yielded += done + len(level)
            if res.witness is None:
                self.reps_needed += done + len(level)
            else:
                self.reps_needed += done + level.index(tuple(res.witness)) + 1
            return res
        return k_gonality

    def wrap_elements(self, fn):
        @functools.wraps(fn)
        def elements(group, *args, **kwargs):
            self.counts["symmetry.elements_calls"] += 1
            t0 = self._enter()
            try:
                return fn(group, *args, **kwargs)
            except symmetry.GroupTooLarge:
                self.counts["symmetry.group_too_large"] += 1
                raise
            finally:
                self._leave("symmetry.elements_s", t0)
        return elements

    def wrap_counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in self.inclusive:
            out[name] = (self.inclusive[name] if name in INCLUSIVE
                         else self.self_time[name])
        out.update(self.counts)
        out["divisors.rank_memo_entries"] = sum(
            len(g._cache.get("rank_ge", {})) for g in self._graphs.values())
        out["gonality.pool_cpu_s"] = self.pool_cpu_s
        return out


def patch(fn, wrapper) -> None:
    """Replace fn by wrapper in every rookgon module that refers to it."""
    for name, mod in list(sys.modules.items()):
        if name == "rookgon" or name.startswith("rookgon."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)


def install(t: Tracer) -> None:
    patch(symmetry.iter_orbit_min_vectors,
          t.gen_span("symmetry.orbit_stream_s", symmetry.iter_orbit_min_vectors,
                     t._orbit_rep))
    symmetry.SymmetryGroup.elements = t.wrap_elements(symmetry.SymmetryGroup.elements)
    patch(divisors.rank_at_least,
          t.span("divisors.rank_at_least_s", divisors.rank_at_least, t._rank_test))
    patch(divisors.verify_rank_at_least,
          t.span("divisors.verify_rank_s", divisors.verify_rank_at_least))
    patch(divisors.is_winnable,
          t.wrap_counter("divisors.winnable_checks", divisors.is_winnable))
    patch(gonality.k_gonality, t.wrap_k_gonality(gonality.k_gonality))
    patch(graphs.min_cut_value,
          t.span("graphs.flow_s", graphs.min_cut_value, t._flow_value))
    patch(graphs.min_cut_between,
          t.span("graphs.flow_s", graphs.min_cut_between, t._flow))
    patch(graphs.connected_subsets,
          t.gen_span("graphs.egg_enum_s", graphs.connected_subsets, t._egg))
    patch(scrambles.hitting_number,
          t.span("scrambles.hitting_s", scrambles.hitting_number))
    patch(scrambles.min_egg_cut, t.span("scrambles.cut_scan_s", scrambles.min_egg_cut))
    patch(scrambles.egg_cut_floor,
          t.span("scrambles.cut_floor_s", scrambles.egg_cut_floor))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the trace JSON")
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="rookgon CLI arguments, after --")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    t = Tracer()
    install(t)
    t0 = t._enter()
    try:
        code = rookgon.cli.main(argv)
    finally:
        t._leave("cli.main_s", t0)
        sys.stdout.flush()
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"metrics": t.metrics(), "reps_needed": t.reps_needed,
                       "reps_yielded": t.reps_yielded}, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
