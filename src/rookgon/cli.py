"""Command-line surface: graph generation, divisor operations, gonality
searches, scramble reports, and the verification suites.

All output is canonical JSON (sorted keys, compact separators, trailing
newline) unless a CSV table is requested, so identical requests produce
byte-identical bytes — the property the determinism suite relies on.

Each handler imports the package modules it runs, so a launch loads only
its subcommand's modules.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import SUITE_NAMES, graphs


# ----------------------------------------------------------------------
# canonical serialization and digests
# ----------------------------------------------------------------------

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def witness_digest(obj) -> str:
    if obj is None:
        return ""
    import hashlib
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:12]


def _dims_tag(dims) -> str:
    if not dims:
        return ""
    return "x".join(str(d) for d in dims)


# ----------------------------------------------------------------------
# result records
# ----------------------------------------------------------------------

def gonality_record(g: graphs.MultiGraph, res, elapsed: Optional[float] = None) -> dict:
    from . import gonality
    rec = {
        "kind": "gonality",
        "dims": list(g.dims) if g.dims else None,
        "vertex_count": g.n,
        "k": res.k,
        "value": res.value,
        "witness": res.witness,
        "witness_digest": witness_digest(res.witness),
        "exhaustive": res.exhaustive,
        "degree_cap": res.degree_cap,
        "lower_bound": res.lower_bound,
        "refuted_degrees": list(res.refuted_degrees),
        "orbit_counts": {str(d): c for d, c in sorted(res.orbit_counts.items())},
        "symmetry": res.symmetry,
    }
    if res.witness is not None:
        poorest = gonality.poorest_slice_chips(g, res.witness)
        if poorest is not None:
            rec["witness_slice_stats"] = poorest
    if elapsed is not None:
        rec["time"] = round(elapsed, 3)
    return rec


def order_record(s, rep, family: Optional[str] = None,
                 elapsed: Optional[float] = None) -> dict:
    host = s.host
    witness = {
        "hitting_set": list(rep.hitting_set),
        "max_avoidance": list(rep.max_avoidance),
        "cut_pair": [list(e) for e in rep.cut_pair] if rep.cut_pair else None,
        "cut_side": list(rep.cut_side) if rep.cut_side else None,
    }
    rec = {
        "kind": "order",
        "dims": list(host.dims) if host.dims else None,
        "vertex_count": host.n,
        "family": family,
        "k": s.uniform_size,
        "egg_count": s.egg_count,
        "hitting_number": rep.hitting_number,
        "hitting_set": list(rep.hitting_set),
        "max_avoidance": list(rep.max_avoidance),
        "min_egg_cut": rep.min_egg_cut,
        "cut_exact": rep.cut_exact,
        "cut_pair": witness["cut_pair"],
        "cut_side": witness["cut_side"],
        "order": rep.order,
        "value": rep.order,
        "witness_digest": witness_digest(witness),
    }
    if elapsed is not None:
        rec["time"] = round(elapsed, 3)
    return rec


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------

_TABLE_COLUMNS = ("kind", "dims", "k", "value", "witness_digest", "time")


def _cell(rec: dict, col: str) -> str:
    val = rec.get(col)
    if col == "dims":
        return _dims_tag(val) if val else str(rec.get("vertex_count", ""))
    if val is None:
        return ""
    if col == "time":
        return f"{val:.3f}"
    return str(val)


def csv_table(rec: dict) -> str:
    """Render one result record as a CSV header and row.

    The columns are fixed, so rows from separate runs can be
    concatenated; quoting follows the csv module's RFC behaviour.
    """
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_TABLE_COLUMNS)
    writer.writerow([_cell(rec, c) for c in _TABLE_COLUMNS])
    return buf.getvalue()


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def _format_record(args, rec: dict) -> str:
    return csv_table(rec) if args.format == "csv" else canonical_json(rec)


def _write_output(args, text: str) -> None:
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# argument helpers
# ----------------------------------------------------------------------

def _parse_dims(text: str) -> list:
    try:
        dims = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"could not parse dims {text!r}; expected e.g. 3,4")
    return dims


def _parse_chips(text: str) -> list:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"could not parse chip list {text!r}")


def _threads(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return n


def _add_threads(p) -> None:
    # Accepted and validated so existing command lines keep working; the
    # worker pool it selected lost to the serial scan on a 2-vCPU machine
    # and was removed.
    p.add_argument("--threads", type=_threads, default=1,
                   help="accepted for compatibility; every scan is serial")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON is nested too deeply") from None


def _graph_from_args(args) -> graphs.MultiGraph:
    if getattr(args, "rook", None) is not None:
        return graphs.rook_graph(_parse_dims(args.rook))
    if getattr(args, "graph", None) is not None:
        return graphs.graph_from_json(_load_json(args.graph))
    raise ValueError("provide a graph with --rook N,M or --graph FILE")


def _divisor_from_args(args, g: graphs.MultiGraph) -> list:
    from . import divisors
    if getattr(args, "chips", None) is not None:
        chips = _parse_chips(args.chips)
    elif getattr(args, "divisor", None) is not None:
        chips = divisors.divisor_from_json(_load_json(args.divisor))
    else:
        raise ValueError("provide chips with --chips a,b,... or --divisor FILE")
    if len(chips) != g.n:
        raise ValueError(f"divisor has {len(chips)} entries for a graph "
                         f"on {g.n} vertices")
    return chips


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def cmd_graph_gen(args) -> int:
    if args.rook is not None:
        g = graphs.rook_graph(_parse_dims(args.rook))
    elif args.complete is not None:
        g = graphs.complete_graph(args.complete)
    else:
        raise ValueError("provide --rook N,M,... or --complete N")
    _write_output(args, canonical_json(graphs.graph_to_json(g)))
    return 0


def cmd_reduce(args) -> int:
    from . import divisors
    g = _graph_from_args(args)
    chips = _divisor_from_args(args, g)
    res = divisors.v_reduce(g, chips, args.vertex)
    _write_output(args, canonical_json({
        "kind": "reduce",
        "vertex": args.vertex,
        "reduced": res.reduced,
        "firing_counts": res.firing_counts,
    }))
    return 0


def cmd_rank(args) -> int:
    from . import divisors
    g = _graph_from_args(args)
    chips = _divisor_from_args(args, g)
    r = divisors.rank(g, chips)
    _write_output(args, canonical_json({
        "kind": "rank",
        "chips": chips,
        "degree": divisors.degree(chips),
        "rank": r,
        "winnable": r >= 0,
    }))
    return 0


def cmd_gonality(args) -> int:
    from . import gonality
    g = _graph_from_args(args)
    t0 = time.monotonic()
    res = gonality.k_gonality(
        g, k=args.k, degree_cap=args.cap, symmetry=not args.no_symmetry,
        lower_bound=args.lower_bound,
    )
    elapsed = (time.monotonic() - t0) if args.timings else None
    _write_output(args, _format_record(args, gonality_record(g, res, elapsed)))
    return 0


def _scramble_from_args(args) -> tuple:
    from . import scrambles
    if args.file:
        s = scrambles.scramble_from_json(_load_json(args.file))
        return s, None
    family = args.family
    if family is None:
        raise ValueError("provide --family star|uniform|star-squares or --file FILE")
    if family == "star":
        if args.dims is None:
            raise ValueError("--family star needs --dims N,M")
        dims = _parse_dims(args.dims)
        if len(dims) != 2:
            raise ValueError("--family star needs exactly two dims, e.g. --dims 4,4")
        return scrambles.star_scramble(*dims), "star"
    if family == "uniform":
        if args.dims is None or args.k is None:
            raise ValueError("--family uniform needs --dims and --k")
        host = graphs.rook_graph(_parse_dims(args.dims))
        return scrambles.uniform_scramble(host, args.k), "uniform"
    if family == "star-squares":
        dims = _parse_dims(args.dims) if args.dims else (6, 6)
        return scrambles.square_augmented_scramble(dims), "star-squares"
    raise ValueError(f"unknown scramble family {family!r}")


def cmd_scramble_order(args) -> int:
    from . import scrambles
    s, family = _scramble_from_args(args)
    t0 = time.monotonic()
    rep = scrambles.scramble_order(s, cut_mode=args.cut_mode)
    elapsed = (time.monotonic() - t0) if args.timings else None
    _write_output(args, _format_record(args, order_record(s, rep, family, elapsed)))
    return 0


def cmd_scramble_avoidance(args) -> int:
    from . import scrambles
    if args.construction == "staircase":
        if args.dims is None:
            raise ValueError("--construction staircase needs --dims N,M")
        dims = _parse_dims(args.dims)
        if len(dims) != 2:
            raise ValueError("--construction staircase needs exactly two dims")
        n, m = dims
        verts = scrambles.staircase_avoidance(n, m)
        params = {"dims": [n, m]}
    elif args.construction == "cube-diagonal":
        if args.n is None:
            raise ValueError("--construction cube-diagonal needs --n N")
        verts = scrambles.cube_diagonal_avoidance(args.n)
        dims = (args.n,) * 3
        params = {"n": args.n}
    else:
        raise ValueError(f"unknown construction {args.construction!r}")
    comps = scrambles.induced_components(graphs.rook_graph(dims), verts)
    _write_output(args, canonical_json({
        "kind": "avoidance",
        "construction": args.construction,
        "params": params,
        "size": len(verts),
        "vertices": list(verts),
        "components": [list(c) for c in comps],
        "component_sizes": [len(c) for c in comps],
    }))
    return 0


def cmd_verify(args) -> int:
    from . import suite
    report = suite.run_suite(args.suite, seed=args.seed)
    _write_output(args, canonical_json(report))
    return 1 if report["counts"]["fail"] else 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _add_common(p) -> None:
    p.add_argument("-o", "--output", help="write the report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rookgon",
        description="chip-firing gonality and scramble calculations on "
                    "rook graphs and general multigraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="graph generation")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)
    p_gen = graph_sub.add_parser("gen", help="emit a graph as JSON")
    p_gen.add_argument("--rook", help="rook graph dims, e.g. 3,4 or 2,2,3")
    p_gen.add_argument("--complete", type=int, help="complete graph size")
    _add_common(p_gen)
    p_gen.set_defaults(func=cmd_graph_gen)

    p_red = sub.add_parser("reduce", help="reduce a divisor at a base vertex")
    p_red.add_argument("--rook", help="rook graph dims")
    p_red.add_argument("--graph", help="graph JSON file")
    p_red.add_argument("--chips", help="chip counts, e.g. 2,0,-1,0")
    p_red.add_argument("--divisor", help="divisor JSON file")
    p_red.add_argument("--vertex", type=int, required=True, help="base vertex")
    _add_common(p_red)
    p_red.set_defaults(func=cmd_reduce)

    p_rank = sub.add_parser("rank", help="divisor rank and winnability")
    p_rank.add_argument("--rook", help="rook graph dims")
    p_rank.add_argument("--graph", help="graph JSON file")
    p_rank.add_argument("--chips", help="chip counts, e.g. 2,0,-1,0")
    p_rank.add_argument("--divisor", help="divisor JSON file")
    _add_common(p_rank)
    p_rank.set_defaults(func=cmd_rank)

    p_gon = sub.add_parser("gonality", help="minimum degree of a rank-k divisor")
    p_gon.add_argument("--rook", help="rook graph dims")
    p_gon.add_argument("--graph", help="graph JSON file")
    p_gon.add_argument("--k", type=int, default=1, help="target rank (default 1)")
    p_gon.add_argument("--cap", type=int, help="degree cap override")
    p_gon.add_argument("--lower-bound", type=int,
                       help="start the search at this degree (marks the result "
                            "non-exhaustive below it)")
    p_gon.add_argument("--no-symmetry", action="store_true",
                       help="disable automorphism orbit pruning")
    _add_threads(p_gon)
    p_gon.add_argument("--timings", action="store_true",
                       help="add wall time to the report")
    p_gon.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p_gon)
    p_gon.set_defaults(func=cmd_gonality)

    p_scr = sub.add_parser("scramble", help="scramble reports")
    scr_sub = p_scr.add_subparsers(dest="scramble_command", required=True)

    p_ord = scr_sub.add_parser("order", help="hitting number, egg cut, and order")
    p_ord.add_argument("--family", choices=("star", "uniform", "star-squares"))
    p_ord.add_argument("--dims", help="rook host dims, e.g. 4,4")
    p_ord.add_argument("--k", type=int, help="egg size for --family uniform")
    p_ord.add_argument("--file", help="scramble JSON file")
    p_ord.add_argument("--cut-mode", choices=("exact", "auto"),
                       default="exact",
                       help="exact pairwise flows, or the certified floor "
                            "when it already settles the order")
    p_ord.add_argument("--timings", action="store_true",
                       help="add wall time to the report")
    p_ord.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p_ord)
    p_ord.set_defaults(func=cmd_scramble_order)

    p_avd = scr_sub.add_parser("avoidance", help="named avoidance constructions")
    p_avd.add_argument("--construction", choices=("staircase", "cube-diagonal"),
                       required=True)
    p_avd.add_argument("--dims", help="rook host dims for staircase, e.g. 4,5")
    p_avd.add_argument("--n", type=int, help="cube side for cube-diagonal")
    _add_common(p_avd)
    p_avd.set_defaults(func=cmd_scramble_avoidance)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", choices=SUITE_NAMES, default="smoke")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed for the randomized property claims")
    _add_threads(p_ver)
    _add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
