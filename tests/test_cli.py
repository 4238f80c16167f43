"""End-to-end CLI tests (subprocess, byte-level)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

CMD = [sys.executable, "-m", "rookgon.cli"]


def run_cli(*args, check=True, env_extra=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(CMD + list(args), capture_output=True, env=env,
                          timeout=timeout)
    if check:
        assert proc.returncode == 0, proc.stderr.decode()
    return proc


def out_json(proc):
    return json.loads(proc.stdout.decode())


# ======================================================================
# subcommands
# ======================================================================

def test_graph_gen_rook():
    proc = run_cli("graph", "gen", "--rook", "2,2")
    data = out_json(proc)
    assert data == {
        "dims": [2, 2],
        "edges": [[0, 1, 1], [0, 2, 1], [1, 3, 1], [2, 3, 1]],
        "vertex_count": 4,
    }
    assert proc.stdout.endswith(b"\n")


def test_graph_gen_complete():
    data = out_json(run_cli("graph", "gen", "--complete", "3"))
    assert data["vertex_count"] == 3
    assert len(data["edges"]) == 3


def test_graph_gen_complete_zero_names_the_real_problem():
    proc = run_cli("graph", "gen", "--complete", "0", check=False)
    assert proc.returncode == 2
    assert b"complete graph needs at least one vertex" in proc.stderr
    assert proc.stdout == b""


def test_reduce():
    proc = run_cli("reduce", "--rook", "2,2", "--chips", "2,0,0,0",
                   "--vertex", "2")
    assert out_json(proc) == {
        "firing_counts": [1, 0, 0, 0],
        "kind": "reduce",
        "reduced": [0, 1, 1, 0],
        "vertex": 2,
    }


def test_rank():
    data = out_json(run_cli("rank", "--rook", "2,3",
                            "--chips", "0,0,0,1,1,1"))
    assert data["rank"] == 1
    assert data["winnable"] is True
    assert data["degree"] == 3
    # negative chip counts need the = form so argparse keeps the dash
    data = out_json(run_cli("rank", "--rook", "2,2", "--chips=-1,0,0,0"))
    assert data["rank"] == -1
    assert data["winnable"] is False


def test_rank_above_canonical_degree_is_immediate():
    # degree 36 > 2g - 2 = 18 on 3x3, so Riemann–Roch gives 36 - 10
    data = out_json(run_cli("rank", "--rook", "3,3",
                            "--chips", "4,4,4,4,4,4,4,4,4", timeout=20))
    assert data["rank"] == 26


def test_gonality_record():
    proc = run_cli("gonality", "--rook", "2,3")
    data = out_json(proc)
    assert data["kind"] == "gonality"
    assert data["value"] == 3
    assert data["witness"] == [0, 0, 0, 1, 1, 1]
    assert data["exhaustive"] is True
    assert data["refuted_degrees"] == [1, 2]
    assert data["orbit_counts"] == {"1": 1, "2": 4}
    assert data["symmetry"] is True
    assert data["witness_digest"] == "ffa9a1368b97"
    assert data["witness_slice_stats"] == {
        "poorest_column_chips": 1, "poorest_row_chips": 0}
    assert "time" not in data


def test_gonality_no_symmetry_and_k():
    data = out_json(run_cli("gonality", "--rook", "2,2", "--no-symmetry"))
    assert data["symmetry"] is False
    assert data["value"] == 2
    data = out_json(run_cli("gonality", "--rook", "2,2", "--k", "2"))
    assert data["value"] == 3


def test_gonality_no_symmetry_k2_matches_symmetric():
    # the rank recursion runs on every divisor, not on orbit representatives
    plain = out_json(run_cli("gonality", "--rook", "2,3", "--k", "2",
                             "--no-symmetry"))
    sym = out_json(run_cli("gonality", "--rook", "2,3", "--k", "2"))
    assert plain["value"] == sym["value"] == 5
    assert plain["witness"] == sym["witness"] == [0, 0, 0, 1, 2, 2]
    assert plain["orbit_counts"] == {"2": 21, "3": 56, "4": 126}


def test_gonality_from_graph_file(tmp_path):
    gfile = tmp_path / "g.json"
    gfile.write_bytes(run_cli("graph", "gen", "--rook", "2,3").stdout)
    data = out_json(run_cli("gonality", "--graph", str(gfile)))
    assert data["value"] == 3
    assert data["dims"] == [2, 3]


def test_gonality_graph_file_without_rook_shape(tmp_path):
    # K5 is written with dims [5], which is no rook shape: the search runs
    # plainly instead of failing to build a rook group
    gfile = tmp_path / "k5.json"
    run_cli("graph", "gen", "--complete", "5", "-o", str(gfile))
    pruned = run_cli("gonality", "--graph", str(gfile))
    plain = run_cli("gonality", "--graph", str(gfile), "--no-symmetry")
    assert pruned.stdout == plain.stdout
    data = out_json(pruned)
    assert data["value"] == 4
    assert data["symmetry"] is False


def test_gonality_default_cap_is_genus_plus_k(tmp_path):
    # K2 at k = 3 used to get the cap n + genus = 2 and exit 2
    gfile = tmp_path / "k2.json"
    run_cli("graph", "gen", "--complete", "2", "-o", str(gfile))
    data = out_json(run_cli("gonality", "--graph", str(gfile), "--k", "3"))
    assert (data["value"], data["degree_cap"], data["witness"]) == (3, 3, [0, 3])
    data = out_json(run_cli("gonality", "--rook", "2,2,3", "--k", "2"))
    assert (data["value"], data["degree_cap"]) == (9, 15)


def test_gonality_plain_scan_on_a_long_path(tmp_path):
    # the plain scan walks prefixes with an explicit stack: 1,500 positions
    # deep must not raise RecursionError, and the lex-first rank-1 divisor
    # of a path is one chip on its last vertex
    n = 1500
    gfile = tmp_path / "path.json"
    gfile.write_text(json.dumps({"vertex_count": n, "dims": None,
                                 "edges": [[i, i + 1, 1] for i in range(n - 1)]}))
    proc = run_cli("gonality", "--graph", str(gfile), "--no-symmetry", timeout=120)
    assert b"RecursionError" not in proc.stderr
    data = out_json(proc)
    assert data["value"] == 1
    assert data["witness"] == [0] * (n - 1) + [1]


def test_gonality_refuses_to_list_the_6x6x6_relabelings():
    # its 518,400 outer relabelings took 226 MB and 4 s before the first
    # degree-1 vector; the refusal comes before any is built
    proc = run_cli("gonality", "--rook", "6,6,6", check=False, timeout=20)
    assert proc.returncode == 2
    assert b"518,400 outer relabelings" in proc.stderr
    assert b"--no-symmetry" in proc.stderr
    assert b"Traceback" not in proc.stderr
    assert proc.stdout == b""


def test_gonality_refuses_the_7_cube_pruning_set():
    # 5,040 axis orders times 128 move combinations: building that prune
    # set ran 40-50 s and ended in a MemoryError traceback; the count
    # comes from arithmetic before any permutation is built
    proc = run_cli("gonality", "--rook", "2,2,2,2,2,2,2", "--cap", "1",
                   check=False, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: ")
    assert b"645,120 pruning permutations" in proc.stderr
    assert b"--no-symmetry" in proc.stderr
    assert b"Traceback" not in proc.stderr
    assert proc.stdout == b""


def test_gonality_threads_output_matches_serial():
    serial = run_cli("gonality", "--rook", "3,4", "--threads", "1")
    many = run_cli("gonality", "--rook", "3,4", "--threads", "8")
    assert out_json(serial)["value"] == 8
    assert many.stdout == serial.stdout


def test_gonality_csv():
    proc = run_cli("gonality", "--rook", "2,3", "--format", "csv")
    lines = proc.stdout.decode().splitlines()
    assert lines[0] == "kind,dims,k,value,witness_digest,time"
    assert lines[1] == "gonality,2x3,1,3,ffa9a1368b97,"


def test_scramble_order_csv():
    proc = run_cli("scramble", "order", "--family", "uniform", "--dims", "2,3",
                   "--k", "2", "--format", "csv")
    assert proc.stdout == (b"kind,dims,k,value,witness_digest,time\n"
                           b"order,2x3,2,3,2c5b23b8ed11,\n")


def test_scramble_order_star():
    data = out_json(run_cli("scramble", "order", "--family", "star",
                            "--dims", "4,4"))
    assert data["kind"] == "order"
    assert data["family"] == "star"
    assert data["egg_count"] == 176
    assert data["hitting_number"] == 11
    assert data["min_egg_cut"] == 12
    assert data["cut_exact"] is True
    assert data["order"] == data["value"] == 11
    assert len(data["max_avoidance"]) == 5


def test_scramble_order_uniform():
    data = out_json(run_cli("scramble", "order", "--family", "uniform",
                            "--dims", "2,3", "--k", "1"))
    assert data["order"] == 3
    assert data["hitting_number"] == 6
    assert data["min_egg_cut"] == 3
    assert data["witness_digest"] == "0061dfc057e4"


def test_scramble_order_star_squares_auto_takes_the_floor():
    data = out_json(run_cli("scramble", "order", "--family", "star-squares",
                            "--dims", "6,6", "--cut-mode", "auto"))
    assert data["hitting_number"] == 27
    assert data["min_egg_cut"] == 28
    assert data["cut_exact"] is False
    assert data["order"] == 27
    assert data["egg_count"] == 50697


def test_scramble_order_exact_refuses_past_the_flow_budget():
    # the cut floor (28) lies below the best pair cut (30), so without a
    # budget the exact scan would try all ~1.28e9 disjoint egg pairs
    proc = run_cli("scramble", "order", "--family", "star-squares",
                   "--dims", "6,6", "--cut-mode", "exact", check=False,
                   timeout=120)
    assert proc.returncode == 2
    assert b"best cut at 30" in proc.stderr
    assert b"floor 28" in proc.stderr
    assert b"--cut-mode auto" in proc.stderr
    assert b"Traceback" not in proc.stderr
    assert proc.stdout == b""


def test_scramble_order_from_file(tmp_path):
    # 32 x 32: one egg, and 512 disjoint row pairs, on 1,024 vertices
    sfile = tmp_path / "s.json"
    for host, eggs, hitting, cut in (
            ([2, 3], [[0], [1], [2], [3], [4], [5]], 6, 3),
            ([32, 32], [[0]], 1, None),
            ([32, 32], [[2 * i, 2 * i + 1] for i in range(512)], 512, 122)):
        sfile.write_text(json.dumps({"host": host, "eggs": eggs}))
        data = out_json(run_cli("scramble", "order", "--file", str(sfile)))
        assert (data["hitting_number"], data["min_egg_cut"]) == (hitting, cut)
        assert data["order"] == min(hitting, cut or hitting)


def test_scramble_order_without_a_disjoint_pair_is_exact_in_every_mode(
        tmp_path, monkeypatch, capsys):
    # one egg: the cut is +infinity in every mode, and no floor is computed
    from rookgon import cli, scrambles

    def no_floor(s):
        raise AssertionError("the cut floor was computed")

    monkeypatch.setattr(scrambles, "egg_cut_floor", no_floor)
    sfile = tmp_path / "one.json"
    sfile.write_text(json.dumps({"host": [32, 32], "eggs": [[0]]}))
    outs = []
    for mode in ("exact", "auto"):
        assert cli.main(["scramble", "order", "--file", str(sfile),
                         "--cut-mode", mode]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[0]
    data = json.loads(outs[0])
    assert (data["min_egg_cut"], data["cut_exact"], data["order"]) == (None, True, 1)


def test_scramble_order_auto_takes_the_floor_on_three_factor_host():
    data = out_json(run_cli("scramble", "order", "--family", "uniform",
                            "--dims", "2,2,2", "--k", "2", "--cut-mode", "auto"))
    assert data["cut_exact"] is False
    assert data["min_egg_cut"] == 4
    assert data["order"] == 4


def test_scramble_order_floor_cut_mode_is_rejected():
    # the floor record is what auto prints when the floor settles the
    # order, so there is no third cut mode
    from rookgon.graphs import rook_graph
    from rookgon.scrambles import scramble_order, uniform_scramble

    with pytest.raises(ValueError, match="exact or auto"):
        scramble_order(uniform_scramble(rook_graph([2, 2]), 3), "floor")
    proc = run_cli("scramble", "order", "--family", "uniform", "--dims", "2,2",
                   "--k", "3", "--cut-mode", "floor", check=False)
    assert proc.returncode == 2
    assert b"invalid choice: 'floor'" in proc.stderr
    assert b"Traceback" not in proc.stderr
    assert proc.stdout == b""


def test_scramble_order_uniform_2x2_k3_answers_in_both_modes():
    # any two 3-subsets of the four vertices meet, so the cut is +infinity
    # and the order is the hitting number in either mode
    outs = [run_cli("scramble", "order", "--family", "uniform", "--dims", "2,2",
                    "--k", "3", "--cut-mode", mode).stdout
            for mode in ("exact", "auto")]
    assert outs[1] == outs[0]
    data = json.loads(outs[0])
    assert (data["min_egg_cut"], data["cut_exact"], data["order"]) == (None, True, 2)


def test_oversized_graph_files_exit_two_under_a_memory_limit(tmp_path):
    # graph_from_json and the dims constructors check the size before they
    # build the n × n matrix, which for 90,000 or 100,000 vertices ended in
    # a MemoryError traceback; each run gets a 600 MB address space of its own
    empty = {"vertex_count": 100000, "edges": []}
    path = {"vertex_count": 100000,
            "edges": [[u, u + 1, 1] for u in range(99999)]}
    files = {}
    for name, data in (("empty", empty), ("path", path),
                       ("scramble", {"host": empty, "eggs": [[0], [1]]}),
                       ("rook-host", {"host": [300, 300], "eggs": [[0], [1]]})):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(data))
    limited = ("import resource, sys\n"
               "resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))\n"
               "from rookgon.cli import main\n"
               "sys.exit(main(sys.argv[1:]))\n")
    too_many = b"dims [300, 300] give 90000 vertices, above the limit of 2048 vertices"
    for args, message in (
            (["rank", "--graph", str(files["empty"]), "--chips", "0"],
             b"graph must be connected"),
            (["rank", "--graph", str(files["path"]), "--chips", "0"],
             b"vertex_count 100000 is above the limit of 2048 vertices"),
            (["scramble", "order", "--file", str(files["scramble"])],
             b"graph must be connected"),
            (["rank", "--rook", "300,300", "--chips", "0"], too_many),
            (["scramble", "order", "--family", "star", "--dims", "300,300"], too_many),
            (["scramble", "order", "--file", str(files["rook-host"])], too_many)):
        proc = subprocess.run([sys.executable, "-c", limited, *args],
                              capture_output=True, timeout=60)
        assert proc.returncode == 2, proc.stderr.decode()
        assert proc.stderr.startswith(b"error: ") and message in proc.stderr
        assert b"Traceback" not in proc.stderr
        assert proc.stdout == b""


def test_scramble_avoidance_staircase():
    data = out_json(run_cli("scramble", "avoidance",
                            "--construction", "staircase", "--dims", "4,5"))
    assert data == {
        "component_sizes": [2, 2, 2],
        "components": [[0, 1], [7, 8], [14, 19]],
        "construction": "staircase",
        "kind": "avoidance",
        "params": {"dims": [4, 5]},
        "size": 6,
        "vertices": [0, 1, 7, 8, 14, 19],
    }


def test_scramble_avoidance_cube_diagonal():
    data = out_json(run_cli("scramble", "avoidance",
                            "--construction", "cube-diagonal", "--n", "3"))
    assert data["size"] == 10
    assert data["component_sizes"] == [2, 2, 2, 2, 2]
    assert data["vertices"] == [1, 2, 3, 6, 9, 13, 17, 18, 22, 26]


@pytest.mark.parametrize("argv", [
    ("--construction", "cube-diagonal", "--n", "4"),
    ("--construction", "staircase", "--dims", "5,7"),
])
def test_scramble_avoidance_builds_its_host_once(argv, monkeypatch, capsys):
    # the construction checks itself on neighbour masks, so the report's
    # components come from the one host built
    from rookgon import cli, graphs, scrambles

    built = []
    rook_graph = graphs.rook_graph

    def counted(dims):
        built.append(tuple(dims))
        return rook_graph(dims)

    monkeypatch.setattr(graphs, "rook_graph", counted)
    monkeypatch.setattr(scrambles, "rook_graph", counted)
    assert cli.main(["scramble", "avoidance", *argv]) == 0
    assert len(built) == 1
    assert json.loads(capsys.readouterr().out)["kind"] == "avoidance"


def test_verify_smoke():
    proc = run_cli("verify", "--suite", "smoke")
    data = out_json(proc)
    assert data["suite"] == "smoke"
    assert data["counts"]["fail"] == 0
    assert data["counts"]["pass"] == len(data["claims"])
    assert b"[suite] PASS" in proc.stderr


# ======================================================================
# output handling and determinism
# ======================================================================

def test_output_file_matches_stdout(tmp_path):
    stdout_run = run_cli("gonality", "--rook", "2,2")
    ofile = tmp_path / "out.json"
    file_run = run_cli("gonality", "--rook", "2,2", "-o", str(ofile))
    assert ofile.read_bytes() == stdout_run.stdout
    assert file_run.stdout == b""


def test_repeat_runs_are_byte_identical():
    a = run_cli("scramble", "order", "--family", "star", "--dims", "3,4")
    b = run_cli("scramble", "order", "--family", "star", "--dims", "3,4")
    assert a.stdout == b.stdout


def test_canonical_json_formatting():
    raw = run_cli("gonality", "--rook", "2,2").stdout.decode()
    assert raw.endswith("\n")
    body = raw[:-1]
    assert "\n" not in body and ": " not in body and ", " not in body
    keys = list(json.loads(body))
    assert keys == sorted(keys)


def test_timings_flag_adds_time_key():
    data = out_json(run_cli("gonality", "--rook", "2,2", "--timings"))
    assert "time" in data and data["time"] >= 0.0


def _modules_loaded(*args):
    """The rookgon modules and dataclasses that one CLI launch loads."""
    code = ("import sys\n"
            "from rookgon.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(*(m for m in sys.modules\n"
            "        if m.split('.')[0] in ('rookgon', 'dataclasses')), file=sys.stderr)\n"
            "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, check=True)
    return set(proc.stderr.decode().split())


@pytest.mark.parametrize("argv, extra", [
    (("graph", "gen", "--rook", "2,2"), set()),
    (("scramble", "order", "--family", "star", "--dims", "4,4"),
     {"rookgon.scrambles"}),
    (("gonality", "--rook", "2,3"),
     {"rookgon.divisors", "rookgon.symmetry", "rookgon.gonality"}),
])
def test_a_launch_loads_only_its_subcommands_modules(argv, extra):
    # neither rookgon.suite nor dataclasses (which imports inspect) loads
    assert _modules_loaded(*argv) == {"rookgon", "rookgon.cli", "rookgon.graphs"} | extra


def test_verify_help_lists_the_suites():
    assert b"{smoke,standard,full}" in run_cli("verify", "--help").stdout


def test_pyproject_version_matches_package():
    # the installed package and the import report one version, so both
    # must be bumped together
    from rookgon import __version__
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert match is not None
    assert match.group(1) == __version__


def test_no_report_is_read_from_or_written_to_disk(tmp_path):
    # a stored report could outlive the code that computed it
    cache = tmp_path / "cache"
    plain = run_cli("gonality", "--rook", "2,3")
    with_env = run_cli("gonality", "--rook", "2,3",
                       env_extra={"ROOKGON_CACHE": str(cache)})
    assert with_env.stdout == plain.stdout
    assert not cache.exists()
    proc = run_cli("gonality", "--rook", "2,3", "--cache-dir", str(cache),
                   check=False)
    assert proc.returncode == 2
    assert b"--cache-dir" in proc.stderr
    assert not cache.exists()


# ======================================================================
# errors
# ======================================================================

def test_usage_errors_exit_two():
    cases = [
        ("gonality",),                                   # no graph given
        ("gonality", "--rook", "1,3"),                   # bad dims
        ("gonality", "--rook", "2,3", "--lower-bound", "100"),  # above the cap
        ("rank", "--rook", "2,2"),                       # no chips
        ("reduce", "--rook", "2,2", "--chips", "0,0,0,0", "--vertex", "9"),
        ("scramble", "order", "--family", "star", "--dims", "9"),
        ("scramble", "order", "--family", "uniform", "--dims", "2,3"),
        ("scramble", "avoidance", "--construction", "staircase",
         "--dims", "9"),
        ("scramble", "avoidance", "--construction", "staircase",
         "--dims", "4,9"),
        ("gonality", "--graph", "/nonexistent/g.json"),
    ]
    for args in cases:
        proc = run_cli(*args, check=False)
        assert proc.returncode == 2, args
        assert proc.stderr, args


@pytest.mark.parametrize("command", [("gonality", "--rook", "2,2"),
                                     ("verify", "--suite", "smoke")])
def test_threads_below_one_exits_two(command):
    proc = run_cli(*command, "--threads", "0", check=False)
    assert proc.returncode == 2
    assert b"--threads" in proc.stderr
    assert proc.stdout == b""


@pytest.mark.parametrize("value", ["0", "nan", "inf", "-1", "-inf", "abc"])
def test_verify_has_no_budget_flag(value):
    # the wall-clock budget skipped claims on guessed costs and was removed
    proc = run_cli("verify", "--suite", "smoke", "--budget-secs", value,
                   check=False)
    assert proc.returncode == 2
    assert b"--budget-secs" in proc.stderr
    assert proc.stdout == b""


def test_malformed_scramble_file_exits_two(tmp_path):
    sfile = tmp_path / "s.json"
    cases = [{"host": [2, 3], "eggs": eggs}
             for eggs in ([[0, 1], 5], [[0, "x"]], [[0, None]], [[0, [1]]])]
    cases += [{"host": host, "eggs": [[0]]}
              for host in ([[2], 3], [2, 3.0], ["2", "3"], [2, True])]
    for data in cases:
        sfile.write_text(json.dumps(data))
        proc = run_cli("scramble", "order", "--file", str(sfile), check=False)
        assert proc.returncode == 2, data
        assert proc.stderr.startswith(b"error:"), data
        assert b"Traceback" not in proc.stderr, data


@pytest.mark.parametrize("edges", [5, None, 1.5, True])
def test_graph_file_with_malformed_edges_exits_two(tmp_path, edges):
    # a non-list edges value used to end in a TypeError traceback
    graph = {"vertex_count": 2, "edges": edges}
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps(graph))
    sfile = tmp_path / "s.json"
    sfile.write_text(json.dumps({"host": graph, "eggs": [[0]]}))
    for args in (("gonality", "--graph", str(gfile)),
                 ("rank", "--graph", str(gfile), "--chips", "0,0"),
                 ("scramble", "order", "--file", str(sfile))):
        proc = run_cli(*args, check=False)
        assert proc.returncode == 2, args
        assert proc.stderr.startswith(b"error:"), args
        assert b"edges must be a list" in proc.stderr, args
        assert proc.stdout == b"", args


@pytest.mark.parametrize("flag", ["--graph", "--divisor", "--file"])
def test_deeply_nested_json_exits_two(tmp_path, flag):
    # a RecursionError from the JSON decoder used to end in a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    args = {"--graph": ("gonality", "--graph", str(deep)),
            "--divisor": ("rank", "--rook", "2,2", "--divisor", str(deep)),
            "--file": ("scramble", "order", "--file", str(deep))}[flag]
    proc = run_cli(*args, check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error:")
    assert b"nested too deeply" in proc.stderr
    assert b"Traceback" not in proc.stderr
    assert proc.stdout == b""


@pytest.mark.parametrize("args, message", [
    (("graph", "gen", "--rook", ""), b"could not parse dims ''"),
    (("gonality", "--rook", ""), b"could not parse dims ''"),
    (("rank", "--rook", "2,2", "--chips", ""), b"could not parse chip list ''"),
    (("reduce", "--rook", "2,2", "--chips", "", "--vertex", "0"),
     b"could not parse chip list ''"),
])
def test_empty_flag_values_are_parsed(args, message):
    # an empty value was taken for a missing flag
    proc = run_cli(*args, check=False)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == b""


def test_star_squares_refuses_egg_size_above_five():
    # 7x7 used to run for minutes with no output
    proc = run_cli("scramble", "order", "--family", "star-squares",
                   "--dims", "7,7", check=False, timeout=60)
    assert proc.returncode == 2
    assert b"egg sizes n-1 up to 5" in proc.stderr
    assert proc.stdout == b""


def test_clear_message_for_short_dims():
    proc = run_cli("scramble", "order", "--family", "star", "--dims", "9",
                   check=False)
    assert b"exactly two dims" in proc.stderr


def test_argparse_errors():
    proc = run_cli("frobnicate", check=False)
    assert proc.returncode == 2
    proc = run_cli("gonality", "--rook", "2,2", "--format", "xml",
                   check=False)
    assert proc.returncode == 2
