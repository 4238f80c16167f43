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


def test_scramble_order_star_squares_floor():
    data = out_json(run_cli("scramble", "order", "--family", "star-squares",
                            "--dims", "6,6", "--cut-mode", "floor"))
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
    sfile = tmp_path / "s.json"
    sfile.write_text(json.dumps(
        {"host": [2, 3], "eggs": [[0], [1], [2], [3], [4], [5]]}))
    data = out_json(run_cli("scramble", "order", "--file", str(sfile)))
    assert data["order"] == 3


def test_scramble_order_floor_on_three_factor_host():
    data = out_json(run_cli("scramble", "order", "--family", "uniform",
                            "--dims", "2,2,2", "--k", "2", "--cut-mode", "floor"))
    assert data["cut_exact"] is False
    assert data["min_egg_cut"] == 4
    assert data["order"] == 4


def test_scramble_order_floor_without_dims_exits_two(tmp_path):
    sfile = tmp_path / "s.json"
    host = {"vertex_count": 4, "dims": None,
            "edges": [[0, 1, 1], [0, 3, 1], [1, 2, 1], [2, 3, 1]]}
    sfile.write_text(json.dumps({"host": host, "eggs": [[0], [2]]}))
    proc = run_cli("scramble", "order", "--file", str(sfile),
                   "--cut-mode", "floor", check=False)
    assert proc.returncode == 2
    assert b"no cut floor is available" in proc.stderr
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
