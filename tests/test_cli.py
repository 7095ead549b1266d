"""Command-line interface: exit codes, reports, artifacts, determinism."""

import argparse
import gc
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rsgraphs
from rsgraphs import channels, cli, codegraph, geometric, graphs
from rsgraphs.cli import _jsonable, run
from rsgraphs.graphs import MatchingCover, read_cover, read_edge_list, verify_cover
from test_cover_oracle import is_induced_matching, two_sided
from test_graph_oracle import cover_of

PINNED_TEXT = "4 2\n11\n11\n10\n10\n"


def run_out(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def child_env() -> dict:
    """The environment of a child Python that imports this checkout's rsgraphs."""
    src = str(Path(rsgraphs.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_jsonable_converts_numpy_scalars_and_fractions():
    report = {"i": np.int64(7), "f": np.float64(0.25), "q": Fraction(3, 6), 2: [np.int64(-1)]}
    assert json.dumps(_jsonable(report), sort_keys=True) == (
        '{"2": [-1], "f": 0.25, "i": 7, "q": "1/2"}')
    assert [type(v) for v in _jsonable([np.int64(1), np.float64(1)])] == [int, float]


def test_no_command_is_parameter_error(capsys):
    assert run([]) == 1
    assert "parameter error" in capsys.readouterr().err


# Help at the top, group and leaf levels, and argument errors at each level.
PARSE_CASES = [
    ["--help"], ["-h"], ["--version"], ["construct", "--help"], ["channel", "-h"],
    ["construct", "geometric", "--help"], ["codes", "verify", "-h"], ["lintest", "--help"],
    ["vempala", "--c", "3", "-h"], [], ["bogus"], ["channel"], ["channel", "bogus"],
    ["construct", "geometric"], ["construct", "geometric", "--c", "3"],
    ["construct", "geometric", "--c", "x", "--n", "2"],
    ["construct", "code", "--c", "3", "--n", "4", "--d", "2", "--gen", "g.txt", "--gv-seed", "1"],
    ["lintest", "--bogus"], ["vempala", "--c", "3", "--n", "4", "--d", "2", "--format", "xml"],
    ["codes", "verify"], ["limits", "mindeg", "--edges"], ["codes", "gv", "--n", "5", "extra"],
    ["channel", "simulate", "--sched", "missing.txt"], ["channel", "shifts", "--seed", "q"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=[" ".join(a) or "empty" for a in PARSE_CASES])
def test_a_parser_of_one_leaf_answers_as_the_full_tree(argv, capsys, monkeypatch, tmp_path):
    # the same output bytes and exit code as the parser with every leaf's arguments
    monkeypatch.chdir(tmp_path)

    def answer():
        try:
            code = run(list(argv))
        except SystemExit as exc:  # argparse's exit after --help or --version
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    got = answer()
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda argv=None: build())
    assert answer() == got


# The options of each leaf beside -h, --help, --format and --report, which
# every leaf takes: only those its command reads.
LEAF_OPTIONS = {
    ("construct", "geometric"): "--max-vertices --c --n --out --cover",
    ("construct", "code"): "--max-vertices --c --n --d --gen --gv-seed --out --cover",
    ("codes", "gv"): "--seed --n --k --d --out",
    ("codes", "verify"): "",
    ("limits", "triangle"): "--max-vertices --edges --cover --out",
    ("limits", "mindeg"): "--max-vertices --edges --r",
    ("channel", "two"): "--seed --max-vertices --c --n --d --gen --out-schedule",
    ("channel", "shifts"): "--seed --max-vertices --c --n --channels --attempts --out-schedule",
    ("channel", "simulate"): "--max-vertices --schedule --stations",
    ("lintest",): "--seed --max-vertices --edges --cover --m --f --trials",
    ("vempala",): "--seed --max-vertices --c --n --d --gen --out-partition",
}


def test_a_parser_of_one_leaf_gives_no_other_leaf_arguments():
    def leaves(parser):
        """(words, option strings) of each leaf below parser."""
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            return [((), sorted(o for a in parser._actions for o in a.option_strings))]
        return [((name, *words), opts) for name, p in subs[0].choices.items()
                for words, opts in leaves(p)]

    full = dict(leaves(cli._build_parser()))
    assert full == {words: sorted(["-h", "--help", "--format", "--report", *opts.split()])
                    for words, opts in LEAF_OPTIONS.items()}
    for words in full:  # no other leaf or group is even registered
        assert dict(leaves(cli._build_parser([*words, "--seed", "1"]))) == {words: full[words]}


def test_unknown_flag_is_parameter_error(capsys):
    assert run(["construct", "geometric", "--c", "3", "--n", "2", "--frob"]) == 1


# A leaf takes no option its command would not read.
REMOVED = [
    ("construct geometric --c 3 --n 2", "--seed 1"),
    ("construct code --c 3 --n 4 --d 2 --gv-seed 1", "--seed 1"),
    ("codes verify gen.txt", "--seed 1"),
    ("limits triangle --edges e.txt --cover c.txt", "--seed 1"),
    ("limits mindeg --edges e.txt --r 2", "--seed 1"),
    ("channel simulate --schedule s.txt", "--seed 1"),
    ("codes gv --n 5 --k 2 --d 1", "--max-vertices 10"),
    ("codes verify gen.txt", "--max-vertices 10"),
    ("codes gv --n 5 --k 2 --d 1", "--gv-seed 5"),
]


@pytest.mark.parametrize("command,flag", REMOVED, ids=[f"{c.split(' --')[0]} {f.split()[0]}"
                                                         for c, f in REMOVED])
def test_a_leaf_refuses_an_option_it_would_not_read(capsys, command, flag):
    assert run([*command.split(), *flag.split()]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["construct geometric --c 3 --n 2", "codes verify gen.txt"])
def test_a_report_carries_the_defaults_of_options_its_leaf_does_not_take(tmp_path, capsys,
                                                                          monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gen.txt").write_text(PINNED_TEXT)
    code, out = run_out(command.split(), capsys)
    assert code == 0
    params = json.loads(out)["params"]
    assert (params["seed"], params["max_vertices"], params["format"]) == (0, None, "json")


def test_construct_geometric_report(tmp_path, capsys):
    rep_path = tmp_path / "rep.json"
    code, out = run_out(
        [
            "construct",
            "geometric",
            "--c",
            "3",
            "--n",
            "2",
            "--out",
            str(tmp_path / "edges.txt"),
            "--cover",
            str(tmp_path / "cover.txt"),
            "--report",
            str(rep_path),
        ],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["N"] == 9
    assert rep["edges"] == 26
    assert rep["missing"] == 10
    assert rep["mu"] == "8/3"
    assert rep["t"] == rep["r_min"] + 25  # 26 singleton matchings
    assert rep_path.read_text() == out

    g = read_edge_list(tmp_path / "edges.txt")
    c = read_cover(tmp_path / "cover.txt")
    assert verify_cover(g, c).valid


def test_construct_geometric_deterministic(capsys):
    _, a = run_out(["construct", "geometric", "--c", "2", "--n", "4"], capsys)
    _, b = run_out(["construct", "geometric", "--c", "2", "--n", "4"], capsys)
    assert a == b


# argv, with {gen}, {edges}, {cover} and {sched} for the artifacts of the
# pinned 81-vertex instance and {empty} for an empty file; the exit code expected
CAP_CASES = {
    # every command that builds or reads an 81-vertex graph refuses a cap of 10
    "construct geometric": ("construct geometric --c 3 --n 4 --max-vertices 10", 3),
    "construct code": ("construct code --c 3 --n 4 --d 2 --gen {gen} --max-vertices 10", 3),
    "channel two": ("channel two --c 3 --n 4 --d 2 --gen {gen} --max-vertices 10", 3),
    "channel shifts": ("channel shifts --c 3 --n 4 --channels 3 --max-vertices 10", 3),
    "vempala": ("vempala --c 3 --n 4 --d 2 --gen {gen} --max-vertices 10", 3),
    "limits triangle": ("limits triangle --edges {edges} --cover {cover} --max-vertices 10", 3),
    "limits mindeg": ("limits mindeg --edges {edges} --r 2 --max-vertices 10", 3),
    "channel simulate": ("channel simulate --schedule {sched} --max-vertices 10", 3),
    # N = 10201 stations: C(N, 2) is under the pair cap, N^2 station pairs are not
    "channel two pairs": ("channel two --c 101 --n 2 --d 1", 3),
    "vempala pairs": ("vempala --c 101 --n 2 --d 1", 3),
    # an explicit station count is capped too, and must not be negative
    "channel simulate stations": ("channel simulate --schedule {sched} --stations 2000 "
                                  "--max-vertices 100", 3),
    "channel simulate negative stations": ("channel simulate --schedule {empty} --stations -3", 1),
}


@pytest.mark.parametrize("command", [*CAP_CASES, "lintest"])
def test_resource_cap_exit_code(tmp_path, capsys, command):
    gen = tmp_path / "gen.txt"
    gen.write_text(PINNED_TEXT)
    edges, cover = tmp_path / "edges.txt", tmp_path / "cover.txt"
    sched, empty = tmp_path / "sched.txt", tmp_path / "empty.txt"
    empty.write_text("")
    if command == "lintest" or command.startswith(("limits", "channel simulate")):
        assert run(["construct", "code", "--c", "3", "--n", "4", "--d", "2", "--gen", str(gen),
                    "--out", str(edges), "--cover", str(cover)]) == 0
        assert run(["channel", "two", "--c", "3", "--n", "4", "--d", "2", "--gen", str(gen),
                    "--out-schedule", str(sched)]) == 0
        capsys.readouterr()
    if command == "lintest":
        lt = ["lintest", "--edges", str(edges), "--cover", str(cover), "--m", "4", "--f", "and"]
        assert run(lt + ["--trials", "10", "--max-vertices", "10"]) == 3
        assert "resource refusal" in capsys.readouterr().err
        # trials x N points past the pair-check cap are refused before the draw
        assert run(lt + ["--trials", str(10**8 // 81 + 1)]) == 3
        assert "resource refusal" in capsys.readouterr().err
        return
    template, exit_code = CAP_CASES[command]
    argv = template.format(gen=gen, edges=edges, cover=cover, sched=sched, empty=empty).split()
    assert run(argv) == exit_code
    err = capsys.readouterr().err
    assert ("resource refusal" if exit_code == 3 else "parameter error") in err


@pytest.mark.parametrize("command", ["limits triangle --edges {edges} --cover {cover}",
                                     "limits mindeg --edges {edges} --r 2",
                                     "lintest --edges {edges} --cover {cover} --m 2 --f and --trials 1"])
def test_edge_list_header_is_capped_before_the_graph_is_built(tmp_path, capsys, monkeypatch, command):
    # a header N of 2^63 - 1 with one edge: no N x N matrix is ever made
    edges, cover = tmp_path / "edges.txt", tmp_path / "cover.txt"
    edges.write_text(f"{2**63 - 1} 1\n0 1\n")
    cover.write_text("0: 0-1\n")

    def build(*args):
        raise AssertionError("the adjacency matrix was made before the caps ran")

    monkeypatch.setattr(graphs, "adjacency_matrix", build)
    assert run(command.format(edges=edges, cover=cover).split()) == 3
    assert "9223372036854775807 vertices exceed the cap of 100000;" in capsys.readouterr().err
    # an edge outside the header's range is reported first, as before the caps moved
    edges.write_text("5 1\n0 7\n")
    assert run(command.format(edges=edges, cover=cover).split() + ["--max-vertices", "1"]) == 1
    assert "edge (0,7) outside vertex range 0..4" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["construct geometric --c {c} --n {n}",
                                     "channel shifts --c {c} --n {n} --channels 2"])
def test_geometric_cover_is_capped_before_the_lockstep(capsys, monkeypatch, command):
    def refuse(name):
        def kernel(*args):
            raise AssertionError(f"{name} ran before the cap")
        monkeypatch.setattr(geometric, name, kernel)

    # C=3 n=5: the S_e rows of 26,337 edges, 4 words each, are not made
    refuse("_ordered_edges")
    monkeypatch.setattr(geometric, "MAX_COVER_WORK", 26337 * 4 - 1)
    assert run(command.format(c=3, n=5).split()) == 3
    assert "26337 edges x 4 row words = 105348 word operations, over 105347" in \
        capsys.readouterr().err
    # C=4 n=4: the rows pass, and the 16,594 edges placed in order are not placed
    monkeypatch.undo()
    refuse("_free_set_first_fit")
    monkeypatch.setattr(geometric, "MAX_COVER_WORK", 18336 * 4 + 3059786 - 1)
    assert run(command.format(c=4, n=4).split()) == 3
    assert ("18336 edges x 4 row words + 3059786 free-set reads for the 16594 edges placed "
            "in order = 3133130 word operations, over 3133129") in capsys.readouterr().err


def test_geometric_cover_cap_is_inclusive(capsys, monkeypatch):
    # C=3 n=4: 2712 edges x 2 row words, and no edge placed in order
    argv = ["construct", "geometric", "--c", "3", "--n", "4"]
    monkeypatch.setattr(geometric, "MAX_COVER_WORK", 2712 * 2)
    assert run(argv) == 0
    monkeypatch.setattr(geometric, "MAX_COVER_WORK", 2712 * 2 - 1)
    assert run(argv) == 3
    # C=4 n=4 places edges in order: both counts together
    argv = ["construct", "geometric", "--c", "4", "--n", "4"]
    monkeypatch.setattr(geometric, "MAX_COVER_WORK", 3133130)
    assert run(argv) == 0
    monkeypatch.setattr(geometric, "MAX_COVER_WORK", 3133129)
    assert run(argv) == 3


def test_geometric_cover_quality(tmp_path, capsys):
    keys = ("r_mean", "t_over_edges", "singleton_fraction")
    cover = tmp_path / "cover.txt"
    _, out = run_out(["construct", "geometric", "--c", "4", "--n", "3", "--cover", str(cover)],
                     capsys)
    rep = json.loads(out)
    sizes = read_cover(cover).sizes()
    t, edges = len(sizes), sum(sizes)
    assert (rep["t"], rep["edges"]) == (t, edges) == (600, 936)
    assert [rep[k] for k in keys] == [edges / t, t / edges, sizes.count(1) / t]
    # channel shifts reports the same figures for the cover it shifts
    _, out = run_out(["channel", "shifts", "--c", "4", "--n", "3", "--channels", "2"], capsys)
    shifts = json.loads(out)
    assert [shifts[k] for k in keys] == [rep[k] for k in keys]


class Simulated(Exception):
    pass


def test_simulate_is_capped_by_the_matrices_it_holds(tmp_path, capsys, monkeypatch):
    # N = 1000 stations: N^2 is under the pair cap, and simulate holds one
    # N x N matrix per distinct subchannel
    def simulate(*args):
        raise Simulated

    monkeypatch.setattr(channels, "simulate", simulate)
    sched = tmp_path / "sched.txt"
    # subchannel ids 0..100, 0..99, and 0 and 500: distinct ids count, not the largest
    for ids, refused in ((range(101), True), (range(100), False), ((0, 500), False)):
        sched.write_text("".join(f"round {r} chan {i}: 0>{999 if r == 0 else 1}\n"
                                 for r, i in enumerate(ids)))
        if refused:
            assert run(["channel", "simulate", "--schedule", str(sched)]) == 3
            assert ("101 subchannels x 1000000 station pairs exceed the cap of 100000000"
                    in capsys.readouterr().err)
        else:
            with pytest.raises(Simulated):
                run(["channel", "simulate", "--schedule", str(sched)])
    # the report counts the rounds of each id up to the largest: 10^8 ids are
    # under the cap
    sched.write_text(f"round 0 chan {10**8 - 1}: 0>1\n")
    with pytest.raises(Simulated):
        run(["channel", "simulate", "--schedule", str(sched)])


@pytest.mark.parametrize("chan", [2 * 10**12, 2 * 10**8, 10**8])
def test_simulate_refuses_a_huge_subchannel_id(tmp_path, chan):
    # one distinct subchannel on 2 stations passes the matrix caps, but its id
    # would size the report's round counts; it is refused before anything is
    sched = tmp_path / "sched.txt"
    sched.write_text(f"round 0 chan {chan}: 0>1\n")
    proc = subprocess.run([sys.executable, "-m", "rsgraphs.cli", "channel", "simulate",
                           "--schedule", str(sched)],
                          capture_output=True, text=True, env=child_env(), timeout=30)
    assert proc.returncode == 3, proc.stderr[-500:]
    assert f"subchannel id {chan} exceeds the cap of 100000000 subchannels" in proc.stderr


def test_simulate_names_the_failing_line_of_standard_input():
    # standard input can be read only once; its failing line is named as a
    # file's is
    proc = subprocess.run([sys.executable, "-m", "rsgraphs.cli", "channel", "simulate",
                           "--schedule", "/dev/stdin"],
                          input="round 0 chan 0: 0>1\nround 2 chan 0: 1>0\n",
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "/dev/stdin:2: round indices must be sequential" in proc.stderr


def test_construct_code_pinned_generator(tmp_path, capsys):
    gen = tmp_path / "gen.txt"
    gen.write_text(PINNED_TEXT)
    code, out = run_out(
        ["construct", "code", "--c", "3", "--n", "4", "--d", "2",
         "--gen", str(gen)],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["N"] == 81
    assert rep["edges"] == 1944
    assert rep["t"] == 972
    assert rep["matching_size"] == 2
    assert rep["missing_bound_exact"] == "2673/2"
    assert rep["params"]["k"] == 2


def test_construct_code_source_flags_are_exclusive(tmp_path, capsys):
    gen = tmp_path / "gen.txt"
    gen.write_text(PINNED_TEXT)
    assert run(["construct", "code", "--c", "3", "--n", "4", "--d", "2"]) == 1
    assert run(
        ["construct", "code", "--c", "3", "--n", "4", "--d", "2",
         "--gen", str(gen), "--gv-seed", "0"]
    ) == 1


def test_construct_code_rejects_weak_generator(tmp_path, capsys):
    gen = tmp_path / "gen.txt"
    gen.write_text(PINNED_TEXT)
    assert run(["construct", "code", "--c", "3", "--n", "4", "--d", "3",
                "--gen", str(gen)]) == 1  # generator distance 2 < 3
    assert run(["construct", "code", "--c", "3", "--n", "5", "--d", "2",
                "--gen", str(gen)]) == 1  # length mismatch


def test_codes_gv_and_verify(tmp_path, capsys):
    gen = tmp_path / "gv.txt"
    code, out = run_out(
        ["codes", "gv", "--n", "8", "--k", "2", "--d", "2", "--out", str(gen)],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["proper"] and rep["verified_distance"] > 2

    code, out = run_out(["codes", "verify", str(gen)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["proper"] and rep["full_rank"] and rep["distance"] > 2


def test_codes_verify_flags_improper(tmp_path, capsys):
    gen = tmp_path / "bad.txt"
    gen.write_text("4 1\n0\n0\n1\n1\n")  # code {0000, 0011}: not proper
    assert run(["codes", "verify", str(gen)]) == 2
    assert "verification failure" in capsys.readouterr().err


def test_limits_subcommands(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    cover = tmp_path / "cover.txt"
    gen = tmp_path / "gen.txt"
    gen.write_text(PINNED_TEXT)
    assert run(["construct", "code", "--c", "3", "--n", "4", "--d", "2",
                "--gen", str(gen), "--out", str(edges),
                "--cover", str(cover)]) == 0
    capsys.readouterr()

    code, out = run_out(
        ["limits", "triangle", "--edges", str(edges), "--cover", str(cover),
         "--out", str(tmp_path / "tri.txt")],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["every_edge_in_one_triangle"] is True
    assert rep["triangles"] == rep["crossing_edges"]

    code, out = run_out(["limits", "mindeg", "--edges", str(edges), "--r", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["min_margin"] == 448 and rep["num_violations"] == 0


def test_channel_two_and_simulate(tmp_path, capsys):
    gen = tmp_path / "gen.txt"
    gen.write_text(PINNED_TEXT)
    sched = tmp_path / "sched.txt"
    code, out = run_out(
        ["channel", "two", "--c", "3", "--n", "4", "--d", "2",
         "--gen", str(gen), "--out-schedule", str(sched)],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["delivered"] == 81 * 81
    assert rep["garbled"] == 0
    assert rep["rounds_sequential"] == 3645
    assert rep["naive_rounds"] == 6561

    code, out = run_out(["channel", "simulate", "--schedule", str(sched)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["delivered"] == 6561 and rep["garbled"] == 0


def test_channel_shifts(capsys):
    code, out = run_out(
        ["channel", "shifts", "--c", "2", "--n", "2", "--channels", "3",
         "--attempts", "20", "--seed", "1"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["delivered"] == 16 and rep["garbled"] == 0
    _, again = run_out(
        ["channel", "shifts", "--c", "2", "--n", "2", "--channels", "3",
         "--attempts", "20", "--seed", "1"],
        capsys,
    )
    assert again == out


def test_channel_shifts_is_capped_by_the_shift_matrices_it_holds(capsys, monkeypatch):
    # one N x N shift matrix per channel: 189 x 729^2 station pairs pass 10^8
    def partition_shifts(*args, **kwargs):
        raise AssertionError("partition_shifts ran before the cap")

    monkeypatch.setattr(channels, "partition_shifts", partition_shifts)
    assert run(["channel", "shifts", "--c", "3", "--n", "6", "--channels", "189"]) == 3
    assert ("189 subchannels x 531441 station pairs exceed the cap of 100000000"
            in capsys.readouterr().err)
    start = time.perf_counter()
    assert run(["channel", "shifts", "--c", "2", "--n", "2", "--channels", "1000000000"]) == 3
    assert time.perf_counter() - start < 0.5
    assert "resource refusal" in capsys.readouterr().err
    monkeypatch.undo()
    assert run(["channel", "shifts", "--c", "2", "--n", "2", "--channels", "0"]) == 1
    assert "need num_channels >= 1, got 0" in capsys.readouterr().err


def test_lintest_command(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    cover = tmp_path / "cover.txt"
    gen = tmp_path / "gen.txt"
    gen.write_text(PINNED_TEXT)
    assert run(["construct", "code", "--c", "3", "--n", "4", "--d", "2",
                "--gen", str(gen), "--out", str(edges),
                "--cover", str(cover)]) == 0
    capsys.readouterr()
    code, out = run_out(
        ["lintest", "--edges", str(edges), "--cover", str(cover),
         "--m", "8", "--f", "and", "--trials", "500"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["d_f"] == "1/2"
    assert rep["r"] == 2 and rep["t"] == 972
    assert rep["p_hat"] <= rep["hw_bound"] + 4 * rep["stderr"] + 1e-12
    assert run(
        ["lintest", "--edges", str(edges), "--cover", str(cover),
         "--m", "8", "--f", "sine", "--trials", "10"]
    ) == 1  # unknown function descriptor


@pytest.mark.parametrize("f", ["linear", "random:1", "table:{table}"])
def test_lintest_refuses_m_above_the_transform_gate_before_building_f(tmp_path, capsys, f):
    # m=40 asks for a 2^40 table: refused before it is built or read, and
    # before the artifacts are read (neither file exists)
    edges, cover, table = tmp_path / "edges.txt", tmp_path / "cover.txt", tmp_path / "f.txt"
    table.write_text("0110\n")
    start = time.perf_counter()
    code = run(["lintest", "--edges", str(edges), "--cover", str(cover), "--m", "40",
                "--f", f.format(table=table), "--trials", "1"])
    assert time.perf_counter() - start < 1
    assert code == 3
    assert "m=40 exceeds the transform gate 24" in capsys.readouterr().err


def cli_process(argv, cwd) -> subprocess.CompletedProcess:
    """The CLI run in a Python of its own; a hang fails the test at 20 s."""
    return subprocess.run([sys.executable, "-m", "rsgraphs.cli", *argv], capture_output=True,
                          text=True, env=child_env(), cwd=cwd, timeout=20)


# Each sizes a lattice or a parity-check matrix far past the caps; forming
# C^n, printing it or doing n-sized work first would hang or raise.
OVERSIZED = {
    "construct geometric --c 3 --n 100000": "3^100000 vertices exceed the cap of 100000;",
    "construct geometric --c 3 --n 100000000": "3^100000000 vertices exceed the cap",
    "channel shifts --c 3 --n 10000 --channels 1": "3^10000 vertices exceed the cap",
    "construct code --c 3 --n 100000000 --d 2 --gv-seed 1": "3^100000000 vertices exceed",
    "channel two --c 3 --n 100000000 --d 2": "3^100000000 vertices exceed the cap",
    "vempala --c 3 --n 100000000 --d 2 --gen gen.txt": "3^100000000 vertices exceed the cap",
    "codes gv --n 100000000 --k 2 --d 1":
        "99999998 parity-check rows x 100000000 bits exceed the cap of 100000000 pair checks",
}


@pytest.mark.parametrize("command", sorted(OVERSIZED))
def test_an_oversized_n_is_refused_at_once(tmp_path, command):
    (tmp_path / "gen.txt").write_text(PINNED_TEXT)
    proc = cli_process(command.split(), tmp_path)
    assert proc.returncode == 3, proc.stderr[-500:]
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("resource refusal: ") and proc.stderr.count("\n") == 1
    assert OVERSIZED[command] in proc.stderr


def test_a_vertex_count_is_printed_while_int_to_str_prints_it(capsys):
    # 3^9000 has 4294 digits and is printed as before; 3^9100 has 4342
    assert run(["construct", "geometric", "--c", "3", "--n", "9000"]) == 3
    assert f"{3**9000} vertices exceed the cap of 100000;" in capsys.readouterr().err
    assert run(["construct", "geometric", "--c", "3", "--n", "9100"]) == 3
    assert "3^9100 vertices exceed the cap of 100000;" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-2"])
def test_codes_gv_refuses_a_dimension_below_one(tmp_path, k):
    # even-weight parity rows span at most n - 1 dimensions: k = 0 is never reached
    proc = cli_process(["codes", "gv", "--n", "5", "--k", k, "--d", "1"], tmp_path)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert "need 1 <= k < n" in proc.stderr


@pytest.mark.parametrize("extra", [["--f", "random:x"], ["--f", "random:"],
                                   ["--f", "and", "--seed", "-1"]])
def test_lintest_bad_seed_exits_1_without_a_traceback(tmp_path, extra):
    (tmp_path / "e.txt").write_text("2 1\n0 1\n")
    (tmp_path / "c.txt").write_text("0: 0-1\n")
    argv = ["lintest", "--edges", "e.txt", "--cover", "c.txt", "--m", "4", "--trials", "1"]
    proc = cli_process(argv + extra, tmp_path)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert ("nonnegative seed" if "--seed" in extra else "needs an integer seed") in proc.stderr


def test_lintest_random_takes_a_negative_seed(tmp_path, capsys):
    (tmp_path / "e.txt").write_text("2 1\n0 1\n")
    (tmp_path / "c.txt").write_text("0: 0-1\n")
    assert run(["lintest", "--edges", str(tmp_path / "e.txt"), "--cover", str(tmp_path / "c.txt"),
                "--m", "4", "--f", "random:-1", "--trials", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["f"] == "random:-1"


def test_vempala_command(tmp_path, capsys):
    gen = tmp_path / "gen.txt"
    gen.write_text(PINNED_TEXT)
    code, out = run_out(
        ["vempala", "--c", "3", "--n", "4", "--d", "2", "--gen", str(gen),
         "--out-partition", str(tmp_path / "parts.txt")],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["sum"] == "3645/1"
    assert rep["matching_parts"] == 972
    assert rep["missing_pairs"] == 2673
    assert rep["per_part_identity_ok"] is True
    lines = (tmp_path / "parts.txt").read_text().splitlines()
    assert len(lines) == 972 + 2673


REAL_SPLIT = codegraph.two_channel_split


def tampered_split(*args, **kwargs):
    """The real split, with matching 0 of the doubled cover merged with the
    first later matching that makes it non-induced; every pair stays
    covered exactly once."""
    (covered, cover), rest = REAL_SPLIT(*args, **kwargs)
    ms = cover.matchings
    g, pairs = two_sided(covered, ms)
    j = next(j for j in range(1, len(ms)) if not is_induced_matching(g, pairs[0] + pairs[j]))
    ms[0] = sorted(ms[0] + ms.pop(j))
    return [(covered, cover_of(ms)), rest]


@pytest.mark.parametrize("command,exit_code", [("channel two", 2), ("vempala", 2)])
def test_tampered_subchannel_cover_trips_the_gate(tmp_path, capsys, monkeypatch, command, exit_code):
    # two_channel_split does not check its matchings; partition_two's gate must.
    monkeypatch.setattr(codegraph, "two_channel_split", tampered_split)
    gen = tmp_path / "gen.txt"
    gen.write_text(PINNED_TEXT)
    argv = command.split() + ["--c", "3", "--n", "4", "--d", "2", "--gen", str(gen)]
    assert run(argv) == exit_code
    assert "subchannel 0 cover invalid" in capsys.readouterr().err


def split_with_singles(edit):
    """The real split, with its one-pair remainder cover replaced by edit(singles)."""
    def split(*args, **kwargs):
        covered, (remainder, singles) = REAL_SPLIT(*args, **kwargs)
        return [covered, (remainder, edit(singles))]
    return split


def merged_diagonal(singles):
    """The one-pair parts with (0, 0) and (v, v) made one part, v the least
    code-graph neighbour of 0: an induced matching of the remainder, so it
    passes the gate, yet a fill part of two pairs."""
    pairs = [tuple(q) for q in singles.pairs.tolist()]
    row = {v for u, v in pairs if u == 0}
    v = next(v for v in range(len(pairs)) if v not in row)
    pairs.remove((v, v))
    return cover_of([[pairs[0], (v, v)]] + [[q] for q in pairs[1:]])


# vempala's sum is t + missing only once the partition passes every check;
# each defect below fails one of them (the desk instance has N^2 = 6561).
# Only the fill check is vempala's own: channel two schedules that
# partition, since a two-pair induced matching is a clean round.
BROKEN_PARTITIONS = {
    "gate": (tampered_split, "subchannel 0 cover invalid (12 violations)"),
    "tiling": (split_with_singles(lambda c: MatchingCover(c.pairs[:-1], c.offsets[:-1])),
               "subchannel 1 cover invalid (1 violations)"),
    "fill": (split_with_singles(merged_diagonal), "fill parts hold 2673 pairs in 2672 parts"),
    "empty": (split_with_singles(lambda c: MatchingCover(c.pairs, np.insert(c.offsets, 1, 1))),
              "subchannel 1 cover has an empty matching"),
}


@pytest.mark.parametrize("defect", BROKEN_PARTITIONS)
def test_a_broken_vempala_partition_is_a_verification_failure(tmp_path, capsys, monkeypatch, defect):
    broken, message = BROKEN_PARTITIONS[defect]
    monkeypatch.setattr(codegraph, "two_channel_split", broken)
    gen = tmp_path / "gen.txt"
    gen.write_text(PINNED_TEXT)
    instance = ["--c", "3", "--n", "4", "--d", "2", "--gen", str(gen)]
    assert run(["vempala", *instance]) == 2
    assert capsys.readouterr() == ("", f"verification failure: {message}\n")
    # channel two reads the same partition through the same gate
    code = run(["channel", "two", *instance])
    out, err = capsys.readouterr()
    if defect == "fill":
        assert code == 0 and json.loads(out)["per_subchannel_rounds"] == [972, 2672]
    else:
        assert (code, out, err) == (2, "", f"verification failure: {message}\n")


@pytest.mark.parametrize("command,field", [("construct code", "edges"),
                                           ("channel two", "remainder"),
                                           ("vempala", "remainder"), ("vempala", "t")])
def test_tampered_exact_count_trips_the_gate(tmp_path, capsys, monkeypatch, command, field):
    exact = codegraph.cover_counts

    def tampered(*args):
        counts = exact(*args)
        return counts._replace(**{field: getattr(counts, field) + 1})

    monkeypatch.setattr(codegraph, "cover_counts", tampered)
    gen = tmp_path / "gen.txt"
    gen.write_text(PINNED_TEXT)
    assert run(command.split() + ["--c", "3", "--n", "4", "--d", "2", "--gen", str(gen)]) == 2
    assert "built counts differ from the exact counts" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["construct code --gv-seed 1", "channel two", "vempala"])
@pytest.mark.parametrize("d", [0, 5])
def test_d_outside_1_to_n_is_named_as_given(capsys, command, d):
    assert run(command.split() + ["--c", "3", "--n", "4", "--d", str(d)]) == 1
    assert capsys.readouterr().err == f"parameter error: need 1 <= d <= n, got d={d}, n=4\n"


# Beside rsgraphs, rsgraphs.cli and rsgraphs.errors, the modules each command
# loads: the ones it runs and what they import, nothing more.  Only the
# commands that read an artifact load the readers.
COMMAND_MODULES = {
    "codes gv --n 5 --k 2 --d 1 --out gv.txt": "codes",
    "channel simulate --schedule s.txt": "channels graphs readers",
    "limits triangle --edges e.txt --cover c.txt": "graphs limits readers",
    "limits mindeg --edges e.txt --r 2": "graphs limits readers",
    "lintest --edges e.txt --cover c.txt --m 4 --f and --trials 20": "graphs lintest readers",
    "vempala --c 3 --n 4 --d 2 --gen gen.txt": "channels codegraph codes graphs lattice vempala",
    "channel two --c 3 --n 4 --d 2 --gen gen.txt": "channels codegraph codes graphs lattice",
    # the same with its schedule written, so write_groups runs too
    "channel two --c 3 --n 4 --d 2 --gen gen.txt --out-schedule s2.txt":
        "channels codegraph codes graphs lattice",
    "channel shifts --c 3 --n 2 --channels 2": "channels geometric graphs lattice",
    "construct code --c 3 --n 4 --d 2 --gen gen.txt": "codegraph codes graphs lattice",
    "construct geometric --c 3 --n 2": "geometric graphs lattice",
    "codes verify gen.txt": "codes",
}


def write_artifacts(d: Path, n: int, generator: str) -> Path:
    """The generator, edge list, cover and schedule of code graph C=3 n d=2 in d."""
    (d / "gen.txt").write_text(generator)
    inst = ["--c", "3", "--n", str(n), "--d", "2", "--gen", str(d / "gen.txt")]
    assert run(["construct", "code", *inst, "--out", str(d / "e.txt"),
                "--cover", str(d / "c.txt")]) == 0
    assert run(["channel", "two", *inst, "--out-schedule", str(d / "s.txt")]) == 0
    return d


@pytest.fixture(scope="module")
def desk_artifacts(tmp_path_factory):
    return write_artifacts(tmp_path_factory.mktemp("desk"), 4, PINNED_TEXT)


@pytest.fixture(scope="module")
def sized_artifacts(desk_artifacts, tmp_path_factory):
    """By n: the desk artifacts (N = 81) and those of C=3 n=5 (N = 243)."""
    big = write_artifacts(tmp_path_factory.mktemp("n5"), 5, "5 2\n11\n11\n10\n10\n10\n")
    return {4: desk_artifacts, 5: big}


# The numpy subpackages a command may load beyond those `import numpy` loads:
# only lintest draws from numpy.random.  (numpy 2 loads numpy.ma lazily, and a
# plain np.unique loads it to ask np.ma.is_masked.)
NUMPY_EXTRAS = {"lintest": {"numpy.random"}}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_loads_only_the_modules_it_runs(desk_artifacts, capsys, command):
    capsys.readouterr()
    probe = ("import json, sys\n"
             "import numpy\n"
             "base = set(sys.modules)\n"
             "from rsgraphs.cli import run\n"
             "rc = run(sys.argv[1:])\n"
             "extra = sorted(m for m in set(sys.modules) - base if m.startswith('numpy.'))\n"
             "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('rsgraphs')),"
             " extra, 'dataclasses' in set(sys.modules) - base]))")
    proc = subprocess.run([sys.executable, "-c", probe, *command.split()], capture_output=True,
                          text=True, env=child_env(), cwd=desk_artifacts, timeout=120)
    rc, modules, numpy_extra, dataclasses_loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rc == 0, proc.stderr
    want = {"rsgraphs", "rsgraphs.cli", "rsgraphs.errors"}
    want |= {f"rsgraphs.{m}" for m in COMMAND_MODULES[command].split()}
    assert set(modules) == want
    assert not dataclasses_loaded  # records are named tuples or slotted classes
    packages = {".".join(m.split(".")[:2]) for m in numpy_extra}
    assert packages <= NUMPY_EXTRAS.get(command.split()[0], set()), numpy_extra


# Commands that do no array work, and the station-cap refusals made before
# any, with their exit codes; "" only imports the CLI.  None of them loads
# numpy, dataclasses, inspect, fractions or decimal.
NO_NUMPY = {
    "": None,
    "codes gv --n 5 --k 2 --d 1 --out gv.txt": 0,
    "codes verify gen.txt": 0,
    "--version": 0,
    "--help": 0,
    "codes gv --n 5": 1,
    "channel two --c 3 --n 9 --d 2": 3,
    "channel shifts --c 3 --n 20 --channels 2": 3,
    "vempala --c 3 --n 9 --d 2": 3,
}


@pytest.mark.parametrize("command", sorted(NO_NUMPY))
def test_command_loads_no_numpy(desk_artifacts, command):
    probe = ("import json, sys\n"
             "base = set(sys.modules)\n"
             "from rsgraphs.cli import run\n"
             "rc = None\n"
             "if sys.argv[1:]:\n"
             "    try:\n"
             "        rc = run(sys.argv[1:])\n"
             "    except SystemExit as exc:  # --help and --version exit from argparse\n"
             "        rc = exc.code\n"
             "heavy = ('dataclasses', 'inspect', 'fractions', 'decimal')\n"
             "print(json.dumps([rc, 'numpy' in sys.modules,"
             " [m for m in heavy if m in set(sys.modules) - base]]))")
    proc = subprocess.run([sys.executable, "-c", probe, *command.split()], capture_output=True,
                          text=True, env=child_env(), cwd=desk_artifacts, timeout=120)
    rc, numpy_loaded, heavy = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rc == NO_NUMPY[command], proc.stderr
    assert not numpy_loaded
    assert heavy == []


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_cyclic_garbage_does_not_grow_with_the_instance(sized_artifacts, capsys, monkeypatch,
                                                         command):
    """main() runs a command with the cyclic collector off, which is sound
    only while the garbage a command leaves in cycles does not grow with the
    instance.  If this fails, break the cycles in the command that makes them."""
    found = {}
    for n, d in sized_artifacts.items():
        # codes gv needs n >= 5 for k=2 d=1, so it runs one size up
        argv = re.sub(r"--n \d+", f"--n {n + command.startswith('codes gv')}", command).split()
        monkeypatch.chdir(d)
        assert run(argv) == 0  # imports, caches and lazy set-up happen here
        gc.collect()
        gc.disable()
        try:
            assert run(argv) == 0
            found[n] = gc.collect()
        finally:
            gc.enable()
    capsys.readouterr()
    assert found[4] == found[5], found


# One command for each exit code.  Paths are relative to the directory the
# command runs in, so both runs print the same messages.
EXIT_CASES = {
    0: "construct code --c 3 --n 4 --d 2 --gen gen.txt --out e.txt --cover c.txt --report r.json",
    1: "construct code --c 3 --n 4 --d 2 --gen gen.txt --no-such-flag",
    2: "limits triangle --edges path.txt --cover bad.txt",
    3: "channel two --c 3 --n 9 --d 2",
}


@pytest.mark.parametrize("exit_code", sorted(EXIT_CASES))
def test_the_process_entry_point_matches_run(tmp_path, capsys, monkeypatch, exit_code):
    """main() in a process of its own, with the collector off and no
    interpreter teardown, writes what run() writes in-process; run() leaves
    gc alone."""
    argv = EXIT_CASES[exit_code].split()
    dirs = {"process": tmp_path / "process", "run": tmp_path / "run"}
    for d in dirs.values():
        d.mkdir()
        (d / "gen.txt").write_text(PINNED_TEXT)
        # the path 0-1-2-3: edge 1-2 joins the matching {0-1, 2-3}, which is not induced
        (d / "path.txt").write_text("4 3\n0 1\n1 2\n2 3\n")
        (d / "bad.txt").write_text("0: 0-1 2-3\n1: 1-2\n")
    proc = subprocess.run([sys.executable, "-m", "rsgraphs.cli", *argv], capture_output=True,
                          env=child_env(), cwd=dirs["process"], timeout=120)
    monkeypatch.chdir(dirs["run"])
    capsys.readouterr()
    frozen = gc.get_freeze_count()
    assert gc.isenabled()
    code = run(argv)
    out, err = capsys.readouterr()
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen
    assert code == proc.returncode == exit_code, proc.stderr
    assert proc.stdout == out.encode()
    assert proc.stderr == err.encode()
    files = {side: {f.name: f.read_bytes() for f in d.iterdir()} for side, d in dirs.items()}
    assert files["process"] == files["run"]
    if exit_code == 0:
        assert files["run"]["r.json"] == proc.stdout
        assert {"e.txt", "c.txt"} <= set(files["run"])


def test_main_runs_atexit_callbacks_flushes_and_prints_an_escaped_traceback(tmp_path):
    """main() leaves through os._exit: a callback registered before it still
    runs, output still buffered reaches the pipe, argparse's own exit keeps
    its code, and an exception that escapes run() prints its traceback and
    exits 1."""
    (tmp_path / "gen.txt").write_text(PINNED_TEXT)
    probe = ("import atexit, sys\n"
             "from rsgraphs import cli\n"
             "atexit.register(print, 'atexit ran')\n"
             "if sys.argv[1] == 'escape':\n"
             "    def run(argv):\n"
             "        print('before the escape')\n"
             "        raise RuntimeError('escaped run()')\n"
             "    cli.run = run\n"
             "sys.argv[1:2] = []\n"
             "cli.main()\n")

    def main(*argv):
        return subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                              text=True, env=child_env(), cwd=tmp_path, timeout=120)

    report = main("run", "codes", "verify", "gen.txt")
    assert report.returncode == 0, report.stderr
    assert json.loads(report.stdout.removesuffix("atexit ran\n"))["proper"] is True
    assert report.stdout.endswith("}\natexit ran\n") and report.stderr == ""
    version = main("run", "--version")
    assert (version.returncode, version.stdout) == (0, f"{rsgraphs.__version__}\natexit ran\n")
    escape = main("escape", "codes", "verify", "gen.txt")
    assert escape.returncode == 1
    assert escape.stdout == "before the escape\natexit ran\n"
    assert escape.stderr.startswith("Traceback (most recent call last):\n")
    assert escape.stderr.endswith("RuntimeError: escaped run()\n")


def test_only_the_commands_that_read_an_artifact_load_its_readers():
    reading = {c.split(" --")[0] for c, mods in COMMAND_MODULES.items()
               if "readers" in mods.split()}
    assert reading == {"channel simulate", "limits triangle", "limits mindeg", "lintest"}


NOT_TEXT = b"\xff\xfe\x00\x01"

# (input file text or bytes, argv with {f} for its path, line the error must
# name; None when the message names only the path)
BAD_INPUTS = {
    "edge-token": ("3 1\n0 x\n", ["limits", "mindeg", "--edges", "{f}", "--r", "2"], 2),
    "edge-underscore": ("12 1\n1_0 11\n", ["limits", "mindeg", "--edges", "{f}", "--r", "2"], 2),
    "edge-plus": ("3 1\n+0 1\n", ["limits", "mindeg", "--edges", "{f}", "--r", "2"], 2),
    "edge-not-text": (NOT_TEXT, ["limits", "mindeg", "--edges", "{f}", "--r", "2"], None),
    "cover-non-ascii-digit": ("0: 0-\u0661\n", ["limits", "triangle", "--edges", "{g}", "--cover", "{f}"], 1),
    "cover-not-text": (NOT_TEXT, ["limits", "triangle", "--edges", "{g}", "--cover", "{f}"], None),
    "schedule-plus": ("round 0 chan 0: 0>+1\n", ["channel", "simulate", "--schedule", "{f}"], 1),
    "schedule-not-text": (NOT_TEXT, ["channel", "simulate", "--schedule", "{f}"], None),
    "generator-minus": ("4 -2\n11\n11\n10\n10\n",
                        ["construct", "code", "--c", "3", "--n", "4", "--d", "2", "--gen", "{f}"], 1),
    "generator-not-text": (NOT_TEXT,
                           ["construct", "code", "--c", "3", "--n", "4", "--d", "2", "--gen", "{f}"], None),
    "table-not-text": (NOT_TEXT, ["lintest", "--edges", "{g}", "--cover", "{c}", "--m", "1",
                                  "--f", "table:{f}", "--trials", "1"], None),
    "edge-repeat": ("3 2\n0 1\n0 1\n", ["limits", "mindeg", "--edges", "{f}", "--r", "2"], 3),
    "cover-token": ("zero: 0-1\n", ["limits", "triangle", "--edges", "{g}", "--cover", "{f}"], 1),
    "schedule-token": ("round 0 chan 0: 0>1\nround 1 chan 0: 1>y\n",
                       ["channel", "simulate", "--schedule", "{f}"], 2),
    # ids are held in int64 arrays; 2^64 cannot be one
    "schedule-huge-id": ("round 0 chan 0: 0>1\nround 1 chan 0: 1>18446744073709551616\n",
                         ["channel", "simulate", "--schedule", "{f}"], 2),
    "cover-huge-id": ("0: 0-1\n1: 18446744073709551616-1\n",
                      ["limits", "triangle", "--edges", "{g}", "--cover", "{f}"], 2),
    "generator-header": ("4 x\n11\n11\n10\n10\n",
                         ["construct", "code", "--c", "3", "--n", "4", "--d", "2", "--gen", "{f}"], 1),
    "missing-file": (None, ["limits", "mindeg", "--edges", "{f}", "--r", "2"], None),
    "generator-zero": ("0 2\n", ["construct", "code", "--c", "3", "--n", "4", "--d", "2",
                                 "--gen", "{f}"], 1),
    "table-char": ("0110\n01x1\n0110\n0110\n", ["lintest", "--edges", "{g}", "--cover", "{c}",
                                                  "--m", "4", "--f", "table:{f}", "--trials", "1"], 2),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_file_exits_1_naming_the_line(tmp_path, case):
    text, argv, line = BAD_INPUTS[case]
    bad = tmp_path / "input.txt"
    if isinstance(text, bytes):
        bad.write_bytes(text)
    elif text is not None:
        bad.write_text(text, encoding="utf-8")
    good = tmp_path / "edges.txt"
    good.write_text("2 1\n0 1\n")
    cover = tmp_path / "cover.txt"
    cover.write_text("0: 0-1\n")
    argv = [a.format(f=bad, g=good, c=cover) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "rsgraphs.cli", *argv],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    # a missing or non-text file has no line to name; the message names the file
    assert (f"{bad}:{line}:" if line else str(bad)) in proc.stderr


def test_text_format(capsys):
    code, out = run_out(
        ["construct", "geometric", "--c", "3", "--n", "2", "--format", "text"],
        capsys,
    )
    assert code == 0
    assert "edges = 26" in out.splitlines()
    assert "missing = 10" in out.splitlines()
