"""Tests of the benchmark itself, on seconds-long smoke sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import gates
import run
import spans
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RUN_PY = str(run.ROOT / "perfbench" / "run.py")

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))
import rsgraphs.cli as cli  # noqa: E402
from rsgraphs import channels, graphs  # noqa: E402


def bench(*args, cwd=run.ROOT):
    p = subprocess.run([sys.executable, RUN_PY, *args], capture_output=True, text=True,
                       cwd=cwd, timeout=170)
    return p


def result_of(p):
    return json.loads(p.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_known_instance_values():
    assert gates.code_graph_edges(3, 6, 2) == 93312
    assert gates.code_graph_edges(3, 4, 2) == 1944  # the desk instance
    assert gates.geometric_edges(3, 2) == 26


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_workload(name, trace):
    p = bench("--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", trace,
              "--profile", "smoke")
    assert p.returncode == 0, p.stderr
    res = result_of(p)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    table = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in res["metrics"].items()} == table
    if trace == "0":
        assert all(v["value"] > 0 for v in res["metrics"].values())
    prov = json.loads(p.stdout.strip().splitlines()[0])["provenance"]
    assert prov["seed"] == 3 and prov["pass_argv"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "code-channel",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def _in_dir(path, argv):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = cli.run(argv)
    finally:
        os.chdir(cwd)
    return rc, out.getvalue().encode()


def test_spans_nest_and_originals_come_back(tmp_path):
    (tmp_path / "gen.txt").write_text(workloads.DESK_GENERATOR)
    originals = (channels.verify_cover_bipartite, channels.two_channel_split, cli.run)
    rec = spans.SpanRecorder()
    rec.install()
    try:
        assert channels.two_channel_split is not originals[1]
        rec.command = "two"
        rc, _ = _in_dir(tmp_path, ["channel", "two", "--c", "3", "--n", "4", "--d", "2",
                                   "--gen", "gen.txt"])
    finally:
        rec.uninstall()
    assert rc == 0
    assert (channels.verify_cover_bipartite, channels.two_channel_split, cli.run) == originals
    assert channels.verify_cover_bipartite is graphs.verify_cover_bipartite

    by_name = {}
    for i, s in enumerate(rec.spans):
        by_name.setdefault(s["name"], []).append(i)
        assert s["command"] == "two" and s["end"] >= s["start"]
    parent = {name: {rec.spans[rec.spans[i]["parent"]]["name"] for i in idx}
              for name, idx in by_name.items() if name != "cli.run"}
    assert parent["channels.partition_two"] == {"cli.run"}
    assert parent["codegraph.two_channel_split"] == {"channels.partition_two"}
    assert parent["graphs.verify_cover_bipartite"] == {"channels.validate_partition"}
    assert len(by_name["graphs.verify_cover_bipartite"]) == 2

    per_fn, _ = spans.summarize(rec.spans)
    root = per_fn["cli.run"]
    assert 0 < root["self_s"] < root["s"]
    two = per_fn["channels.partition_two"]
    kids = per_fn["codegraph.two_channel_split"]["s"] + per_fn["channels.validate_partition"]["s"]
    assert two["self_s"] == pytest.approx(two["s"] - kids)


def test_tampered_schedule_trips_the_gate(tmp_path):
    (tmp_path / "gen.txt").write_text(workloads.DESK_GENERATOR)
    rc, _ = _in_dir(tmp_path, ["channel", "two", "--c", "3", "--n", "4", "--d", "2",
                               "--gen", "gen.txt", "--out-schedule", "s.txt"])
    assert rc == 0
    cmd = workloads.Command("channel_simulate", ("channel", "simulate", "--schedule", "s.txt"),
                            {"N": 81})
    rc, out = _in_dir(tmp_path, list(cmd.argv))
    assert gates.gate(cmd.argv, cmd.expect, rc, out)[0] == []

    # Swap one receiver: the first pair of the first round now targets the
    # receiver of another pair, so one message is lost.
    lines = (tmp_path / "s.txt").read_text().splitlines()
    head, _, pairs = lines[0].partition(":")
    toks = pairs.split()
    u, _, v = toks[0].partition(">")
    other = next(p.partition(">")[2] for line in lines[1:] for p in line.partition(":")[2].split()
                 if p.partition(">")[2] != v)
    toks[0] = f"{u}>{other}"
    lines[0] = f"{head}: {' '.join(toks)}"
    (tmp_path / "s.txt").write_text("\n".join(lines) + "\n")
    rc, out = _in_dir(tmp_path, list(cmd.argv))
    problems, _ = gates.gate(cmd.argv, cmd.expect, rc, out)
    assert problems and any("delivered" in p or "garbled" in p for p in problems)


def test_tampered_cover_trips_the_artifact_check(tmp_path):
    (tmp_path / "gen.txt").write_text(workloads.DESK_GENERATOR)
    rc, _ = _in_dir(tmp_path, ["construct", "code", "--c", "3", "--n", "4", "--d", "2",
                               "--gen", "gen.txt", "--out", "e.txt", "--cover", "c.txt"])
    assert rc == 0
    assert gates.check_cover_files(tmp_path / "e.txt", tmp_path / "c.txt", 2) == []
    lines = (tmp_path / "c.txt").read_text().splitlines()
    # Merge two matchings: the result is no longer an induced matching of size 2.
    lines[0] += " " + lines.pop(1).partition(":")[2].strip()
    lines = [f"{i}:{line.partition(':')[2]}" for i, line in enumerate(lines)]
    (tmp_path / "c.txt").write_text("\n".join(lines) + "\n")
    assert gates.check_cover_files(tmp_path / "e.txt", tmp_path / "c.txt", 2)


def test_gate_rejects_wrong_counts():
    cmd = workloads.build("code-channel", 1, "smoke").passes[0]
    good = {"command": "construct code", "N": 81, "edges": 1944,
            "missing": 81 * 80 // 2 - 1944, "r_min": 2, "r_max": 2, "t": 972}
    assert gates.gate(cmd.argv, cmd.expect, 0, json.dumps(good).encode())[0] == []
    bad = dict(good, t=971)
    assert gates.gate(cmd.argv, cmd.expect, 0, json.dumps(bad).encode())[0]
    assert gates.gate(cmd.argv, cmd.expect, 2, b"")[0] == ["exit code 2"]
