"""rsgraphs benchmark: seeded CLI workloads, gated outputs, per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload code-channel --seed 1 --seconds 35 --trace 0

--trace 0 runs each command of the workload as a fresh `python -m rsgraphs.cli`
subprocess, one at a time, and reports the end-to-end metrics.  --trace 1 runs
the same commands in-process through `rsgraphs.cli.run` with the layer
functions wrapped (spans.py) and reports the per-layer metrics.  Every
command's output goes through its gate (gates.py) and a determinism probe.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the details and provenance.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Single-threaded BLAS for the in-process run and every child; set before numpy loads.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import gates  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Set-ups per run: at least SETUP_REPS and SETUP_SECONDS; setup_s is their median.
SETUP_REPS = 3
SETUP_SECONDS = 2.0
IMPORT_REPS = 3  # fresh-interpreter imports behind cli.import_s
MIN_PASSES = 2  # the determinism probe needs a second pass
COMMAND_TIMEOUT_S = 60  # one command takes seconds at these sizes

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
REFERENCE = Path(__file__).resolve().parent / "reference.py"
REFERENCE_STDOUT = b"4096 976\n"
PER_LAYER = {
    **{f"stage.{s}.self_s": "s" for s in spans.STAGES},
    "cli.run.self_s": "s",
    "graphs.verify_cover.s": "s",
    "channels.simulate.s": "s",
    "cli.import_s": "s",
    "trace_overhead_frac": "ratio",
    "span_coverage_frac": "ratio",
    "graphs.verify_cover.calls": "count",
    "graphs.verify_cover_bipartite.calls": "count",
    "codegraph.enumerate_cover.calls": "count",
    "codegraph.two_channel_split.calls": "count",
    "geometric.cover.t": "count",
    "geometric.cover.r_max": "count",
    "codegraph.cover.t": "count",
    "channels.rounds": "count",
    "channels.overflow_pairs": "count",
    "lintest.edge_trials": "count",
    "vempala.pairs": "count",
    "graphs.bytes_read": "count",
    "graphs.bytes_written": "count",
    "channels.partition_two.rss_rise_mb": "MB",
    "lintest.estimate_soundness.rss_rise_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Outcome:
    returncode: int
    stdout: bytes
    stderr: str
    wall_s: float
    maxrss_mb: float


def run_child(argv: list[str], cwd: Path) -> Outcome:
    """Run one command to completion; wall time and the child's own peak RSS."""
    with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "w+b") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(p.returncode, out.read(), err.read().decode(errors="replace"),
                       wall, usage.ru_maxrss / 1024.0)


def cli_argv(cmd: workloads.Command) -> list[str]:
    return [sys.executable, "-m", "rsgraphs.cli", *cmd.argv]


class Tally:
    """Attempted and failed commands: exit code, output gate, determinism probe."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self._digests: dict = {}
        self._checked: set = set()

    def fail(self, what: str, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"FAIL {what}: {why}", file=sys.stderr)

    def record(self, key, cmd: workloads.Command, returncode: int, stdout: bytes):
        """Gate one command's output; `key` names the command across passes.
        Returns the report, or None when the command failed."""
        problems, rep = gates.gate(cmd.argv, cmd.expect, returncode, stdout)
        digest = hashlib.sha256(stdout)
        for name in cmd.outputs:
            path = self.workdir / name
            digest.update(path.read_bytes() if path.exists() else b"<missing>")
        first = self._digests.setdefault(key, digest.hexdigest())
        if first != digest.hexdigest():
            problems.append("report or artifact bytes differ from the first run")
        elif len(cmd.outputs) == 2 and not problems and key not in self._checked:
            self._checked.add(key)
            edges, cover = (self.workdir / name for name in cmd.outputs)
            problems += gates.check_cover_files(edges, cover, cmd.expect.get("r"))
        if problems:
            self.fail(" ".join(cmd.argv), "; ".join(problems))
            return None
        self.attempted += 1
        return rep


def run_setup(wl, workdir: Path, tally: Tally) -> float:
    """One set-up: warm import, literal inputs, set-up commands.  Returns its seconds."""
    t0 = time.perf_counter()
    warm = run_child([sys.executable, "-c", "import rsgraphs.cli"], workdir)
    for name, text in wl.files.items():
        (workdir / name).write_text(text)
    results = [run_child(cli_argv(cmd), workdir) for cmd in wl.setup]
    took = time.perf_counter() - t0
    if warm.returncode != 0:
        tally.fail("import rsgraphs.cli", warm.stderr.strip()[-500:])
    for i, (cmd, res) in enumerate(zip(wl.setup, results)):
        tally.record(("setup", i), cmd, res.returncode, res.stdout)
    return took


def report_counts(argv, rep) -> dict:
    """Work and quality counts a command's report states."""
    if rep is None:
        return {}
    name = gates.command_name(argv)
    if name == "construct geometric":
        return {"geometric.cover.t": rep["t"], "geometric.cover.r_max": rep["r_max"]}
    if name == "construct code":
        return {"codegraph.cover.t": rep["t"]}
    if name == "channel two":
        return {"channels.rounds": rep["rounds_sequential"],
                "channels.overflow_pairs": rep["remainder_pairs"]}
    if name == "channel shifts":
        return {"channels.rounds": rep["rounds_sequential"],
                "channels.overflow_pairs": rep["overflow_pairs"]}
    if name == "channel simulate":
        return {"channels.rounds": rep["rounds_used"]}
    if name == "vempala":
        return {"vempala.pairs": rep["N"] * rep["k"]}
    return {}


def add_counts(acc: dict, counts: dict) -> None:
    for key, v in counts.items():
        acc[key] = max(acc.get(key, 0), v) if key.endswith("r_max") else acc.get(key, 0) + v


def enough(walls: list[float], t_start: float, seconds: float) -> bool:
    """Stop once another pass of median length would run past the budget."""
    if len(walls) < MIN_PASSES:
        return False
    return time.perf_counter() - t_start + statistics.median(walls) > seconds


# ---------------------------------------------------------------------------
# --trace 0: subprocesses, end-to-end metrics

def timed_run(wl, workdir: Path, seconds: float, tally: Tally):
    setups = []
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_SECONDS:
        setups.append(run_setup(wl, workdir, tally))
    if tally.failed:
        return None, {}
    walls, refs, rss, per_kind, counts = [], [], [], {}, {}
    t_start = time.perf_counter()
    while not enough([w + r for w, r in zip(walls, refs)], t_start, seconds):
        results = [run_child(cli_argv(cmd), workdir) for cmd in wl.passes]
        ref = run_child([sys.executable, str(REFERENCE)], workdir)
        if ref.returncode != 0 or ref.stdout != REFERENCE_STDOUT:
            tally.fail("reference run", ref.stderr.strip()[-500:])
        refs.append(ref.wall_s)
        walls.append(sum(r.wall_s for r in results))
        rss.append(max(r.maxrss_mb for r in results))
        kinds: dict[str, float] = {}
        pass_counts: dict = {}
        for i, (cmd, res) in enumerate(zip(wl.passes, results)):
            kinds[cmd.kind] = kinds.get(cmd.kind, 0.0) + res.wall_s
            rep = tally.record(("pass", i), cmd, res.returncode, res.stdout)
            add_counts(pass_counts, report_counts(cmd.argv, rep))
        for kind, w in kinds.items():
            per_kind.setdefault(kind, []).append(w)
        counts = pass_counts
    metrics = {
        "wall_ref": statistics.median(walls) / statistics.median(refs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    detail = {
        "passes": len(walls),
        "setup_runs": len(setups),
        "error_rate": tally.failed / tally.attempted,
        "wall_s": statistics.median(walls),
        "wall_s_quartiles": statistics.quantiles(walls, n=4),
        "pass_walls": walls,
        "reference_walls": refs,
        "setup_s_runs": setups,
        **{f"{kind}_s": statistics.median(w) for kind, w in sorted(per_kind.items())},
        "counts": counts,
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# --trace 1: in-process, per-layer metrics

def _pair_fits(traced, t_start: float, seconds: float) -> bool:
    """Whether another untraced/traced pair fits in the budget."""
    if len(traced) < MIN_PASSES:
        return True
    pair = 2 * statistics.median(w for w, *_ in traced)
    return time.perf_counter() - t_start + pair <= seconds


def run_inprocess(cli, argv) -> tuple[int, bytes, float]:
    """One command through cli.run; a crash counts as a failed command, as a
    traceback in a subprocess does."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(list(argv))
    except Exception:
        traceback.print_exc()
        rc = -1
    return rc, out.getvalue().encode(), time.perf_counter() - t0


def import_seconds(workdir: Path) -> float:
    probe = "import time; t = time.perf_counter(); import rsgraphs.cli; print(time.perf_counter() - t)"
    times = [float(run_child([sys.executable, "-c", probe], workdir).stdout)
             for _ in range(IMPORT_REPS)]
    return statistics.median(times)


def traced_run(wl, workdir: Path, seconds: float, tally: Tally, trace_file: Path):
    run_setup(wl, workdir, tally)
    if tally.failed:
        return None, {}
    import_s = import_seconds(workdir)
    sys.path.insert(0, str(SRC))
    import rsgraphs.cli as cli

    rec = spans.SpanRecorder()
    traced, untraced = [], []  # per pass: (wall, span range, command ids)
    report_cts: dict = {}  # counts stated by the reports of the latest pass
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        t_start = time.perf_counter()
        n = 0
        # A traced pass first (its peak-RSS rises are the meaningful ones),
        # then untraced/traced pairs for the overhead.
        while n == 0 or _pair_fits(traced, t_start, seconds):
            for is_traced in ((True,) if n == 0 else (False, True)):
                if is_traced:
                    rec.install()
                lo, wall, ids = len(rec.spans), 0.0, []
                report_cts = {}
                try:
                    for i, cmd in enumerate(wl.passes):
                        rec.command = f"pass{n}.{i}"
                        rc, stdout, w = run_inprocess(cli, cmd.argv)
                        wall += w
                        ids.append((rec.command, w))
                        rep = tally.record(("pass", i), cmd, rc, stdout)
                        add_counts(report_cts, report_counts(cmd.argv, rep))
                finally:
                    rec.uninstall()
                (traced if is_traced else untraced).append((wall, lo, len(rec.spans), ids))
                n += 1
    finally:
        os.chdir(cwd)

    # Coverage: the share of each command's in-process wall time that the
    # spans below cli.run account for; the rest is argparse, glue and emission.
    per_pass, coverage, per_cmd_coverage = [], [], {}
    kids = spans.child_times(rec.spans)
    for wall, lo, hi, ids in traced:
        per_pass.append(spans.summarize(rec.spans, lo, hi))
        covered = {s["command"]: kids[j] for j, s in enumerate(rec.spans[lo:hi], lo)
                   if s["name"] == "cli.run"}
        coverage.append(sum(covered.values()) / wall)
        for cmd, (c, w) in zip(wl.passes, ids):
            per_cmd_coverage.setdefault(" ".join(cmd.argv), []).append(covered[c] / w)
    overhead = [t[0] / u[0] - 1.0 for u, t in zip(untraced, traced[1:])]

    def med(f):
        return statistics.median(f(fn, ct) for fn, ct in per_pass)

    def fn_stat(name, key):
        return med(lambda fn, ct: fn.get(name, {}).get(key, 0.0))

    stages = {s: med(lambda fn, ct, s=s: spans.stage_self_times(fn)[s]) for s in spans.STAGES}
    first_fn, first_ct = per_pass[0]
    metrics = {
        **{f"stage.{s}.self_s": v for s, v in stages.items()},
        "cli.run.self_s": fn_stat("cli.run", "self_s"),
        "graphs.verify_cover.s": fn_stat("graphs.verify_cover", "s"),
        "channels.simulate.s": fn_stat("channels.simulate", "s"),
        "cli.import_s": import_s,
        "trace_overhead_frac": statistics.median(overhead),
        "span_coverage_frac": statistics.median(coverage),
        **{f"{name}.calls": first_fn.get(name, {}).get("calls", 0)
           for name in ("graphs.verify_cover", "graphs.verify_cover_bipartite",
                        "codegraph.enumerate_cover", "codegraph.two_channel_split")},
        **{key: report_cts.get(key, 0) for key in
           ("geometric.cover.t", "geometric.cover.r_max", "codegraph.cover.t",
            "channels.rounds", "channels.overflow_pairs", "vempala.pairs")},
        **{key: first_ct.get(key, 0) for key in
           ("lintest.edge_trials", "graphs.bytes_read", "graphs.bytes_written")},
        "channels.partition_two.rss_rise_mb":
            first_fn.get("channels.partition_two", {}).get("rss_rise_mb", 0.0),
        "lintest.estimate_soundness.rss_rise_mb":
            first_fn.get("lintest.estimate_soundness", {}).get("rss_rise_mb", 0.0),
    }
    names = sorted({name for fn, _ in per_pass for name in fn})
    functions = {name: {key: fn_stat(name, key) for key in ("s", "self_s", "calls")}
                 for name in names}
    detail = {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "error_rate": tally.failed / tally.attempted,
        "functions": functions,
        "first_pass_rss_rise_mb": {k: v["rss_rise_mb"] for k, v in first_fn.items()},
        "command_span_coverage": {k: statistics.median(v) for k, v in per_cmd_coverage.items()},
    }
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({"spans": rec.spans, "functions": functions}) + "\n")
    return metrics, detail


# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(args, wl, detail) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": git_commit(),
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "profile": args.profile,
        "trace": args.trace,
        "passes": detail.get("passes", detail.get("traced_passes")),
        "setup_argv": [list(c.argv) for c in wl.setup],
        "setup_files": sorted(wl.files),
        "pass_argv": [list(c.argv) for c in wl.passes],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=sorted(workloads.PROFILES), default="full",
                    help="instance sizes; smoke is the seconds-long test size")
    args = ap.parse_args(argv)
    if not (SRC / "rsgraphs" / "cli.py").is_file():
        print(f"no rsgraphs package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed, args.profile)
    workdir = OUT / f"{wl.name}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = Tally(workdir)
    try:
        if args.trace:
            trace_file = OUT / f"trace-{wl.name}-s{args.seed}.json"
            metrics, detail = traced_run(wl, workdir, args.seconds, tally, trace_file)
            units = PER_LAYER
        else:
            metrics, detail = timed_run(wl, workdir, args.seconds, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"provenance": provenance(args, wl, detail)}, sort_keys=True))
    print(json.dumps({"detail": detail}, sort_keys=True))
    correct = tally.failed == 0 and metrics is not None
    result = {
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if metrics and name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
