"""The benchmark's workloads: seeded command lists for the rsgraphs CLI.

Each workload has set-up commands, which write the inputs its passes read,
and pass commands, which are timed and run again on every pass.  Every
command carries the values its output gate checks (see gates.py); they come
from closed forms or from an independent count, never from an earlier run.

Paths in argv are relative: commands run with a work directory as cwd, so
the report bytes do not depend on where the checkout lives.
"""

from dataclasses import dataclass, field

from gates import code_graph_edges, geometric_edges

# The pinned [4,2,2] generator of the desk instance (see the README).
DESK_GENERATOR = "4 2\n11\n11\n10\n10\n"


@dataclass(frozen=True)
class Command:
    kind: str  # gate and metric key, e.g. "construct_code"
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)
    outputs: tuple[str, ...] = ()  # artifact files the command writes


@dataclass(frozen=True)
class Sizes:
    """Instance sizes of one profile."""

    code: tuple[int, int, int]  # C, n, d of the code-graph instance
    gv: tuple[int, int, int] | None  # n, k, d for `codes gv`; None pins the desk generator
    geometric: tuple[tuple[int, int], ...]  # (C, n) per `construct geometric`; the first writes
    shifts: tuple[int, int, int, int]  # C, n, channels, attempts
    lintest_m: int
    lintest_trials: int


PROFILES = {
    # The sizes the benchmark measures.  See perfbench/README.md for the
    # larger sizes left out and why.
    "full": Sizes(
        code=(3, 5, 2), gv=(5, 2, 1), geometric=((3, 4), (2, 5)),
        shifts=(3, 4, 3, 4), lintest_m=8, lintest_trials=2000,
    ),
    # Seconds-long sizes for the benchmark's own tests: the desk instance
    # with its pinned generator, and geometric C=3 n=2.
    "smoke": Sizes(
        code=(3, 4, 2), gv=None, geometric=((3, 2), (2, 3)),
        shifts=(3, 2, 3, 4), lintest_m=8, lintest_trials=200,
    ),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: tuple[Command, ...]
    passes: tuple[Command, ...]
    files: dict = field(default_factory=dict)  # literal input files set-up writes


WHY = {
    "code-channel": "writes the code-graph cover and two-channel schedule; "
                    "code-graph cover, verifier, partition_two and simulate work, "
                    "the geometric code does none",
    "geometric-shells": "shell covers at two sizes (C=2 is all singletons) and shift "
                        "channels; decompose_geometric works, codegraph is never called",
    "artifact-apps": "reads the code-channel artifacts and runs every application "
                     "kernel: simulate, triangle, mindeg, lintest linear and AND, vempala",
}
NAMES = tuple(WHY)


def _generator_setup(sz: Sizes, seed: int):
    """Commands and literal files that put the code-chain root in gen.txt."""
    if sz.gv is None:
        return (), {"gen.txt": DESK_GENERATOR}, 2
    n, k, d = sz.gv
    cmd = Command(
        "codes_gv",
        ("codes", "gv", "--n", str(n), "--k", str(k), "--d", str(d),
         "--seed", str(seed), "--out", "gen.txt"),
        {"n": n, "k": k, "d": d},
        ("gen.txt",),
    )
    return (cmd,), {}, k


def _code_channel_commands(sz: Sizes, k: int) -> tuple[Command, ...]:
    C, n, d = sz.code
    N = C**n
    edges = code_graph_edges(C, n, d)
    inst = ("--c", str(C), "--n", str(n), "--d", str(d), "--gen", "gen.txt")
    return (
        Command(
            "construct_code",
            ("construct", "code", *inst, "--out", "edges.txt", "--cover", "cover.txt"),
            {"N": N, "edges": edges, "r": 1 << (k - 1)},
            ("edges.txt", "cover.txt"),
        ),
        Command(
            "channel_two",
            ("channel", "two", *inst, "--out-schedule", "schedule.txt"),
            {"N": N, "edges": edges},
            ("schedule.txt",),
        ),
    )


def build(name: str, seed: int, profile: str = "full") -> Workload:
    """The workload `name` at seed `seed` with the sizes of `profile`."""
    if name not in WHY:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    sz = PROFILES[profile]
    gen_cmds, files, k = _generator_setup(sz, seed)
    s = str(seed)
    if name == "code-channel":
        return Workload(name, WHY[name], gen_cmds, _code_channel_commands(sz, k), files)

    if name == "geometric-shells":
        passes = []
        for i, (C, n) in enumerate(sz.geometric):
            argv = ("construct", "geometric", "--c", str(C), "--n", str(n))
            outputs = ()
            if i == 0:
                outputs = ("geo-edges.txt", "geo-cover.txt")
                argv += ("--out", outputs[0], "--cover", outputs[1])
            passes.append(Command(
                "construct_geometric", argv,
                {"N": C**n, "edges": geometric_edges(C, n)}, outputs,
            ))
        C, n, channels, attempts = sz.shifts
        passes.append(Command(
            "channel_shifts",
            ("channel", "shifts", "--c", str(C), "--n", str(n), "--channels", str(channels),
             "--attempts", str(attempts), "--seed", s),
            {"N": C**n},
        ))
        return Workload(name, WHY[name], (), tuple(passes), {})

    # artifact-apps: set-up writes code-channel's artifacts, the passes read them.
    C, n, d = sz.code
    N = C**n
    edges = code_graph_edges(C, n, d)
    r = 1 << (k - 1)
    known = {"N": N, "edges": edges, "r": r}
    lt = ("lintest", "--edges", "edges.txt", "--cover", "cover.txt",
          "--m", str(sz.lintest_m), "--trials", str(sz.lintest_trials), "--seed", s)
    passes = (
        Command("channel_simulate", ("channel", "simulate", "--schedule", "schedule.txt"),
                {"N": N}),
        Command("limits", ("limits", "triangle", "--edges", "edges.txt", "--cover", "cover.txt"),
                known),
        Command("limits", ("limits", "mindeg", "--edges", "edges.txt", "--r", str(r)), known),
        Command("lintest", lt + ("--f", "linear"), dict(known, f="linear")),
        Command("lintest", lt + ("--f", "and"), dict(known, f="and")),
        Command("vempala",
                ("vempala", "--c", str(C), "--n", str(n), "--d", str(d), "--gen", "gen.txt"),
                {"N": N, "t": edges // r, "missing_pairs": N * N - 2 * edges}),
    )
    setup = gen_cmds + _code_channel_commands(sz, k)
    return Workload(name, WHY[name], setup, passes, files)
