"""Unified command-line interface.

Exit codes: 0 success, 1 parameter error (a missing or unreadable input
file included), 2 verification failure, 3 resource refusal.  Identical argv
and seed produce byte-identical reports and artifacts; reports carry the
toolkit version and the resolved parameters.  Each subcommand imports the
modules it runs when it runs, so a command loads no code it does not use:
no rsgraphs module (only channel simulate, limits and lintest load the
artifact readers), no numpy submodule (no command loads numpy.ma, and only
lintest loads numpy.random) and no dataclasses.  Importing this module
loads neither numpy nor fractions, and neither do --help, --version, an
argument error, `codes gv`, `codes verify`, or a station-cap refusal of
`channel two`, `channel shifts` or `vempala`.  The parser is built with
only the leaf that argv names.

The command tree is one table, _LEAVES: each leaf's command words, its
function, the shared options it takes (--seed, --max-vertices, --format;
only those its command reads) and its own options.  Every report carries
seed, format and max_vertices, at their defaults where a leaf has no such
option.  --help shows the docstring without this paragraph.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import sys
from typing import TYPE_CHECKING

from . import __version__
from .errors import (
    DEFAULT_MAX_PAIR_CHECKS,
    InternalCheckError,
    ParameterError,
    ResourceLimitError,
    SearchFailureError,
    VerificationError,
    check_caps,
    check_lattice,
)

if TYPE_CHECKING:
    from . import channels, codegraph, codes, lintest


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse's own failures to exit code 1
        raise ParameterError(message)


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    # only a command that has loaded fractions or numpy holds their numbers
    fractions, np = sys.modules.get("fractions"), sys.modules.get("numpy")
    if fractions is not None and isinstance(x, fractions.Fraction):
        return f"{x.numerator}/{x.denominator}"
    if np is not None:
        if isinstance(x, np.integer):
            return int(x)
        if isinstance(x, np.floating):
            return float(x)
    return x


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
    else:
        lines = []
        for key in sorted(report):
            lines.append(f"{key} = {json.dumps(_jsonable(report[key]), sort_keys=True)}")
        text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)


def _base_report(args, command: str, **params) -> dict:
    """The report's head; a leaf without --seed or --max-vertices reports
    their defaults, so every report carries the same parameter keys."""
    resolved = {
        "seed": getattr(args, "seed", 0),
        "format": args.format,
        "max_vertices": getattr(args, "max_vertices", None),
    }
    resolved.update(params)
    return {"version": __version__, "command": command, "params": resolved}


def _max_gv_dimension(n: int, d: int) -> int:
    from . import codes

    k = 0
    for cand in range(1, n):
        if codes.gv_condition(n, cand, d):
            k = cand
    if k == 0:
        raise ParameterError(f"no dimension satisfies the GV gate for n={n}, d>{d}")
    return k


def _check_stations(C: int, length: int, max_vertices, channels: int = 1) -> None:
    """The caps for the N = C^length stations: N vertices, and N^2 station
    pairs in each of `channels` subchannels."""
    n = check_lattice(C, length, max_vertices)
    if n * n > DEFAULT_MAX_PAIR_CHECKS:
        raise ResourceLimitError(
            f"{n * n} station pairs exceed the cap of {DEFAULT_MAX_PAIR_CHECKS} pair checks"
        )
    if channels * n * n > DEFAULT_MAX_PAIR_CHECKS:
        raise ResourceLimitError(
            f"{channels} subchannels x {n * n} station pairs exceed the cap of "
            f"{DEFAULT_MAX_PAIR_CHECKS} pair checks"
        )


def _check_counts(p: codegraph.CodeGraphParams, built: dict) -> None:
    """Each built count must equal its exact value from cover_counts."""
    from . import codegraph

    want = codegraph.cover_counts(p.C, p.n, p.d, p.k)
    exact = {"edges": want.edges, "covered_pairs": 2 * want.edges, "t": want.t,
             "remainder_pairs": want.remainder}
    wrong = [f"{key}={got} (exact {exact[key]})"
             for key, got in built.items() if got != exact[key]]
    if wrong:
        raise InternalCheckError("built counts differ from the exact counts: " + ", ".join(wrong))


def _cover_quality(cover) -> dict:
    """Mean matching size, t / |E| and the share of one-edge matchings of a
    graph cover, each a quotient of exact counts (None when it divides by 0)."""
    import numpy as np

    sizes = np.diff(cover.offsets)
    t, edges, singles = len(sizes), len(cover.pairs), int(np.count_nonzero(sizes == 1))
    return {"r_mean": edges / t if t else None, "t_over_edges": t / edges if edges else None,
            "singleton_fraction": singles / t if t else None}


def _chain_from_args(args, n: int, d: int) -> codes.CodeChain:
    """Code chain for the flip-class cover: from --gen, or GV search at max
    k seeded by --gv-seed (construct code) or --seed."""
    from . import codes

    if args.gen:
        root = codes.read_generator(args.gen)
        if root.n != n:
            raise ParameterError(f"generator length {root.n} does not match n={n}")
        if root.claimed_d < d:
            raise ParameterError(
                f"generator distance {root.claimed_d} is below the required {d}"
            )
    else:
        k = _max_gv_dimension(n, d - 1)
        root = codes.gv_search(n, k, d - 1, args.gv_seed if "gv_seed" in args else args.seed)
    return codes.build_chain(root, d)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_construct_geometric(args) -> int:
    from . import geometric, graphs

    p = geometric.GeomParams(args.c, args.n)
    g = geometric.build_geometric_graph(p, max_vertices=args.max_vertices)
    cover = geometric.decompose_geometric(p, g)
    rep = graphs.verify_cover(g, cover)
    if not rep.valid:
        raise InternalCheckError(f"geometric cover failed verification: {rep.violations[:3]}")
    if args.out:
        graphs.write_edge_list(g, args.out)
    if args.cover:
        graphs.write_cover(cover, args.cover)
    report = _base_report(args, "construct geometric", c=args.c, n=args.n)
    report.update(
        N=g.n,
        edges=g.edge_count,
        missing=math.comb(g.n, 2) - g.edge_count,
        hoeffding_bound=geometric.missing_edge_bound(p),
        mu=p.mu,
        n_even=p.n_even,
        t=rep.t,
        r_min=rep.r_min,
        r_max=rep.r_max,
        **_cover_quality(cover),
        max_shell_degree=geometric.max_shell_degree(p, g),
        exponents=geometric.exponent_report(p),
    )
    _emit(report, args)
    return 0


def _cmd_construct_code(args) -> int:
    from . import codegraph, graphs

    check_lattice(args.c, args.n, args.max_vertices)  # before the GV search, n bits wide
    chain = _chain_from_args(args, args.n, args.d)
    p = codegraph.CodeGraphParams(args.c, args.n, args.d, chain)
    g = codegraph.build_code_graph(p, max_vertices=args.max_vertices)
    cover = codegraph.enumerate_cover(p, g)
    rep = graphs.verify_cover(g, cover)
    if not rep.valid:
        raise InternalCheckError(f"flip-class cover failed verification: {rep.violations[:3]}")
    _check_counts(p, {"edges": g.edge_count, "t": rep.t})
    if args.out:
        graphs.write_edge_list(g, args.out)
    if args.cover:
        graphs.write_cover(cover, args.cover)
    bound = codegraph.missing_edge_count_bound(args.c, args.n, args.d)
    e_formula, f_formula = codegraph.cover_exponents(args.c, args.n, args.d)
    report = _base_report(
        args, "construct code", c=args.c, n=args.n, d=args.d,
        gen=args.gen, gv_seed=args.gv_seed, k=p.k,
    )
    report.update(
        N=g.n,
        edges=g.edge_count,
        missing=math.comb(g.n, 2) - g.edge_count,
        missing_bound_exact=bound.exact,
        missing_bound_simplified=bound.simplified,
        hypothesis_d_over_n=bound.hypothesis_holds,
        t=rep.t,
        matching_size=rep.r_max,
        r_min=rep.r_min,
        r_max=rep.r_max,
        e_formula=e_formula,
        f_formula=f_formula,
    )
    _emit(report, args)
    return 0


def _cmd_codes_gv(args) -> int:
    from . import codes

    code = codes.gv_search(args.n, args.k, args.d, args.seed)
    if args.out:
        codes.write_generator(code, args.out)
    report = _base_report(args, "codes gv", n=args.n, k=args.k, d=args.d, out=args.out)
    report.update(
        n=code.n,
        k=code.k,
        verified_distance=code.claimed_d,
        proper=True,
        gv_rate=codes.gv_rate(args.n, args.d),
    )
    _emit(report, args)
    return 0


def _cmd_codes_verify(args) -> int:
    from . import codes

    code = codes.read_generator(args.generator)
    v = codes.verify_code(code)
    report = _base_report(args, "codes verify", generator=args.generator)
    report.update(
        n=code.n,
        k=code.k,
        proper=v.is_proper,
        distance=v.distance,
        rank=v.rank,
        full_rank=v.rank == code.k,
    )
    _emit(report, args)
    if not v.is_proper or v.rank != code.k:
        raise VerificationError("generator is not a proper full-rank code")
    return 0


def _cmd_limits_triangle(args) -> int:
    from . import graphs, limits

    g = graphs.read_edge_list(args.edges, lambda n: check_caps(n, args.max_vertices))
    cover = graphs.read_cover(args.cover)
    tg = limits.triangle_graph(g, cover)
    counts = limits.edge_triangles(tg.graph)
    if not (counts == 1).all() or counts.sum() != 3 * len(tg.triangles):
        raise InternalCheckError("triangle graph lost the one-triangle-per-edge property")
    if args.out:
        limits.write_triangle_graph(tg, args.out)
    report = _base_report(args, "limits triangle", edges=args.edges, cover=args.cover)
    report.update(
        n_vertices=tg.graph.n,
        n_edges=tg.graph.edge_count,
        triangles=len(tg.triangles),
        crossing_edges=tg.crossing_edges,
        apexes=len(tg.apexes),
        every_edge_in_one_triangle=True,
    )
    _emit(report, args)
    return 0


def _cmd_limits_mindeg(args) -> int:
    from . import graphs, limits

    g = graphs.read_edge_list(args.edges, lambda n: check_caps(n, args.max_vertices))
    rep = limits.check_min_degree_bound(g, args.r)
    report = _base_report(args, "limits mindeg", edges=args.edges, r=args.r)
    report.update(
        N=g.n,
        r=args.r,
        min_margin=rep.min_margin,
        num_violations=len(rep.violations),
        violating_vertices=rep.violations,
    )
    _emit(report, args)
    return 0


def _delivery_report(args, schedule: channels.Schedule, kind: str, **params) -> dict:
    """The report of a channel command that built `schedule`: the schedule
    is written if asked, simulated, and must deliver all N^2 messages with
    no garbling."""
    from . import channels

    if args.out_schedule:
        channels.write_schedule(schedule, args.out_schedule)
    sim = channels.simulate(schedule)
    n = schedule.n_stations
    if sim.delivered != n * n or sim.garbled_events:
        raise InternalCheckError(f"{kind} schedule failed to deliver cleanly")
    report = _base_report(args, "channel " + args.variant, **params)
    report.update(N=n, naive_rounds=n * n, rounds_sequential=sim.rounds_used,
                  rounds_parallel=schedule.parallel_round_count(),
                  per_subchannel_rounds=sim.per_subchannel_rounds, delivered=sim.delivered,
                  garbled=len(sim.garbled_events))
    return report


def _cmd_channel_two(args) -> int:
    _check_stations(args.c, args.n, args.max_vertices)
    import numpy as np

    from . import channels, codegraph

    chain = _chain_from_args(args, args.n, args.d)
    p = codegraph.CodeGraphParams(args.c, args.n, args.d, chain)
    cp = channels.partition_two(p)
    (covered, cover), (remainder, singles) = cp.subchannels
    counts = {"covered_pairs": int(np.count_nonzero(covered)), "t": cover.t,
              "remainder_pairs": int(np.count_nonzero(remainder))}
    _check_counts(p, counts)
    schedule = channels.build_schedule(cp)
    del cp, cover, singles  # the schedule holds a copy of every pair
    report = _delivery_report(args, schedule, "two-channel", c=args.c, n=args.n, d=args.d,
                              gen=args.gen)
    report.update(covered_pairs=counts["covered_pairs"], remainder_pairs=counts["remainder_pairs"])
    _emit(report, args)
    return 0


def _cmd_channel_shifts(args) -> int:
    _check_stations(args.c, args.n, args.max_vertices, args.channels)
    import numpy as np

    from . import channels, geometric

    p = geometric.GeomParams(args.c, args.n)
    cp = channels.partition_shifts(p, args.channels, args.seed, max_attempts=args.attempts)
    report = _delivery_report(args, channels.build_schedule(cp), "shift", c=args.c, n=args.n,
                              channels=args.channels, attempts=args.attempts)
    overflow = 0
    if cp.overflow_index is not None:
        overflow = int(np.count_nonzero(cp.subchannels[cp.overflow_index][0]))
    report.update(
        attempts_used=cp.attempts_used,
        overflow_pairs=overflow,
        meshulam_bound=channels.meshulam_lower_bound(cp.n_stations, args.channels),
        **_cover_quality(cp.graph_cover),
    )
    _emit(report, args)
    return 0


def _cmd_channel_simulate(args) -> int:
    import numpy as np

    from . import channels

    schedule = channels.read_schedule(args.schedule, n_stations=args.stations)
    # simulate holds an N x N matrix per distinct subchannel; the largest id bounds their count
    chans = schedule.num_subchannels
    if chans * schedule.n_stations**2 > DEFAULT_MAX_PAIR_CHECKS:
        chans = 1 + np.count_nonzero(np.diff(np.sort(schedule.chans)))  # ids run to 2^63
    _check_stations(schedule.n_stations, 1, args.max_vertices, chans)
    # the report counts the rounds of every subchannel id up to the largest
    if schedule.num_subchannels > DEFAULT_MAX_PAIR_CHECKS:
        raise ResourceLimitError(
            f"subchannel id {schedule.num_subchannels - 1} exceeds the cap of "
            f"{DEFAULT_MAX_PAIR_CHECKS} subchannels"
        )
    sim = channels.simulate(schedule)
    report = _base_report(args, "channel simulate", schedule=args.schedule)
    report.update(
        stations=schedule.n_stations,
        delivered=sim.delivered,
        rounds_used=sim.rounds_used,
        per_subchannel_rounds=sim.per_subchannel_rounds,
        garbled=len(sim.garbled_events),
        garbled_events=[list(e) for e in sim.garbled_events[:50]],
        double_deliveries=[list(e) for e in sim.double_deliveries[:50]],
    )
    _emit(report, args)
    return 0


def _make_function(descriptor: str, m: int, seed: int) -> lintest.BooleanFunction:
    from . import lintest

    if descriptor == "linear":
        return lintest.linear_function(m, random.Random(seed).getrandbits(m))
    if descriptor == "and":
        return lintest.and_function(m)
    if descriptor.startswith("random:"):
        try:
            seed = int(descriptor.split(":", 1)[1])
        except ValueError:
            raise ParameterError(f"descriptor {descriptor!r} needs an integer seed") from None
        return lintest.random_function(m, seed)
    if descriptor.startswith("table:"):
        return lintest.load_table(descriptor.split(":", 1)[1], m)
    raise ParameterError(f"unknown function descriptor {descriptor!r}")


def _cmd_lintest(args) -> int:
    from . import graphs, lintest

    if args.m > lintest.MAX_TRANSFORM_DIM:  # before anything is read or built
        raise ResourceLimitError(f"m={args.m} exceeds the transform gate {lintest.MAX_TRANSFORM_DIM}")
    g = graphs.read_edge_list(args.edges, lambda n: check_caps(n, args.max_vertices))
    if args.trials * g.n > DEFAULT_MAX_PAIR_CHECKS:
        raise ResourceLimitError(
            f"{args.trials} trials x {g.n} vertices exceed the cap of "
            f"{DEFAULT_MAX_PAIR_CHECKS} drawn points"
        )
    cover = graphs.read_cover(args.cover)
    rep = graphs.verify_cover(g, cover)
    if not rep.valid:
        raise VerificationError(
            f"test-graph cover invalid ({len(rep.violations)} violations)"
        )
    if rep.r_min != rep.r_max:
        raise ParameterError("the soundness bound needs a cover whose matchings all have one size")
    f = _make_function(args.f, args.m, args.seed)
    d_f = lintest.walsh_correlation(f)
    p_hat, stderr = lintest.estimate_soundness(g, f, args.trials, args.seed)
    report = _base_report(args, "lintest", edges=args.edges, cover=args.cover,
                          m=args.m, f=args.f, trials=args.trials)
    report.update(
        N=g.n,
        r=rep.r_max,
        t=rep.t,
        d_f=d_f,
        p_hat=p_hat,
        stderr=stderr,
        hw_bound=lintest.hw_bound(max(rep.r_max, 1), max(rep.t, 1), d_f),
        min_bound=lintest.min_bound(g.n, d_f, max(rep.r_max, 1), max(rep.t, 1)),
    )
    _emit(report, args)
    return 0


def _cmd_vempala(args) -> int:
    _check_stations(args.c, args.n, args.max_vertices)
    from . import codegraph, vempala

    chain = _chain_from_args(args, args.n, args.d)
    p = codegraph.CodeGraphParams(args.c, args.n, args.d, chain)
    parts = vempala.counterexample_partition(p)  # raises unless its checks pass
    N = parts.partition.left_n
    verdict = vempala.conjecture_verdict(parts.total, N, N)
    if args.out_partition:
        vempala.write_partition(parts.partition, args.out_partition)
    e_formula, f_formula = codegraph.cover_exponents(args.c, args.n, args.d)
    report = _base_report(args, "vempala", c=args.c, n=args.n, d=args.d,
                          gen=args.gen)
    report.update(
        N=N,
        k=parts.partition.right_n,
        matching_parts=parts.matching_parts,
        missing_pairs=parts.missing_pairs,
        sum=verdict.total,
        threshold=verdict.threshold,
        refutes_conjectured_bound=verdict.refutes,
        per_part_identity_ok=True,  # the K_{N,N} gate passed
        e_formula=e_formula,
        f_formula=f_formula,
    )
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# parser wiring

# The help of each top-level command.
_HELP = {"construct": "build graphs with their covers",
         "codes": "linear-code search and verification", "limits": "structural-limit checks",
         "channel": "shared-channel scheduling", "lintest": "graph-based linearity testing",
         "vempala": "local-density sum for the duplication partition"}

# The options that several leaves share, in the order a leaf takes them.
_COMMON = {"--seed": {"type": int, "default": 0, "help": "master seed (default 0)"},
           "--max-vertices": {"type": int, "help": "vertex cap for all-pairs construction work"},
           "--format": {"choices": ("json", "text"), "default": "json"}}
_ALL = tuple(_COMMON)
_CAPPED = ("--max-vertices", "--format")  # for a leaf that reads the vertex cap but no seed

_INT, _REQ = {"type": int, "required": True}, {"required": True}
_CN = [("--c", _INT), ("--n", _INT)]
_CND = [*_CN, ("--d", _INT)]
_GEN = ("--gen", {"help": "generator matrix file for the chain root"})
_ARTIFACTS = [("--out", {"help": "edge-list output path"}),
              ("--cover", {"help": "cover output path"})]
_SCHEDULE = ("--out-schedule", {"help": "schedule output path"})

# The command words of each leaf: its function, the common options it takes
# and its own options, each (name, add_argument keywords); a list stands for
# a required group of mutually exclusive options.  Every leaf takes --report
# last.
_LEAVES = {
    ("construct", "geometric"): (_cmd_construct_geometric, _CAPPED, [*_CN, *_ARTIFACTS]),
    ("construct", "code"): (_cmd_construct_code, _CAPPED, [
        *_CND, [_GEN, ("--gv-seed", {"type": int, "help": "search seed for a GV chain root"})],
        *_ARTIFACTS]),
    ("codes", "gv"): (_cmd_codes_gv, ("--seed", "--format"), [
        ("--n", _INT), ("--k", _INT), ("--d", _INT), ("--out", {"help": "generator output path"})]),
    ("codes", "verify"): (_cmd_codes_verify, ("--format",),
                          [("generator", {"help": "generator matrix file"})]),
    ("limits", "triangle"): (_cmd_limits_triangle, _CAPPED, [
        ("--edges", _REQ), ("--cover", _REQ), ("--out", {"help": "triangle-graph output path"})]),
    ("limits", "mindeg"): (_cmd_limits_mindeg, _CAPPED, [("--edges", _REQ), ("--r", _INT)]),
    ("channel", "two"): (_cmd_channel_two, _ALL, [*_CND, _GEN, _SCHEDULE]),
    ("channel", "shifts"): (_cmd_channel_shifts, _ALL, [
        *_CN, ("--channels", _INT), ("--attempts", {"type": int, "default": 1}), _SCHEDULE]),
    ("channel", "simulate"): (_cmd_channel_simulate, _CAPPED, [
        ("--schedule", _REQ),
        ("--stations",
         {"type": int, "help": "station count (default: inferred from the schedule)"})]),
    ("lintest",): (_cmd_lintest, _ALL, [
        ("--edges", _REQ), ("--cover", _REQ), ("--m", _INT),
        ("--f", {**_REQ, "help": "linear | and | random:SEED | table:FILE"}), ("--trials", _INT)]),
    ("vempala",): (_cmd_vempala, _ALL,
                   [*_CND, _GEN, ("--out-partition", {"help": "partition output path"})]),
}


def _build_parser(argv=None) -> _Parser:
    """The command-line parser.  When the leading words of argv name a
    leaf, only that leaf and the groups above it are registered; when argv
    is None, names no leaf or asks for -h/--help, every leaf is, so help and
    argument errors read as from the full tree."""
    named = ()  # the command words of the one leaf registered, or () for every leaf
    if argv is not None and "-h" not in argv and "--help" not in argv:
        named = next((w for w in _LEAVES if tuple(argv[: len(w)]) == w), ())

    top = _Parser(prog="rsgraphs", description=__doc__.rsplit("\n\n", 1)[0])
    top.add_argument("--version", action="version", version=__version__)
    subs = {(): top.add_subparsers(dest="command", required=True, parser_class=_Parser)}

    def add(words):  # a top-level command lists its help, a leaf in a group none
        kw = {"help": _HELP[words[0]]} if len(words) == 1 else {}
        return subs[words[:-1]].add_parser(words[-1], **kw)

    for words, (func, common, own) in _LEAVES.items():
        if named[: len(words)] != words[: len(named)]:
            continue  # argv names another leaf
        if words[:-1] not in subs:
            subs[words[:-1]] = add(words[:1]).add_subparsers(dest="variant", required=True,
                                                             parser_class=_Parser)
        leaf = add(words)
        for flag in common:
            leaf.add_argument(flag, **_COMMON[flag])
        for option in own:
            if isinstance(option, list):
                group = leaf.add_mutually_exclusive_group(required=True)
                for flag, kw in option:
                    group.add_argument(flag, **kw)
            else:
                leaf.add_argument(option[0], **option[1])
        leaf.add_argument("--report", help="report output path")
        leaf.set_defaults(func=func)
    return top


def run(argv) -> int:
    try:
        args = _build_parser(argv).parse_args(argv)
        return args.func(args)
    except (ParameterError, OSError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 1
    except (VerificationError, InternalCheckError, SearchFailureError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource refusal: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    """Run one command as the whole process, and leave it without the
    interpreter's teardown.

    A command makes a fixed handful of cyclic garbage, the same at any
    instance size, so it runs with the cyclic collector off.  On the way
    out, the registered atexit callbacks run and stdout and stderr are
    flushed; os._exit then skips freeing every object the process made.
    Every file a command writes is closed by its with block before run()
    returns.  An exception that escapes run() prints its traceback and
    exits 1, as the interpreter would.  run() leaves gc alone: tests and
    in-process runners call it many times.
    """
    import atexit
    import os

    gc.disable()
    try:
        code = run(sys.argv[1:])
    except SystemExit as exc:  # argparse leaves through sys.exit for --help and --version
        code = exc.code or 0
    except Exception:
        sys.excepthook(*sys.exc_info())
        code = 1
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:  # a closed pipe: the interpreter's own exit status for it
        code = 120
    os._exit(code)


if __name__ == "__main__":
    main()
