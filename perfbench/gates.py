"""Output gates: invariants any correct rsgraphs implementation meets.

A gate reads one command's exit code and JSON report and returns a list of
problems (empty when the output is correct).  It checks facts that follow
from the paper or from closed forms, never bytes of an earlier run, so a
faster implementation with the same guarantees passes.  Cover quality (t,
r_max, rounds) is not gated; the benchmark records it as a count.
"""

import json
import math
from fractions import Fraction

import numpy as np


def code_graph_edges(C: int, n: int, d: int) -> int:
    """Edges of the agreement graph: pairs of [C]^n agreeing on fewer than d coordinates."""
    per_vertex = sum(math.comb(n, j) * (C - 1) ** (n - j) for j in range(d))
    return C**n * per_vertex // 2


def geometric_edges(C: int, n: int) -> int:
    """Edges of the distance-band graph, counted over all pairs of [1..C]^n.

    A pair is an edge when |6 ||x-y||^2 - n(C^2-1)| <= 6n.  The count is a
    direct integer scan, independent of the package's blocked float kernel.
    """
    axes = np.indices((C,) * n).reshape(n, -1).T + 1
    diff = axes[:, None, :] - axes[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    band = np.abs(6 * d2 - n * (C * C - 1)) <= 6 * n
    np.fill_diagonal(band, False)
    return int(band.sum()) // 2


def _require(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _gate_codes_gv(rep, ex, bad):
    _require(bad, rep["n"] == ex["n"] and rep["k"] == ex["k"], "generator has the wrong shape")
    _require(bad, rep["proper"] is True, "generator is not proper")
    _require(bad, rep["verified_distance"] > ex["d"], "distance not above d")


def _gate_construct_code(rep, ex, bad):
    N, E, r = ex["N"], ex["edges"], ex["r"]
    _require(bad, rep["N"] == N, f"N={rep['N']}, expected {N}")
    _require(bad, rep["edges"] == E, f"edges={rep['edges']}, expected {E}")
    _require(bad, rep["missing"] == math.comb(N, 2) - E, "missing != C(N,2) - edges")
    _require(bad, rep["r_min"] == rep["r_max"] == r, f"matching sizes {rep['r_min']}..{rep['r_max']}, expected {r}")
    _require(bad, rep["t"] * r == E, "t * r != edges")


def _gate_construct_geometric(rep, ex, bad):
    N, E = ex["N"], ex["edges"]
    _require(bad, rep["N"] == N, f"N={rep['N']}, expected {N}")
    _require(bad, rep["edges"] == E, f"edges={rep['edges']}, expected {E}")
    _require(bad, rep["missing"] == math.comb(N, 2) - E, "missing != C(N,2) - edges")
    _require(bad, rep["r_min"] >= 1 and rep["t"] * rep["r_max"] >= E, "cover cannot hold every edge")


def _delivered_all(rep, N, bad):
    _require(bad, rep["delivered"] == N * N, f"delivered {rep['delivered']} of {N * N}")
    _require(bad, rep["garbled"] == 0, f"{rep['garbled']} garbled receptions")


def _gate_channel_two(rep, ex, bad):
    N, E = ex["N"], ex["edges"]
    _require(bad, rep["N"] == N, f"N={rep['N']}, expected {N}")
    _delivered_all(rep, N, bad)
    _require(bad, rep["covered_pairs"] == 2 * E, "covered pairs != 2 * edges")
    _require(bad, rep["remainder_pairs"] == N * N - 2 * E, "remainder pairs != N^2 - 2 * edges")


def _gate_channel_shifts(rep, ex, bad):
    _require(bad, rep["N"] == ex["N"], f"N={rep['N']}, expected {ex['N']}")
    _delivered_all(rep, ex["N"], bad)


def _gate_channel_simulate(rep, ex, bad):
    _require(bad, rep["stations"] == ex["N"], f"stations={rep['stations']}, expected {ex['N']}")
    _delivered_all(rep, ex["N"], bad)
    _require(bad, not rep["double_deliveries"], "a message was delivered twice")


def _gate_limits_triangle(rep, ex, bad):
    _require(bad, rep["every_edge_in_one_triangle"] is True, "an edge is not in exactly one triangle")
    _require(bad, rep["triangles"] == rep["crossing_edges"], "triangles != crossing edges")
    _require(bad, rep["n_edges"] == 3 * rep["triangles"], "edges != 3 * triangles")
    _require(bad, 2 * rep["crossing_edges"] >= ex["edges"], "bipartition kept under half the edges")


def _gate_limits_mindeg(rep, ex, bad):
    _require(bad, rep["N"] == ex["N"], f"N={rep['N']}, expected {ex['N']}")
    _require(bad, rep["num_violations"] == 0, f"{rep['num_violations']} min-degree violations")


def _gate_lintest(rep, ex, bad):
    _require(bad, rep["N"] == ex["N"] and rep["r"] == ex["r"], "test graph has the wrong N or r")
    _require(bad, rep["t"] * ex["r"] == ex["edges"], "t * r != edges")
    if ex["f"] == "linear":
        _require(bad, rep["p_hat"] == 1.0, f"linear function accepted with p_hat={rep['p_hat']}")
    else:
        _require(bad, rep["p_hat"] <= rep["hw_bound"], f"p_hat={rep['p_hat']} above hw_bound={rep['hw_bound']}")


def _gate_vempala(rep, ex, bad):
    _require(bad, rep["N"] == ex["N"], f"N={rep['N']}, expected {ex['N']}")
    _require(bad, rep["per_part_identity_ok"] is True, "per-part identity failed")
    _require(bad, rep["matching_parts"] == ex["t"], f"matching_parts={rep['matching_parts']}, expected {ex['t']}")
    _require(bad, rep["missing_pairs"] == ex["missing_pairs"], "missing_pairs != N^2 - 2 * edges")
    _require(bad, Fraction(rep["sum"]) <= ex["t"] + ex["missing_pairs"], "sum above t + missing")


GATES = {
    "codes gv": _gate_codes_gv,
    "construct code": _gate_construct_code,
    "construct geometric": _gate_construct_geometric,
    "channel two": _gate_channel_two,
    "channel shifts": _gate_channel_shifts,
    "channel simulate": _gate_channel_simulate,
    "limits triangle": _gate_limits_triangle,
    "limits mindeg": _gate_limits_mindeg,
    "lintest": _gate_lintest,
    "vempala": _gate_vempala,
}


def command_name(argv) -> str:
    return argv[0] if argv[0] in ("lintest", "vempala") else f"{argv[0]} {argv[1]}"


def gate(argv, expect: dict, returncode: int, stdout: bytes) -> tuple[list[str], dict | None]:
    """Problems with one command's output, and its parsed report."""
    if returncode != 0:
        return [f"exit code {returncode}"], None
    try:
        rep = json.loads(stdout)
    except ValueError:
        return ["stdout is not a JSON report"], None
    name = command_name(argv)
    problems: list[str] = []
    if rep.get("command") != name:
        return [f"report names command {rep.get('command')!r}"], rep
    try:
        GATES[name](rep, expect, problems)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"report field missing or malformed: {exc!r}")
    return problems, rep


# ---------------------------------------------------------------------------
# artifact checks, run once per run on the files a command wrote

def _read_edges(path):
    with open(path) as fh:
        n, m = (int(x) for x in fh.readline().split())
        edges = {tuple(int(x) for x in line.split()) for line in fh if line.strip()}
    if len(edges) != m or any(not 0 <= u < v < n for u, v in edges):
        raise ValueError(f"{path}: header says {m} edges on {n} vertices")
    return n, edges


def _read_cover(path):
    cover = []
    with open(path) as fh:
        for line in fh:
            _, _, rest = line.partition(":")
            cover.append([tuple(int(x) for x in tok.split("-")) for tok in rest.split()])
    return cover


def check_cover_files(edges_path, cover_path, r=None) -> list[str]:
    """The cover must partition the edges into induced matchings (of size r, if given)."""
    try:
        n, edges = _read_edges(edges_path)
        cover = _read_cover(cover_path)
    except (OSError, ValueError) as exc:
        return [f"unreadable artifact: {exc}"]
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    for i, m in enumerate(cover):
        if r is not None and len(m) != r:
            return [f"matching {i} has {len(m)} edges, expected {r}"]
        ends = [x for e in m for x in e]
        if len(set(ends)) != len(ends):
            return [f"matching {i} shares an endpoint"]
        for a, (u, v) in enumerate(m):
            e = (min(u, v), max(u, v))
            if e not in edges or e in seen:
                return [f"matching {i} holds a non-edge or repeated edge {e}"]
            seen.add(e)
            for x, y in m[a + 1:]:
                if {x, y} & (adj[u] | adj[v]):
                    return [f"matching {i} is not induced"]
    if seen != edges:
        return [f"cover misses {len(edges - seen)} edges"]
    return []
