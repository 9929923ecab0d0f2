"""The benchmark's four workloads: argv generators and output checks.

Each workload draws every operation's argv from a seeded `random.Random`;
the program sees only that argv.  This module imports only the standard
library at import time, because the runner must pin BLAS threads before
numpy is first imported.  Checks import the reference routines they need
from `isingring` when they run.

Why these four: each ROADMAP speed item targets a different module, so
each workload puts one of them on the critical path and leaves the others
nearly idle.

* evolve_n200    2N=400 Pfaffian elimination dominates; the only workload
                 that runs the `simulate` process pool.
* lightcone_n60  one elimination per site for every site of the ring.
* fine_grid_n10  tiny Pfaffians on thousands of rows, so per-row Python in
                 model, even_observables, rdm and cli dominates.
* ed_gate_n12    dense exact diagonalization on a fresh field every op, so
                 the oracle's cache never hits.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

EVAL_BLOCK = 16            # time points per simulate block, as in the package
ORACLE_TOL = 1e-8          # the package's ED gate tolerance
SAME_TOL = 1e-12           # two routes to one number through the same kernel
RANGE_SLACK = 1e-9         # physical bounds, to roundoff


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    params: dict


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    make_op: Callable            # (random.Random) -> Op
    warmup_argv: tuple[str, ...]
    check: Callable              # (Op, stdout, run_cli) -> error text or None
    cells: Callable              # stdout -> observable values produced
    why: str


def _f(x: float) -> str:
    return f"{x:.6f}"


def _grid(rng, points: int, dt_lo: float, dt_hi: float, offset_hi: float) -> dict:
    dt = float(_f(rng.uniform(dt_lo, dt_hi)))
    t_min = float(_f(rng.uniform(0.0, offset_hi)))
    return {"t_min": t_min, "dt": dt, "t_max": float(_f(t_min + (points - 1) * dt)),
            "points": points}


def _grid_argv(p: dict) -> list[str]:
    return ["--t-min", _f(p["t_min"]), "--t-max", _f(p["t_max"]), "--dt", _f(p["dt"])]


def parse_csv(text: str) -> dict[str, list[float]]:
    """Columns of an isingring CSV table ('#' echo lines skipped)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no CSV header in the output")
    names = lines[0].split(",")
    cols: dict[str, list[float]] = {n: [] for n in names}
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(names):
            raise ValueError(f"row has {len(cells)} cells, header has {len(names)}")
        for n, c in zip(names, cells):
            cols[n].append(float(c))
    return cols


def csv_value_cells(text: str) -> int:
    """Data cells of a CSV table other than the `t` column."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return 0
    ncols = len(lines[0].split(","))
    return (len(lines) - 1) * (ncols - 1)


def ed_check_value_cells(text: str) -> int:
    """Points x 9 compared observables of a passed `ed-check` report."""
    m = re.search(r"ed-check passed .*\((\d+) times", text)
    return int(m.group(1)) * 9 if m else 0


def _finite_rows(cols, points) -> str | None:
    rows = {len(v) for v in cols.values()}
    if rows != {points}:
        return f"expected {points} rows, got {sorted(rows)}"
    if not all(math.isfinite(x) for v in cols.values() for x in v):
        return "non-finite value in the table"
    return None


# --- evolve_n200 -----------------------------------------------------------

def _evolve_n200_op(rng) -> Op:
    p = {"n": 200, "g": float(_f(rng.uniform(0.9, 1.1))),
         **_grid(rng, 2 * EVAL_BLOCK, 0.55, 0.7, 0.5)}
    argv = ["evolve", "--n-sites", "200", "--g", _f(p["g"]), *_grid_argv(p),
            "--workers", "2"]
    return Op(tuple(argv), p)


def _check_evolve_n200(op: Op, out: str, run_cli) -> str | None:
    from isingring.even_observables import thermo_cxx, thermo_sz

    cols = parse_csv(out)
    bad = _finite_rows(cols, op.params["points"])
    if bad:
        return bad
    g, n = op.params["g"], op.params["n"]
    for i, t in enumerate(cols["t"]):
        bloch = cols["sx"][i] ** 2 + cols["sy"][i] ** 2 + cols["sz"][i] ** 2
        if bloch > 1.0 + RANGE_SLACK:
            return f"t={t}: Bloch norm^2 {bloch!r} > 1"
        if not 0.5 - RANGE_SLACK <= cols["purity"][i] <= 1.0 + RANGE_SLACK:
            return f"t={t}: purity {cols['purity'][i]!r} outside [1/2, 1]"
        if not 0.0 <= cols["concurrence"][i] <= 1.0:
            return f"t={t}: concurrence {cols['concurrence'][i]!r} outside [0, 1]"
        if t > n / 8:                        # light cone has wrapped the ring
            continue
        for name, limit in (("sz", thermo_sz), ("cxx", thermo_cxx)):
            dev = abs(cols[name][i] - limit(g, t))
            if dev > ORACLE_TOL:
                return f"t={t}: {name} differs from its N=inf limit by {dev:.3e}"
    return None


# --- lightcone_n60 ---------------------------------------------------------

def _lightcone_n60_op(rng) -> Op:
    p = {"n": 60, "g": float(_f(rng.uniform(0.5, 1.5))),
         **_grid(rng, EVAL_BLOCK + 1, 0.25, 0.35, 1.0)}
    argv = ["string-op", "--n-sites", "60", "--g", _f(p["g"]), *_grid_argv(p),
            "--sites", ",".join(str(j) for j in range(1, 61)), "--workers", "1"]
    return Op(tuple(argv), p)


def _check_lightcone_n60(op: Op, out: str, run_cli) -> str | None:
    cols = parse_csv(out)
    bad = _finite_rows(cols, op.params["points"])
    if bad:
        return bad
    n = op.params["n"]
    if sorted(cols) != sorted(["t", *(f"x{j}" for j in range(1, n + 1))]):
        return "string-op columns are not t, x1..xN"
    worst = max(abs(x) for j in range(1, n + 1) for x in cols[f"x{j}"])
    if worst > 1.0 + RANGE_SLACK:
        return f"|X_j| reaches {worst!r} > 1"
    argv = ["evolve", "--n-sites", str(n), "--g", _f(op.params["g"]),
            *_grid_argv(op.params), "--workers", "1"]
    code, ref, _ = run_cli(argv)
    if code != 0:
        return f"reference evolve exited {code}"
    sx = parse_csv(ref)["sx"]
    if len(sx) != len(cols["x1"]):
        return "evolve and string-op grids differ"
    dev = max(abs(a - b) for a, b in zip(cols["x1"], sx))
    if dev > SAME_TOL:
        return f"X_1 differs from evolve's sx by {dev:.3e}"
    return None


# --- fine_grid_n10 ---------------------------------------------------------

FINE_ROWS = 2000
FINE_SAMPLES = 8


def _fine_grid_n10_op(rng) -> Op:
    p = {"n": 10, "g": float(_f(rng.uniform(0.3, 3.0))),
         **_grid(rng, FINE_ROWS, 0.008, 0.012, 1.0),
         "sample": sorted(rng.sample(range(FINE_ROWS), FINE_SAMPLES))}
    argv = ["evolve", "--n-sites", "10", "--g", _f(p["g"]), *_grid_argv(p),
            "--workers", "1"]
    return Op(tuple(argv), p)


def ed_observables(n: int, g: float, t: float) -> dict[str, float]:
    """The nine `evolve` columns from the dense ED oracle, as ed-check forms them."""
    from isingring.ed_oracle import quench_oracle, two_site_rdm
    from isingring.rdm import TwoSiteRDM, concurrence, pauli_correlation

    rho = TwoSiteRDM(two_site_rdm(quench_oracle(n, g).state(t), n))
    one = rho.reduce(1)
    return {
        "sx": one.bloch[0], "sy": one.bloch[1], "sz": one.bloch[2],
        "purity": one.purity(),
        "czz": pauli_correlation(rho, "z", "z"),
        "cxx": pauli_correlation(rho, "x", "x"),
        "cxy": pauli_correlation(rho, "x", "y"),
        "cxz": pauli_correlation(rho, "x", "z"),
        "concurrence": concurrence(rho),
    }


def _check_fine_grid_n10(op: Op, out: str, run_cli) -> str | None:
    cols = parse_csv(out)
    bad = _finite_rows(cols, op.params["points"])
    if bad:
        return bad
    for i in op.params["sample"]:
        t = cols["t"][i]
        for name, ref in ed_observables(op.params["n"], op.params["g"], t).items():
            dev = abs(cols[name][i] - ref)
            if dev > ORACLE_TOL:
                return f"t={t}: {name} differs from ED by {dev:.3e}"
    return None


# --- ed_gate_n12 -----------------------------------------------------------

def _ed_gate_n12_op(rng) -> Op:
    p = {"n": 12, "g": float(_f(rng.uniform(0.5, 2.0))),
         "t_max": float(_f(rng.uniform(3.0, 6.0)))}
    argv = ["ed-check", "--n-sites", "12", "--g", _f(p["g"]), "--t-max", _f(p["t_max"])]
    return Op(tuple(argv), p)


def _check_ed_gate_n12(op: Op, out: str, run_cli) -> str | None:
    # ed-check compares against ED itself; its exit status (checked by the
    # runner) and report are the verdict.
    if ed_check_value_cells(out) == 0:
        return "ed-check printed no pass line"
    return None


def _warmup(command: str, n: int, *extra: str) -> tuple[str, ...]:
    return (command, "--n-sites", str(n), "--g", "1", "--t-max", "0", *extra)


WORKLOADS = {w.name: w for w in (
    Workload("evolve_n200", 2, _evolve_n200_op,
             _warmup("evolve", 200, "--workers", "1"), _check_evolve_n200,
             csv_value_cells,
             "N=200 evolve over 2 blocks with 2 workers: 400x400 Pfaffians and the pool"),
    Workload("lightcone_n60", 1, _lightcone_n60_op,
             _warmup("string-op", 60, "--sites", "1", "--workers", "1"),
             _check_lightcone_n60, csv_value_cells,
             "string-op on all 60 sites over 17 times: one elimination per site"),
    Workload("fine_grid_n10", 1, _fine_grid_n10_op,
             _warmup("evolve", 10, "--workers", "1"), _check_fine_grid_n10,
             csv_value_cells,
             "N=10 evolve on 2000 rows: per-row Python outside the Pfaffian"),
    Workload("ed_gate_n12", 1, _ed_gate_n12_op,
             _warmup("evolve", 12, "--workers", "1"), _check_ed_gate_n12,
             ed_check_value_cells,
             "ed-check at N=12 with a fresh g per op: dense eigh, no cache hits"),
)}

