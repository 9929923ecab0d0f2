"""Command line front end.

Subcommands
-----------
evolve     full observable series for one (N, g) quench
string-op  dressed string expectations <X_j> for chosen sites
sweep-g    evolve over a list of fields, long-format output
fit        exponential decay fits of <sigma^x> per field, with closed forms
ed-check   compare the fast path against exact diagonalization (N <= 16)
limits     thermodynamic-limit curves from quadrature

Output is CSV (or a JSON mirror) with the resolved run parameters echoed
in '#' header lines; identical parameters give byte-identical files
regardless of worker count, which is why the worker setting is not part
of the echo.  A config file holding 'key = value' lines (long option
names without the leading dashes) can stand in for flags; explicit flags
win because they come later on the synthesized command line.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from decimal import Decimal, InvalidOperation

import numpy as np

from . import __version__
from .analysis import fit_exponential
from .ed_oracle import quench_oracle, two_site_rdm
from .even_observables import (
    QuadratureError,
    asymptotic_order_decay,
    thermo_cxx,
    thermo_rho11,
    thermo_sz,
)
from .model import QuenchConfig
from .rdm import TwoSiteRDM
from .simulate import (
    SERIES_COLUMNS,
    compute_series,
    order_parameter_series,
    series_columns,
    string_series,
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _nonempty(values: list) -> list:
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _float_list(text: str) -> list[float]:
    """Parse '0.5,1.0' or 'start:step:stop' (stop inclusive).

    Range points are start + i*step in decimal arithmetic, each rounded
    once to a float, so '0.9:0.05:1.0' gives exactly 0.9, 0.95, 1.0.
    """
    if ":" in text:
        bounds = text.split(":")
        start, step, stop = (float(p) for p in bounds)   # rejects junk
        if not np.isfinite([start, step, stop]).all():
            raise argparse.ArgumentTypeError("range bounds must be finite")
        if step <= 0:
            raise argparse.ArgumentTypeError("range step must be positive")
        start, step, stop = (Decimal(p.strip()) for p in bounds)
        try:
            n = int((stop - start) // step)
        except InvalidOperation:
            raise argparse.ArgumentTypeError(f"range {text!r} has too many points") from None
        return _nonempty([float(start + i * step) for i in range(max(n, -1) + 1)])
    return _nonempty([float(p) for p in text.split(",") if p.strip()])


def _unique(values: list, what: str) -> list:
    repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeated is not None:
        raise argparse.ArgumentTypeError(f"{what} {repeated} is listed twice")
    return values


def _site_list(text: str) -> list[int]:
    return _unique(_nonempty([int(p) for p in text.split(",") if p.strip()]), "site")


def _pair(text: str) -> tuple[float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected 'lo,hi'")
    lo, hi = parts
    if not np.isfinite(parts).all():
        raise argparse.ArgumentTypeError(f"bounds must be finite, got {text!r}")
    if not 0.0 <= lo < hi:
        raise argparse.ArgumentTypeError(f"need 0 <= lo < hi, got {text!r}")
    return lo, hi


def _time_grid(t_min: float, t_max: float, dt: float) -> np.ndarray:
    for flag, value in (("--dt", dt), ("--t-min", t_min), ("--t-max", t_max)):
        if not np.isfinite(value):
            raise SystemExit(f"error: {flag} must be finite")
    if dt <= 0:
        raise SystemExit("error: --dt must be positive")
    if t_max < t_min:
        raise SystemExit("error: --t-max must be >= --t-min")
    # whole steps only: the last point passes --t-max by roundoff at most
    steps = np.floor((t_max - t_min) / dt + 1e-9)
    try:
        return t_min + dt * np.arange(int(steps) + 1)
    except (OverflowError, ValueError, MemoryError):
        raise SystemExit(f"error: --t-min/--t-max/--dt give {steps + 1:.6g} time points, "
                         "too many to hold") from None


def _echo(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(_echo(v) for v in value)
    return _fmt(value) if isinstance(value, float) else str(value)


def _spec(args) -> dict:
    """The header echo: the command, the version and every parsed option
    except the worker count and the output paths."""
    spec = {key.replace("_", "-"): _echo(value) for key, value in vars(args).items()
            if key not in ("func", "workers", "out", "json_out")}
    spec["version"] = __version__
    return spec


def _require_finite(columns: dict) -> dict:
    """The table itself, unless a cell is not finite: then a ValueError
    naming the column and time of the first such cell, row by row."""
    data = np.column_stack(list(columns.values()))
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"column {list(columns)[col]} is not finite at "
                         f"t = {_fmt(columns['t'][row])}; nothing written")
    return columns


def _write_table(args, columns: dict) -> None:
    spec = _spec(args)
    lines = [f"# {key} = {spec[key]}" for key in sorted(spec)]
    lines.append(",".join(columns))
    rows = np.column_stack(list(columns.values())).tolist()
    lines.extend(",".join([format(v, ".17g") for v in row]) for row in rows)
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    if getattr(args, "json_out", None):
        payload = {
            "spec": {k: spec[k] for k in sorted(spec)},
            "columns": list(columns),
            "rows": rows,
        }
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")


def cmd_evolve(args) -> int:
    config = QuenchConfig(args.n_sites, args.g,
                          _time_grid(args.t_min, args.t_max, args.dt))
    series = compute_series(config, workers=args.workers)
    _write_table(args, _require_finite(series.columns))
    return 0


def cmd_string_op(args) -> int:
    config = QuenchConfig(args.n_sites, args.g,
                          _time_grid(args.t_min, args.t_max, args.dt))
    series = string_series(config, args.sites, workers=args.workers)
    _write_table(args, _require_finite(series.columns))
    return 0


def cmd_sweep_g(args) -> int:
    grid = _time_grid(args.t_min, args.t_max, args.dt)
    blocks = {name: [] for name in ("g", *SERIES_COLUMNS)}
    for g in args.g_list:
        series = compute_series(QuenchConfig(args.n_sites, g, grid),
                                workers=args.workers)
        blocks["g"].append(np.full(grid.size, g))
        for name in SERIES_COLUMNS:
            blocks[name].append(series.columns[name])
    columns = {name: np.concatenate(parts) for name, parts in blocks.items()}
    _write_table(args, _require_finite(columns))
    return 0


def cmd_fit(args) -> int:
    lo, hi = args.window
    pad = 2.0 * args.dt
    grid = _time_grid(max(0.0, lo - pad), hi + pad, args.dt)
    names = ("g", "prefactor", "rate", "prefactor_err", "rate_err",
             "residual", "prefactor_formula", "rate_quadrature")
    rows = {name: [] for name in names}
    for g in args.g_list:
        series = order_parameter_series(QuenchConfig(args.n_sites, g, grid),
                                        workers=args.workers)
        fit = fit_exponential(series.times, series.column("sx"), args.window)
        if 0.0 <= g <= 1.0:
            a_formula, rate_quad = asymptotic_order_decay(g)
        else:
            a_formula, rate_quad = float("nan"), float("nan")
        for name, value in zip(names, (g, fit.prefactor, fit.rate,
                                       fit.prefactor_err, fit.rate_err,
                                       fit.residual, a_formula, rate_quad)):
            rows[name].append(value)
    _write_table(args, {name: np.asarray(vals) for name, vals in rows.items()})
    return 0


def cmd_ed_check(args) -> int:
    if args.points < 1:
        raise SystemExit("error: --points must be at least 1")
    if args.points > 1 and args.t_max <= 0:
        raise SystemExit("error: --t-max must be positive when --points > 1")
    grid = np.linspace(0.0, args.t_max, args.points)
    oracle = quench_oracle(args.n_sites, args.g)   # rejects rings it cannot take
    fast = compute_series(QuenchConfig(args.n_sites, args.g, grid))
    ed = TwoSiteRDM(np.array([two_site_rdm(oracle.state(float(t)), args.n_sites)
                              for t in grid]))
    names = SERIES_COLUMNS[1:]
    dev = np.abs(np.column_stack([fast.column(n) for n in names]) - series_columns(ed))
    worst = dict(zip(names, dev.max(axis=0)))
    # written so that a NaN deviation fails too: NaN compares false to anything
    failed = {n for n, d in worst.items() if not d <= args.tol}
    for name in sorted(worst):
        status = "FAIL" if name in failed else "ok"
        print(f"{name:12s} max|dev| = {worst[name]:.3e}  {status}")
    if failed:
        print(f"ed-check FAILED for N={args.n_sites}, g={args.g} "
              f"(tolerance {args.tol:g})", file=sys.stderr)
        return 1
    print(f"ed-check passed for N={args.n_sites}, g={args.g} "
          f"({grid.size} times, tolerance {args.tol:g})")
    return 0


def cmd_limits(args) -> int:
    grid = _time_grid(args.t_min, args.t_max, args.dt)
    evaluators = {"sz": thermo_sz, "cxx": thermo_cxx, "rho11": thermo_rho11}
    unknown = [q for q in args.quantities if q not in evaluators]
    if unknown:
        raise SystemExit(f"error: unknown quantities {unknown}; "
                         f"choose from {sorted(evaluators)}")
    # time by time, so sz and cxx at one time share a cached quench integral
    rows = [[evaluators[q](args.g, float(t)) for q in args.quantities] for t in grid]
    _write_table(args, {"t": grid, **dict(zip(args.quantities, np.array(rows).T))})
    return 0


#: Flags shared by several subcommands, declared once.  `_add_shared`
#: can give one a per-command default, which also makes it optional.
_SHARED_FLAGS = {
    "--n-sites": dict(type=int, required=True, help="ring size N (even, >= 4)"),
    "--g": dict(type=float, required=True, help="post-quench transverse field"),
    "--t-min": dict(type=float, default=0.0),
    "--t-max": dict(type=float, required=True),
    "--dt": dict(type=float, default=0.05),
    "--workers": dict(type=int, default=1,
                      help="threads evaluating time blocks in this process (default 1)"),
    "--out": dict(default="-", help="CSV path, '-' for stdout"),
    "--json-out": dict(default=None, help="optional JSON mirror path"),
}
_GRID = ("--t-min", "--t-max", "--dt")
_WORKERS_OUT = ("--workers", "--out", "--json-out")


def _add_shared(p, *flags, **defaults) -> None:
    for flag in flags:
        spec = dict(_SHARED_FLAGS[flag])
        dest = flag[2:].replace("-", "_")
        if dest in defaults:
            spec.update(required=False, default=defaults[dest])
        p.add_argument(flag, **spec)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads any token starting '-<digit>' or
    '-.<digit>' (-1e3, -1,5, -.5:0.1:1) as a value, not an option; no
    option here looks like that.  Subcommand parsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="isingring",
        description="Exact quench dynamics of the transverse-field Ising ring",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="full observable time series")
    _add_shared(p, "--n-sites", "--g", *_GRID, *_WORKERS_OUT)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("string-op", help="dressed string <X_j> series")
    _add_shared(p, "--n-sites", "--g", *_GRID, *_WORKERS_OUT)
    p.add_argument("--sites", type=_site_list, required=True,
                   help="comma separated site list, e.g. 2,4,8")
    p.set_defaults(func=cmd_string_op)

    p = sub.add_parser("sweep-g", help="evolve over a field list")
    _add_shared(p, "--n-sites", *_GRID, *_WORKERS_OUT)
    p.add_argument("--g-list", type=_float_list, required=True,
                   help="comma list or start:step:stop range")
    p.set_defaults(func=cmd_sweep_g)

    p = sub.add_parser("fit", help="order-parameter decay fits per field")
    _add_shared(p, "--n-sites")
    p.add_argument("--g-list", type=_float_list, required=True)
    p.add_argument("--window", type=_pair, default=(10.0, 20.0),
                   help="fit window 'lo,hi'")
    _add_shared(p, "--dt", *_WORKERS_OUT)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("ed-check", help="gate the fast path against exact diagonalization")
    _add_shared(p, "--n-sites", "--g", "--t-max", t_max=5.0)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_ed_check)

    p = sub.add_parser("limits", help="thermodynamic-limit curves")
    _add_shared(p, "--g", *_GRID, dt=0.1)
    p.add_argument("--quantities", type=lambda s: _unique(s.split(","), "quantity"),
                   default=["sz", "cxx"],
                   help="comma list from sz,cxx,rho11")
    _add_shared(p, "--out", "--json-out")
    p.set_defaults(func=cmd_limits)

    return parser


def _splice_config(argv: list[str]) -> list[str]:
    """Turn '--config FILE' into the flags the file holds.

    File lines are 'key = value' with '#' comments; keys are long option
    names without dashes.  The flags are inserted right after the
    subcommand so anything typed explicitly comes later and wins.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise SystemExit("error: --config needs a path")
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2:]
    tokens: list[str] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"error: bad config line {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            tokens += [f"--{key}", value]
    if not rest:
        return tokens
    return [rest[0], *tokens, *rest[1:]]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _splice_config(argv)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QuadratureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
