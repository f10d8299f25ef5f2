"""acstab: reproduce the built-in tables, run steppers, and analyze stability.

Subcommands
-----------
reproduce  table1|table2|table3|table4|fig1-data|fig5-data; --check compares
           computed cells to the embedded reference values (exit 4 on mismatch).
simulate   run a time stepper from an initial spec and write trajectory.csv
           with columns step,t,min,max,center,l2,sign; the last row is
           "settle,<first settled step or -1>,<limit sign>,,,,".
analyze    thresholds|bifurcations|intervals|classify|perturb -> CSV.
preimage   constant targets -> root list CSV (root,disc_sign,forward_error);
           field targets -> continuation preimage written as
           <out stem>_field.csv (node coordinates, value) plus a summary row
           with the forward-step verification residual.

Field specs use the grammar "const:<v>" or "const+mode:<v>,<delta>,<k[,l]>"
(value v plus delta times the cos/sin eigenmode with index k, and l in 2D).

Exit codes: 0 success, 2 configuration error, 3 solver/analysis failure,
4 check mismatch.  A JSON file passed via --config supplies defaults for
any flag (same names, lower_snake_case); explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import reference
from .errors import AnalysisError, ConfigurationError
from .fields import (
    ACParams,
    ModeIndex,
    ScalarField,
    constant_field,
    eval_mode,
    make_grid,
)
from .robustness import (
    dirk_perturbation_gains,
    interval_sequence,
    classify_constant_initial,
    perturbation_gain,
    preimage_constants,
    preimage_field,
)
from .schemes import (
    CN,
    DIRK2,
    MODCN,
    SchemeKind,
    parse_scheme,
    scalar_map,
    simulate,
    step,
)
from .solvers import HomotopyConfig, NewtonConfig
from .stability import enumerate_bifurcations, stability_threshold

_RATIO_FACTOR = {"be": 1.0, "cn": 2.0, "modcn": 2.0, "dirk": 4.0}


def _fmt(v) -> str:
    if type(v) is int:
        return str(v)
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.9g" % (float(v) + 0.0)  # + 0.0 turns -0.0 into 0.0


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([*map(_fmt, row)] for row in rows)


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill in None-valued flags from the --config JSON file, if any.

    Each value is read as its flag's command-line text would be, through the
    flag's type and choices; a value they reject is a ConfigurationError
    naming its key.
    """
    path = getattr(args, "config", None)
    if not path:
        return args
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigurationError("config file must hold a JSON object")
    actions = {a.dest: a for a in args.flags._actions}
    for key, val in data.items():
        action = actions.get(key.replace("-", "_"))
        if action is None or not hasattr(args, action.dest) or getattr(args, action.dest) is not None:
            continue
        if action.nargs != 0:  # not a const flag: the value is read as command-line text
            read = action.type or str
            try:
                val = read(str(val))
            except ValueError:
                raise ConfigurationError(
                    f"config key {key!r}: invalid {read.__name__} value {val!r}") from None
        if action.choices is not None and val not in action.choices:
            raise ConfigurationError(f"config key {key!r}: invalid choice {val!r} "
                                     f"(choose from {', '.join(map(str, action.choices))})")
        setattr(args, action.dest, val)
    return args


def _require(args, *names) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ConfigurationError("missing required option(s): " + ", ".join(
            "--" + n.replace("_", "-") for n in missing
        ))


def _resolve_params(args) -> ACParams:
    """eps plus exactly one of dt / ratio; ratio is scaled per scheme.

    A ratio-only invocation defaults eps to 1 (the quantities parameterized
    by the ratio do not depend on eps separately).
    """
    dt, ratio = getattr(args, "dt", None), getattr(args, "ratio", None)
    if (dt is None) == (ratio is None):
        raise ConfigurationError("supply exactly one of --dt and --ratio")
    eps = args.eps
    if eps is None:
        if dt is not None:
            raise ConfigurationError("missing required option(s): --eps")
        eps = 1.0
    if dt is None:
        if not (math.isfinite(ratio) and ratio > 0.0):
            raise ConfigurationError(f"--ratio must be finite and > 0, got {ratio}")
        kind = parse_scheme(args.scheme)
        dt = ratio * _RATIO_FACTOR[kind.tag] * eps ** 2
    return ACParams(eps=eps, dt=dt)


def _resolve_grid(args, spec: str | None = None):
    dim = getattr(args, "dim", None)
    if dim is None and spec is not None:
        # a 4-component mode spec ("const+mode:v,d,k,l") implies 2D
        dim = 2 if (spec.startswith("const+mode:") and spec.count(",") == 3) else 1
    dim = dim or 1
    n = getattr(args, "n", None)
    return make_grid(dim, (257 if dim == 1 else 65) if n is None else n)


def _parse_mode(kval, lval, dim: int) -> ModeIndex:
    if dim == 2:
        if lval is None:
            raise ConfigurationError("2D modes need both k and l")
        return ModeIndex((float(kval), float(lval)))
    return ModeIndex((float(kval),))


def _parse_field_spec(spec: str, grid):
    """Parse "const:<v>" / "const+mode:<v>,<d>,<k[,l]>" into a field + metadata."""
    if spec.startswith("const+mode:"):
        body = spec[len("const+mode:"):]
        parts = body.split(",")
        if len(parts) not in (3, 4):
            raise ConfigurationError(f"bad field spec {spec!r}: expected <v>,<delta>,<k[,l]>")
        try:
            v, delta = float(parts[0]), float(parts[1])
            kval = float(parts[2])
            lval = float(parts[3]) if len(parts) == 4 else None
        except ValueError:
            raise ConfigurationError(f"bad numeric value in field spec {spec!r}")
        if (lval is not None) and grid.dim != 2:
            raise ConfigurationError("field spec has an l component but the grid is 1D")
        mode = _parse_mode(kval, lval, grid.dim)
        shape = eval_mode(mode, grid)
        return ScalarField(grid, v + delta * shape.values), {
            "const": v, "delta": delta, "mode": mode,
        }
    if spec.startswith("const:"):
        try:
            v = float(spec[len("const:"):])
        except ValueError:
            raise ConfigurationError(f"bad constant in field spec {spec!r}")
        return constant_field(grid, v), {"const": v, "delta": None, "mode": None}
    raise ConfigurationError(
        f"bad field spec {spec!r}: expected const:<v> or const+mode:<v>,<d>,<k[,l]>"
    )


def _newton_cfg(args) -> NewtonConfig:
    tol = getattr(args, "newton_tol", None)
    mi = getattr(args, "newton_max_iter", None)
    kw = {}
    if tol is not None:
        kw["tol"] = tol
    if mi is not None:
        kw["max_iter"] = int(mi)
    return NewtonConfig(**kw)


# ---------------------------------------------------------------------------
# reproduce


def _table_rows(kind: SchemeKind):
    return [[ratio, *interval_sequence(kind, ratio, 4).entries] for ratio in reference.RATIOS]


def _interval_rows(kind: SchemeKind):
    """fig-data rows: (ratio, interval index, lower, upper, limit sign)."""
    rows = []
    for ratio in reference.RATIOS:
        ent = interval_sequence(kind, ratio, 4).entries
        bounds = [-x for x in reversed(ent)] + [0.0] + list(ent)
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            # positive-side interval j (0-based from 0) settles at (-1)^j;
            # mirrored intervals settle at the opposite sign
            j = i - len(ent)
            limit = (-1) ** j if j >= 0 else -((-1) ** (-j - 1))
            rows.append([ratio, i, lo, hi, limit])
    return rows


def _threshold_rows(eps: float):
    """(scheme, formula, dt_max) of every scheme's uniqueness threshold at eps."""
    rows = []
    for name in ("be", "cn", "modcn", "dirk2"):
        th = stability_threshold(parse_scheme(name), eps)
        rows.append([name, th.formula, th.dt_max])
    return rows


def _table_cells(rows, table):
    """Interval-table cells: each row's values against its ratio's printed row."""
    for row in rows:
        for i, (got, want) in enumerate(zip(row[1:], table[row[0]]), start=1):
            yield f"ratio={row[0]:g} column {i}", got, want


def _interval_cells(rows, table):
    """fig-data cells per ratio: the positive upper endpoints as a row of the
    printed table, and limit signs that alternate from interval to interval."""
    per_ratio = len(rows) // len(reference.RATIOS)
    for base in range(0, len(rows), per_ratio):
        chunk = rows[base:base + per_ratio]
        yield from _table_cells([[chunk[0][0], *(row[3] for row in chunk[per_ratio // 2:])]], table)
        limits = [row[4] for row in chunk]
        alternate = all(a != b for a, b in zip(limits, limits[1:]))
        yield f"ratio={chunk[0][0]:g} limit signs alternate", alternate, True


def _threshold_cells(rows, table):
    """table4 cells: each scheme's (formula, dt_max / eps^2) pair."""
    for name, formula, factor in rows:
        yield name, (formula, factor), table[name]


_TABLE_HEADER = ["ratio", "r1", "r2", "r3", "r4"]
_INTERVAL_HEADER = ["ratio", "interval", "lower", "upper", "limit"]

# reproduce target -> (CSV header, row builder, its argument, reference cells, reference)
_TARGETS = {
    "table1": (_TABLE_HEADER, _table_rows, CN, _table_cells, reference.TABLE1),
    "table2": (_TABLE_HEADER, _table_rows, MODCN, _table_cells, reference.TABLE2),
    "table3": (["ratio", "r1", "s1", "r2", "s2", "r3", "s3", "r4", "s4"],
               _table_rows, DIRK2, _table_cells, reference.TABLE3),
    "table4": (["scheme", "formula", "dt_max_over_eps2"],
               _threshold_rows, 1.0, _threshold_cells, reference.TABLE4),
    "fig1-data": (_INTERVAL_HEADER, _interval_rows, CN, _interval_cells, reference.TABLE1),
    "fig5-data": (_INTERVAL_HEADER, _interval_rows, DIRK2, _interval_cells, reference.TABLE3),
}


def _agrees(got, want) -> bool:
    """Printed numbers agree to reference.CHECK_TOL; any other cell must be equal."""
    if isinstance(want, float):
        return abs(got - want) <= reference.CHECK_TOL * max(1.0, abs(want))
    return got == want


def cmd_reproduce(args) -> int:
    if args.id not in _TARGETS:
        raise ConfigurationError(f"unknown reproduce target {args.id!r}")
    header, build, arg, cells, table = _TARGETS[args.id]
    out = args.out or f"{args.id.replace('-', '_')}.csv"
    rows = build(arg)
    _write_csv(out, header, rows)
    print(f"wrote {out}")
    if not args.check:
        return 0
    bad = [cell for cell in cells(rows, table) if not _agrees(cell[1], cell[2])]
    for where, got, want in bad:
        print(f"{args.id} {where}: computed {got} != reference {want}", file=sys.stderr)
    if bad:
        print(f"check: {len(bad)} mismatch(es)", file=sys.stderr)
        return 4
    print("check: all values match")
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    _require(args, "scheme")
    kind = parse_scheme(args.scheme)
    p = _resolve_params(args)
    grid = _resolve_grid(args, args.initial)
    phi0, _meta = _parse_field_spec(args.initial, grid)
    steps = args.steps if args.steps is not None else 100
    settle_tol = args.settle_tol if args.settle_tol is not None else 1e-3
    traj = simulate(kind, phi0, steps, p, settle_tol=settle_tol, cfg=_newton_cfg(args))
    out = args.out or "trajectory.csv"
    rows = [
        [s.step, s.time, s.vmin, s.vmax, s.center, s.l2, s.center_sign]
        for s in traj.summaries
    ]
    rows.append(["settle", traj.settle_step if traj.settled else -1, traj.limit,
                 "", "", "", ""])
    _write_csv(out, ["step", "t", "min", "max", "center", "l2", "sign"], rows)
    print(f"wrote {out}")
    if traj.failure:
        print(traj.failure, file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# analyze


def _analyze_thresholds(args, out: str) -> int:
    _require(args, "eps")
    _write_csv(out, ["scheme", "formula", "dt_max"], _threshold_rows(args.eps))
    return 0


def _analyze_bifurcations(args, out: str) -> int:
    _require(args, "scheme", "c")
    kind = parse_scheme(args.scheme)
    # the enumeration solves for eps, so only dt is needed here
    dt = args.dt if args.dt is not None else _resolve_params(args).dt
    dim = args.dim or 1
    eps_min = args.eps_min if args.eps_min is not None else 1e-3
    max_k = args.max_k if args.max_k is not None else 8
    points = enumerate_bifurcations(kind, args.c, dt, eps_min, max_k=max_k, dim=dim)
    header = ["k1", "k2", "eps_sq", "eigenfunction", "note"]
    if not points:
        _write_csv(out, header, [["", "", "", "no bifurcation: 1 - 3c^2 <= 0 or below eps-min", ""]])
        return 0
    rows = []
    for bp in points:
        k1 = bp.mode.k[0]
        k2 = bp.mode.k[1] if bp.mode.dim == 2 else ""
        rows.append([k1, k2, bp.eps_sq, bp.eigenfunction, bp.note])
    _write_csv(out, header, rows)
    return 0


def _analyze_intervals(args, out: str) -> int:
    _require(args, "scheme", "ratio")
    kind = parse_scheme(args.scheme)
    count = args.count if args.count is not None else 4
    seq = interval_sequence(kind, args.ratio, count)
    rows = []
    if kind.tag == "dirk":
        for i, (r, s) in enumerate(zip(seq.r_values(), seq.s_values()), start=1):
            rows.append([kind.label, args.ratio, f"r{i}", r])
            rows.append([kind.label, args.ratio, f"s{i}", s])
    else:
        for i, r in enumerate(seq.entries, start=1):
            rows.append([kind.label, args.ratio, f"r{i}", r])
    _write_csv(out, ["scheme", "ratio", "name", "value"], rows)
    return 0


def _analyze_classify(args, out: str) -> int:
    _require(args, "scheme", "rmin", "rmax")
    if not (math.isfinite(args.rmin) and math.isfinite(args.rmax)):
        raise ConfigurationError("--rmin and --rmax must be finite")
    kind = parse_scheme(args.scheme)
    p = _resolve_params(args)
    samples = args.samples if args.samples is not None else 64
    if samples < 2:
        raise ConfigurationError("--samples must be >= 2")
    max_steps = args.steps if args.steps is not None else 400
    res = classify_constant_initial(kind, np.linspace(args.rmin, args.rmax, samples), p,
                                    max_steps=max_steps)
    columns = (res.initial, res.limit, res.settle_step, res.flips)
    _write_csv(out, ["r", "limit", "settle_step", "flips"], zip(*(c.tolist() for c in columns)))
    return 0


def _branch_gains(kind: SchemeKind, c: float, r: float, mode: ModeIndex, p: ACParams, chains):
    """(root, gains) of the constant preimage branch of c through r on mode.

    For dirk the branch is the stage chain of `chains` whose root is nearest r.
    """
    if kind.tag != "dirk":
        return r, perturbation_gain(kind, c, r, mode, p)
    chain = min(chains, key=lambda ch: abs(ch[0] - r))
    return chain[0], dirk_perturbation_gains(chain[2], chain[1], mode, p, kind=kind)


def _analyze_perturb(args, out: str) -> int:
    _require(args, "scheme", "c", "k")
    kind = parse_scheme(args.scheme)
    p = _resolve_params(args)
    dim = 2 if args.l is not None else 1
    mode = _parse_mode(args.k, args.l, dim)
    header = ["scheme", "c", "r", "k", "l", "gain0", "gain1", "gain2", "pole"]
    lcol = args.l if args.l is not None else ""
    if kind.tag == "be":
        raise ConfigurationError("perturbation gains are defined for cn, modcn, dirk2")
    _require(args, "r")
    chains = preimage_constants(kind, args.c, p).chains if kind.tag == "dirk" else ()
    r, g = _branch_gains(kind, args.c, args.r, mode, p, chains)
    gains = [*g.gain, "", ""][:3]
    _write_csv(out, header, [[kind.label, args.c, r, args.k, lcol, *gains, int(g.pole)]])
    return 0


def cmd_analyze(args) -> int:
    sub = args.what
    out = args.out or f"{sub}.csv"
    if sub == "thresholds":
        code = _analyze_thresholds(args, out)
    elif sub == "bifurcations":
        code = _analyze_bifurcations(args, out)
    elif sub == "intervals":
        code = _analyze_intervals(args, out)
    elif sub == "classify":
        code = _analyze_classify(args, out)
    elif sub == "perturb":
        code = _analyze_perturb(args, out)
    else:
        raise ConfigurationError(f"unknown analyze subcommand {sub!r}")
    print(f"wrote {out}")
    return code


# ---------------------------------------------------------------------------
# preimage


def _preimage_constant(args, kind, p, c: float, out: str) -> int:
    ps = preimage_constants(kind, c, p)
    rows = []
    for i, root in enumerate(ps.roots):
        images = scalar_map(kind, root, p)
        fwd_err = min(abs(img - c) for img, _sel in images)
        disc = ps.cubics[0].discriminant_sign if ps.cubics else ""
        rows.append([kind.label, c, root, disc, fwd_err])
    _write_csv(out, ["scheme", "c", "root", "disc_sign", "forward_error"], rows)
    print(f"wrote {out}")
    return 0


def _preimage_field(args, kind, p, meta, grid, out: str) -> int:
    c, delta, mode = meta["const"], meta["delta"], meta["mode"]
    target = ScalarField(
        grid, c + delta * eval_mode(mode, grid).values
    )
    delta0 = args.delta0 if args.delta0 is not None else 1e-3
    delta_end = args.delta1 if args.delta1 is not None else delta
    steps = args.steps if args.steps is not None else 32
    hcfg = HomotopyConfig(delta_end=delta_end, delta_start=delta0, steps=steps)
    ncfg = _newton_cfg(args)

    if kind.tag == "be":
        seed = target
        seed_root, gain = "", ""
    else:
        ps = preimage_constants(kind, c, p)
        roots = ps.roots
        idx = args.root
        if idx is None:
            if len(roots) > 1:
                raise ConfigurationError(
                    "constant part has multiple preimages "
                    f"{[round(r, 6) for r in roots]}; pick one with --root INDEX"
                )
            idx = 0
        if not (0 <= idx < len(roots)):
            raise ConfigurationError(f"--root must be in [0, {len(roots) - 1}]")
        seed_root = roots[idx]
        _, g = _branch_gains(kind, c, seed_root, mode, p, ps.chains)
        if g.pole:
            raise AnalysisError("perturbation gain has a pole; no regular branch to follow")
        gain = g.gain[-1]
        seed = ScalarField(grid, seed_root + delta0 * gain * eval_mode(mode, grid).values)

    phi_n, rep = preimage_field(kind, target, seed, p, hcfg, ncfg)

    stem, ext = os.path.splitext(out)
    field_out = f"{stem}_field{ext or '.csv'}"
    coords = grid.node_coordinates()
    if grid.dim == 1:
        frows = [[coords[i, 0], phi_n.values[i]] for i in range(grid.num_nodes)]
        _write_csv(field_out, ["x1", "value"], frows)
    else:
        frows = [
            [coords[i, 0], coords[i, 1], phi_n.values[i]] for i in range(grid.num_nodes)
        ]
        _write_csv(field_out, ["x1", "x2", "value"], frows)

    fwd, _rep2 = step(kind, phi_n, p, ncfg)
    fwd_resid = float(np.max(np.abs(fwd.values - target.values)))
    krest = mode.k[1] if mode.dim == 2 else ""
    _write_csv(out, [
        "scheme", "c", "delta", "k", "l", "seed_root", "gain",
        "converged", "delta_reached", "newton_residual", "forward_residual",
    ], [[
        kind.label, c, delta_end, mode.k[0], krest, seed_root, gain,
        int(rep.converged), rep.delta if rep.delta is not None else "",
        rep.residual, fwd_resid,
    ]])
    print(f"wrote {out} and {field_out}")
    if not rep.converged:
        print(f"continuation stalled at delta = {rep.delta}: {rep.message}", file=sys.stderr)
        return 3
    return 0


def cmd_preimage(args) -> int:
    _require(args, "scheme")
    kind = parse_scheme(args.scheme)
    p = _resolve_params(args)
    grid = _resolve_grid(args, args.target)
    _field, meta = _parse_field_spec(args.target, grid)
    out = args.out or "preimage.csv"
    if meta["mode"] is None:
        return _preimage_constant(args, kind, p, meta["const"], out)
    return _preimage_field(args, kind, p, meta, grid, out)


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scheme", choices=["be", "cn", "modcn", "dirk2"],
                     help="time stepper")
    sub.add_argument("--eps", type=float, help="interface width parameter")
    sub.add_argument("--dt", type=float, help="time step (exclusive with --ratio)")
    sub.add_argument("--ratio", type=float,
                     help="dt as a multiple of the scheme's uniqueness threshold")
    sub.add_argument("--dim", type=int, choices=[1, 2], help="space dimension (default 1)")
    sub.add_argument("--n", type=int, help="nodes per axis (default 257 in 1D, 65 in 2D)")
    sub.add_argument("--steps", type=int, help="step count (simulate/classify/continuation)")
    sub.add_argument("--k", type=float, help="mode index, first axis")
    sub.add_argument("--l", type=float, help="mode index, second axis (2D)")
    sub.add_argument("--delta0", type=float, help="continuation start amplitude (default 1e-3)")
    sub.add_argument("--delta1", type=float, help="continuation end amplitude (default: target's)")
    sub.add_argument("--count", type=int, help="entries per threshold family (default 4)")
    sub.add_argument("--out", help="output CSV path")
    sub.add_argument("--config", help="JSON file with defaults for any flag")
    sub.add_argument("--check", action="store_const", const=True,
                     help="compare reproduced values against the embedded references")
    sub.add_argument("--newton-tol", type=float, dest="newton_tol",
                     help="Newton residual tolerance (default 1e-10)")
    sub.add_argument("--newton-max-iter", type=int, dest="newton_max_iter",
                     help="Newton iteration cap (default 50)")
    sub.set_defaults(flags=sub)  # the flags that type --config values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acstab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    rep = subs.add_parser("reproduce", help="reproduce a built-in table or figure dataset")
    rep.add_argument("id", help="table1|table2|table3|table4|fig1-data|fig5-data")
    _add_common(rep)

    sim = subs.add_parser("simulate", help="run a time stepper and record a trajectory")
    sim.add_argument("initial", help='initial data, "const:<v>" or "const+mode:<v>,<d>,<k[,l]>"')
    sim.add_argument("--settle-tol", type=float, dest="settle_tol",
                     help="uniform distance to +-1 that counts as settled (default 1e-3)")
    _add_common(sim)

    ana = subs.add_parser("analyze", help="stability/robustness analyses to CSV")
    ana.add_argument("what", help="thresholds|bifurcations|intervals|classify|perturb")
    ana.add_argument("--c", type=float, help="constant next-step state (bifurcations/perturb)")
    ana.add_argument("--r", type=float, help="constant previous state (perturb branch select)")
    ana.add_argument("--eps-min", type=float, dest="eps_min",
                     help="smallest eps of interest (bifurcations, default 1e-3)")
    ana.add_argument("--max-k", type=int, dest="max_k",
                     help="largest mode index enumerated (default 8)")
    ana.add_argument("--rmin", type=float, help="classify: smallest initial constant")
    ana.add_argument("--rmax", type=float, help="classify: largest initial constant")
    ana.add_argument("--samples", type=int, help="classify: number of initial constants")
    _add_common(ana)

    pre = subs.add_parser("preimage", help="states that one step maps to a given target")
    pre.add_argument("target", help='"const:<c>" or "const+mode:<c>,<d>,<k[,l]>"')
    pre.add_argument("--root", type=int,
                     help="index (ascending) of the constant preimage branch to follow")
    _add_common(pre)
    return parser


_PARSER: argparse.ArgumentParser | None = None  # built by the first main call


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        args = _merge_config(args)
        if args.command == "reproduce":
            return cmd_reproduce(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        return cmd_preimage(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AnalysisError as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
