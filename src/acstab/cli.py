"""acstab: reproduce the built-in tables, run steppers, and analyze stability.

Commands
--------
reproduce  table1|table2|table3|table4|fig1-data|fig5-data; --check compares
           the written rows cell by cell with rows built the same way from the
           embedded reference tables (exit 4 on mismatch).
simulate   run a time stepper from an initial spec and write trajectory.csv
           with columns step,t,min,max,center,l2,sign; the last row is
           "settle,<first settled step or -1>,<limit sign>,,,,".
analyze    thresholds|bifurcations|intervals|classify|perturb -> CSV, each
           a subcommand of its own.
preimage   constant targets -> root list CSV (root,disc_sign,forward_error);
           field targets -> continuation preimage written as
           <out stem>_field.csv (node coordinates, value) plus a summary row
           with the forward-step verification residual.

Each command takes only the flags it reads; `acstab <command> --help` lists
them with their defaults, and any other flag is a usage error.

Field specs use the grammar "const:<v>" or "const+mode:<v>,<delta>,<k[,l]>"
(value v plus delta times the cos/sin eigenmode with index k, and l in 2D).
The grid has --dim dimensions, else the mode's (2 with k and l), else 1; a
mode whose dimension differs from --dim is an error.

Exit codes: 0 success, 2 configuration or usage error (an output path that
cannot be written included, checked before any work), 3 solver/analysis
failure, 4 check mismatch.  A JSON file passed via --config supplies values
for the command's flags (same names, lower_snake_case; true or false for a
flag that takes no value); explicit flags win, and keys the command does not
take are ignored.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from itertools import pairwise, zip_longest
from typing import Callable, NamedTuple

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
    dirk_perturbation_gains,  # unused here, kept for perfbench/layertrace.py, which patches it
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
    _BY_NAME,
    _SETTLE_TOL,
    _stage_failure,
    parse_scheme,
    scalar_map,
    simulate,
    step,
)
from .solvers import HomotopyConfig, NewtonConfig
from .stability import _ratio_dt, enumerate_bifurcations, stability_threshold


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.9g" % (float(v) + 0.0)  # + 0.0 turns -0.0 into 0.0


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write header and rows; each cell as _fmt writes it.

    rows may be a tuple of 1-D numeric arrays, the columns: each row then
    takes one format of "%.9g" per float column and "%d" per other, the
    bytes _fmt and the csv writer give its cells (no number needs quoting).
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, tuple):
            line = ",".join("%.9g" if c.dtype.kind == "f" else "%d" for c in rows) + "\n"
            columns = [(c + 0.0 if c.dtype.kind == "f" else c).tolist() for c in rows]
            fh.writelines(line % row for row in zip(*columns))
        else:
            writer.writerows([*map(_fmt, row)] for row in rows)


def _writable(path: str) -> str:
    """path, once a file there opens for writing; else a ConfigurationError.
    A file that the check creates is removed again."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror}") from None
    if not existed:
        os.remove(path)
    return path


def _emit(path: str, header: list[str], rows) -> int:
    """Write a command's CSV, say so on stdout, and return exit code 0."""
    _write_csv(path, header, rows)
    print(f"wrote {path}")
    return 0


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill in None-valued flags from the --config JSON file, if any.

    Each value is read as its flag's command-line text would be, through the
    flag's type and choices; a value they reject, or that is no JSON string
    or number, is a ConfigurationError naming its key.
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
        if action.nargs == 0:  # a const flag: true gives it, false leaves it out
            if not isinstance(val, bool):
                raise ConfigurationError(f"config key {key!r}: expected true or false, got {val!r}")
            val = action.const if val else None
        else:  # the value is read as command-line text, which null, true or a list is not
            read = action.type or str
            text = isinstance(val, (str, int, float)) and not isinstance(val, bool)
            try:
                if not text:
                    raise ValueError
                val = read(str(val))
            except ValueError:
                shown = repr(val) if text else json.dumps(val)  # as the file spells it
                raise ConfigurationError(
                    f"config key {key!r}: invalid {read.__name__} value {shown}") from None
        if action.choices is not None and val not in action.choices:
            raise ConfigurationError(f"config key {key!r}: invalid choice {val!r} "
                                     f"(choose from {', '.join(map(str, action.choices))})")
        setattr(args, action.dest, val)
    return args


def _require(args, *names) -> None:
    missing = ["--" + n.replace("_", "-") for n in names if getattr(args, n) is None]
    if missing:
        raise ConfigurationError("missing required option(s): " + ", ".join(missing))


def _resolve_params(args) -> ACParams:
    """eps plus exactly one of dt / ratio; stability._ratio_dt maps a ratio to dt.

    A ratio-only invocation defaults eps to 1 (the quantities parameterized
    by the ratio do not depend on eps separately).
    """
    if (args.dt is None) == (args.ratio is None):
        raise ConfigurationError("supply exactly one of --dt and --ratio")
    if args.dt is not None:
        _require(args, "eps")
        return ACParams(eps=args.eps, dt=args.dt)
    eps = 1.0 if args.eps is None else args.eps
    return ACParams(eps=eps, dt=_ratio_dt(parse_scheme(args.scheme), args.ratio, eps))


def _read_spec(args, spec: str):
    """(field, v, delta, mode) of "const:<v>" or "const+mode:<v>,<d>,<k[,l]>";
    delta and mode are None for a constant.

    The field lies on the grid of --dim (else the mode's dimension, else 1)
    and --n (else 257 in 1D, 65 in 2D); eval_mode rejects a mode whose
    dimension is not the grid's.
    """
    name, _, body = spec.partition(":")
    try:
        nums = [float(x) for x in body.split(",")]
    except ValueError:
        nums = []
    if name == "const" and len(nums) == 1:
        v, delta, mode = nums[0], None, None
    elif name == "const+mode" and len(nums) in (3, 4):
        v, delta, mode = nums[0], nums[1], ModeIndex(tuple(nums[2:]))
    else:
        raise ConfigurationError(
            f"bad field spec {spec!r}: expected const:<v> or const+mode:<v>,<d>,<k[,l]>")
    dim = args.dim if args.dim is not None else 1 if mode is None else mode.dim
    grid = make_grid(dim, (257 if dim == 1 else 65) if args.n is None else args.n)
    if mode is None:
        return constant_field(grid, v), v, None, None
    return ScalarField(grid, v + delta * eval_mode(mode, grid).values), v, delta, mode


# ---------------------------------------------------------------------------
# reproduce


def _entry_names(kind: SchemeKind, count: int) -> list[str]:
    """Names of interval_sequence(kind, ratio, count).entries: r1, r2, ...,
    or r1, s1, r2, s2, ... for a two-stage DIRK scheme."""
    families = ("r", "s") if kind.tag == "dirk" else ("r",)
    return [f"{name}{i}" for i in range(1, count + 1) for name in families]


def _intervals(kind: SchemeKind) -> dict:
    """{ratio: its first 4 entries per family} over the ratios of reference.TABLE1-3."""
    return {ratio: interval_sequence(kind, ratio, 4).entries for ratio in reference.RATIOS}


def _thresholds(eps: float) -> dict:
    """{scheme: (formula, dt_max)} of every uniqueness threshold at eps; TABLE4's at eps = 1."""
    ths = (stability_threshold(kind, eps) for kind in _BY_NAME.values())
    return {th.scheme.label: (th.formula, th.dt_max) for th in ths}


def _table_rows(table: dict):
    """One row per key: the key, then its values."""
    return [[key, *values] for key, values in table.items()]


def _interval_rows(table: dict):
    """fig-data rows (ratio, interval index, lower, upper, limit sign): each
    ratio's entries mirrored about 0 bound the intervals; positive-side
    interval j (0-based from 0) settles at (-1)^j, its mirror image at the
    opposite sign."""
    return [[ratio, i, lo, hi, (-1) ** abs(i - len(ent))] for ratio, ent in table.items()
            for i, (lo, hi) in enumerate(pairwise([-x for x in reversed(ent)] + [0.0, *ent]))]


_INTERVAL_HEADER = ["ratio", "interval", "lower", "upper", "limit"]

# reproduce target -> (CSV header, layout, computed table, reference table);
# both tables are {key: values}, and the layout turns either into CSV rows
_TARGETS = {
    "table1": (["ratio", *_entry_names(CN, 4)], _table_rows, lambda: _intervals(CN),
               reference.TABLE1),
    "table2": (["ratio", *_entry_names(MODCN, 4)], _table_rows, lambda: _intervals(MODCN),
               reference.TABLE2),
    "table3": (["ratio", *_entry_names(DIRK2, 4)], _table_rows, lambda: _intervals(DIRK2),
               reference.TABLE3),
    "table4": (["scheme", "formula", "dt_max_over_eps2"], _table_rows, lambda: _thresholds(1.0),
               reference.TABLE4),
    "fig1-data": (_INTERVAL_HEADER, _interval_rows, lambda: _intervals(CN), reference.TABLE1),
    "fig5-data": (_INTERVAL_HEADER, _interval_rows, lambda: _intervals(DIRK2), reference.TABLE3),
}


def _agrees(got, want) -> bool:
    """Numbers agree to reference.CHECK_TOL, inf only with inf; any other cell must be equal."""
    if isinstance(want, float) and isinstance(got, float) and math.isfinite(want):
        return abs(got - want) <= reference.CHECK_TOL * max(1.0, abs(want))
    return got == want


def cmd_reproduce(args) -> int:
    if args.id not in _TARGETS:
        raise ConfigurationError(f"unknown reproduce target {args.id!r}")
    header, layout, computed, table = _TARGETS[args.id]
    out = args.out or _writable(f"{args.id.replace('-', '_')}.csv")
    rows = layout(computed())
    _emit(out, header, rows)
    if not args.check:
        return 0
    want = layout(table)
    bad = [f"{args.id} row {i} ({_fmt(got_row[0])}) column {column}: "
           f"computed {got} != reference {ref}"
           for i, (got_row, want_row) in enumerate(zip(rows, want), start=1)
           for column, got, ref in zip_longest(header, got_row, want_row) if not _agrees(got, ref)]
    if len(rows) != len(want):
        bad.append(f"{args.id}: {len(rows)} rows computed, {len(want)} in the reference")
    for line in bad:
        print(line, file=sys.stderr)
    if bad:
        print(f"check: {len(bad)} mismatch(es)", file=sys.stderr)
        return 4
    print("check: all values match")
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    kind = parse_scheme(args.scheme)
    p = _resolve_params(args)
    phi0 = _read_spec(args, args.initial)[0]
    traj = simulate(kind, phi0, args.steps, p, settle_tol=args.settle_tol,
                    cfg=NewtonConfig(args.newton_tol, args.newton_max_iter))
    rows = [
        [s.step, s.time, s.vmin, s.vmax, s.center, s.l2, s.center_sign]
        for s in traj.summaries
    ]
    rows.append(["settle", traj.settle_step if traj.settled else -1, traj.limit,
                 "", "", "", ""])
    _emit(args.out, ["step", "t", "min", "max", "center", "l2", "sign"], rows)
    if traj.failure:
        print(traj.failure, file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# analyze


def _analyze_thresholds(args) -> int:
    return _emit(args.out, ["scheme", "formula", "dt_max"], _table_rows(_thresholds(args.eps)))


def _analyze_bifurcations(args) -> int:
    kind = parse_scheme(args.scheme)
    # the enumeration solves for eps, so --dt takes none
    if args.dt is not None and args.ratio is None and args.eps is not None:
        raise ConfigurationError("--eps goes with --ratio; with --dt it is solved for")
    dt = args.dt if args.ratio is None and args.dt is not None else _resolve_params(args).dt
    points = enumerate_bifurcations(kind, args.c, dt, args.eps_min, max_k=args.max_k, dim=args.dim)
    rows = [[*bp.mode.k, ""][:2] + [bp.eps_sq, bp.eigenfunction, bp.note] for bp in points]
    return _emit(args.out, ["k1", "k2", "eps_sq", "eigenfunction", "note"],
                 rows or [["", "", "", "no bifurcation: 1 - 3c^2 <= 0 or below eps-min", ""]])


def _analyze_intervals(args) -> int:
    kind = parse_scheme(args.scheme)
    entries = interval_sequence(kind, args.ratio, args.count).entries
    rows = [[kind.label, args.ratio, name, x]
            for name, x in zip(_entry_names(kind, args.count), entries)]
    return _emit(args.out, ["scheme", "ratio", "name", "value"], rows)


def _analyze_classify(args) -> int:
    if not (math.isfinite(args.rmin) and math.isfinite(args.rmax)):
        raise ConfigurationError("--rmin and --rmax must be finite")
    kind = parse_scheme(args.scheme)
    p = _resolve_params(args)
    if args.samples < 2:
        raise ConfigurationError("--samples must be >= 2")
    res = classify_constant_initial(kind, np.linspace(args.rmin, args.rmax, args.samples), p,
                                    max_steps=args.steps)
    return _emit(args.out, ["r", "limit", "settle_step", "flips"],
                 (res.initial, res.limit, res.settle_step, res.flips))


def _analyze_perturb(args) -> int:
    kind = parse_scheme(args.scheme)
    p = _resolve_params(args)
    mode = ModeIndex((args.k,) if args.l is None else (args.k, args.l))
    header = ["scheme", "c", "r", "k", "l", "gain0", "gain1", "gain2", "pole"]
    g = perturbation_gain(kind, args.c, args.r, mode, p)
    gains = [*g.gain, "", ""][:3]
    return _emit(args.out, header, [[kind.label, g.c, g.r, *[*mode.k, ""][:2], *gains, int(g.pole)]])


# ---------------------------------------------------------------------------
# preimage


def _check_root(root: int | None, roots) -> None:
    if root is not None and not 0 <= root < len(roots):
        raise ConfigurationError(f"--root must be in [0, {len(roots) - 1}]")


def _preimage_constant(kind, p, c: float, index: int | None, out: str) -> int:
    ps = preimage_constants(kind, c, p)
    _check_root(index, ps.roots)  # every root is listed all the same
    rows = []
    for root, cub in zip_longest(ps.roots, ps.cubics):  # no cubics for backward Euler
        images = scalar_map(kind, root, p)
        fwd_err = min(abs(img - c) for img, _sel in images)
        rows.append([kind.label, c, root, cub.discriminant_sign if cub else "", fwd_err])
    return _emit(out, ["scheme", "c", "root", "disc_sign", "forward_error"], rows)


def _preimage_field(args, kind, p, target: ScalarField, c: float, delta: float,
                    mode: ModeIndex) -> int:
    grid = target.grid
    out = args.out
    stem, ext = os.path.splitext(out)
    field_out = _writable(f"{stem}_field{ext or '.csv'}")
    hcfg = HomotopyConfig(delta_end=delta, delta_start=args.delta0, steps=args.steps)
    ncfg = NewtonConfig(args.newton_tol, args.newton_max_iter)

    ps = preimage_constants(kind, c, p)  # one root for backward Euler
    if args.root is None and len(ps.roots) > 1:
        raise ConfigurationError("constant part has multiple preimages "
                                 f"{[round(r, 6) for r in ps.roots]}; pick one with --root INDEX")
    _check_root(args.root, ps.roots)
    seed, seed_root, gain = target, "", ""  # every link explicit (no cubic): nothing to seed
    if ps.cubics:
        g = perturbation_gain(kind, c, ps.roots[args.root or 0], mode, p)
        if g.pole:
            raise AnalysisError("perturbation gain has a pole; no regular branch to follow")
        seed_root, gain = g.r, g.gain[-1]
        seed = ScalarField(grid, seed_root + args.delta0 * gain * eval_mode(mode, grid).values)

    phi_n, rep = preimage_field(kind, target, seed, p, hcfg, ncfg)

    _write_csv(field_out, [f"x{j}" for j in range(1, grid.dim + 1)] + ["value"],
               (*grid.node_coordinates().T, phi_n.values))

    fwd, fwd_rep = step(kind, phi_n, p, ncfg)
    fwd_resid = float(np.max(np.abs(fwd.values - target.values)))
    _write_csv(out, [
        "scheme", "c", "delta", "k", "l", "seed_root", "gain",
        "converged", "delta_reached", "newton_residual", "forward_residual",
    ], [[
        kind.label, c, delta, *[*mode.k, ""][:2], seed_root, gain,
        int(rep.converged), rep.delta if rep.delta is not None else "",
        rep.residual, fwd_resid,
    ]])
    print(f"wrote {out} and {field_out}")
    code = 0
    if not rep.converged:
        print(f"continuation stalled at delta = {rep.delta}: {rep.message}", file=sys.stderr)
        code = 3
    if not fwd_rep.success:
        print(f"forward check step {_stage_failure(kind, p, fwd_rep)}", file=sys.stderr)
        code = 3
    return code


def cmd_preimage(args) -> int:
    kind = parse_scheme(args.scheme)
    p = _resolve_params(args)
    target, c, delta, mode = _read_spec(args, args.target)
    if mode is None:
        # no continuation or Newton solve runs here, but their flags are checked as for a field
        HomotopyConfig(delta_end=0.0, delta_start=args.delta0, steps=args.steps)
        NewtonConfig(args.newton_tol, args.newton_max_iter)
        return _preimage_constant(kind, p, c, args.root, args.out)
    return _preimage_field(args, kind, p, target, c, delta, mode)


# ---------------------------------------------------------------------------
# the command table and its parser

# Every flag a command may take, by dest: argparse keywords, with help text
# that build_parser completes from the command's default.
_FLAGS = {
    "scheme": {"choices": list(_BY_NAME), "help": "time stepper"},
    "eps": {"type": float, "help": "interface width parameter"},
    "dt": {"type": float, "help": "time step (exclusive with --ratio)"},
    "ratio": {"type": float, "help": "dt as a multiple of the scheme's uniqueness threshold"},
    "dim": {"type": int, "choices": [1, 2], "help": "space dimension"},
    "n": {"type": int, "help": "nodes per axis"},
    "steps": {"type": int, "help": "time steps, or continuation steps in preimage"},
    "settle_tol": {"type": float, "help": "uniform distance to +-1 that counts as settled"},
    "c": {"type": float, "help": "constant next-step state"},
    "r": {"type": float, "help": "constant previous state; selects the preimage branch"},
    "k": {"type": float, "help": "mode index, first axis"},
    "l": {"type": float, "help": "mode index, second axis (2D)"},
    "eps_min": {"type": float, "help": "smallest eps of interest"},
    "max_k": {"type": int, "help": "largest mode index enumerated"},
    "count": {"type": int, "help": "entries per threshold family"},
    "rmin": {"type": float, "help": "smallest initial constant"},
    "rmax": {"type": float, "help": "largest initial constant"},
    "samples": {"type": int, "help": "number of initial constants"},
    "delta0": {"type": float, "help": "continuation start amplitude"},
    "root": {"type": int, "help": "index (ascending) of the constant preimage branch to follow"},
    "newton_tol": {"type": float, "help": "Newton residual tolerance"},
    "newton_max_iter": {"type": int, "help": "Newton iteration cap"},
    "check": {"action": "store_const", "const": True,
              "help": "compare reproduced values against the embedded references"},
    "out": {"help": "output CSV path"},
    "config": {"help": "JSON file with values for this command's flags"},
}

# Defaults the commands compute from their input, as --help states them.
_COMPUTED = {
    "eps": "1 with --ratio alone",
    "dim": "from the spec, 2 for a mode with k and l, else 1",
    "n": "257 in 1D, 65 in 2D",
    "out": "the target's name with - as _, .csv",
}


class _Command(NamedTuple):
    """One (sub)command: its handler, help, positional (name, help), the
    flags it reads (besides --config, which all take) with the defaults
    applied after --config merging (None: none, or one computed from the
    input), and the flags that must be given."""

    run: Callable[[argparse.Namespace], int]
    help: str
    positional: tuple[str, str] | None
    flags: dict
    required: tuple[str, ...] = ()


_STEP = dict.fromkeys(("scheme", "eps", "dt", "ratio"))  # read by _resolve_params
_GRID = dict.fromkeys(("dim", "n"))  # read by _read_spec
_NEWTON = {"newton_tol": NewtonConfig.tol, "newton_max_iter": NewtonConfig.max_iter}
_SPEC_HELP = '"const:<v>" or "const+mode:<v>,<d>,<k[,l]>"'

# "analyze <what>" entries are subcommands of analyze
_COMMANDS = {
    "reproduce": _Command(
        cmd_reproduce, "reproduce a built-in table or figure dataset",
        ("id", "|".join(_TARGETS)), {"check": None, "out": None}),
    "simulate": _Command(
        cmd_simulate, "run a time stepper and record a trajectory",
        ("initial", f"initial data, {_SPEC_HELP}"),
        {**_STEP, **_GRID, "steps": 100, "settle_tol": _SETTLE_TOL, **_NEWTON, "out": "trajectory.csv"},
        ("scheme",)),
    "analyze thresholds": _Command(
        _analyze_thresholds, "every scheme's uniqueness threshold on dt at eps", None,
        {"eps": None, "out": "thresholds.csv"}, ("eps",)),
    "analyze bifurcations": _Command(
        _analyze_bifurcations, "eps at which the step about the constant c bifurcates, per mode",
        None, {**_STEP, "c": None, "dim": 1, "eps_min": 1e-3, "max_k": 8,
               "out": "bifurcations.csv"}, ("scheme", "c")),
    "analyze intervals": _Command(
        _analyze_intervals, "threshold magnitudes r_i (and DIRK's s_i) at a ratio", None,
        {"scheme": None, "ratio": None, "count": 4, "out": "intervals.csv"}, ("scheme", "ratio")),
    "analyze classify": _Command(
        _analyze_classify, "limits reached from constant initial states", None,
        {**_STEP, "rmin": None, "rmax": None, "samples": 64, "steps": 400,
         "out": "classify.csv"}, ("scheme", "rmin", "rmax")),
    "analyze perturb": _Command(
        _analyze_perturb, "gains of the preimage branch through r under a mode perturbation",
        None, {**_STEP, "c": None, "r": None, "k": None, "l": None, "out": "perturb.csv"},
        ("scheme", "c", "k", "r")),
    "preimage": _Command(
        cmd_preimage, "states that one step maps to a given target", ("target", _SPEC_HELP),
        {**_STEP, **_GRID, "steps": 32, "delta0": 1e-3, "root": None,
         **_NEWTON, "out": "preimage.csv"}, ("scheme",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acstab",
        allow_abbrev=False,  # --r is not --ratio, --c not --config
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, cmd in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(
                group, help="stability and robustness analyses to CSV", allow_abbrev=False,
            ).add_subparsers(dest="what", required=True)
        sub = groups[group].add_parser(leaf, help=cmd.help, allow_abbrev=False)
        if cmd.positional:
            sub.add_argument(cmd.positional[0], help=cmd.positional[1])
        for flag, default in {**cmd.flags, "config": None}.items():
            kw = dict(_FLAGS[flag])
            if flag in cmd.required:
                kw["help"] += " (required)"
            elif default is not None:
                kw["help"] += f" (default: {default})"
            elif flag in _COMPUTED:
                kw["help"] += f" (default: {_COMPUTED[flag]})"
            sub.add_argument("--" + flag.replace("_", "-"), **kw)
        sub.set_defaults(flags=sub, cmd=cmd)  # flags: the actions that type --config values
    return parser


_PARSER: argparse.ArgumentParser | None = None  # built by the first main call


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        args = _merge_config(args)
        for flag, default in args.cmd.flags.items():
            if getattr(args, flag) is None:
                setattr(args, flag, default)
        _require(args, *args.cmd.required)
        if args.out is not None:  # before any work; commands check paths they derive
            _writable(args.out)
        return args.cmd.run(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AnalysisError as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
