"""The four benchmark workloads: seeded operation lists, runners and checks.

A workload is a list of slots.  Each slot holds alternatives that cost the
same work (mirror images under the Allen-Cahn odd symmetry phi -> -phi,
swapped mode axes, small amplitude or offset changes); the seed picks one
alternative per slot, so every seed runs the same mix of schemes, grids and
step counts.  One *round* is the chosen alternative of every slot, run once
in order.  The union of all alternatives is the workload's pool, and
make_reference.py records the pool's outputs at the seed commit.

All field work uses eps = 0.1 and dt = 0.01, as in the README examples.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

EPS, DT = 0.1, 0.01

# Relative tolerance of simulate checkpoints and of numeric CSV cells against
# the seed commit's values.  Loose enough for a different linear solver's
# roundoff (Newton stops at a residual of 1e-10), tight enough to catch a
# different branch or a wrong step.
REL_TOL = 1e-6
# A preimage counts as correct when one forward step maps it back onto the
# target within this inf-norm distance.
PREIMAGE_TOL = 1e-8
# Steps whose summaries are compared with the seed commit's.
CHECKPOINTS = (0, 1, 2, 5, 10, 20, 50, 100)


@dataclass
class Outcome:
    """Result of one operation: credited units, failure text, output digest."""

    units: int
    failure: str | None
    digest: dict


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


@dataclass(frozen=True)
class Simulate:
    """acstab.schemes.simulate from constant or constant+mode initial data."""

    scheme: str
    dim: int
    n: int
    value: float
    steps: int
    delta: float = 0.0
    mode: tuple[float, ...] = ()

    needs_reference = True

    @property
    def key(self) -> str:
        spec = f"const:{self.value:g}"
        if self.delta:
            spec = f"const+mode:{self.value:g},{self.delta:g}," + ",".join(f"{k:g}" for k in self.mode)
        return f"simulate {spec} --scheme {self.scheme} --dim {self.dim} --n {self.n} --steps {self.steps}"

    def prepare(self, acstab, workdir: Path):
        """A zero-argument callable that runs the operation and returns an Outcome."""
        grid = acstab.make_grid(self.dim, self.n)
        if self.delta:
            shape = acstab.eval_mode(acstab.ModeIndex(self.mode), grid).values
            phi0 = acstab.ScalarField(grid, self.value + self.delta * shape)
        else:
            phi0 = acstab.constant_field(grid, self.value)
        kind = acstab.parse_scheme(self.scheme)
        params = acstab.ACParams(eps=EPS, dt=DT)
        schemes = acstab.schemes

        def run() -> Outcome:
            traj = schemes.simulate(kind, phi0, self.steps, params)
            done = len(traj.summaries) - 1
            digest = {
                "steps": done,
                "failure": traj.failure,
                "settle_step": traj.settle_step,
                "limit": traj.limit,
                "checkpoints": {
                    str(s.step): [s.vmin, s.vmax, s.center, s.l2]
                    for s in traj.summaries if s.step in CHECKPOINTS or s.step == done
                },
            }
            if traj.failure:
                return Outcome(0, traj.failure, digest)
            return Outcome(done, None, digest)

        return run

    def check(self, digest: dict, ref: dict) -> str | None:
        """None when the summaries match the seed's, else what differs.

        Only checkpoints that both runs reached are compared, so a fix that
        lets a step converge where the seed failed is not counted as a miss.
        """
        for step, want in ref["checkpoints"].items():
            got = digest["checkpoints"].get(step)
            if got is None:
                continue
            if not all(_close(g, w) for g, w in zip(got, want)):
                return f"step {step} summary {got} != seed {want}"
        if ref["failure"] is None and (digest["settle_step"], digest["limit"]) != (
            ref["settle_step"], ref["limit"]
        ):
            return (f"settled at step {digest['settle_step']} to {digest['limit']}, "
                    f"seed {ref['settle_step']} to {ref['limit']}")
        return None


@dataclass(frozen=True)
class Command:
    """One acstab.cli.main call; check is 'exit', 'rows' or 'preimage'."""

    argv: tuple[str, ...]
    check_kind: str
    units: int = 0

    @property
    def needs_reference(self) -> bool:
        return self.check_kind == "rows"

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def prepare(self, acstab, workdir: Path):
        out = workdir / "op.csv"
        argv = [*self.argv, "--out", str(out)]
        cli = acstab.cli

        def run() -> Outcome:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
            rows = _read_rows(out) if out.exists() else []
            out.unlink(missing_ok=True)
            digest = {"exit": code, "rows": rows}
            if code != 0:
                return Outcome(0, f"exit {code}: {err.getvalue().strip()[-200:]}", digest)
            if self.check_kind == "preimage":
                row = dict(zip(rows[0], rows[1]))
                if row["converged"] != "1":
                    return Outcome(0, "preimage reports converged=0", digest)
            return Outcome(self.units, None, digest)

        return run

    def check(self, digest: dict, ref: dict | None) -> str | None:
        rows = digest["rows"]
        if self.check_kind == "preimage":
            row = dict(zip(rows[0], rows[1]))
            if float(row["forward_residual"]) > PREIMAGE_TOL:
                return f"forward_residual {row['forward_residual']} > {PREIMAGE_TOL:g}"
            if not _close(float(row["delta_reached"]), float(row["delta"])):
                return f"continuation reached {row['delta_reached']}, not {row['delta']}"
            return None
        if self.check_kind == "rows":
            want = ref["rows"]
            if len(rows) != len(want):
                return f"{len(rows)} CSV rows, seed had {len(want)}"
            for got_row, want_row in zip(rows, want):
                if len(got_row) != len(want_row) or not all(
                    _same_cell(g, w) for g, w in zip(got_row, want_row)
                ):
                    return f"row {got_row} != seed {want_row}"
        return None  # 'exit': the exit code (reproduce --check) is the check


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh)]


def _same_cell(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(w):
        return math.isnan(g)
    return g == w or _close(g, w)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str                 # what work_per_s counts
    kernel: str               # calibration kernel (calibration.py) timed after every operation
    grids: tuple[tuple[int, int], ...]   # (dim, n) Laplacians built in set-up
    slots: tuple[tuple[object, ...], ...]

    def round_ops(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        return [rng.choice(slot) for slot in self.slots]

    def pool(self) -> list:
        seen: dict[str, object] = {}
        for slot in self.slots:
            for op in slot:
                seen.setdefault(op.key, op)
        return list(seen.values())


SCHEMES = ("be", "cn", "modcn", "dirk2")
_FIELD = ("--eps", str(EPS), "--dt", str(DT))


def _forward_1d() -> Workload:
    slots = []
    for s in SCHEMES:
        sim = lambda v, **kw: Simulate(s, 1, 257, v, 100, **kw)
        slots += [
            # README inputs
            (sim(1.9931),),
            (sim(5.074, delta=0.1, mode=(1.0,)),),
            # settling data near the unstable state 0
            tuple(sim(sign * 0.5, delta=d, mode=(1.0,)) for sign in (1, -1) for d in (0.1, 0.12)),
            # the paper's large-amplitude constants: CN fails at step 4 on 31,
            # CN and MODCN fail within 3 steps on 35 and 40 (known defect)
            (sim(31.0),),
            tuple(sim(sign * r) for sign in (1, -1) for r in (35.0, 40.0)),
        ]
    return Workload("forward-1d", "step", "banded-1d", ((1, 257),), tuple(slots))


def _forward_2d() -> Workload:
    def alts(scheme, n, steps, deltas):
        return tuple(
            Simulate(scheme, 2, n, sign * 0.5, steps, delta=d, mode=mode)
            for sign in (1, -1) for d in deltas for mode in ((1.0, 2.0), (2.0, 1.0))
        )
    slots = [alts(s, 65, 6, (0.1, 0.12)) for s in SCHEMES]
    slots += [alts("cn", 129, 2, (0.1,)), alts("dirk2", 129, 1, (0.1,))]
    return Workload("forward-2d", "step", "sparse-lu-2d", ((2, 65), (2, 129)), tuple(slots))


def _preimage(scheme, sign, delta, mode, root, nroots, steps=None):
    spec = f"const+mode:{sign * 0.5:g},{delta:g}," + ",".join(f"{k:g}" for k in mode)
    # mirrored targets list their constant preimages in mirrored order
    idx = root if sign > 0 else nroots - 1 - root
    argv = ("preimage", spec, "--scheme", scheme, "--root", str(idx), *_FIELD)
    if steps is not None:
        argv += ("--steps", str(steps))
    return Command(argv, "preimage", units=1)


def _backward_field() -> Workload:
    nroots = {"cn": 3, "modcn": 3, "dirk2": 5}
    slots = []
    for s in ("cn", "modcn", "dirk2"):
        for root in (0, 1, 2):
            slots.append(tuple(
                _preimage(s, sign, d, (k,), root, nroots[s])
                for sign in (1, -1) for d in (0.1, 0.15) for k in (1.0, 2.0)
            ))
    # 2D continuations use 4 schedule steps (not 32) to keep a round short
    for s, root in (("cn", 0), ("dirk2", 2)):
        slots.append(tuple(
            _preimage(s, sign, 0.2, mode, root, nroots[s], steps=4)
            for sign in (1, -1) for mode in ((1.0, 2.0), (2.0, 1.0))
        ))
    return Workload("backward-field", "preimage field", "mixed", ((1, 257), (2, 65)), tuple(slots))


def _classify(scheme, ratio, rmin, rmax, samples, offsets=(0,), steps=None):
    """Seeded alternatives of one classify call.

    The sample grid is mirrored (r -> -r, the same work by odd symmetry)
    and shifted by j/8 of its spacing for each j in offsets.  Shifts are
    offered only where they leave the work nearly unchanged: near the
    interval thresholds and near r = 0 the settle times, and so the cost,
    depend strongly on where the samples fall.
    """
    shift = (rmax - rmin) / (samples - 1) / 8
    extra = ("--steps", str(steps)) if steps is not None else ()
    alternatives = []
    for sign in (1, -1):
        for j in offsets:
            lo, hi = rmin + j * shift, rmax + j * shift
            if sign < 0:
                lo, hi = -hi, -lo
            alternatives.append(Command(
                ("analyze", "classify", "--scheme", scheme, "--ratio", f"{ratio:g}",
                 "--rmin", f"{lo:.9g}", "--rmax", f"{hi:.9g}", "--samples", str(samples), *extra),
                "rows", units=samples))
    return tuple(alternatives)


def _constant_sweep() -> Workload:
    slots = [
        # the Table 1 regime: CN at ratio 0.01, r up to about 25
        _classify("cn", 0.01, 0.0, 25.0, 24),
        _classify("cn", 0.5, 0.0, 4.0, 32, offsets=(1, 2, 3, 4)),
        _classify("modcn", 0.25, 0.0, 8.0, 32, offsets=(1, 2, 3, 4)),
        _classify("dirk2", 0.25, 0.0, 30.0, 32, offsets=(1, 2, 3, 4)),
        _classify("be", 2.0, 0.0, 4.0, 32),
        # CN at r near 200 (eps 1, dt 2): the scalar Newton solve misses its
        # tolerance and a hidden 200-iteration damped retry runs (ROADMAP item 5)
        _classify("cn", 1.0, 199.0, 200.0, 2, steps=1),
    ]
    for target in ("table1", "table2", "table3", "table4", "fig1-data", "fig5-data"):
        slots.append((Command(("reproduce", target, "--check"), "exit"),))
    slots.append(tuple(
        Command(("analyze", "intervals", "--scheme", s, "--ratio", r, "--count", "4"), "rows")
        for s in ("cn", "modcn", "dirk2") for r in ("0.1", "0.25", "0.5")
    ))
    slots.append(tuple(
        Command(("analyze", "thresholds", "--eps", e), "rows") for e in ("0.05", "0.1", "0.2")
    ))
    slots.append(tuple(
        Command(("analyze", "bifurcations", "--scheme", s, "--c", c, "--dt", "1",
                 "--eps-min", "0.02", "--max-k", "3", "--dim", d), "rows")
        for s in ("be", "cn", "dirk2") for c in ("0", "0.2") for d in ("1", "2")
    ))
    slots.append(tuple(
        Command(("analyze", "perturb", "--scheme", s, "--c", c, "--r", r, "--k", k, *_FIELD), "rows")
        for s, c, r in (("dirk2", "-7", "-22.7"), ("cn", "0.5", "-1.8"), ("modcn", "0.5", "2.4"))
        for k in ("1", "2")
    ))
    return Workload("constant-sweep", "classified constant", "scalar-newton", (), tuple(slots))


WORKLOADS = {w.name: w for w in (_forward_1d(), _forward_2d(), _backward_field(), _constant_sweep())}
