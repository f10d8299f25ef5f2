import argparse
import csv
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

import acstab
from acstab import cli, reference

REPRODUCE_IDS = ("table1", "table2", "table3", "table4", "fig1-data", "fig5-data")


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _run(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# reproduce


@pytest.mark.parametrize("target", REPRODUCE_IDS)
def test_reproduce_check_passes(target, tmp_path):
    out = tmp_path / f"{target}.csv"
    assert _run("reproduce", target, "--check", "--out", str(out)) == 0
    rows = _rows(out)
    assert len(rows) > 1 and rows[0][0] in ("ratio", "scheme")


def test_reproduce_unknown_id(tmp_path):
    assert _run("reproduce", "table9", "--out", str(tmp_path / "x.csv")) == 2


def test_reproduce_table1_values(tmp_path):
    out = tmp_path / "t1.csv"
    assert _run("reproduce", "table1", "--out", str(out)) == 0
    rows = _rows(out)
    assert rows[0] == ["ratio", "r1", "r2", "r3", "r4"]
    assert len(rows) == 1 + len(reference.RATIOS)
    got = {float(r[0]): tuple(float(v) for v in r[1:]) for r in rows[1:]}
    for ratio, want in reference.TABLE1.items():
        for g, w in zip(got[ratio], want):
            assert abs(g - w) <= 1e-3 * max(1.0, abs(w))


@pytest.mark.parametrize(
    "target, table, key, corrupt",
    [
        ("table1", "TABLE1", 0.5, (9.9,) * 4),
        ("table2", "TABLE2", 0.5, (9.9,) * 4),
        ("table3", "TABLE3", 0.5, (9.9,) * 8),
        ("table4", "TABLE4", "cn", ("TWO_EPS2", 2.5)),
        ("fig1-data", "TABLE1", 0.1, (9.9,) * 4),
        ("fig5-data", "TABLE3", 0.1, (9.9,) * 8),
    ],
    ids=REPRODUCE_IDS,
)
def test_reproduce_check_mismatch_exits_4(target, table, key, corrupt, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(getattr(reference, table), key, corrupt)
    assert _run("reproduce", target, "--check", "--out", str(tmp_path / "t.csv")) == 4
    assert "mismatch" in capsys.readouterr().err


def test_reproduce_check_names_the_mismatched_cell(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(reference.TABLE1, 0.25, (2.236, 3.243, 9.9, 4.625))
    assert _run("reproduce", "table1", "--check", "--out", str(tmp_path / "t.csv")) == 4
    line, total = capsys.readouterr().err.splitlines()
    assert re.fullmatch(r"table1 row 4 \(0\.25\) column r3: computed 3\.996\d* != reference 9\.9", line)
    assert total == "check: 1 mismatch(es)"


@pytest.mark.parametrize("target", ("table3", "fig5-data"))
def test_reproduce_check_counts_a_missing_row(target, tmp_path, monkeypatch, capsys):
    monkeypatch.delitem(reference.TABLE3, 0.5)
    assert _run("reproduce", target, "--check", "--out", str(tmp_path / "t.csv")) == 4
    rows = 5 if target == "table3" else 5 * 16  # fig5-data: 16 intervals per ratio
    assert capsys.readouterr().err.splitlines() == [
        f"{target}: {rows} rows computed, {rows - rows // 5} in the reference",
        "check: 1 mismatch(es)",
    ]


def test_reproduce_deterministic(tmp_path):
    blobs = []
    for run in (1, 2):
        out = tmp_path / f"t3_{run}.csv"
        assert _run("reproduce", "table3", "--out", str(out)) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    assert b"\r" not in blobs[0]


# ---------------------------------------------------------------------------
# simulate


def test_simulate_trajectory(tmp_path):
    out = tmp_path / "traj.csv"
    code = _run(
        "simulate", "const:1.9931", "--scheme", "cn", "--eps", "0.1",
        "--dt", "0.01", "--n", "65", "--steps", "30", "--out", str(out),
    )
    assert code == 0
    rows = _rows(out)
    assert rows[0] == ["step", "t", "min", "max", "center", "l2", "sign"]
    assert rows[1][0] == "0" and float(rows[1][4]) == 1.9931
    assert len(rows) == 1 + 31 + 1  # header, steps 0..30, settle row
    settle = rows[-1]
    assert settle[0] == "settle" and settle[1] == "2" and settle[2] == "-1"
    # first step overshoots to the negative branch
    assert float(rows[2][4]) == pytest.approx(-0.984375, abs=1e-3)


def test_simulate_failure_writes_partial_and_exits_3(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = _run(
        "simulate", "const:32", "--scheme", "cn", "--eps", "0.01",
        "--dt", "10", "--n", "33", "--steps", "5", "--out", str(out),
    )
    assert code == 3
    assert "did not converge" in capsys.readouterr().err
    rows = _rows(out)
    assert rows[-1][:3] == ["settle", "-1", "0"]


def test_simulate_failure_names_stage_and_residual(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = _run("simulate", "const:32", "--scheme", "cn", "--eps", "0.01", "--dt", "10",
                "--n", "33", "--out", str(out))
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "step 2 did not converge at stage 1 of 1 (max iterations reached, residual ")


@pytest.mark.parametrize("scheme, r, failed_step, residual", (
    ("cn", "31", 5, "2.33e-10"),
    ("cn", "-35", 1, "4.66e-10"),
    ("cn", "40", 1, "9.31e-10"),
    ("modcn", "35", 1, "2.01e-10"),
    ("modcn", "-40", 3, "1.66e-10"),
))
def test_large_constants_that_stall_on_roundoff(scheme, r, failed_step, residual, tmp_path, capsys):
    # ROADMAP item 5's defect, pinned until a scale-aware stop converges
    # these steps: at |r| ~ 31-40 the residual's terms |v|^3 / eps^2 ~ 1.5e6
    # put its roundoff floor above the absolute Newton tolerance 1e-10
    out = tmp_path / "traj.csv"
    assert _run("simulate", f"const:{r}", "--scheme", scheme, "--eps", "0.1", "--dt", "0.01",
                "--out", str(out)) == 3
    assert capsys.readouterr().err == (f"step {failed_step} did not converge at stage 1 of 1 "
                                       f"(max iterations reached, residual {residual})\n")
    # the header, the steps before the failed one and the settle row
    assert len(_rows(out)) == failed_step + 2


def test_simulate_overflow_at_the_guess_is_one_failure_line(tmp_path):
    # the cubic of 1e200 overflows: the step fails at its guess, and no numpy
    # warning joins the failure line on stderr
    out = tmp_path / "traj.csv"
    run = subprocess.run([sys.executable, "-m", "acstab.cli", "simulate", "const+mode:1e200,1e199,1",
                          "--scheme", "cn", "--eps", "0.1", "--dt", "0.01", "--out", str(out)],
                         capture_output=True, text=True)
    assert run.returncode == 3
    assert run.stderr == ("step 1 did not converge at stage 1 of 1 "
                          "(residual not finite at guess, residual inf)\n")
    assert _rows(out)[1][5] == "1.41774469e+200"  # l2 of the initial field


def test_simulate_requires_scheme(tmp_path):
    assert _run("simulate", "const:1", "--dt", "0.01", "--eps", "0.1",
                "--out", str(tmp_path / "t.csv")) == 2


@pytest.mark.parametrize("n", ("0", "1"))
def test_simulate_rejects_a_grid_under_3_nodes(n, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert _run("simulate", "const:0.5", "--scheme", "be", "--eps", "0.1", "--dt", "0.01",
                "--n", n, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: need at least 3 nodes per axis, got {n}\n"
    assert not out.exists()


def test_dt_and_ratio_exclusive(tmp_path):
    assert _run("simulate", "const:1", "--scheme", "cn", "--eps", "0.1",
                "--dt", "0.01", "--ratio", "0.5", "--out", str(tmp_path / "t.csv")) == 2


@pytest.mark.parametrize("ratio", ("-0.5", "0", "nan", "inf"))
def test_ratio_must_be_finite_and_positive(ratio, tmp_path, capsys):
    assert _run("analyze", "classify", "--scheme", "cn", "--ratio", ratio, "--rmin", "-1",
                "--rmax", "1", "--out", str(tmp_path / "c.csv")) == 2
    err = capsys.readouterr().err
    assert err == f"error: ratio must be finite and > 0, got {float(ratio)}\n"


@pytest.mark.parametrize("eps", ("1e160", "1e200", "1e-160", "1e-200"))
@pytest.mark.parametrize("step", (("--dt", "1"), ("--ratio", "1")), ids=("dt", "ratio"))
@pytest.mark.parametrize(
    "command",
    (("simulate", "const:0.5"),
     ("analyze", "classify", "--rmin", "0", "--rmax", "1", "--samples", "2")),
    ids=("simulate", "classify"),
)
def test_eps_whose_square_is_not_a_double_exits_2(command, step, eps, tmp_path, capsys):
    # eps^2 or 1/eps^2 overflows or underflows in double precision
    out = tmp_path / "t.csv"
    assert _run(*command, "--scheme", "cn", *step, "--eps", eps, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: eps must be > 0 with eps^2 and 1/eps^2 finite and > 0, got {float(eps)}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, dt", (
    (("analyze", "perturb", "--scheme", "cn", "--c", "0.5", "--r", "-1.8", "--k", "1",
      "--eps", "0.1", "--dt", "1e-320"), 1e-320),
    (("simulate", "const:0.5", "--scheme", "cn", "--eps", "0.1", "--dt", "1e-320"), 1e-320),
    (("preimage", "const:0.5", "--scheme", "cn", "--eps", "0.1", "--dt", "1e-320"), 1e-320),
    # dt = 2 eps^2 ratio for CN
    (("analyze", "classify", "--scheme", "cn", "--ratio", "1e-320", "--eps", "1",
      "--rmin", "-1", "--rmax", "1"), 2e-320),
), ids=("perturb", "simulate", "preimage", "classify"))
def test_a_subnormal_dt_whose_reciprocal_overflows_exits_2(argv, dt, tmp_path, capsys):
    # 1/dt is inf: the steps would read a false pole or a NaN residual
    out = tmp_path / "o.csv"
    assert _run(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: dt must be > 0 with dt and 1/dt finite, got {dt}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("eps", ("1e160", "1e200", "1e-160", "1e-200"))
def test_thresholds_take_eps_as_acparams_does(eps, tmp_path, capsys):
    # dt_max = eps^2 / h would be inf, 0 or subnormal here
    out = tmp_path / "th.csv"
    assert _run("analyze", "thresholds", "--eps", eps, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: eps must be > 0 with eps^2 and 1/eps^2 finite and > 0, got {float(eps)}\n"
    assert not out.exists()


def test_bifurcations_take_dt_or_ratio_not_both(tmp_path, capsys):
    out = tmp_path / "bif.csv"
    assert _run("analyze", "bifurcations", "--scheme", "cn", "--c", "0", "--dt", "1",
                "--ratio", "2", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: supply exactly one of --dt and --ratio\n"
    assert not out.exists()


def test_bifurcations_take_eps_only_with_ratio(tmp_path, capsys):
    out = tmp_path / "bif.csv"
    assert _run("analyze", "bifurcations", "--scheme", "cn", "--c", "0", "--dt", "1",
                "--eps", "0.1", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--eps" in err and "--dt" in err
    assert not out.exists()


@pytest.mark.parametrize("tol", ("nan", "-1", "inf"))
def test_settle_tol_must_be_finite_and_nonnegative(tol, tmp_path, capsys):
    assert _run("simulate", "const:1", "--scheme", "be", "--eps", "0.1", "--dt", "0.01",
                "--settle-tol", tol, "--out", str(tmp_path / "t.csv")) == 2
    err = capsys.readouterr().err
    assert err == f"error: settle_tol must be finite and >= 0, got {float(tol)}\n"
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("tol", ("inf", "nan"))
def test_newton_tol_must_be_finite_and_positive(tol, tmp_path, capsys):
    # an infinite tol would accept every guess, a NaN one none
    assert _run("simulate", "const:0.5", "--scheme", "be", "--eps", "0.1", "--dt", "0.01",
                "--steps", "3", "--newton-tol", tol, "--out", str(tmp_path / "t.csv")) == 2
    assert capsys.readouterr().err.startswith("error: tol must be finite and > 0")
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("flags", (("--c", "nan"), ("--c", "0", "--eps-min", "-1"),
                                   ("--c", "0", "--eps-min", "nan")),
                         ids=("c-nan", "eps-min-negative", "eps-min-nan"))
def test_bifurcations_reject_nonfinite_inputs(flags, tmp_path, capsys):
    out = tmp_path / "bif.csv"
    assert _run("analyze", "bifurcations", "--scheme", "cn", "--dt", "1", *flags,
                "--out", str(out)) == 2
    assert re.fullmatch(r"error: (c|eps_min) must be finite( and >= 0)?, got \S+\n",
                        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("scheme, c, r", (("cn", "nan", "1"), ("cn", "0.5", "nan"),
                                          ("dirk2", "0.5", "nan"), ("dirk2", "inf", "1")),
                         ids=("cn-c-nan", "cn-r-nan", "dirk2-r-nan", "dirk2-c-inf"))
def test_perturb_rejects_nonfinite_states(scheme, c, r, tmp_path, capsys):
    out = tmp_path / "pg.csv"
    assert _run("analyze", "perturb", "--scheme", scheme, "--c", c, "--r", r, "--k", "1",
                "--eps", "0.1", "--dt", "0.01", "--out", str(out)) == 2
    assert "must be finite, got" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, mode", (
    (("analyze", "perturb", "--scheme", "cn", "--c", "0.5", "--r", "-1.8", "--k", "5e153"),
     "cos(5e+153*pi*x1)"),
    # each (k pi)^2 is finite, their sum is not
    (("analyze", "perturb", "--scheme", "cn", "--c", "0.5", "--r", "-1.8", "--k", "4e153",
      "--l", "4e153"), "cos(4e+153*pi*x1)*cos(4e+153*pi*x2)"),
    (("preimage", "const+mode:0.5,0.1,1,1e200", "--scheme", "cn", "--root", "0"),
     "cos(1*pi*x1)*cos(1e+200*pi*x2)"),
), ids=("perturb-k", "perturb-k-l", "preimage"))
def test_a_mode_whose_eigenvalue_overflows_is_a_usage_error(argv, mode, tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert _run(*argv, "--eps", "0.1", "--dt", "0.01", "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: mode {mode} has no finite Laplace eigenvalue\n"
    assert list(tmp_path.iterdir()) == []


def test_dt_or_ratio_required(tmp_path):
    assert _run("preimage", "const:0", "--scheme", "cn", "--eps", "1",
                "--out", str(tmp_path / "t.csv")) == 2


@pytest.mark.parametrize("flags", (("--newton-max-iter", "0"), ("--newton-tol", "-1"),
                                   ("--steps", "0"), ("--delta0", "inf")),
                         ids=("newton-max-iter", "newton-tol", "steps", "delta0"))
def test_preimage_checks_its_flags_on_constant_and_field_targets_alike(flags, tmp_path, capsys):
    errs = []
    for target in ("const:0", "const+mode:0.984375,0.5,1"):
        out = tmp_path / "p.csv"
        assert _run("preimage", target, "--scheme", "cn", "--eps", "1", "--dt", "1", "--root", "0",
                    *flags, "--out", str(out)) == 2
        assert not out.exists()
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and errs[0].startswith("error: ")


def test_bad_field_spec(tmp_path):
    base = ("--scheme", "cn", "--eps", "0.1", "--dt", "0.01",
            "--out", str(tmp_path / "t.csv"))
    assert _run("simulate", "garbage:1", *base) == 2
    assert _run("simulate", "const+mode:1,2", *base) == 2


@pytest.mark.parametrize("spec", ("const", "const:", "const:x", "const:1,2", "const+mode:1,2",
                                  "const+mode:1,2,3,4,5", "mode:1"))
@pytest.mark.parametrize("command", ("simulate", "preimage"))
def test_malformed_field_spec_exits_2_with_no_csv(command, spec, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert _run(command, spec, "--scheme", "cn", "--eps", "0.1", "--dt", "0.01",
                "--out", str(out)) == 2
    assert capsys.readouterr().err == (f"error: bad field spec {spec!r}: expected const:<v> "
                                       "or const+mode:<v>,<d>,<k[,l]>\n")
    assert not out.exists()


@pytest.mark.parametrize("spec, dim", (("const+mode:0.5,0.1,1", "2"),
                                       ("const+mode:0.5,0.1,1,2", "1")))
def test_a_mode_of_another_dimension_than_dim_exits_2(spec, dim, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert _run("simulate", spec, "--scheme", "cn", "--eps", "0.1", "--dt", "0.01",
                "--dim", dim, "--out", str(out)) == 2
    comps = spec.count(",") - 1
    assert capsys.readouterr().err == (f"error: mode has {comps} component(s) but grid is "
                                       f"{dim}-dimensional\n")
    assert not out.exists()


def test_a_mode_with_k_and_l_runs_in_2d_at_n_65(tmp_path):
    spec = "const+mode:0.5,0.1,1,2"
    out, want = tmp_path / "spec.csv", tmp_path / "dim.csv"
    base = ("--scheme", "cn", "--eps", "0.1", "--dt", "0.01", "--steps", "2")
    assert _run("simulate", spec, *base, "--out", str(out)) == 0
    assert _run("simulate", spec, *base, "--dim", "2", "--n", "65", "--out", str(want)) == 0
    assert out.read_bytes() == want.read_bytes()


# ---------------------------------------------------------------------------
# analyze


def test_analyze_thresholds(tmp_path):
    out = tmp_path / "th.csv"
    assert _run("analyze", "thresholds", "--eps", "0.1", "--out", str(out)) == 0
    rows = _rows(out)
    assert rows[0] == ["scheme", "formula", "dt_max"]
    cells = {r[0]: (r[1], r[2]) for r in rows[1:]}
    assert cells["be"] == ("EPS2", "0.01")
    assert cells["cn"] == ("TWO_EPS2", "0.02")
    assert cells["modcn"] == ("INF", "inf")
    assert cells["dirk2"] == ("EPS2_OVER_MAX_AII", "0.04")


def test_analyze_bifurcations(tmp_path):
    out = tmp_path / "bif.csv"
    code = _run(
        "analyze", "bifurcations", "--scheme", "be", "--c", "0", "--dt", "10",
        "--eps-min", "0.05", "--max-k", "2", "--out", str(out),
    )
    assert code == 0
    rows = _rows(out)
    assert rows[0] == ["k1", "k2", "eps_sq", "eigenfunction", "note"]
    ks = [float(r[0]) for r in rows[1:]]
    assert ks == [0.0, 0.5, 1.0, 1.5, 2.0]
    eps_sqs = [float(r[2]) for r in rows[1:]]
    assert eps_sqs[0] == pytest.approx(10.0, rel=1e-8)
    assert eps_sqs[2] == pytest.approx(1.0 / (0.1 + math.pi**2), rel=1e-8)
    assert eps_sqs == sorted(eps_sqs, reverse=True)
    assert rows[3][3] == "cos(1*pi*x1)"


def test_analyze_bifurcations_none(tmp_path):
    out = tmp_path / "bif.csv"
    code = _run("analyze", "bifurcations", "--scheme", "be", "--c", "0.6",
                "--dt", "1", "--out", str(out))
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 2
    assert rows[1][3].startswith("no bifurcation")


def test_analyze_intervals(tmp_path):
    out = tmp_path / "iv.csv"
    code = _run("analyze", "intervals", "--scheme", "dirk2", "--ratio", "0.25",
                "--count", "2", "--out", str(out))
    assert code == 0
    rows = _rows(out)
    assert [r[2] for r in rows[1:]] == ["r1", "s1", "r2", "s2"]
    vals = [float(r[3]) for r in rows[1:]]
    for got, want in zip(vals, (4.472, 10.958, 18.950, 28.200)):
        assert got == pytest.approx(want, abs=1e-3)


def test_analyze_classify(tmp_path):
    args = ("analyze", "classify", "--scheme", "cn", "--ratio", "0.5",
            "--rmin", "0", "--rmax", "4", "--samples", "9")
    out = tmp_path / "cl.csv"
    assert _run(*args, "--out", str(out)) == 0
    rows = _rows(out)
    assert rows[0] == ["r", "limit", "settle_step", "flips"]
    got = [tuple(r) for r in rows[1:]]
    assert got == [
        ("0", "0", "-1", "0"),
        ("0.5", "1", "3", "0"),
        ("1", "1", "1", "0"),
        ("1.5", "1", "4", "0"),
        ("2", "-1", "1", "1"),
        ("2.5", "1", "5", "2"),
        ("3", "-1", "6", "3"),
        ("3.5", "1", "6", "4"),
        ("4", "-1", "8", "5"),
    ]


def test_analyze_perturb_trapezoid(tmp_path):
    out = tmp_path / "pg.csv"
    code = _run("analyze", "perturb", "--scheme", "cn", "--c", "0.984375",
                "--r", "-1.9931", "--k", "1", "--eps", "0.1", "--dt", "0.01",
                "--out", str(out))
    assert code == 0
    rows = _rows(out)
    assert rows[0] == ["scheme", "c", "r", "k", "l", "gain0", "gain1", "gain2", "pole"]
    row = rows[1]
    assert float(row[5]) == pytest.approx(-0.4442836285269829, rel=1e-8)
    assert row[6] == "" and row[7] == "" and row[8] == "0"


def test_analyze_perturb_dirk(tmp_path):
    out = tmp_path / "pg.csv"
    code = _run("analyze", "perturb", "--scheme", "dirk2", "--c", "-7",
                "--r", "-22.7", "--k", "1", "--eps", "0.1", "--dt", "0.01",
                "--out", str(out))
    assert code == 0
    row = _rows(out)[1]
    assert float(row[2]) == pytest.approx(-22.70664935808294, rel=1e-8)
    gains = tuple(float(v) for v in row[5:8])
    want = (-0.11919307432699236, 0.09933042512512692, 1.4370469989042385)
    for g, w in zip(gains, want):
        assert g == pytest.approx(w, rel=1e-6)


def test_analyze_unknown_what(tmp_path):
    try:
        code = _run("analyze", "nonsense", "--out", str(tmp_path / "x.csv"))
    except SystemExit as exc:  # the analyses are subcommands: argparse rejects the name
        code = exc.code
    assert code == 2


# ---------------------------------------------------------------------------
# preimage


def test_preimage_constants_trapezoid(tmp_path):
    out = tmp_path / "pre.csv"
    code = _run("preimage", "const:0", "--scheme", "cn", "--eps", "1", "--dt", "1",
                "--out", str(out))
    assert code == 0
    rows = _rows(out)
    assert rows[0] == ["scheme", "c", "root", "disc_sign", "forward_error"]
    roots = [float(r[2]) for r in rows[1:]]
    for got, want in zip(roots, (-math.sqrt(3), 0.0, math.sqrt(3))):
        assert got == pytest.approx(want, abs=1e-7)  # CSV keeps 9 significant digits
    assert all(float(r[4]) <= 1e-8 for r in rows[1:])
    assert all(r[3] == "1" for r in rows[1:])


def test_preimage_constants_dirk(tmp_path):
    out = tmp_path / "pre.csv"
    code = _run("preimage", "const:-7", "--scheme", "dirk2", "--eps", "0.1",
                "--dt", "0.01", "--out", str(out))
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 2
    assert float(rows[1][2]) == pytest.approx(-22.70664935808294, rel=1e-8)


def test_preimage_constants_dirk_disc_sign_is_each_rows_cubic(tmp_path):
    out = tmp_path / "pre.csv"
    assert _run("preimage", "const:0.5", "--scheme", "dirk2", "--eps", "0.1",
                "--dt", "0.01", "--out", str(out)) == 0
    assert [row[3] for row in _rows(out)[1:]] == ["-1", "1", "1", "1", "-1"]


def test_preimage_field(tmp_path):
    out = tmp_path / "pre.csv"
    code = _run(
        "preimage", "const+mode:0.984375,0.5,1", "--scheme", "cn", "--root", "0",
        "--eps", "0.1", "--dt", "0.01", "--n", "65", "--out", str(out),
    )
    assert code == 0
    summary = _rows(out)
    assert summary[0][:2] == ["scheme", "c"]
    row = dict(zip(summary[0], summary[1]))
    assert row["converged"] == "1"
    assert float(row["forward_residual"]) <= 1e-8
    assert float(row["seed_root"]) == pytest.approx(-1.99310, abs=1e-4)
    field_rows = _rows(tmp_path / "pre_field.csv")
    assert field_rows[0] == ["x1", "value"]
    assert len(field_rows) == 1 + 65
    assert float(field_rows[1][0]) == -1.0 and float(field_rows[-1][0]) == 1.0


def test_preimage_field_needs_root_when_ambiguous(tmp_path, capsys):
    code = _run(
        "preimage", "const+mode:0.984375,0.5,1", "--scheme", "cn",
        "--eps", "0.1", "--dt", "0.01", "--n", "33", "--out", str(tmp_path / "p.csv"),
    )
    assert code == 2
    assert "--root" in capsys.readouterr().err


def test_preimage_field_root_out_of_range(tmp_path):
    code = _run(
        "preimage", "const+mode:0.984375,0.5,1", "--scheme", "cn", "--root", "7",
        "--eps", "0.1", "--dt", "0.01", "--n", "33", "--out", str(tmp_path / "p.csv"),
    )
    assert code == 2


@pytest.mark.parametrize("target", ("const:0.5", "const+mode:0.5,0.1,1"), ids=("constant", "field"))
@pytest.mark.parametrize("scheme, last", (("cn", 2), ("be", 0)), ids=("cn", "be"))
def test_preimage_checks_root_on_every_target(scheme, last, target, tmp_path, capsys):
    out = tmp_path / "p.csv"
    argv = ("preimage", target, "--scheme", scheme, "--eps", "0.1", "--dt", "0.01")
    assert _run(*argv, "--root", str(last + 1), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: --root must be in [0, {last}]\n"
    assert list(tmp_path.iterdir()) == []
    if target.startswith("const:"):  # a constant target lists every root whatever --root picks
        assert _run(*argv, "--root", "0", "--out", str(out)) == 0
        assert len(_rows(out)) == 1 + last + 1


def test_preimage_field_stall_exits_3(tmp_path, capsys):
    code = _run(
        "preimage", "const+mode:0.984375,0.5,1", "--scheme", "cn", "--root", "0",
        "--eps", "0.1", "--dt", "0.01", "--n", "33", "--newton-max-iter", "1",
        "--out", str(tmp_path / "p.csv"),
    )
    assert code == 3
    assert "stalled" in capsys.readouterr().err


def test_preimage_field_stall_names_the_backward_link(tmp_path, capsys):
    code = _run(
        "preimage", "const+mode:0.5,0.15,1", "--scheme", "dirk2", "--root", "0",
        "--eps", "0.1", "--dt", "0.01", "--n", "65", "--newton-max-iter", "1",
        "--out", str(tmp_path / "p.csv"),
    )
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "continuation stalled at delta = None: backward link 1 of 3 did not converge "
        "(max iterations reached, residual ")


def test_preimage_field_failed_forward_check_exits_3(tmp_path, capsys, monkeypatch):
    # the preimage converges, but the forward step that checks it does not:
    # both CSVs are still written, and the command says which stage missed
    def failing_step(kind, phi, p, cfg=None):
        first = acstab.NewtonReport(2, 1e-12, True, (1e-3, 1e-12))
        second = acstab.NewtonReport(50, 2.5e-7, False, (1e-3, 2.5e-7), "max iterations reached")
        return phi, acstab.StepReport((first, second))

    monkeypatch.setattr(cli, "step", failing_step)
    out = tmp_path / "pre.csv"
    code = _run(
        "preimage", "const+mode:0.5,0.1,1", "--scheme", "dirk2", "--root", "0",
        "--eps", "0.1", "--dt", "0.01", "--n", "33", "--out", str(out),
    )
    assert code == 3
    assert capsys.readouterr().err == (
        "forward check step did not converge at stage 2 of 2 "
        "(max iterations reached, residual 2.5e-07)\n")
    assert dict(zip(*_rows(out)))["converged"] == "1"
    assert len(_rows(tmp_path / "pre_field.csv")) == 1 + 33


def test_preimage_field_2d_dirk2_middle_chain_converges(tmp_path):
    # the middle chain's backward stages have indefinite, nearly singular
    # Jacobians: Newton steps solved only to the forcing term stall near a
    # residual of 2e-6 here, unless a step that fails to halve the residual
    # makes the rest of the solve exact
    out = tmp_path / "pre.csv"
    code = _run(
        "preimage", "const+mode:0.5,0.3,3,1", "--scheme", "dirk2", "--root", "2",
        "--eps", "0.1", "--dt", "0.01", "--steps", "2", "--n", "33", "--out", str(out),
    )
    assert code == 0
    row = dict(zip(*_rows(out)))
    assert row["converged"] == "1" and float(row["forward_residual"]) <= 1e-8


# ---------------------------------------------------------------------------
# config file merging


def test_config_json_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": "cn", "ratio": 0.5, "count": 2}))
    out = tmp_path / "iv.csv"
    assert _run("analyze", "intervals", "--config", str(cfg), "--out", str(out)) == 0
    rows = _rows(out)
    assert [r[2] for r in rows[1:]] == ["r1", "r2"]
    assert float(rows[1][3]) == pytest.approx(math.sqrt(3), rel=1e-7)


def test_config_flags_override_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": "cn", "ratio": 0.5, "count": 2}))
    out = tmp_path / "iv.csv"
    assert _run("analyze", "intervals", "--config", str(cfg), "--count", "3",
                "--out", str(out)) == 0
    assert [r[2] for r in _rows(out)[1:]] == ["r1", "r2", "r3"]


@pytest.mark.parametrize("values, message", [
    ({"steps": 2.5}, "invalid int value 2.5"),
    ({"n": "many"}, "invalid int value 'many'"),
    ({"eps": "small"}, "invalid float value 'small'"),
    ({"dim": 3}, "invalid choice 3 (choose from 1, 2)"),
    ({"scheme": "rk4"}, "invalid choice 'rk4' (choose from be, cn, modcn, dirk2)"),
    ({"n": True}, "invalid int value true"),
], ids=("steps=2.5", "n=many", "eps=small", "dim=3", "scheme=rk4", "n=True"))
def test_config_value_its_flag_rejects_exits_2(values, message, tmp_path, capsys):
    # a JSON string or number is named as Python writes it, any other value as JSON does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": "be", "eps": 0.1, "dt": 0.01, "steps": 1, **values}))
    out = tmp_path / "sim.csv"
    assert _run("simulate", "const:0.5", "--config", str(cfg), "--out", str(out)) == 2
    (key,) = values
    assert capsys.readouterr().err == f"error: config key {key!r}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value, shown", ((None, "null"), (True, "true"), (["a", 1], '["a", 1]')),
                         ids=("null", "true", "list"))
def test_config_value_that_is_no_string_or_number_exits_2(value, shown, tmp_path, capsys,
                                                          monkeypatch):
    # str() would give each a text, and --out a file named by it; the message
    # spells the value as the file does
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"out": value, "eps": 1}))
    assert _run("analyze", "thresholds", "--config", "c.json") == 2
    assert capsys.readouterr().err == f"error: config key 'out': invalid str value {shown}\n"
    # a flag with choices names the value too, not its choices
    (tmp_path / "c.json").write_text(json.dumps({"scheme": value, "ratio": 0.5}))
    assert _run("analyze", "intervals", "--config", "c.json") == 2
    assert capsys.readouterr().err == f"error: config key 'scheme': invalid str value {shown}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json"]


def test_config_values_are_read_as_the_command_line_reads_them(tmp_path, capsys, monkeypatch):
    # numbers given as JSON strings take their flag's type, as on the command line
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": "be", "eps": "0.1", "dt": 0.01, "n": "65", "steps": 2}))
    out, want = tmp_path / "cfg.csv", tmp_path / "cli.csv"
    assert _run("simulate", "const:0.5", "--config", str(cfg), "--out", str(out)) == 0
    assert _run("simulate", "const:0.5", "--scheme", "be", "--eps", "0.1", "--dt", "0.01",
                "--n", "65", "--steps", "2", "--out", str(want)) == 0
    assert out.read_bytes() == want.read_bytes()
    # a flag without a type reads the value's text, as --out 5 would
    cfg.write_text(json.dumps({"scheme": "be", "eps": 0.1, "dt": 0.01, "steps": 2, "n": 65, "out": 5}))
    monkeypatch.chdir(tmp_path)
    assert _run("simulate", "const:0.5", "--config", str(cfg)) == 0
    assert (tmp_path / "5").read_bytes() == want.read_bytes()
    # a const flag takes the JSON value as it stands
    cfg.write_text(json.dumps({"check": True}))
    capsys.readouterr()
    assert _run("reproduce", "table4", "--config", str(cfg), "--out", str(out)) == 0
    assert capsys.readouterr().out.endswith("check: all values match\n")


def test_config_false_leaves_a_const_flag_out(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "t4.csv"
    cfg.write_text(json.dumps({"check": False}))
    assert _run("reproduce", "table4", "--config", str(cfg), "--out", str(out)) == 0
    assert out.exists()
    assert capsys.readouterr().out == f"wrote {out}\n"


@pytest.mark.parametrize("value", ("no", 0, 1))
def test_config_const_flag_rejects_other_values(value, tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "t4.csv"
    cfg.write_text(json.dumps({"check": value}))
    assert _run("reproduce", "table4", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == (f"error: config key 'check': expected true or false, "
                                       f"got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, values", [
    (("reproduce", "table4", "--check"),
     {"steps": "many", "scheme": "rk4", "newton_tol": "tight"}),
    (("analyze", "intervals", "--scheme", "cn", "--ratio", "0.5"),
     {"eps": "small", "samples": 2.5}),
], ids=("reproduce", "intervals"))
def test_config_keys_of_other_commands_flags_are_ignored(argv, values, tmp_path, capsys):
    # each key names a flag of other commands only, whose type or choices would reject the value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    out, want = tmp_path / "cfg.csv", tmp_path / "cli.csv"
    assert _run(*argv, "--config", str(cfg), "--out", str(out)) == 0
    assert _run(*argv, "--out", str(want)) == 0
    assert out.read_bytes() == want.read_bytes()
    assert capsys.readouterr().err == ""


def test_config_file_missing(tmp_path):
    assert _run("analyze", "intervals", "--config", str(tmp_path / "none.json"),
                "--out", str(tmp_path / "x.csv")) == 2


# ---------------------------------------------------------------------------
# output paths are checked before any work

_WRITING = {
    "simulate": ("simulate", "const+mode:0.5,0.1,1,2", "--scheme", "cn", "--eps", "0.1",
                 "--dt", "0.01"),
    "preimage": ("preimage", "const+mode:0.984375,0.5,1", "--scheme", "cn", "--root", "0",
                 "--eps", "0.1", "--dt", "0.01"),
    "analyze": ("analyze", "thresholds", "--eps", "0.1"),
    "reproduce": ("reproduce", "table1"),
}


@pytest.fixture
def no_work(monkeypatch):
    """Make every computation the commands of _WRITING start fail the test."""
    def work(*args, **kwargs):
        raise AssertionError("computed before the output paths were checked")

    for name in ("simulate", "preimage_constants", "preimage_field", "interval_sequence",
                 "stability_threshold"):
        monkeypatch.setattr(cli, name, work)


@pytest.mark.parametrize("command", _WRITING)
@pytest.mark.parametrize("where, reason", (("missing/x.csv", "No such file or directory"),
                                           ("", "Is a directory")))
def test_an_unwritable_out_exits_2_before_any_work(command, where, reason, tmp_path, capsys,
                                                   no_work):
    out = tmp_path / where
    assert _run(*_WRITING[command], "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
    assert not any(tmp_path.iterdir())


def test_an_unwritable_preimage_field_csv_exits_2_before_any_work(tmp_path, capsys, no_work):
    (tmp_path / "p_field.csv").mkdir()
    out = tmp_path / "p.csv"
    assert _run(*_WRITING["preimage"], "--out", str(out)) == 2
    assert capsys.readouterr().err == (f"error: cannot write {tmp_path / 'p_field.csv'}: "
                                       "Is a directory\n")
    assert not out.exists()


def test_an_unwritable_default_reproduce_out_exits_2(tmp_path, capsys, monkeypatch, no_work):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig1_data.csv").mkdir()
    assert _run("reproduce", "fig1-data") == 2
    assert capsys.readouterr().err == "error: cannot write fig1_data.csv: Is a directory\n"


def test_the_check_leaves_an_existing_out_as_it_was_until_the_csv_is_written(tmp_path):
    out = tmp_path / "t.csv"
    out.write_text("old contents\n" * 100)
    assert _run("analyze", "thresholds", "--eps", "-1", "--out", str(out)) == 2
    assert out.read_text() == "old contents\n" * 100
    assert _run(*_WRITING["analyze"], "--out", str(out)) == 0
    assert len(_rows(out)) == 5 and _rows(out)[0] == ["scheme", "formula", "dt_max"]


# ---------------------------------------------------------------------------
# each command takes the flags its code reads, and no other

_FLAGS_READ = {
    "reproduce": {"check", "out", "config"},
    "simulate": {"scheme", "eps", "dt", "ratio", "dim", "n", "steps", "settle_tol",
                 "newton_tol", "newton_max_iter", "out", "config"},
    "analyze thresholds": {"eps", "out", "config"},
    "analyze bifurcations": {"scheme", "c", "dt", "eps", "ratio", "dim", "eps_min", "max_k",
                             "out", "config"},
    "analyze intervals": {"scheme", "ratio", "count", "out", "config"},
    "analyze classify": {"scheme", "eps", "dt", "ratio", "rmin", "rmax", "samples", "steps",
                         "out", "config"},
    "analyze perturb": {"scheme", "eps", "dt", "ratio", "c", "r", "k", "l", "out", "config"},
    "preimage": {"scheme", "eps", "dt", "ratio", "dim", "n", "steps", "delta0", "root",
                 "newton_tol", "newton_max_iter", "out", "config"},
}


def _leaf_parsers(parser, prefix=""):
    """(command name, parser) of every (sub)command that takes flags."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, f"{prefix}{name} ")
            return
    yield prefix.strip(), parser


def test_each_command_takes_exactly_the_flags_it_reads():
    got = {name: {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
           for name, sub in _leaf_parsers(cli.build_parser())}
    assert got == _FLAGS_READ
    assert sum(map(len, got.values())) == 66


_PUBLIC_NAMES = {
    "AnalysisError", "ConfigurationError",
    "ACParams", "ButcherTableau", "DIRK2_TABLEAU", "GridSpec", "ModeIndex", "ScalarField",
    "apply_laplacian", "center_value", "constant_field", "eval_mode", "field_l2", "field_mean",
    "laplacian_matrix", "make_grid", "trapezoid_weights",
    "CubicRoots", "HomotopyConfig", "NewtonConfig", "NewtonReport", "delta_schedule",
    "homotopy_path", "newton_solve", "real_cubic_roots",
    "BE", "CN", "DIRK2", "MODCN", "SchemeKind", "StepReport", "StepSummary", "Trajectory",
    "parse_scheme", "scalar_map", "simulate", "step",
    "BifurcationPoint", "StabilityThreshold", "bifurcation_epsilon_sq", "enumerate_bifurcations",
    "stability_threshold",
    "ClassificationResult", "IntervalSequence", "PerturbationGain", "PreimageSet",
    "classify_constant_initial", "dirk_perturbation_gains", "interval_sequence",
    "perturbation_gain", "preimage_constants", "preimage_field",
    "__version__",
}


def test_the_package_exports_exactly_its_public_names():
    assert len(acstab.__all__) == len(set(acstab.__all__)) == 53
    assert set(acstab.__all__) == _PUBLIC_NAMES
    assert all(hasattr(acstab, name) for name in acstab.__all__)


def test_the_package_exports_each_modules_public_names_once():
    modules = (acstab.fields, acstab.solvers, acstab.schemes, acstab.stability, acstab.robustness)
    names = [name for module in modules for name in module.__all__]
    assert acstab.__all__ == ["AnalysisError", "ConfigurationError", *names, "__version__"]
    assert len(set(acstab.__all__)) == len(acstab.__all__)


@pytest.mark.parametrize("argv", [
    ("reproduce", "table1", "--eps", "7"),
    ("analyze", "classify", "--scheme", "cn", "--ratio", "0.5", "--rmin", "0", "--rmax", "4",
     "--newton-tol", "1e-3"),
    ("analyze", "intervals", "--scheme", "cn", "--ratio", "0.5", "--eps", "0.1"),
    # no prefix matching: --r is not read as --ratio, nor --c as --config
    ("analyze", "intervals", "--scheme", "cn", "--r", "0.5"),
    ("analyze", "classify", "--scheme", "cn", "--ratio", "0.5", "--rmin", "0", "--rmax", "4",
     "--c", "0.5"),
    # the continuation always ends at the target's delta
    ("preimage", "const+mode:0.5,0.1,1", "--scheme", "cn", "--eps", "0.1", "--dt", "0.01",
     "--delta1", "0.2"),
], ids=("reproduce-eps", "classify-newton-tol", "intervals-eps", "intervals-r-prefix",
        "classify-c-prefix", "preimage-delta1"))
def test_a_flag_the_command_never_reads_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        _run(*argv, "--out", str(out))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert not out.exists()


def test_float_array_csv_has_the_per_cell_bytes(tmp_path):
    # columns take one format per row; _fmt formats each cell of the list rows
    values = np.array([[-0.0, np.nan, np.inf], [-np.inf, 1e-300, 1e300], [-1e-300, 0.1, -2.5]])
    fast, cells = tmp_path / "fast.csv", tmp_path / "cells.csv"
    cli._write_csv(str(fast), ["a", "b", "c"], tuple(values.T))
    cli._write_csv(str(cells), ["a", "b", "c"], values.tolist())
    assert fast.read_bytes() == cells.read_bytes()
    assert fast.read_bytes() == b"a,b,c\n0,nan,inf\n-inf,1e-300,1e+300\n-1e-300,0.1,-2.5\n"
    # an int column between float columns, as classify writes them
    ints = np.array([-7, 0, 2**62], dtype=np.int64)
    columns = (values[:, 0], ints, values[:, 1], values[:, 2])
    cli._write_csv(str(fast), ["a", "i", "b", "c"], columns)
    cli._write_csv(str(cells), ["a", "i", "b", "c"], zip(*(c.tolist() for c in columns)))
    assert fast.read_bytes() == cells.read_bytes()
    assert fast.read_bytes() == (b"a,i,b,c\n0,-7,nan,inf\n-inf,0,1e-300,1e+300\n"
                                 b"-1e-300,4611686018427387904,0.1,-2.5\n")


# ---------------------------------------------------------------------------
# one parser per process


def _count_builds(monkeypatch):
    """Drop the cached parser and count the build_parser calls that follow."""
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_PARSER", None)
    return calls


def _outcome(argv, out, capsys):
    """(exit code, stdout, stderr, CSV bytes or None) of one main call."""
    out.unlink(missing_ok=True)
    try:
        code = _run(*argv, "--out", str(out))
    except SystemExit as exc:
        code = exc.code
    std = capsys.readouterr()
    return code, std.out, std.err, out.read_bytes() if out.exists() else None


def test_parser_built_once_and_reused(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": "cn", "ratio": 0.5, "count": 2}))
    calls = [
        ("analyze", "intervals", "--scheme", "dirk2", "--ratio", "0.25"),
        ("analyze", "classify", "--scheme", "xx"),  # argparse error
        ("reproduce", "table4", "--check"),
        ("analyze", "intervals", "--config", str(cfg)),
        ("analyze", "intervals", "--scheme", "dirk2", "--ratio", "0.25"),
        ("analyze", "intervals"),  # nothing left over from --config
        ("preimage", "const:0.5", "--scheme", "modcn", "--ratio", "2"),
    ]
    out = tmp_path / "out.csv"
    alone = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        alone.append(_outcome(argv, out, capsys))
    builds = _count_builds(monkeypatch)
    reused = [_outcome(argv, out, capsys) for argv in calls]
    assert len(builds) == 1
    assert reused == alone
    assert [o[0] for o in reused] == [0, 2, 0, 0, 0, 2, 0]
    assert reused[4][3].count(b",s") == 4  # the default count, not the config's 2
    assert reused[5][2] == "error: missing required option(s): --scheme, --ratio\n"


# ---------------------------------------------------------------------------
# SciPy loads only for 1D field solves (scipy.linalg) and sparse LU fallbacks

_CONSTANT_COMMANDS = (
    ("analyze", "classify", "--scheme", "dirk2", "--ratio", "0.5", "--rmin", "-3", "--rmax", "3"),
    ("analyze", "intervals", "--scheme", "modcn", "--ratio", "0.5"),
    ("analyze", "thresholds", "--eps", "0.1"),
    ("analyze", "bifurcations", "--scheme", "cn", "--c", "0.2", "--dt", "0.01", "--dim", "2"),
    ("analyze", "perturb", "--scheme", "dirk2", "--c", "0.5", "--r", "0.4", "--k", "1",
     "--ratio", "0.5"),
    *(("reproduce", target, "--check") for target in REPRODUCE_IDS),
    ("preimage", "const:0.5", "--scheme", "dirk2", "--ratio", "2"),
    # a constant field steps as its constant
    ("simulate", "const:31", "--scheme", "dirk2", "--eps", "0.1", "--dt", "0.01"),
    ("simulate", "const:0.5", "--scheme", "cn", "--dim", "2", "--eps", "0.1", "--dt", "0.01"),
)

_SCIPY_PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import acstab
loaded = [["import acstab", 0, scipy_modules()]]
import acstab.cli
loaded.append(["import acstab.cli", 0, scipy_modules()])
for argv in json.loads(sys.argv[1]):
    code = acstab.cli.main(argv)
    loaded.append([" ".join(argv[:2]), code, scipy_modules()])
print(json.dumps(loaded))
"""


def test_scipy_loads_only_for_field_work(tmp_path):
    # the 2D commands run first, in the same process, so the 1D simulate is
    # the first to load anything; at n = 17 every Krylov solve converges, so
    # no sparse LU runs
    field_2d = (
        ("simulate", "const+mode:0.5,0.1,1,2", "--scheme", "cn", "--eps", "0.1",
         "--dt", "0.01", "--n", "17", "--steps", "2"),
        ("preimage", "const+mode:0.5,0.2,2,1", "--scheme", "cn", "--root", "0", "--eps", "0.1",
         "--dt", "0.01", "--n", "17"),
        ("preimage", "const+mode:0.5,0.2,2,1", "--scheme", "dirk2", "--root", "2", "--eps", "0.1",
         "--dt", "0.01", "--steps", "4", "--n", "17"),
    )
    simulate_1d = ("simulate", "const+mode:0.5,0.1,1", "--scheme", "cn", "--eps", "0.1",
                   "--dt", "0.01", "--n", "17", "--steps", "2")
    argvs = [[*argv, "--out", str(tmp_path / "o.csv")]
             for argv in (*_CONSTANT_COMMANDS, *field_2d, simulate_1d)]
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(argvs)],
                         capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert len(loaded) == 2 + len(argvs)
    *scipy_free, (what, code, modules) = loaded
    assert scipy_free == [[w, 0, []] for w, _, _ in scipy_free]
    assert [w for w, _, _ in scipy_free[-3:]] == ["simulate const+mode:0.5,0.1,1,2",
                                                  "preimage const+mode:0.5,0.2,2,1",
                                                  "preimage const+mode:0.5,0.2,2,1"]
    # a 1D field solve calls LAPACK gtsv through scipy.linalg, and builds no CSR
    assert what == "simulate const+mode:0.5,0.1,1" and code == 0
    assert "scipy.linalg" in modules and "scipy.sparse" not in modules
