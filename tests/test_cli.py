import csv
import json
import math

import pytest

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


def test_reproduce_check_flags_limits_that_fail_to_alternate(tmp_path, monkeypatch, capsys):
    header, build, kind, cells, table = cli._TARGETS["fig1-data"]

    def rows(kind):
        out = build(kind)
        out[1][4] = out[0][4]
        return out

    monkeypatch.setitem(cli._TARGETS, "fig1-data", (header, rows, kind, cells, table))
    assert _run("reproduce", "fig1-data", "--check", "--out", str(tmp_path / "f.csv")) == 4
    err = capsys.readouterr().err
    assert "limit signs alternate" in err and "1 mismatch" in err


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
        "simulate", "const:30", "--scheme", "cn", "--eps", "0.01",
        "--dt", "10", "--n", "33", "--steps", "5", "--out", str(out),
    )
    assert code == 3
    assert "did not converge" in capsys.readouterr().err
    rows = _rows(out)
    assert rows[-1][:3] == ["settle", "-1", "0"]


def test_simulate_failure_names_stage_and_residual(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = _run("simulate", "const:31", "--scheme", "cn", "--eps", "0.1", "--dt", "0.01",
                "--n", "65", "--out", str(out))
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "step 4 did not converge at stage 1 of 1 (max iterations reached, residual ")


def test_simulate_requires_scheme(tmp_path):
    assert _run("simulate", "const:1", "--dt", "0.01", "--eps", "0.1",
                "--out", str(tmp_path / "t.csv")) == 2


def test_dt_and_ratio_exclusive(tmp_path):
    assert _run("simulate", "const:1", "--scheme", "cn", "--eps", "0.1",
                "--dt", "0.01", "--ratio", "0.5", "--out", str(tmp_path / "t.csv")) == 2


def test_dt_or_ratio_required(tmp_path):
    assert _run("preimage", "const:0", "--scheme", "cn", "--eps", "1",
                "--out", str(tmp_path / "t.csv")) == 2


def test_bad_field_spec(tmp_path):
    base = ("--scheme", "cn", "--eps", "0.1", "--dt", "0.01",
            "--out", str(tmp_path / "t.csv"))
    assert _run("simulate", "garbage:1", *base) == 2
    assert _run("simulate", "const+mode:1,2", *base) == 2


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
    assert _run("analyze", "nonsense", "--out", str(tmp_path / "x.csv")) == 2


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


def test_config_file_missing(tmp_path):
    assert _run("analyze", "intervals", "--config", str(tmp_path / "none.json"),
                "--out", str(tmp_path / "x.csv")) == 2
