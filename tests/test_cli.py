"""End-to-end command line checks, run in-process through cli.run."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyliouville
from polyliouville import cli
from polyliouville.cli import analyze, run
from polyliouville.shooter import ShootingConfig, standard_config

LOG2 = repr(math.log(2.0))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_constants_prints_exact_gamma(capsys):
    assert run(["constants", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "gamma_m = 8 * pi^2" in out
    assert "sigma_m = 1" in out


def test_module_entry_point_prints_no_warning():
    # the package must not import cli itself, or runpy warns on stderr
    env = dict(os.environ, PYTHONPATH=str(Path(polyliouville.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "polyliouville.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert "reproduce-paper" in proc.stdout
    assert proc.stderr == ""


_SCIPY_BLOCKED = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked: " + name)

sys.meta_path.insert(0, BlockScipy())
from polyliouville.cli import run
print([run(argv) for argv in {argvs!r}])
print(sorted(k for k in sys.modules if k.split(".")[0] == "scipy"))
print("concurrent.futures" in sys.modules)
"""


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test-only dependency: every subcommand runs with its import
    # blocked, including the m = 2 event path, and loads no executor
    env = dict(os.environ, PYTHONPATH=str(Path(polyliouville.__file__).parents[1]))
    argvs = [
        ["constants", "--m", "2"],
        ["reproduce-paper"],
        ["classify", "--m", "2", "--u0", LOG2, "--d2", "-1.7"],
        ["shoot", "--m", "2", "--u0", LOG2, "--d2", "-1.7"],
        ["classify", "--m", "3", "--u0", LOG2, "--d2", "-2", "--d4", "12", "--r-end", "500"],
        ["a2m-check"],
        ["represent", "--m", "2", "--u0", LOG2, "--d2", "-3"],
    ]
    argvs = [argv + ["--out", str(tmp_path / str(i))] for i, argv in enumerate(argvs)]
    proc = subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED.format(argvs=argvs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "gamma_m = 8 * pi^2" in proc.stdout
    assert "termination: not_entire" in proc.stdout
    assert proc.stdout.splitlines()[-3:] == ["[0, 0, 0, 0, 0, 0, 0]", "[]", "False"]


def test_parser_is_built_once_and_parses_each_call_afresh(capsys):
    assert run(["constants", "--m", "2", "--digits", "5"]) == 0
    assert "omega_n = 2 * pi^2  (19.739)\n" in capsys.readouterr().out
    assert run(["constants", "--m", "2"]) == 0
    assert "omega_n = 2 * pi^2  (19.7392088021787172376689819998)\n" in capsys.readouterr().out
    assert cli._build_parser() is cli._build_parser()


def test_pizzetti_all_exact(capsys):
    assert run(["pizzetti", "--m", "2", "--n", "4", "--cases", "100", "--seed", "3"]) == 0
    assert "100/100 exact" in capsys.readouterr().out


@pytest.mark.parametrize("points", [1, 3])
def test_green_profile_has_the_requested_radii(points, tmp_path):
    assert run(["green", "--m", "1", "--points", str(points), "--out", str(tmp_path)]) == 0
    rows = read(tmp_path / "green_profile.csv").decode().splitlines()[1:]
    radii = [float(row.split(",")[0]) for row in rows]
    assert radii == pytest.approx([(k + 1) / points for k in range(points)], rel=1e-15)
    assert radii[-1] == 1.0


def test_green_m2_report(capsys):
    assert run(["green", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "log coefficient: -1/8 * pi^-2" in out
    assert "r^2 coefficient: 1/32 * pi^-2" in out
    assert "Navier boundary residuals exactly zero: True" in out
    assert "> 0" in out


def test_shoot_writes_classified_report(tmp_path, capsys):
    rc = run(
        ["shoot", "--m", "2", "--u0", LOG2, "--d2", "-3", "--out", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "overall = nonstandard" in out
    blob = json.loads(read(tmp_path / "report.json"))
    assert blob["termination"] == "reached_end"
    assert blob["classification"]["overall"] == "nonstandard"
    assert abs(blob["alpha_final"] - 0.21332616180327657) < 1e-9
    header = read(tmp_path / "trajectory.csv").splitlines()[0]
    assert header == b"r,w0,p0,w1,p1,alpha_R,R_scalar"


def test_shoot_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    args = ["shoot", "--m", "2", "--u0", LOG2, "--d2", "-2.5", "--r-end", "400"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert read(a / "trajectory.csv") == read(b / "trajectory.csv")
    assert read(a / "report.json") == read(b / "report.json")


def test_unknown_flag_exits_2():
    assert run(["shoot", "--m", "2", "--u0", "0.0", "--frobnicate"]) == 2


def test_represent_on_blowup_exits_3(tmp_path, capsys):
    # m = 4 data that blow up near r = 1.32 (step_underflow)
    rc = run(
        [
            "represent",
            "--m",
            "4",
            "--laplacians",
            f"{LOG2},2,0,0",
            "--r-end",
            "50",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("d2", ["2.0", "0.5", "0.0"])
def test_m2_nonnegative_laplacian_is_not_entire(tmp_path, capsys, d2):
    # Delta u(0) >= 0: the m = 2 shot stops at the start radius
    data = ["--m", "2", "--u0", LOG2, "--d2", d2, "--out", str(tmp_path)]
    assert run(["classify"] + data) == 0
    blob = json.loads(read(tmp_path / "classification.json"))
    assert blob["overall"] == "inconclusive"
    assert blob["agreement"] is True
    assert run(["shoot"] + data) == 0
    blob = json.loads(read(tmp_path / "report.json"))
    assert blob["termination"] == "not_entire"
    assert blob["fit"] is None
    assert run(["represent"] + data) == 3
    assert "'not_entire'" in capsys.readouterr().err


def test_represent_radii_past_r_end_exit_3(tmp_path, capsys):
    # u is not known past r_end, so neither is the u - v fit there
    rc = run(
        ["represent", "--m", "2", "--u0", LOG2, "--d2", "-3", "--r-end", "200",
         "--radii", "1,5,50,400", "--out", str(tmp_path)]
    )
    assert rc == 3
    assert "beyond the trajectory range" in capsys.readouterr().err


def test_represent_writes_profile(tmp_path):
    rc = run(
        [
            "represent",
            "--m",
            "2",
            "--u0",
            LOG2,
            "--d2",
            "-2.0",
            "--points",
            "12",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    header = read(tmp_path / "v_profile.csv").splitlines()[0]
    assert header == b"r,v,err_bar"
    fit = json.loads(read(tmp_path / "fit.json"))
    assert "inferred_degree" in fit


def test_represent_round_sphere_m3_fits_degree_0(tmp_path):
    # standard m = 3 data; solver noise must not pass for polynomial content
    rc = run(
        [
            "represent",
            "--m",
            "3",
            "--laplacians",
            "0.6931471805599453,-12,192",
            "--r-end",
            "500",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    fit = json.loads(read(tmp_path / "fit.json"))
    assert fit["inferred_degree"] == 0


def test_config_file_and_explicit_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"m=2\nu0={math.log(2.0)!r}\nd2=-3.0\nr-end=150.0\n")
    out1 = tmp_path / "one"
    out1.mkdir()
    assert run(["shoot", "--config", str(cfg), "--out", str(out1)]) == 0
    blob = json.loads(read(out1 / "report.json"))
    assert blob["r_reached"] == pytest.approx(150.0)
    out2 = tmp_path / "two"
    out2.mkdir()
    # explicit flag wins over the config value
    assert run(
        ["shoot", "--config", str(cfg), "--r-end", "200", "--out", str(out2)]
    ) == 0
    blob2 = json.loads(read(out2 / "report.json"))
    assert blob2["r_reached"] == pytest.approx(200.0)


def test_config_flag_without_path_exits_2(capsys):
    assert run(["shoot", "--m", "1", "--u0", "0", "--config"]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_equals_form_is_read(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r_end = 200\n")
    assert run(
        ["shoot", "--m", "1", "--u0", "0", f"--config={cfg}", "--out", str(tmp_path)]
    ) == 0
    blob = json.loads(read(tmp_path / "report.json"))
    assert blob["r_reached"] == pytest.approx(200.0)


def test_abbreviated_config_flag_exits_2(tmp_path):
    # a prefix of --config must not parse as --config: _inject_config
    # would never read the file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r_end = 200\n")
    assert run(
        ["shoot", "--m", "1", "--u0", "0", "--conf", str(cfg), "--out", str(tmp_path)]
    ) == 2


def test_analyze_standard_far_field():
    a = analyze(standard_config(2))
    assert a.vprof.grid.size == 24
    assert a.fit.inferred_degree == 0
    assert a.verdict.overall == "standard"


def test_analyze_truncated_run():
    cfg = ShootingConfig(m=2, initial_derivatives=(math.log(2.0), -1.7))
    a = analyze(cfg)
    assert a.traj.termination != "reached_end"
    assert a.vprof is None
    assert a.fit is None
    assert a.verdict.overall == "inconclusive"
    with pytest.raises(ValueError):
        analyze(cfg, radii=[1.0, 5.0])


def test_classify_writes_json(tmp_path, capsys):
    rc = run(
        ["classify", "--m", "2", "--u0", LOG2, "--d2", "-3", "--out", str(tmp_path)]
    )
    assert rc == 0
    blob = json.loads(read(tmp_path / "classification.json"))
    assert blob["overall"] == "nonstandard"
    names = [entry["name"] for entry in blob["criteria"]]
    assert names == ["ii", "iii", "iv", "v", "vi"]


def test_classify_supercritical_is_inconclusive(tmp_path, capsys):
    # the m = 2 run stops at the first u' > 0, short of the far field
    rc = run(
        ["classify", "--m", "2", "--u0", LOG2, "--d2", "-1.7", "--out", str(tmp_path)]
    )
    assert rc == 0
    blob = json.loads(read(tmp_path / "classification.json"))
    assert blob["overall"] == "inconclusive"
    assert blob["agreement"] is True


def test_a2m_check_passes(capsys):
    assert run(["a2m-check", "--m", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_reproduce_paper_all_rows_pass(tmp_path, capsys):
    rc = run(["reproduce-paper", "--jobs", "2", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert "gamma-identity m=1..10: PASS" in out
    assert "Pizzetti 200/200: PASS" in out
    assert "Green signs m<=5: PASS" in out
    summary = read(tmp_path / "summary.csv").decode().splitlines()
    assert summary[0].endswith(",ok")
    rows = [line.rsplit(",", 1) for line in summary[1:]]
    assert len(rows) == 5
    assert all(flag == "True" for _, flag in rows)


def test_reproduce_paper_short_run_has_no_fit(tmp_path, capsys):
    # below r_end = 100 no run reaches the far field: no u - v fit, no verdict
    assert run(["reproduce-paper", "--r-end", "50", "--out", str(tmp_path)]) == 3
    summary = read(tmp_path / "summary.csv").decode().splitlines()
    rows = [line.split(",") for line in summary[1:]]
    assert len(rows) == 5
    assert all(row[2] == "-" and row[-2:] == ["inconclusive", "False"] for row in rows)


def test_reproduce_paper_jobs_below_1_exits_2():
    assert run(["reproduce-paper", "--jobs", "0"]) == 2


@pytest.mark.parametrize("argv", [
    ["constants", "--m", "2", "--digits", "-2"],
    ["constants", "--m", "2", "--digits", "0"],
    ["constants", "--m", "0"],
    ["pizzetti", "--m", "2", "--n", "4", "--cases", "-3"],
    ["pizzetti", "--m", "2", "--n", "4", "--cases", "0"],
    ["pizzetti", "--m", "2", "--n", "4", "--max-degree", "-1"],
    ["pizzetti", "--m", "2", "--n", "0"],
    ["green", "--m", "2", "--points", "-4"],
    ["shoot", "--m", "0", "--u0", "0"],
    ["represent", "--m", "1", "--u0", "0", "--points", "0"],
    ["a2m-check", "--m", "0"],
    ["a2m-check", "--points", "1"],
    ["a2m-check", "--points", "2"],
])
def test_bad_count_flag_exits_2(argv, capsys):
    assert run(argv) == 2
    assert "must be >=" in capsys.readouterr().err


def test_count_flags_accept_their_lower_bound(capsys):
    assert run(["pizzetti", "--m", "1", "--n", "2", "--cases", "1", "--max-degree", "0"]) == 0
    assert run(["green", "--m", "1", "--points", "0"]) == 0
    assert run(["constants", "--m", "1", "--digits", "1"]) == 0
    assert "1/1 exact" in capsys.readouterr().out
    assert run(["a2m-check", "--points", "3"]) == 0


@pytest.mark.parametrize("flags, message", [
    (["--d2", "inf"], "initial data must be finite"),
    (["--d2", "-3", "--r-end", "inf"], "r_end must be positive and finite"),
])
def test_non_finite_shooting_data_exit_3(flags, message, tmp_path, capsys):
    # +inf data once skipped the m = 2 integration and wrote a verdict
    argv = ["classify", "--m", "2", "--u0", LOG2, *flags, "--out", str(tmp_path)]
    assert run(argv) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "classification.json").exists()
