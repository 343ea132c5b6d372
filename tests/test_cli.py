"""End-to-end command line checks, run in-process through cli.run."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import polyliouville
from polyliouville import cli, represent, verdict
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


def test_trial_steps_past_the_clamp_print_no_warning(tmp_path):
    # m = 3 data (-150, 1, 0): trial steps that overshoot past the source
    # clamp hold inf in their stages, overflow the stepper's error sums and
    # are rejected; numpy must not warn about them, even as an error
    env = dict(os.environ, PYTHONPATH=str(Path(polyliouville.__file__).parents[1]),
               PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run([sys.executable, "-m", "polyliouville.cli", "classify", "--m", "3",
                           "--laplacians", "-150,1,0", "--r-end", "100", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


_SCIPY_BLOCKED = """
import sys

class BlockTestOnly:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("scipy", "mpmath"):
            raise ImportError("test-only dependency blocked: " + name)

sys.meta_path.insert(0, BlockTestOnly())
from polyliouville.cli import run
print([run(argv) for argv in {argvs!r}])
print(sorted(k for k in sys.modules if k.split(".")[0] in ("scipy", "mpmath")))
print("concurrent.futures" in sys.modules)
"""


def test_commands_run_without_scipy(tmp_path):
    # scipy and mpmath are test-only dependencies: every subcommand runs
    # with their imports blocked, including the m = 2 event path and the
    # exact layer, and loads no executor
    env = dict(os.environ, PYTHONPATH=str(Path(polyliouville.__file__).parents[1]))
    argvs = [
        ["constants", "--m", "2"],
        ["pizzetti", "--m", "2", "--n", "4"],
        ["green", "--m", "3"],
        ["reproduce-paper"],
        ["classify", "--m", "2", "--u0", LOG2, "--d2", "-1.7"],
        ["shoot", "--m", "2", "--u0", LOG2, "--d2", "-1.7"],
        # u' turns positive below the series start: the event on the series
        ["shoot", "--m", "2", "--u0", LOG2, "--d2", "-0.01"],
        ["classify", "--m", "3", "--u0", LOG2, "--d2", "-2", "--d4", "12", "--r-end", "500"],
        ["a2m-check"],
        ["represent", "--m", "2", "--u0", LOG2, "--d2", "-3"],
    ]
    writers = {"green", "shoot", "represent", "classify", "reproduce-paper"}
    argvs = [argv + ["--out", str(tmp_path / str(i))] if argv[0] in writers else argv
             for i, argv in enumerate(argvs)]
    proc = subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED.format(argvs=argvs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "gamma_m = 8 * pi^2" in proc.stdout
    assert "termination: not_entire" in proc.stdout
    assert "100/100 exact" in proc.stdout
    assert "Navier boundary residuals exactly zero: True" in proc.stdout
    assert proc.stdout.splitlines()[-3:] == ["[0, 0, 0, 0, 0, 0, 0, 0, 0, 0]", "[]", "False"]


_IMPORT_CONTRACT = """
import sys
bare = set(sys.modules)
import contextlib, io, types
import polyliouville
import polyliouville.cli as cli

def loaded():
    return sorted({{k.split(".")[0] for k in sys.modules}} & {{"numpy", "mpmath"}})

out = {{"import": loaded(), "codes": [], "watched": []}}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in {argvs!r}:
        out["codes"].append(cli.run(argv))
        # the watched modules loaded so far that a bare interpreter had not
        out["watched"].append(sorted(set({watched!r}) & set(sys.modules) - bare))
out["commands"] = loaded()
out["missing"] = sorted([n for n in {cli_names!r} if n not in vars(cli)]
                        + ["polyliouville." + n for n in {pkg_names!r}
                           if n not in vars(polyliouville)])
# cli takes the package's forwarders instead of building its own
out["own"] = sorted(n for n in ("shoot", "compute_v", "fit_even_polynomial")
                    if vars(cli).get(n) is not vars(polyliouville).get(n))
if {verdict_first!r}:  # the submodule loads before the function is looked up
    import polyliouville.verdict as mod
star = {{}}
exec("from polyliouville import *", star)
out["star"] = sorted(n for n in polyliouville.__all__
                     if star.get(n) is not getattr(polyliouville, n))
import polyliouville.verdict as mod
out["verdict"] = isinstance(mod, types.ModuleType)
out["classify"] = isinstance(polyliouville.classify, types.FunctionType)
out["plain"] = type(sys.modules["polyliouville"]) is types.ModuleType
import json
print(json.dumps(out))
"""


def test_exact_commands_load_neither_numpy_nor_mpmath(tmp_path):
    # the package and cli import only the standard library; the names
    # perfbench/spans.py wraps exist before numpy loads; polyliouville.verdict
    # is the module and polyliouville.classify the function, whichever of the
    # two is looked up first.  --help loads neither the exact layer nor the
    # heavier stdlib modules, constants only exactconst of the exact layer,
    # and classify no polyfield
    env = dict(os.environ, PYTHONPATH=str(Path(polyliouville.__file__).parents[1]))
    exact = [["--help"], ["constants", "--m", "3"],
             ["pizzetti", "--m", "2", "--n", "4", "--cases", "20"]]
    numeric = [["--help"], ["classify", "--m", "2", "--u0", LOG2, "--d2", "-1.7",
                            "--out", str(tmp_path)]]
    for verdict_first, argvs, loads in ((False, exact, []), (True, exact, []),
                                        (False, numeric, ["numpy"])):
        script = _IMPORT_CONTRACT.format(
            argvs=argvs,
            cli_names=["shoot", "compute_v", "fit_even_polynomial", "classify",
                       "pizzetti_check", "almansi_random", "green_ball",
                       "verify_gamma_identity"],
            pkg_names=["shoot", "compute_v", "compute_lap_v", "fit_even_polynomial"],
            watched=["polyliouville.exactconst", "polyliouville.polyfield", "dataclasses",
                     "inspect", "json", "fractions", "decimal"],
            verdict_first=verdict_first)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        watched = out.pop("watched")
        assert watched[0] == [], "--help"
        assert "polyliouville.polyfield" not in watched[1], argvs[1][0]
        if argvs is exact:
            assert "polyliouville.exactconst" in watched[1]
        assert out == {
            "import": [], "codes": [0] * len(argvs), "commands": loads, "missing": [],
            "own": [], "star": [], "verdict": True, "classify": True,
            "plain": True}, verdict_first


def test_parser_is_built_once_and_parses_each_call_afresh(capsys):
    assert run(["constants", "--m", "2", "--digits", "5"]) == 0
    assert "omega_n = 2 * pi^2  (19.739)\n" in capsys.readouterr().out
    assert run(["constants", "--m", "2"]) == 0
    assert "omega_n = 2 * pi^2  (19.7392088021787172376689819998)\n" in capsys.readouterr().out
    assert cli._build_parser() is cli._build_parser()


_SHOOTING_FLAGS = {"m", "out", "u0", "d2", "d4", "d6", "laplacians", "r-end"}


@pytest.mark.parametrize("command, flags", [
    ("constants", {"m", "digits"}),
    ("pizzetti", {"m", "n", "cases", "seed", "max-degree"}),
    ("green", {"m", "out", "points"}),
    ("shoot", _SHOOTING_FLAGS),
    ("represent", _SHOOTING_FLAGS | {"radii"}),
    ("classify", _SHOOTING_FLAGS),
    ("a2m-check", {"m", "points"}),
    ("reproduce-paper", {"out", "jobs"}),
])
def test_help_lists_each_commands_flags(command, flags, capsys):
    # every settable option of a subcommand; a new knob is an edit here
    assert run([command, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n", 1)[0]
    assert set(re.findall(r"--([a-z0-9-]+)", usage)) == flags


def test_reproduce_paper_help_says_when_summary_is_written(capsys):
    # reproduce-paper writes summary.csv only with --out or $POLYLIOUVILLE_OUT;
    # the other writers fall back to the working directory
    assert run(["reproduce-paper", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "summary.csv" in text and "or ." not in text
    for command in ("green", "shoot", "represent", "classify"):
        assert run([command, "--help"]) == 0
        assert "(default $POLYLIOUVILLE_OUT or .)" in " ".join(capsys.readouterr().out.split())


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
    # the shooting accuracy is fixed, so there is no tolerance flag
    assert run(["shoot", "--m", "2", "--u0", "0.0", "--rel-tol", "1e-8"]) == 2


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


@pytest.mark.parametrize("radii, entry", [
    ("nan,5,10", "'nan'"),
    ("5,10,inf", "'inf'"),
    ("5,-1,10", "'-1'"),
])
def test_represent_bad_radius_exits_2(radii, entry, tmp_path, capsys):
    argv = ["represent", "--m", "2", "--u0", LOG2, "--d2", "-3", "--radii", radii,
            "--out", str(tmp_path)]
    assert run(argv) == 2
    assert f"radii must be finite and >= 0, got {entry}" in capsys.readouterr().err
    assert not (tmp_path / "v_profile.csv").exists()


@pytest.mark.parametrize("radii, message", [
    ("5,5,10", "radii must be distinct, got 5.0 twice"),
    ("10,5,1e1,20", "radii must be distinct, got 10.0 twice"),
    # the m = 2 fit of u - v has degree 2 and needs 4 samples
    ("0,5,10", "--radii must hold >= 4 for m = 2"),
    # u is not known past r_end, so neither is the u - v fit there
    pytest.param("1,2,3,4,1000.5", "--radii must not exceed --r-end 1000.0, got 1000.5",
                 id="past-r-end"),
])
def test_represent_bad_radius_list_exits_2(radii, message, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["represent", "--m", "2", "--u0", LOG2, "--d2", "-3", "--radii", radii,
            "--out", str(out)]
    assert run(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("r_end", ["1.5", "2", "2.0001", "4", "50"])
def test_represent_short_r_end_without_radii_exits_3(r_end, tmp_path, capsys):
    # the lambda = 100 round sphere reaches r_end and compute_v accepts it,
    # but far_field_refusal refuses a run this short: without --radii there
    # is no far field to sample, and radii packed near r = 1 (r_end 2.0001,
    # 4) fit its constant u - v with degree 2.  The estimate passes, so the
    # message names r_end alone
    out = tmp_path / "out"
    argv = ["represent", "--m", "1", "--u0", "5.298317366548036", "--r-end", r_end,
            "--out", str(out)]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert (f"the far field needs r_end >= 100, got r_end = {float(r_end)!r}; "
            "explicit radii are still evaluated") in err
    assert "w0_error_estimate" not in err
    assert not out.exists()


def _flags(cfg):
    """The shooting flags that give cfg, whose data it holds as Laplacians."""
    return ["--m", str(cfg.m), "--r-end", repr(cfg.r_end),
            "--laplacians", ",".join(map(repr, cfg.initial_laplacians))]


@pytest.mark.parametrize("cfg", [
    standard_config(2),
    ShootingConfig(m=2, initial_derivatives=(math.log(2.0), -3.0)),
    standard_config(3, r_end=500.0),
    ShootingConfig(m=1, initial_derivatives=(5.298317366548036,), r_end=50.0),
    ShootingConfig(m=2, initial_derivatives=(math.log(2.0), -1.7)),
], ids=["std2", "nonstd2", "std3_500", "m1-lambda-100-r50", "m2-d2-1.7"])
def test_one_far_field_rule_gates_v_the_verdict_and_represent(cfg, tmp_path, capsys):
    # analyze, classify and the represent command all ask far_field_refusal
    a = analyze(cfg)
    refusal = represent.far_field_refusal(a.traj, a.report.w0_error_estimate)
    assert (a.vprof is None) == (refusal is not None)
    argv = ["represent", *_flags(cfg), "--out", str(tmp_path / "out")]
    rc = run(argv)
    err = capsys.readouterr().err
    if refusal is None:
        assert rc == 0 and a.fit is not None
        assert a.verdict.overall != "inconclusive"
        return
    assert {v for _, v in a.verdict.criteria.values()} == {"inconclusive"}
    assert a.verdict.overall == "inconclusive"
    assert rc == 3
    assert refusal in err
    assert not (tmp_path / "out").exists()


def test_represent_samples_v_at_analyzes_radii(tmp_path):
    # without --radii represent writes what analyze returns: the same bytes
    # as --radii given analyze's 24 far-field radii
    data = ["--m", "2", "--u0", LOG2, "--d2", "-3"]
    radii = analyze(ShootingConfig(m=2, initial_derivatives=(math.log(2.0), -3.0))).vprof.grid
    assert radii.size == 24
    listed = ",".join(repr(float(r)) for r in radii)
    assert run(["represent", *data, "--out", str(tmp_path / "a")]) == 0
    assert run(["represent", *data, "--radii", listed, "--out", str(tmp_path / "b")]) == 0
    for name in ("v_profile.csv", "fit.json"):
        assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name), name


@pytest.mark.parametrize("argv", [
    ["reproduce-paper", "--r-end", "500"],
    ["represent", "--m", "2", "--u0", LOG2, "--d2", "-3", "--points", "24"],
])
def test_removed_sampling_flags_exit_2(argv, tmp_path, capsys):
    # reproduce-paper runs at fixed r_end and represent samples v where
    # analyze does, so neither takes a flag to move its radii
    assert run([*argv, "--out", str(tmp_path / "o")]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_represent_radius_at_r_end_is_valid(tmp_path):
    argv = ["represent", "--m", "2", "--u0", LOG2, "--d2", "-3", "--r-end", "200",
            "--radii", "1,5,50,200", "--out", str(tmp_path)]
    assert run(argv) == 0
    rows = read(tmp_path / "v_profile.csv").decode().splitlines()[1:]
    assert float(rows[-1].split(",")[0]) == 200.0


@pytest.mark.parametrize("tiny", ["1e-300", "5e-324"])
def test_represent_at_a_tiny_radius_fits_as_near_it(tiny, tmp_path):
    # v at r = 1e-300 once read NaN +- NaN and the fit of those samples
    # degree 0; now it is v's r -> 0 limit, and the fit is 1e-100's
    data = ["represent", "--m", "2", "--u0", LOG2, "--d2", "-3"]
    for name, r in (("tiny", tiny), ("near", "1e-100")):
        argv = [*data, "--radii", f"0,{r},2,3,5,10", "--out", str(tmp_path / name)]
        assert run(argv) == 0
    rows = [line.split(",") for line in
            read(tmp_path / "tiny" / "v_profile.csv").decode().splitlines()[1:]]
    assert all(math.isfinite(float(x)) for row in rows for x in row)
    fit = read(tmp_path / "tiny" / "fit.json")
    assert fit == read(tmp_path / "near" / "fit.json")
    assert json.loads(fit)["inferred_degree"] == 2


def test_represent_refuses_to_fit_a_nan_v(tmp_path, capsys, monkeypatch):
    # a NaN sample of v exits 3 instead of fitting as degree 0
    def nan_v(traj, radii):
        prof = represent.compute_v(traj, radii)
        prof.values[1] = math.nan
        return prof

    monkeypatch.setattr(cli, "compute_v", nan_v)
    out = tmp_path / "out"
    argv = ["represent", "--m", "2", "--u0", LOG2, "--d2", "-3", "--radii", "0,1,2,3,5,10",
            "--out", str(out)]
    assert run(argv) == 3
    assert "r and vals must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lam", [0.01, 0.02])
def test_wide_round_sphere_is_inconclusive(lam, tmp_path, capsys):
    # alpha has not converged by r_end = 1000 on a sphere this wide: shoot and
    # classify judge nothing, and represent refuses the far-field integral
    data = ["--m", "1", "--u0", repr(math.log(2 * lam))]
    assert run(["classify", *data, "--out", str(tmp_path / "c")]) == 0
    blob = json.loads(read(tmp_path / "c" / "classification.json"))
    assert blob["overall"] == "inconclusive"
    assert run(["shoot", *data, "--out", str(tmp_path / "s")]) == 0
    blob = json.loads(read(tmp_path / "s" / "report.json"))
    assert blob["termination"] == "reached_end"
    assert blob["fit"] is None
    assert blob["classification"]["overall"] == "inconclusive"
    assert run(["represent", *data, "--out", str(tmp_path / "r")]) == 3
    assert "insufficient decay" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["constants", "--m", "1"],
    ["pizzetti", "--m", "1", "--n", "2"],
    ["a2m-check"],
])
def test_out_only_on_commands_that_write(argv, tmp_path, capsys):
    # these subcommands only print, so --out is a usage error
    assert run([*argv, "--out", str(tmp_path / "o")]) == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


_NEGATIVE_DATA = {"laplacians": "-0.3,-8", "u0": "-3e-1", "d2": "-2e0"}


@pytest.mark.parametrize("keys", [("laplacians",), ("u0", "d2")])
@pytest.mark.parametrize("spelling", ["separate"])
def test_negative_values_parse_in_every_spelling(keys, spelling, tmp_path):
    # argparse reads "-3e-1" or "-0.3,-8" after a flag as a flag of its own
    # unless the two are one token "--flag=value"; the separate spelling
    # must give the classification of the joined token
    joined = [f"--{key}={_NEGATIVE_DATA[key]}" for key in keys]
    spelled = [token for key in keys for token in (f"--{key}", _NEGATIVE_DATA[key])]
    for name, flags in (("joined", joined), ("spelled", spelled)):
        assert run(["classify", "--m", "2", *flags, "--out", str(tmp_path / name)]) == 0
    assert read(tmp_path / "spelled" / "classification.json") == read(
        tmp_path / "joined" / "classification.json")


def test_abbreviated_flag_exits_2(tmp_path):
    # flags are spelled out in full: a prefix of --r-end is not --r-end
    assert run(
        ["shoot", "--m", "1", "--u0", "0", "--r-en", "200", "--out", str(tmp_path)]
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


def test_a2m_check_passes_at_large_m(capsys):
    # r^(n-1) at the first nodes underflowed to 0 from about m = 40, and the
    # 0/0 once gave NaN for v and "I = nan finite"
    assert run(["a2m-check", "--m", "60"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "I = 8.10623e-53 finite" in out


@pytest.mark.parametrize("m", [85, 120, 224, 260])
def test_a2m_check_refuses_m_past_the_last_float_p_star(m, capsys):
    # p* overflows a float from m = 85: a usage error before any row runs
    assert run(["a2m-check", "--m", str(m), "--points", "101"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be <= 84" in err and "p*" in err


def test_a2m_check_passes_at_the_largest_m(capsys):
    # m = 84 has the largest float p* (4.47e304); numpy must warn of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["a2m-check", "--m", "84", "--points", "101"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 3 and all(row.startswith("PASS  ") for row in rows)


def test_a2m_check_p_star_is_exact_on_a_coarse_grid(capsys):
    # a trapezoid |f|_L1 on three nodes made p* 18% too large (I = 5.90904)
    assert run(["a2m-check", "--m", "2", "--points", "3"]) == 0
    assert "I = 5.72543 finite" in capsys.readouterr().out


def test_a2m_check_p_star_is_the_closed_form():
    # p* = gamma_m / (2 |f|_L1), |f|_L1 = omega_n 8 / (n (n+2) (n+4)): pi cancels
    from polyliouville.exactconst import PiRational, constant_table

    for m in range(1, 85):
        n = 2 * m
        table = constant_table(m)
        f_mass = table.omega_n * Fraction(8, n * (n + 2) * (n + 4))
        assert table.gamma_m / (2 * f_mass) == PiRational(cli._critical_p(m))
    # the bound on a2m-check --m: the last m whose p* is a float
    assert math.isfinite(float(cli._critical_p(84)))
    with pytest.raises(OverflowError):
        float(cli._critical_p(85))


def test_report_json_is_strict(tmp_path):
    # the -3 run's R_g tail holds -inf, the -1.7 run's w0 error estimate is
    # NaN: both are written as strings, never as Infinity or NaN tokens
    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")

    blobs = {}
    for d2 in ("-3", "-1.7"):
        out = tmp_path / d2
        assert run(["shoot", "--m", "2", "--u0", LOG2, "--d2", d2, "--out", str(out)]) == 0
        blobs[d2] = json.loads(read(out / "report.json"), parse_constant=refuse)
    assert "-inf" in blobs["-3"]["verdict_inputs"]["scalar_curvature_tail"]["value"]
    assert blobs["-1.7"]["w0_error_estimate"] == "nan"


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


def test_reproduce_paper_short_run_has_no_fit(tmp_path, monkeypatch):
    # a run the far-field rule refuses, as it refuses every run short of
    # r = 100, gets no u - v fit and no verdict
    def refuse(traj, w0_error_estimate):
        return "refused"

    monkeypatch.setattr(represent, "far_field_refusal", refuse)
    monkeypatch.setattr(verdict, "far_field_refusal", refuse)
    assert run(["reproduce-paper", "--out", str(tmp_path)]) == 3
    summary = read(tmp_path / "summary.csv").decode().splitlines()
    rows = [line.split(",") for line in summary[1:]]
    assert len(rows) == 5
    assert all(row[2] == "-" and row[-2:] == ["inconclusive", "False"] for row in rows)


def test_reproduce_paper_runs_every_row_to_1000(tmp_path, monkeypatch):
    ends = []

    def recorded(cfg, radii=None):
        ends.append(cfg.r_end)
        return analyze(cfg, radii)

    monkeypatch.setattr(cli, "analyze", recorded)
    assert run(["reproduce-paper", "--out", str(tmp_path)]) == 0
    assert ends == [1000.0] * 5


@pytest.mark.parametrize("d2, mu, on_family", [("-2", 1.0, True), ("-3", 1.0, False)])
def test_json_says_what_was_judged(d2, mu, on_family, tmp_path):
    # reference_mu = e^{A_0}/2 and whether every W_j(0) is 0.0, in the
    # report and in the classification
    base = ["--m", "2", "--u0", LOG2, "--d2", d2]
    assert run(["shoot", *base, "--out", str(tmp_path / "s")]) == 0
    assert run(["classify", *base, "--out", str(tmp_path / "c")]) == 0
    report = json.loads(read(tmp_path / "s" / "report.json"))
    for blob in (report, report["classification"],
                 json.loads(read(tmp_path / "c" / "classification.json"))):
        assert (blob["reference_mu"], blob["data_on_family"]) == (mu, on_family)


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
    (["--r-end", "0.0005"], "r_end must exceed the start radius 0.001, got 0.0005"),
])
def test_non_finite_shooting_data_exit_3(flags, message, tmp_path, capsys):
    # +inf data once skipped the m = 2 integration and wrote a verdict
    argv = ["classify", "--m", "2", "--u0", LOG2, *flags, "--out", str(tmp_path)]
    assert run(argv) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "classification.json").exists()


@pytest.mark.parametrize("command", ["shoot", "represent", "classify"])
@pytest.mark.parametrize("flags, message", [
    (["--m", "2"], "--u0 (with --d2/--d4/--d6) or --laplacians is required"),
    # the derivative flags stop at --d6, so m >= 5 needs --laplacians
    (["--m", "5", "--u0", "0"], "--u0/--d2/--d4/--d6 give 4 of the 5 values m = 5 needs; "
                                "use --laplacians"),
    (["--m", "2", "--laplacians", "0.1"], "--laplacians must hold 2 values for m = 2, got 1"),
    (["--m", "1", "--laplacians", "0,1"], "--laplacians must hold 1 values for m = 1, got 2"),
    # a derivative flag that m does not take is no silent no-op
    (["--m", "2", "--u0", LOG2, "--d2", "-3", "--d4", "5"],
     "--d4 is not initial data for m = 2, which takes --u0/--d2"),
    (["--m", "1", "--u0", "0", "--d2", "7"],
     "--d2 is not initial data for m = 1, which takes --u0"),
    (["--m", "2", "--u0", "5", "--laplacians", f"{LOG2},-8"],
     "--u0 and --laplacians exclude each other"),
])
def test_missing_initial_data_exits_2(command, flags, message, tmp_path, capsys):
    # a usage error names the flag and writes nothing; it is no numerical failure
    out = tmp_path / "out"
    assert run([command, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"usage error: {message}" in err
    assert "numerical failure" not in err
    assert not out.exists()


def test_non_numeric_laplacians_exit_2(tmp_path, capsys):
    assert run(["classify", "--m", "2", "--laplacians", "0.7,x", "--out", str(tmp_path)]) == 2
    assert "--laplacians" in capsys.readouterr().err


def test_m5_data_through_laplacians_run(tmp_path):
    # the route the m >= 5 usage error points to does run
    assert run(["shoot", "--m", "5", "--laplacians", "0,-1,0,0,0", "--r-end", "2",
                "--out", str(tmp_path)]) == 0
    assert json.loads(read(tmp_path / "report.json"))["termination"] == "reached_end"
