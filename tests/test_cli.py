import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ruinvest import cli
from ruinvest.cli import main, parse_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _read_csv_column(path, name):
    lines = [l for l in Path(path).read_text().splitlines()
             if l and not l.startswith("#")]
    header = lines[0].split(",")
    i = header.index(name)
    return [row.split(",")[i] for row in lines[1:]]


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# SHA-256 of the Monte Carlo artifacts of the tests below, measured at commit
# e2e3582 with numpy 2.4.6 and scipy 1.17.1; engine speedups keep these bytes.
# example1-verify was re-recorded when `expected` moved from PCHIP to the
# cubic Hermite on (V, V'); its MC columns kept their bytes.  The feedback
# rows of example1-verify and example1-compare were re-drawn when Radau took
# over the interior march, when it took over every regime and when the march
# came to start at X0 = 1e-6 (the policy's fingerprint hashes the curve's nodes)
MC_SHA256 = {
    "oracle-verify": "ba00f140eb23b3ab42edb7f3530dbc9f4df0ed332d4717eea46b805a2db82f5e",
    "example1-verify": "75e9f960a0f0502019636383aa4c37fea47f92311343ed95365a600fbe110ffb",
    "example1-compare": "d94ec2ad73abee39b5101d58fe59ced1bc3c67e942f4110b08f877424eaf4d68",
}

# SHA-256 of the other artifacts the tests below write, measured at commit
# 173c333 with numpy 2.4.6 and scipy 1.17.1; policy solves its own curve, so
# policy.csv and policy.json do not depend on what an earlier solve left in the
# output directory.  example1-curve.json,
# example1-policy.csv and example1-verify.json were re-recorded when Radau
# took over the interior march, with example1-policy.json when it took over
# every regime, and all five when the march came to start at X0 = 1e-6
ARTIFACT_SHA256 = {
    "example1-curve.json": "0f9e9d6fe1a6fe4702509d5271207f0bd4493a8344276f274e621f32f634cca0",
    "example1-policy.csv": "087ddcf3281766c25efaba6ef0006afdfc42cf4982fc9085ba6abc872d9e759a",
    "example1-policy.json": "ce7c62e9f9924cab9dd1e83b04e6351cdfa390782616835dd0ce32d6a1be4164",
    "example1-verify.json": "1517f1a5ab282626e9b54c7bdf5f3104509ef94b9481d7b3281ec1d33d078153",
    "xmax-abort.json": "a9f44f55cb45a322aa59f183b5aa95f04381e67bfcdb8c2660f4e0dc0579f060",
}


def test_parse_config_example1():
    cfg = parse_config(CONFIGS / "example1.cfg")
    assert cfg["c"] == "0.02"
    assert cfg["claim.kind"] == "exponential"


def test_parse_config_rejects_unknown_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("c = 0.02\nbogus = 1\n")
    with pytest.raises(ValueError):
        parse_config(bad)


def test_parse_config_rejects_missing_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("c = 0.02\n")
    with pytest.raises(ValueError):
        parse_config(bad)


def test_solve_writes_artifacts(tmp_path):
    rc = main(["solve", "--config", str(CONFIGS / "example1.cfg"),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "curve.csv").exists()
    sidecar = json.loads((tmp_path / "curve.json").read_text())
    assert [s["regime"] for s in sidecar["segments"]] == ["A", "B", "A", "INT"]
    assert "manifest" in sidecar
    header = [l for l in (tmp_path / "curve.csv").read_text().splitlines()
              if not l.startswith("#")][0]
    assert header == "x,V,Vp,Vpp,J,phi,theta_star,regime"
    assert _sha256(tmp_path / "curve.json") == ARTIFACT_SHA256["example1-curve.json"]


def test_solve_deterministic_bytes(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        assert main(["solve", "--config", str(CONFIGS / "example3.cfg"),
                     "--out-dir", str(d)]) == 0
    assert (d1 / "curve.csv").read_bytes() == (d2 / "curve.csv").read_bytes()


@pytest.mark.parametrize("solve_extra",
                         [[], ["--n-paths", "5", "--threads", "2", "--seed", "1"]],
                         ids=["same-options", "other-sim-options"])
def test_policy_roundtrip_no_drift(tmp_path, solve_extra):
    # cmd_policy solves as cmd_solve does: identical theta_star columns; the
    # simulation options and the seed do not change the curve
    assert main(["solve", "--config", str(CONFIGS / "example1.cfg"),
                 "--out-dir", str(tmp_path)] + solve_extra) == 0
    assert main(["policy", "--config", str(CONFIGS / "example1.cfg"),
                 "--out-dir", str(tmp_path)]) == 0
    th_curve = _read_csv_column(tmp_path / "curve.csv", "theta_star")
    th_policy = _read_csv_column(tmp_path / "policy.csv", "theta_star")
    assert th_curve == th_policy
    for name in ("policy.csv", "policy.json"):
        assert _sha256(tmp_path / name) == ARTIFACT_SHA256[f"example1-{name}"]


def test_policy_resolves_stale_curve(tmp_path):
    # a curve.csv solved from another config is not reused
    assert main(["solve", "--config", str(CONFIGS / "example1.cfg"),
                 "--out-dir", str(tmp_path)]) == 0
    assert main(["policy", "--config", str(CONFIGS / "example3.cfg"),
                 "--out-dir", str(tmp_path)]) == 0
    fresh = tmp_path / "fresh"
    assert main(["solve", "--config", str(CONFIGS / "example3.cfg"),
                 "--out-dir", str(fresh)]) == 0
    th_policy = _read_csv_column(tmp_path / "policy.csv", "theta_star")
    assert th_policy == _read_csv_column(fresh / "curve.csv", "theta_star")
    meta = json.loads((tmp_path / "policy.json").read_text())
    assert len(meta["switch_points"]) == 1  # example 3: B then INT


@pytest.mark.parametrize("before", [None, "example1", "example3"],
                         ids=["empty-dir", "matching-solve", "other-solve"])
def test_policy_bytes_pinned(tmp_path, before):
    # policy writes the same bytes whatever an earlier solve left beside it
    if before is not None:
        assert main(["solve", "--config", str(CONFIGS / f"{before}.cfg"),
                     "--out-dir", str(tmp_path)]) == 0
    assert main(["policy", "--config", str(CONFIGS / "example1.cfg"),
                 "--out-dir", str(tmp_path)]) == 0
    for name in ("policy.csv", "policy.json"):
        assert _sha256(tmp_path / name) == ARTIFACT_SHA256[f"example1-{name}"]


# SHA-256 of `ruinvest solve` curve.csv with default options, measured with
# numpy 2.4.6 and scipy 1.17.1 (identical in two separate processes); the
# solver refactors keep these bytes.  Re-recorded when Radau took over the
# interior march in (w, L, V) (V_inf moved by at most 1.9e-10 relative), and
# when it took over every regime (V_inf moved by at most 1.7e-10, the switch
# points by up to 8.1e-8 relative, toward an rtol 1e-13 reference), and when
# the march came to start at X0 = 1e-6 from three Taylor terms (V_inf moved by
# at most 1.6e-11)
CURVE_SHA256 = {
    "example1": "e238231f93d9b9fad80c72ee7011b58dc433e14141caab52620d69aac17c1def",
    "example2": "aebc30c19c6416b142a3d3f2dfb9bf52497b50f6ce1029d3ca6b85bde8a2d165",
    "example3": "2fed5018c59d1c2ee03ef08d3f9d28df8acd5f8e569351b6aa195aee7021c53d",
}


@pytest.mark.parametrize("name", sorted(CURVE_SHA256))
def test_solve_curve_bytes_pinned(tmp_path, name):
    assert main(["solve", "--config", str(CONFIGS / f"{name}.cfg"),
                 "--out-dir", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "curve.csv").read_bytes()).hexdigest()
    assert digest == CURVE_SHA256[name]


def test_policy_thresholds_example1(tmp_path):
    assert main(["policy", "--config", str(CONFIGS / "example1.cfg"),
                 "--out-dir", str(tmp_path)]) == 0
    text = (tmp_path / "policy.csv").read_text()
    assert f"# threshold extreme_bound = {40.0/19.0:.17g}" in text
    meta = json.loads((tmp_path / "policy.json").read_text())
    assert len(meta["switch_points"]) == 3
    for name in ("policy.csv", "policy.json"):
        assert _sha256(tmp_path / name) == ARTIFACT_SHA256[f"example1-{name}"]


def test_policy_thresholds_omitted_for_equal_bounds(tmp_path):
    cfg = tmp_path / "ab.cfg"
    cfg.write_text("c = 0.02\nlambda = 0.09\nmu = 0.02\nr = 0.015\nsigma = 0.1\n"
                   "a = 2\nb = 2\nclaim.kind = exponential\nclaim.mean = 1\n")
    assert main(["policy", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert "extreme_bound" not in (tmp_path / "policy.csv").read_text()


def test_policy_equal_rates_emits_bang_bang(tmp_path):
    cfg = tmp_path / "eq.cfg"
    cfg.write_text("c = 0.02\nlambda = 0.09\nmu = 0.015\nr = 0.015\nsigma = 0.1\n"
                   "a = 1\nb = 20\nclaim.kind = exponential\nclaim.mean = 1\n")
    assert main(["policy", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    thetas = {float(v) for v in _read_csv_column(tmp_path / "policy.csv", "theta_star")}
    assert thetas <= {0.0, 1.0, -20.0}


def test_validation_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("c = 0.02\nlambda = 0.09\nmu = 0.02\nr = 0.015\nsigma = 0.1\n"
                   "a = 1\nb = 0\nclaim.kind = exponential\nclaim.mean = 1\n")
    assert main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1


def test_non_finite_parameter_is_a_validation_failure(tmp_path, capsys):
    # sigma = nan used to pass validation and end as a solver abort (exit 2)
    # saying the start regime is not optimal at X0
    cfg = tmp_path / "nan.cfg"
    cfg.write_text((CONFIGS / "example1.cfg").read_text().replace("sigma = 0.1", "sigma = nan"))
    assert main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    assert "sigma must be finite" in capsys.readouterr().err
    assert not (tmp_path / "abort.json").exists()


def test_solver_abort_exit_code_and_artifact(tmp_path, capsys):
    # x_max below the march's start x_eps = 1e-6: exit 2 with abort.json, no curve
    rc = main(["solve", "--config", str(CONFIGS / "example1.cfg"),
               "--out-dir", str(tmp_path), "--xmax", "5e-7"])
    assert rc == 2
    assert not (tmp_path / "curve.csv").exists()
    abort = json.loads((tmp_path / "abort.json").read_text())
    assert abort["diagnostics"] == {"x_max": 5e-7, "x_eps": 1e-6}
    assert abort["manifest"]["subcommand"] == "solve"
    assert abort["manifest"]["options"]["xmax"] == 5e-7
    assert capsys.readouterr().err.startswith("solver abort: x_max=5e-07")
    assert _sha256(tmp_path / "abort.json") == ARTIFACT_SHA256["xmax-abort.json"]


def test_oracle_mode_verify(tmp_path):
    rc = main(["verify", "--config", str(CONFIGS / "oracle.cfg"),
               "--out-dir", str(tmp_path), "--oracle-mode",
               "--n-paths", "20000", "--seed", "77"])
    assert rc == 0
    lines = [l for l in (tmp_path / "verify.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert lines[0] == "x0,expected,p_hat,ci_half,pass"
    assert all(row.split(",")[-1] == "1" for row in lines[1:])
    assert _sha256(tmp_path / "verify.csv") == MC_SHA256["oracle-verify"]


def test_oracle_mode_noisy_gate_scales(tmp_path):
    # few paths widen the interval; the 2-CI gate still passes
    rc = main(["verify", "--config", str(CONFIGS / "oracle.cfg"),
               "--out-dir", str(tmp_path), "--oracle-mode",
               "--n-paths", "400", "--seed", "77"])
    assert rc == 0


def test_solve_refuses_oracle_mode(tmp_path):
    rc = main(["solve", "--config", str(CONFIGS / "oracle.cfg"),
               "--out-dir", str(tmp_path), "--oracle-mode"])
    assert rc == 1


def test_verify_example1_small_sample(tmp_path):
    rc = main(["verify", "--config", str(CONFIGS / "example1.cfg"),
               "--out-dir", str(tmp_path), "--n-paths", "3000", "--seed", "77"])
    assert rc == 0
    lines = [l for l in (tmp_path / "verify.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "5", "10"]
    assert _sha256(tmp_path / "verify.csv") == MC_SHA256["example1-verify"]
    rows = json.loads((tmp_path / "verify.json").read_text())["rows"]
    assert all(r["path_steps"] > r["iterations"] > 0 for r in rows)
    assert _sha256(tmp_path / "verify.json") == ARTIFACT_SHA256["example1-verify.json"]


def test_verify_refuses_x0_beyond_curve(tmp_path, monkeypatch, capsys):
    # at --xmax 5 the curve ends at x = 5 with an open tail, so V/V_inf at
    # x0 = 10 is V(5)/V(5) = 1: verify refuses before simulating
    def no_simulation(*args, **kwargs):
        raise AssertionError("verify simulated a curve it cannot check")
    monkeypatch.setattr(cli, "estimate_survival", no_simulation)
    rc = main(["verify", "--config", str(CONFIGS / "example1.cfg"), "--out-dir", str(tmp_path),
               "--xmax", "5", "--n-paths", "2000", "--seed", "3"])
    assert rc == 1
    assert not (tmp_path / "verify.csv").exists()
    assert capsys.readouterr().err == ("cannot verify: x0 up to 10, last node x=5, tail mode "
                                       "open; V/V_inf is no survival probability there, raise "
                                       "--xmax\n")


def _refuse_constant(name):
    raise ValueError(f"{name} is no JSON value")


@pytest.mark.parametrize("xmax, mode", [("3", "open"), ("4.5", "open"), (None, "converged")],
                         ids=["xmax-3", "xmax-4.5", "default"])
def test_curve_sidecar_is_strict_json(tmp_path, xmax, mode):
    # an open tail has no bound: null, never Infinity, which strict parsers refuse
    rc = main(["solve", "--config", str(CONFIGS / "example1.cfg"), "--out-dir", str(tmp_path)]
              + ([f"--xmax={xmax}"] if xmax else []))
    assert rc == 0
    text = (tmp_path / "curve.json").read_text()
    tail = json.loads(text, parse_constant=_refuse_constant)["tail"]
    assert tail["mode"] == mode
    assert (tail["tail_mass_bound"] is None) == (mode == "open")
    assert ('"tail_mass_bound": null' in text) == (mode == "open")


@pytest.mark.parametrize("cmd", ["verify", "compare"])
@pytest.mark.parametrize("n_paths", ["0", "-5"])
def test_path_count_below_one_refused(tmp_path, capsys, cmd, n_paths):
    out = tmp_path / "out"
    rc = main([cmd, "--config", str(CONFIGS / "example1.cfg"), "--out-dir", str(out),
               "--n-paths", n_paths])
    assert rc == 1
    assert not out.exists()  # refused before anything is solved or written
    assert capsys.readouterr().err == f"--n-paths must be at least 1, got {n_paths}\n"


@pytest.mark.parametrize("cmd", ["verify", "compare"])
@pytest.mark.parametrize("flag, value, floor", [("--threads", "0", 1), ("--threads", "-3", 1),
                                                ("--seed", "-1", 0)])
def test_thread_count_or_seed_below_floor_refused(tmp_path, capsys, cmd, flag, value, floor):
    # refused with the flag named, before anything is solved or written
    out = tmp_path / "out"
    rc = main([cmd, "--config", str(CONFIGS / "example1.cfg"), "--out-dir", str(out),
               "--n-paths", "64", f"{flag}={value}"])
    assert rc == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"{flag} must be at least {floor}, got {value}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "nan", "--tol must be finite and positive, got nan"),
    ("--tol", "inf", "--tol must be finite and positive, got inf"),
    ("--tol", "-1", "--tol must be finite and positive, got -1.0"),
    ("--tol", "0", "--tol must be finite and positive, got 0.0"),
    ("--tol", "1e-15", "--tol must be at least 100 eps (2.22e-14), got 1e-15"),
    ("--xmax", "nan", "--xmax must be a number, got nan"),
    ("--xmax", "inf", "--xmax must be finite, got inf"),
    ("--xmax", "-inf", "--xmax must be finite, got -inf"),
], ids=["tol-nan", "tol-inf", "tol-negative", "tol-zero", "tol-tiny", "xmax-nan", "xmax-inf",
        "xmax-neg-inf"])
def test_bad_tolerance_or_xmax_refused(tmp_path, capsys, flag, value, message):
    # refused with the flag named, before anything is solved, written or warned;
    # "--flag=value", as argparse takes "-inf" for an option otherwise
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(CONFIGS / "example1.cfg"), "--out-dir", str(out),
               f"{flag}={value}"])
    assert rc == 1
    assert not out.exists()
    assert capsys.readouterr().err == message + "\n"


# solve, policy and a small verify on example 1, then a general law's validation
SCIPY_PROBE = """
import json, sys
import numpy as np
from ruinvest.cli import main
from ruinvest.model import GeneralClaims, ModelParams, validate
cfg, out = sys.argv[1:]
codes = [main([cmd, "--config", cfg, "--out-dir", out, *extra]) for cmd, extra in
         (("solve", []), ("policy", []), ("verify", ["--n-paths", "64"]))]
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
law = GeneralClaims(pdf=lambda s: np.exp(-s), cdf=lambda s: 1 - np.exp(-s), mean=1.0)
ok = validate(ModelParams(0.02, 0.09, 0.02, 0.015, 0.1, 1.0, 20.0), law).ok
print(json.dumps({"codes": codes, "scipy": loaded, "general_ok": ok,
                  "quad": "scipy.integrate" in sys.modules}))
"""


def test_exponential_commands_import_no_scipy(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(CONFIGS / "example1.cfg"),
                          str(tmp_path)], capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])
    assert got["codes"][:2] == [0, 0] and got["codes"][2] in (0, 3)
    assert got["scipy"] == []
    assert got["general_ok"] and got["quad"]  # a general law is still integrated by quad


@pytest.mark.slow
def test_compare_emits_all_policies(tmp_path):
    rc = main(["compare", "--config", str(CONFIGS / "example1.cfg"),
               "--out-dir", str(tmp_path), "--n-paths", "1000", "--seed", "7"])
    assert rc == 0
    policies = set(_read_csv_column(tmp_path / "compare.csv", "policy"))
    assert {"feedback-optimal", "const(a)", "const(-b)", "const(0)",
            "noshort-clamped", "noshort-resolved"} <= policies


@pytest.mark.slow
def test_compare_bytes_pinned(tmp_path):
    rc = main(["compare", "--config", str(CONFIGS / "example1.cfg"),
               "--out-dir", str(tmp_path), "--n-paths", "512", "--seed", "5"])
    assert rc == 0
    assert _sha256(tmp_path / "compare.csv") == MC_SHA256["example1-compare"]
