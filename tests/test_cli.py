import json
import math
import subprocess
import sys
import threading
import warnings

import pytest

from renyi_lab import grids
from renyi_lab.cli import ExperimentConfig, main, run_experiment
from renyi_lab.divergences import renyi_tsallis
from renyi_lab.grids import gaussian_grid, normalized_sum_density
from renyi_lab.models import ModelSpec, make_model

SKEWED = '{"kind": "bernoulli_gauss", "params": {"p": 0.2, "beta": 1.127}}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_zoo_list(capsys):
    code, out, _ = run(capsys, "zoo", "list")
    assert code == 0
    for kind in ("normal", "uniform", "bernoulli_sym", "bernoulli_asym",
                 "bernoulli_sum", "gauss_scale_mixture", "power_density",
                 "bernoulli_gauss", "trig_periodic", "sin_power",
                 "counterexample_30_4"):
        assert f"{kind}:" in out, kind


def test_zoo_describe(capsys):
    code, out, _ = run(capsys, "zoo", "--model", "uniform")
    assert code == 0
    info = json.loads(out)
    assert info["name"] == "uniform"
    assert info["has_density"] and info["has_log_laplace"]
    assert abs(info["cumulants"][1] - 1.0) < 1e-12


def test_dist_csv_columns(capsys):
    code, out, _ = run(capsys, "dist", "--model", "uniform", "--n", "8",
                       "--alpha", "1,2,inf")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,D_alpha,T_alpha,tail_bound"
    assert len(lines) == 4
    rows = {float(l.split(",")[0]): [float(v) for v in l.split(",")[1:]]
            for l in lines[1:]}
    # KL row has D = T; all distances positive and alpha-monotone
    assert rows[1.0][0] == rows[1.0][1]
    assert 0.0 < rows[1.0][0] < rows[2.0][0] < rows[math.inf][0]


def test_dist_json(capsys):
    code, out, _ = run(capsys, "dist", "--model", "uniform", "--n", "4", "--json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["alpha"] == 2.0 and rows[0]["T_alpha"] > 0.0


def test_rate_csv_and_determinism(tmp_path, capsys):
    argv = ["rate", "--model", "uniform", "--distance", "chi2",
            "--n", "8,16,32"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert lines[0] == ("n,value,tail_bound,fitted_constant,"
                       "predicted_constant,relative_gap")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["predicted_constant"]) == 0.06
    assert float(row["relative_gap"]) < 0.05
    capsys.readouterr()


def test_rate_chi2_reports_its_tail_bound(capsys):
    # beyond +-12 uniform's p_16 is 0, so (p - q)^2 / q is the normal's
    # own tail there, 2 Phi(-12) ~ 3.6e-33
    code, out, _ = run(capsys, "rate", "--model", "uniform", "--distance", "chi2",
                       "--n", "16,32")
    assert code == 0
    row = dict(zip(*[line.split(",") for line in out.splitlines()[:2]]))
    assert row["n"] == "16" and 1e-33 < float(row["tail_bound"]) < 1e-32


def test_rate_renyi_constant_scales_with_alpha(capsys):
    # T_alpha ~ (alpha/2) chi^2: uniform has gamma4^2/24 = 0.06, so 0.09 at alpha 3
    code, out, _ = run(capsys, "rate", "--model", "uniform", "--distance", "renyi",
                       "--alpha-value", "3", "--n", "16,32,64")
    assert code == 0
    row = dict(zip(*[line.split(",") for line in out.splitlines()[:2]]))
    assert float(row["predicted_constant"]) == 0.09
    assert float(row["relative_gap"]) < 0.02
    # alpha = inf is T_inf, which has no expansion constant
    argv = ["rate", "--model", "uniform", "--n", "16,32"]
    _, renyi_inf, _ = run(capsys, *argv, "--distance", "renyi", "--alpha-value", "inf")
    _, tinf, _ = run(capsys, *argv, "--distance", "tinf")
    assert renyi_inf == tinf and ",nan,nan" in tinf


def test_rate_renyi_matches_renyi_tsallis_per_n():
    # each n builds its own (p, q) pair; the supports kept on them for
    # the order scan must not leak between the ns of one pass
    ns = (4, 8, 16, 32)
    rows = run_experiment(ExperimentConfig(ModelSpec("uniform", {}), "renyi", ns, alpha=3.0))
    uniform = make_model(ModelSpec("uniform", {}))
    for n, row in zip(ns, rows):
        p = normalized_sum_density(uniform, n)
        _, t = renyi_tsallis(p, gaussian_grid(p), 3.0)
        assert row[:3] == (n, t.value, t.tail_bound)


def test_rate_runs_on_the_calling_thread(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("rate started a thread")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, out, err = run(capsys, "rate", "--model", "uniform", "--n", "2,4")
    assert code == 0 and err == "" and len(out.splitlines()) == 3


def test_rate_leaves_concurrent_futures_unloaded():
    code = """
import contextlib, io, sys
import renyi_lab.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert renyi_lab.cli.main(["rate", "--model", "uniform", "--n", "2,4"]) == 0
sys.exit("concurrent.futures" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["dist", "--model", "uniform", "--n", "2", "--alpha", "2,nan"],
    ["rate", "--model", "uniform", "--distance", "renyi", "--alpha-value", "nan", "--n", "2,4"],
])
def test_nan_order_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("renyi-lab: error:") and err.count("\n") == 1


def test_experiment_config_refuses_nan_alpha():
    with pytest.raises(ValueError, match="NaN"):
        ExperimentConfig(model=ModelSpec("uniform", {}), distance="renyi",
                         n_values=(2, 4), alpha=math.nan)


def test_rate_refuses_oversized_chain(capsys, monkeypatch):
    # halved chain arrays stay near 80 * 8192 nodes at any n on the
    # default grid, so only a smaller cap refuses the pass
    monkeypatch.setattr(grids, "CHAIN_MAX_POINTS", 1 << 19)
    code, out, err = run(capsys, "rate", "--model", SKEWED, "--distance", "kl",
                         "--n", "16,262144")
    assert code == 1
    assert out == ""
    assert "n = 262144" in err and "cap" in err


def test_rate_reaches_n_4096_on_skewed(capsys):
    # the windowed chain's arrays grow like sqrt(n), so n = 4096 fits the
    # cap; n KL tends to gamma3^2 / 12
    code, out, _ = run(capsys, "rate", "--model", SKEWED, "--distance", "kl",
                       "--n", "2048,4096")
    assert code == 0
    rows = [dict(zip(out.splitlines()[0].split(","), line.split(",")))
            for line in out.splitlines()[1:]]
    assert rows[-1]["n"] == "4096"
    n_kl = 4096 * float(rows[-1]["value"])
    assert abs(n_kl / float(rows[-1]["predicted_constant"]) - 1.0) < 1e-4


@pytest.mark.parametrize("spec, distance, predicted, gap", [
    # variance 3: gamma4 = -12/9, and KL -> gamma4^2/48 = 1/27
    ('{"kind": "power_density", "params": {"d": 1}}', "kl", 1.0 / 27.0, 3e-3),
    ('{"kind": "power_density", "params": {"d": 1}}', "chi2", 2.0 / 27.0, 3e-3),
    # variance 1.1, gamma4 = 3 (m - v^2) / v^2 with m = 1.46
    ('{"kind": "gauss_scale_mixture", "params": {"atoms": [[0.5, 0.6], [0.5, 1.6]]}}',
     "kl", (3.0 * (1.46 - 1.21) / 1.21) ** 2 / 48.0, 1.5e-3),
    ('{"kind": "gauss_scale_mixture", "params": {"atoms": [[0.5, 0.6], [0.5, 1.6]]}}',
     "chi2", (3.0 * (1.46 - 1.21) / 1.21) ** 2 / 24.0, 5e-4)],
    ids=["power-kl", "power-chi2", "mixture-kl", "mixture-chi2"])
def test_rate_standardizes_by_the_model_variance(capsys, spec, distance, predicted, gap):
    code, out, _ = run(capsys, "rate", "--model", spec, "--distance", distance,
                       "--n", "16,32,64,128", "--grid", "12x4096")
    assert code == 0
    row = dict(zip(*[line.split(",") for line in out.splitlines()[:2]]))
    assert math.isclose(float(row["predicted_constant"]), predicted, rel_tol=1e-11)
    assert float(row["relative_gap"]) < gap


def test_rate_on_a_scaled_normal_is_zero(capsys):
    # S_n/(sigma sqrt(n)) is exactly N(0, 1); unstandardized, KL tends to
    # KL(N(0, 2) || N(0, 1)) = 0.153
    code, out, _ = run(capsys, "rate", "--model", '{"kind": "normal", "params": {"sigma2": 2}}',
                       "--distance", "kl", "--n", "16,32")
    assert code == 0
    assert all(float(line.split(",")[1]) < 1e-12 for line in out.splitlines()[1:])


def test_rate_refuses_a_model_without_variance(capsys, monkeypatch):
    import renyi_lab.models as models
    from renyi_lab.grids import AnalyticModel
    uniform = models.make_model(ModelSpec("uniform", {}))
    monkeypatch.setattr(models, "make_model", lambda spec: AnalyticModel(
        name="unscaled", density=uniform.density, cdf=uniform.cdf))
    code, out, err = run(capsys, "rate", "--model", "uniform", "--n", "2,4")
    assert code == 1 and out == ""
    assert "no positive variance" in err


@pytest.mark.parametrize("grid", ["nanx16384", "infx16384", "0x16384", "12x100", "12x8"])
def test_invalid_grid_exits_3(capsys, monkeypatch, grid):
    # refused by the parser, before any model is built
    import renyi_lab.models as models
    message = ("points must be a power of two, at least 16" if grid.startswith("12x")
               else "half_width must be positive and finite")

    def unbuilt(spec):
        raise AssertionError("the model was built")
    monkeypatch.setattr(models, "make_model", unbuilt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--model", "uniform", f"--grid={grid}"])
    assert exc.value.code == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"renyi-lab dist: error: argument --grid: {message}\n"


@pytest.mark.parametrize("grid", ["wide", "12x", "x16384"])
def test_grid_that_is_not_wxn_exits_3(capsys, grid):
    # the message says what a grid is, not which function failed to parse it
    with pytest.raises(SystemExit) as exc:
        main(["dist", "--model", "uniform", f"--grid={grid}"])
    assert exc.value.code == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "renyi-lab dist: error: argument --grid: grid must be WxN, e.g. 8x4096\n"


def test_rate_bad_n_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--model", "uniform", "--n", "8,x"])
    assert exc.value.code == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv, flag", [
    (["check-subgauss", "--model", "uniform", "--t0", "0"], "--t0"),
    (["check-subgauss", "--model", "uniform", "--t0", "-1"], "--t0"),
    (["check-subgauss", "--model", "uniform", "--t0", "nan"], "--t0"),
    (["check-subgauss", "--model", "uniform", "--t0", "inf"], "--t0"),
    (["check-subgauss", "--model", "uniform", "--t0", "0.5,abc"], "--t0"),
    (["check-subgauss", "--model", "uniform", "--t0", ","], "--t0"),
    (["dist", "--model", "uniform", "--alpha", ","], "--alpha"),
    (["dist", "--model", "uniform", "--alpha", "abc"], "--alpha"),
    (["edgeworth", "--gammas", "0,1,0.6,0.4", "--m", "2"], "--m"),
    (["edgeworth", "--gammas", "0,1,0.6,0.4", "--m", "-5"], "--m"),
    (["edgeworth", "--gammas", "abc"], "--gammas"),
    (["rate", "--model", "uniform", "--n", ","], "--n"),
    (["rate", "--model", "uniform", "--n", "abc"], "--n"),
    (["dist", "--model", "uniform", "--n", "0"], "--n"),
    (["dist", "--model", "uniform", "--n", "-2"], "--n"),
    (["rate", "--model", "uniform", "--n", "0,4"], "--n"),
    (["dist", "--model", "uniform", "--alpha", "-1"], "--alpha"),
    (["dist", "--model", "uniform", "--alpha", "0"], "--alpha"),
    (["rate", "--model", "uniform", "--alpha-value", "-1"], "--alpha-value"),
    (["hermite", "--model", "uniform", "--k", "-1"], "--k"),
])
def test_bad_list_or_order_exits_3_naming_the_flag(capsys, argv, flag):
    # refused by the parser, with a message that says what the flag takes
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"renyi-lab {argv[0]}: error: argument {flag}: expected ")
    assert "invalid" not in out.err and out.err.count("\n") == 1


def test_list_flags_skip_empty_items(capsys):
    # a trailing comma is not an argument error: the output is unchanged
    assert run(capsys, "dist", "--model", "uniform", "--n", "2", "--alpha", "1,2,") == \
        run(capsys, "dist", "--model", "uniform", "--n", "2", "--alpha", "1,2")


def test_rate_decreasing_n_exits_1(capsys):
    code, _, _ = run(capsys, "rate", "--model", "uniform", "--n", "32,16")
    assert code == 1


def test_hermite_output(capsys):
    code, out, _ = run(capsys, "hermite", "--model", "uniform", "--k", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,c_k"
    assert len(lines) == 10
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert vals[0] == 1.0
    assert all(abs(v) < 1e-10 for v in vals[1:4])  # c_1..c_3 vanish


def test_hermite_order_zero_is_c0_alone(capsys):
    # a negative order is refused by the parser (the flag cases above)
    code, out, _ = run(capsys, "hermite", "--model", "uniform", "--k", "0")
    assert code == 0 and out == "k,c_k\r\n0,1\r\n"


def test_hermite_overflow_exits_1(capsys):
    code, out, err = run(capsys, "hermite", "--model",
                         '{"kind": "power_density", "params": {"d": 2}}', "--k", "300")
    assert code == 1
    assert out == ""
    assert "c_266" in err
    assert err.startswith("renyi-lab: error:") and len(err.splitlines()) == 1


def test_edgeworth_gammas(capsys):
    code, out, _ = run(capsys, "edgeworth", "--gammas", "0,1,0.6", "--m", "3",
                       "--json")
    assert code == 0
    rows = {r["degree"]: r["coefficient"] for r in json.loads(out)}
    assert abs(rows[3] - 0.1) < 1e-14
    assert abs(rows[1] + 0.3) < 1e-14


def test_edgeworth_from_a_model_reads_its_cumulants(capsys):
    # uniform's gamma_4 = -6/5 and gamma_6 = 48/7
    from_model = run(capsys, "edgeworth", "--model", "uniform", "--m", "6")
    assert from_model[0] == 0 and from_model[1]
    assert from_model == run(capsys, "edgeworth", "--gammas", "0,1,0,-1.2,0,6.857142857142857",
                             "--m", "6")
    code, out, err = run(capsys, "edgeworth", "--model", "normal", "--m", "4")
    assert (code, out) == (1, "") and "cumulants up to gamma_3 required" in err


def test_edgeworth_requires_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["edgeworth"])
    assert exc.value.code == 3
    capsys.readouterr()


def test_edgeworth_refuses_model_and_gammas(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["edgeworth", "--gammas", "0,1,0.6", "--model", "uniform"])
    assert exc.value.code == 3
    out = capsys.readouterr()
    assert out.out == "" and "not allowed with argument" in out.err


@pytest.mark.parametrize("command", [["hermite", "--model", "uniform"],
                                     ["edgeworth", "--gammas", "0,1,0.6"]])
def test_grid_is_refused_where_it_is_not_read(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--grid", "1x8"])
    assert exc.value.code == 3
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments: --grid 1x8" in out.err


@pytest.mark.parametrize("flags, fmt", [(["--format", "csv", "--json"], "json"),
                                        (["--json", "--format", "csv"], "csv")])
def test_the_last_format_flag_wins(capsys, flags, fmt):
    code, out, _ = run(capsys, "edgeworth", "--gammas", "0,1,0.6", "--m", "3", *flags)
    assert code == 0
    assert out.startswith("[") if fmt == "json" else out.startswith("nu,degree,coefficient")


def test_run_experiment_returns_the_rows_rate_prints(capsys):
    rows = run_experiment(ExperimentConfig(model=ModelSpec("uniform", {}), distance="chi2",
                                           n_values=(2, 4)))
    assert capsys.readouterr().out == ""
    code, out, _ = run(capsys, "rate", "--model", "uniform", "--n", "2,4", "--json")
    assert code == 0
    assert [tuple(r.values()) for r in json.loads(out)] == rows


def test_rate_refuses_a_grid_that_is_not_a_power_of_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--model", "uniform", "--n", "2,4", "--grid", "12x1000"])
    assert exc.value.code == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("renyi-lab rate: error: argument --grid: "
                       "points must be a power of two, at least 16\n")


def test_check_subgauss_exit_codes(capsys):
    code, out, _ = run(capsys, "check-subgauss", "--model", "uniform")
    assert code == 0
    assert json.loads(out)["verdict"] == "holds"
    code, _, _ = run(capsys, "check-subgauss", "--model",
                     '{"kind": "bernoulli_asym", "params": {"p": 0.2}}')
    assert code == 1
    # separation at t0 is inconclusive for the normal itself
    code, out, _ = run(capsys, "check-subgauss", "--model", "normal",
                       "--t0", "1.0")
    assert code == 2
    assert json.loads(out)["verdict"] == "inconclusive"
    # strict fails, and separation is inconclusive only because t0 lies
    # beyond the profile's range: the combined verdict is the worse one
    code, out, _ = run(capsys, "check-subgauss", "--model",
                       '{"kind": "bernoulli_gauss", "params": {"p": 0.2, "beta": 1.127}}',
                       "--t0", "50")
    report = json.loads(out)
    assert report["strict"]["verdict"] == "fails"
    assert report["separation"]["verdict"] == "inconclusive"
    assert report["separation"]["detail"]["reason"] == (
        "no scanned |t| reaches t0 = 50; the profile spans [-40, 40]")
    assert code == 1
    assert report["verdict"] == "fails"


def test_check_clt_dinf_exit_codes(capsys):
    code, out, _ = run(capsys, "check-clt-dinf", "--model", "sin_power")
    assert code == 0
    code, out, _ = run(capsys, "check-clt-dinf", "--model", "counterexample_30_4")
    assert code == 1
    report = json.loads(out)
    assert any(abs(t - math.pi / 6.0) < 1e-6 for t in report["zero_set"])
    # psi = 1 identically: the constant tail holds with no zero set to scan
    code, out, _ = run(capsys, "check-clt-dinf", "--model", "normal")
    report = json.loads(out)
    assert (code, report["verdict"], report["detail"]["reason"]) == (0, "holds",
                                                                     "A identically zero")


BAD_PARAMETERS = {  # id: (kind, params, a phrase the error must contain)
    "zero-weight": ("gauss_scale_mixture", {"atoms": [[0, 0.5]]}, "positive weights"),
    "no-atoms": ("gauss_scale_mixture", {"atoms": []}, "need mixing atoms"),
    "nan-weight": ("gauss_scale_mixture", {"atoms": [[1, 0.5], [math.nan, 0.8]]}, "positive weights"),
    "negative-weight": ("gauss_scale_mixture", {"atoms": [[-1, 0.5], [2, 0.8]]}, "positive weights"),
    "atoms-not-pairs": ("gauss_scale_mixture", {"atoms": 5}, "pairs [weight, s2]"),
    "nan-kappa": ("gauss_scale_mixture", {"kappa": math.nan}, "kappa > 0"),
    "nan-sigma2": ("normal", {"sigma2": math.nan}, "sigma2 must be positive and finite"),
    "inf-sigma2": ("normal", {"sigma2": math.inf}, "sigma2 must be positive and finite"),
    "nan-c": ("sin_power", {"c": math.nan}, "c must be positive"),
    "float-m": ("sin_power", {"m": 4.0}, "m must be an even integer"),
    "float-d": ("power_density", {"d": 1.0}, "d must be the integer"),
    "nan-coefficient": ("trig_periodic", {"a": [math.nan, -1.0]}, "finite coefficients"),
    "nan-weight-sum": ("bernoulli_sum", {"weights": [1.0, math.nan]}, "all finite"),
    "string-sigma2": ("normal", {"sigma2": "1"}, "'normal': parameter 'sigma2' must be numbers"),
    "string-beta": ("bernoulli_gauss", {"p": 0.2, "beta": "1.1"},
                    "'bernoulli_gauss': parameter 'beta' must be numbers"),
    "string-atom": ("gauss_scale_mixture", {"atoms": [["0.5", 0.6], [0.5, 1.4]]},
                    "'gauss_scale_mixture': parameter 'atoms' must be numbers"),
    "boolean-d": ("power_density", {"d": True}, "'power_density': parameter 'd' must be numbers"),
}


@pytest.mark.parametrize("kind, params, phrase", BAD_PARAMETERS.values(), ids=BAD_PARAMETERS)
def test_bad_model_parameters_are_one_error_line(capsys, kind, params, phrase):
    spec = json.dumps({"kind": kind, "params": params})
    for argv in (["zoo", "--model", spec], ["dist", "--model", spec, "--n", "2"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("renyi-lab: error: ") and err.count("\n") == 1, err
        assert phrase in err, err


def test_null_model_parameter_takes_the_default(capsys):
    _, default, _ = run(capsys, "zoo", "--model", "normal")
    nulled = json.dumps({"kind": "normal", "params": {"sigma2": None}})
    assert run(capsys, "zoo", "--model", nulled) == (0, default, "")
    code, _, err = run(capsys, "zoo", "--model", json.dumps(
        {"kind": "bernoulli_gauss", "params": {"p": None, "beta": 1.1}}))
    assert code == 1 and "needs parameter 'p'" in err


def test_zoo_without_model_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zoo", "describe"])
    assert exc.value.code == 3
    assert capsys.readouterr().err.startswith("renyi-lab: error: ")


def test_zoo_refuses_an_unknown_action(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zoo", "frobnicate", "--model", "uniform"])
    assert exc.value.code == 3
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err
    _, described, _ = run(capsys, "zoo", "--model", "uniform")
    assert run(capsys, "zoo", "describe", "--model", "uniform") == (0, described, "")


def test_model_from_file(tmp_path, capsys):
    f = tmp_path / "model.json"
    f.write_text(SKEWED)
    code, out, _ = run(capsys, "zoo", "--model", f"@{f}")
    assert code == 0
    assert json.loads(out)["name"].startswith("bernoulli_gauss")


def test_parse_errors(capsys):
    code, _, _ = run(capsys, "dist", "--model", '{"kind": "uniform"')  # bad JSON
    assert code == 3
    code, _, _ = run(capsys, "zoo", "--model", "@/nonexistent/model.json")
    assert code == 3
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["dist", "--model", "uniform", "--grid", "wide"])
    assert exc.value.code == 3
    capsys.readouterr()


@pytest.mark.parametrize("out", ["/", "/nonexistent/x.csv"], ids=["directory", "missing-dir"])
def test_unwritable_out_is_one_error_line(capsys, out):
    code, stdout, err = run(capsys, "dist", "--model", "uniform", "--out", out)
    assert code == 1 and stdout == ""
    assert err.startswith(f"renyi-lab: error: cannot write {out!r}: ") and err.count("\n") == 1


def test_unreadable_model_file_is_a_parse_error(capsys, tmp_path):
    code, out, err = run(capsys, "dist", "--model", f"@{tmp_path}")
    assert code == 3 and out == ""
    assert err.startswith("renyi-lab: parse error: ") and err.count("\n") == 1


def test_unknown_model_exits_1(capsys):
    code, _, err = run(capsys, "dist", "--model", "cauchy")
    assert code == 1
    assert "error" in err


def test_cli_import_skips_scipy_signal():
    code = "import sys, renyi_lab.cli; sys.exit('scipy.signal' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def _loaded_by(argv):
    """numpy's presence and the renyi_lab modules loaded by importing the
    CLI and running argv (if any) in a fresh interpreter."""
    code = f"""
import contextlib, io, json, sys
import renyi_lab.cli
argv = {argv!r}
if argv:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            renyi_lab.cli.main(argv)
        except SystemExit:
            pass
print(json.dumps(["numpy" in sys.modules,
                  sorted(m for m in sys.modules if m.startswith("renyi_lab."))]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    has_numpy, modules = json.loads(proc.stdout)
    return has_numpy, {m.split(".")[1] for m in modules}


@pytest.mark.parametrize("argv", [[], ["--help"], ["frobnicate"], ["zoo", "frobnicate"],
                                  ["dist"], ["rate"]])
def test_cli_import_and_parse_load_no_numpy(argv):
    assert _loaded_by(argv) == (False, {"cli", "errors", "reports"})


def test_zoo_list_loads_no_numpy():
    # the catalogue is static text: neither numpy nor the models it lists
    assert _loaded_by(["zoo", "list"]) == (False, {"cli", "errors", "reports", "zoo"})


@pytest.mark.parametrize("argv, absent", [
    (["zoo", "--model", "sin_power"], {"grids", "divergences", "hermite", "edgeworth", "subgauss"}),
    (["check-subgauss", "--model", "sin_power"], {"grids", "divergences", "hermite", "edgeworth"}),
    (["check-clt-dinf", "--model", "sin_power"], {"grids", "divergences", "hermite", "edgeworth"}),
    (["rate", "--model", "uniform", "--n", "2,4"], {"subgauss"}),
    # compact support: Gauss-Legendre on [-sqrt3, sqrt3], no grid
    (["hermite", "--model", "uniform"], {"grids", "divergences", "edgeworth", "subgauss"}),
])
def test_commands_load_only_what_they_run(argv, absent):
    _, modules = _loaded_by(argv)
    assert "models" in modules and not modules & absent, modules


def test_edgeworth_from_cumulants_loads_no_grid():
    assert _loaded_by(["edgeworth", "--gammas", "0,1,0.6,0.4", "--m", "4"]) == (
        True, {"cli", "edgeworth", "errors", "hermite", "reports", "zoo"})


@pytest.mark.parametrize("argv", [["dist", "--model", "uniform", "--n", "2"],
                                  ["rate", "--model", "uniform", "--n", "2,4"],
                                  ["hermite", "--model", "normal", "--k", "8"]])
def test_commands_that_build_a_grid_load_grids(argv):
    assert "grids" in _loaded_by(argv)[1]


def test_numeric_profile_loads_the_grid_layer_when_it_runs():
    # the deferred imports of profile's numeric path, in a process where
    # only the checkers and the models are loaded
    code = f"""
import dataclasses, json, sys
from renyi_lab.models import ModelSpec, make_model
from renyi_lab.subgauss import profile
before = "renyi_lab.grids" in sys.modules
spec = json.loads({SKEWED!r})
prof = profile(dataclasses.replace(make_model(ModelSpec(spec["kind"], spec["params"])),
                                   log_laplace=None))
print(json.dumps([before, "renyi_lab.grids" in sys.modules, prof.closed_form,
                  prof.t_max, len(prof.K.y)]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, True, False, 40.0, 1225]


def test_main_leaves_the_collector_alone_and_hooks_exit_once(capsys, monkeypatch):
    # the exit hook freezes the heap only at interpreter shutdown
    import atexit
    import gc
    import renyi_lab.cli as cli
    hooks = []
    monkeypatch.setattr(atexit, "register", hooks.append)
    cli._freeze_heap_at_exit.cache_clear()
    enabled = gc.isenabled()
    for _ in range(2):
        assert run(capsys, "edgeworth", "--gammas", "0,1,0.6,0.4")[0] == 0
        assert gc.isenabled() == enabled and gc.get_freeze_count() == 0
    assert hooks == [gc.freeze]


def test_the_heap_is_frozen_at_exit():
    # a hook registered before main runs after main's (atexit is LIFO)
    code = """
import atexit, contextlib, gc, io, sys
atexit.register(lambda: print(gc.get_freeze_count()))
from renyi_lab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["zoo", "list"])
    main(["zoo", "list"])
print(gc.get_freeze_count())
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    during, at_exit = map(int, proc.stdout.split())
    assert during == 0 and at_exit > 0


@pytest.mark.parametrize("argv, want", [
    (["zoo", "list"], 0),
    (["check-clt-dinf", "--model", "counterexample_30_4"], 1),
    (["check-subgauss", "--model", "normal", "--t0", "1.0"], 2),
    (["dist", "--model", "uniform", "--grid", "wide"], 3),
    (["zoo", "--model", '{"kind": "bernoulli_asym"'], 3),
])
def test_exit_codes_survive_the_exit_hook(argv, want):
    entry = "import sys; from renyi_lab.cli import main; sys.exit(main())"
    proc = subprocess.run([sys.executable, "-c", entry, *argv], capture_output=True, text=True)
    assert proc.returncode == want, proc.stderr


def test_rate_out_file_is_complete_at_exit(tmp_path, capsys):
    out = tmp_path / "rate.csv"
    argv = ["rate", "--model", "uniform", "--n", "16,32,64"]
    entry = "import sys; from renyi_lab.cli import main; sys.exit(main())"
    proc = subprocess.run([sys.executable, "-c", entry, *argv, "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "", proc.stderr
    code, text, _ = run(capsys, *argv)
    assert code == 0 and out.read_bytes() == text.encode()


def test_short_commands_skip_scipy():
    # scipy costs ~0.5 s to import; these commands never call it
    cases = [(["zoo", "list"], 0),
             (["edgeworth", "--gammas", "0,1,0.6,0.4", "--m", "4"], 0),
             (["hermite", "--model", "uniform", "--k", "40"], 0),
             (["check-subgauss", "--model", SKEWED], 1)]
    code = f"""
import contextlib, io, sys
from renyi_lab.cli import main
def loaded():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded(), loaded()
for argv, want in {cases!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        got = main(argv)
    assert got == want, (argv, got)
    assert not loaded(), (argv, loaded())
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_grid_commands_skip_scipy_fft_and_interpolate():
    # the grid layer runs on numpy.fft and its own spline; scipy.fft and
    # scipy.interpolate cost ~0.3 s each to import
    cases = [["dist", "--model", "uniform", "--n", "8"],
             ["rate", "--model", "uniform", "--n", "16,32"]]
    code = f"""
import contextlib, io, sys
from renyi_lab.cli import main
def loaded():
    return [m for m in sys.modules
            if m.split(".")[:2] in (["scipy", "fft"], ["scipy", "interpolate"])]
for argv in {cases!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        got = main(argv)
    assert got == 0, (argv, got)
    assert not loaded(), (argv, loaded())
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


MIXTURE = '{"kind": "gauss_scale_mixture", "params": {"atoms": [[0.5, 0.6], [0.5, 1.4]]}}'
KINDS = {
    "normal": {}, "uniform": {}, "bernoulli_sym": {}, "bernoulli_asym": {"p": 0.3},
    "bernoulli_sum": {"weights": [0.6, 0.8]},
    "gauss_scale_mixture": {"atoms": [[0.5, 0.6], [0.5, 1.4]]},
    "power_density": {"d": 2}, "bernoulli_gauss": {"p": 0.2, "beta": 1.127},
    "trig_periodic": {"a": [4.0, -1.0]}, "sin_power": {}, "counterexample_30_4": {}}


def test_every_command_runs_without_scipy():
    # scipy is a test dependency only: an import finder that refuses it
    # makes any command that still reaches for it fail
    kappa = '{"kind": "gauss_scale_mixture", "params": {"kappa": 1.5, "upper": 1.0}}'
    density_models = ["uniform", SKEWED, '{"kind": "power_density", "params": {"d": 1}}',
                      MIXTURE]
    cases = [(["zoo", "list"], 0)]
    cases += [(["zoo", "--model", json.dumps({"kind": k, "params": v})], 0)
              for k, v in KINDS.items()]
    cases += [(["dist", "--model", m, "--n", "2", "--alpha", "0.5,1,2,inf"], 0)
              for m in density_models]
    cases += [(["rate", "--model", SKEWED, "--distance", "kl", "--n", "2,4"], 0),
              (["rate", "--model", "uniform", "--n", "2,4"], 0),
              (["hermite", "--model", "uniform", "--k", "40"], 0),
              (["edgeworth", "--gammas", "0,1,0.6,0.4", "--m", "4"], 0),
              (["check-subgauss", "--model", "sin_power"], 0),
              (["check-clt-dinf", "--model", "sin_power"], 0),
              (["check-subgauss", "--model", "counterexample_30_4"], 0),
              (["check-clt-dinf", "--model", "counterexample_30_4"], 1),
              (["check-subgauss", "--model", SKEWED], 1),
              (["check-clt-dinf", "--model", SKEWED], 2),
              (["dist", "--model", kappa, "--n", "2"], 0)]
    code = f"""
import contextlib, io, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is refused: " + name)

sys.meta_path.insert(0, RefuseScipy())
from renyi_lab.cli import main
for argv, want in {cases!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        got = main(argv)
    assert got == want, (argv, got)
assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_model_parameter_errors_exit_1(capsys):
    for spec, words in (('{"kind": "bernoulli_asym"}', ("bernoulli_asym", "'p'")),
                        ('{"kind": "uniform", "params": {"p": 0.3}}', ("uniform", "'p'"))):
        code, out, err = run(capsys, "zoo", "--model", spec)
        assert code == 1 and out == ""
        assert err.startswith("renyi-lab: error: ") and err.count("\n") == 1, err
        assert all(w in err for w in words), err


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "renyi_lab.cli", "zoo", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "uniform:" in proc.stdout


def test_module_run_is_warning_free():
    # the package does not import renyi_lab.cli, so runpy finds no stale copy
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "renyi_lab.cli", "zoo", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
