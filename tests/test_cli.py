import json
import math
import subprocess
import sys

import pytest

from renyi_lab.cli import main

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


def test_rate_csv_and_determinism(tmp_path, capsys, monkeypatch):
    argv = ["rate", "--model", "uniform", "--distance", "chi2",
            "--n", "8,16,32"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("RENYI_LAB_THREADS", "1")
    assert main(argv + ["--out", str(a)]) == 0
    monkeypatch.setenv("RENYI_LAB_THREADS", "4")
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert lines[0] == ("n,value,tail_bound,fitted_constant,"
                       "predicted_constant,relative_gap")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["predicted_constant"]) == 0.06
    assert float(row["relative_gap"]) < 0.05
    capsys.readouterr()


def test_rate_refuses_oversized_chain(capsys):
    code, out, err = run(capsys, "rate", "--model", SKEWED, "--distance", "kl",
                         "--n", "16,4096")
    assert code == 1
    assert out == ""
    assert "n = 4096" in err and "cap" in err


def test_rate_bad_n_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--model", "uniform", "--n", "8,x"])
    assert exc.value.code == 3
    capsys.readouterr()


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


def test_edgeworth_requires_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["edgeworth"])
    assert exc.value.code == 3
    capsys.readouterr()


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


def test_check_clt_dinf_exit_codes(capsys):
    code, out, _ = run(capsys, "check-clt-dinf", "--model", "sin_power")
    assert code == 0
    code, out, _ = run(capsys, "check-clt-dinf", "--model", "counterexample_30_4")
    assert code == 1
    report = json.loads(out)
    assert any(abs(t - math.pi / 6.0) < 1e-6 for t in report["zero_set"])


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


def test_unknown_model_exits_1(capsys):
    code, _, err = run(capsys, "dist", "--model", "cauchy")
    assert code == 1
    assert "error" in err


def test_cli_import_skips_scipy_signal():
    code = "import sys, renyi_lab.cli; sys.exit('scipy.signal' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


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
