import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import kmslab
from kmslab.cli import main


@pytest.fixture(scope="module")
def schema():
    text = resources.files("kmslab").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def run_cli(args):
    return main(list(args))


def _reject_constant(name):
    raise ValueError(f"report is not strict JSON: it holds {name}")


def load_report(path, schema):
    report = json.loads(path.read_text(), parse_constant=_reject_constant)
    jsonschema.validate(report, schema)
    return report


KMS_CFG = {
    "inequality": "kms_sym",
    "n": 3,
    "grid_size": 8,
    "p": 2.0,
    "operator": "curl_matrix_rowwise",
    "partmap": "sym",
    "trials": 4,
    "seed": 7,
}


CURLVEC = ["--catalog", "curl_vector", "--n", "3"]


@pytest.mark.parametrize(
    "flag,args",
    [
        ("refine", ["verify", "--refine", "16,8"]),
        ("refine", ["verify", "--refine", "8,10,13"]),
        ("refine", ["verify", "--refine", "8,8"]),
        ("refine", ["verify", "--refine", ","]),
        ("refine", ["verify", "--refine", ""]),
        ("refine", ["classify", *CURLVEC, "--complex", "--refine", "-1"]),
        ("grid", ["verify", "--grid", "7"]),
        ("on-kernel-of", ["classify", *CURLVEC, "--on-kernel-of", "sym"]),
        ("tol", ["classify", *CURLVEC, "--tol", "2"]),
        ("samples", ["classify", *CURLVEC, "--samples", "0"]),
        ("A", ["demo", "necessity", "--A", "sym", "--B", "curl_vector"]),
        ("p", ["demo", "necessity", "--A", "tr", "--B", "curl3", "--grid", "8", "--p", "3.5"]),
        ("p", ["demo", "necessity", "--A", "sym", "--B", "curl3", "--grid", "8", "--p", "3.5"]),
        ("points", ["crosscheck", "curl-riesz", "--points", "0"]),
        ("grid", ["crosscheck", "curl-riesz", "--grid", "0"]),
        ("grid", ["crosscheck", "curl-riesz", "--mode", "quadrature", "--grid", "4"]),
        ("grid", ["crosscheck", "curl-riesz", "--mode", "quadrature", "--grid", "6"]),
        ("width", ["crosscheck", "curl-riesz", "--mode", "quadrature", "--width", "-1"]),
        ("width", ["crosscheck", "curl-riesz", "--mode", "symbol", "--width", "-1"]),
        ("seed", ["classify", *CURLVEC, "--seed", "-1"]),
        ("seed", ["verify", "--seed", "-1"]),
        ("seed", ["verify", "--refine", "8", "--seed", "-1"]),
        ("trials", ["verify", "--trials", "-1"]),
    ],
)
def test_bad_flag_value_exit_2_names_it(tmp_path, capsys, flag, args):
    if args[0] == "verify":
        cfg = tmp_path / "kms.cfg"
        cfg.write_text(json.dumps(KMS_CFG))
        args = args[:1] + ["--config", str(cfg)] + args[1:]
    assert run_cli(args) == 2
    assert f"'{flag}'" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, "x"])
def test_bad_config_seed_exit_2_names_it(tmp_path, capsys, seed):
    cfg = tmp_path / "kms.cfg"
    cfg.write_text(json.dumps(dict(KMS_CFG, seed=seed)))
    assert run_cli(["verify", "--config", str(cfg)]) == 2
    assert "'seed'" in capsys.readouterr().err


# "cutoff" is no config key: the random-field cutoff is always M // 4
@pytest.mark.parametrize(
    "key,value",
    [
        ("trials", True),
        ("trials", -1),
        ("cutoff", 4),
        ("sizes", 8),
        ("sizes", []),
        ("n", True),
        ("p", True),
        ("grid_size", True),
    ],
)
def test_bad_config_value_exit_2_names_it(tmp_path, capsys, key, value):
    cfg = tmp_path / "kms.cfg"
    cfg.write_text(json.dumps(dict(KMS_CFG, **{key: value})))
    assert run_cli(["verify", "--config", str(cfg)]) == 2
    assert f"'{key}'" in capsys.readouterr().err


def test_config_p_true_exit_2_names_it(tmp_path, capsys):
    # true == 1 is the p that korn_const_p1 forces, so only the type check rejects it
    doc = dict(KMS_CFG, inequality="korn_const_p1", partmap="tr", p=True)
    cfg = tmp_path / "p1.cfg"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["verify", "--config", str(cfg)]) == 2
    assert "'p'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,changes",
    [
        ("p", {"p": 5.0}),
        ("grid_size", {"grid_size": 7}),
        ("partmap", {"inequality": "korn_const", "operator": "curl_vector", "partmap": "tr"}),
        ("correction", {"correction": True}),
    ],
)
def test_bad_inequality_setting_exit_2_names_its_key(tmp_path, capsys, key, changes):
    cfg = tmp_path / "kms.cfg"
    cfg.write_text(json.dumps(dict(KMS_CFG, **changes)))
    assert run_cli(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "'inequality'" not in err


ORDER_ZERO_OP = "operator zeroth\nn 3\nd 3\nl 3\nk 0\ncoeff 0 0 0 : 1 0 0  0 1 0  0 0 1\n"


@pytest.mark.parametrize(
    "ident,p,partmap,code",
    [
        # the left side |.|_{k-1,p*} needs k >= 1
        ("korn_ellip", 1.5, "zero", 2),
        ("korn_const", 1.5, "zero", 2),
        ("korn_const_p1", 1.0, "zero", 2),
        # |D^0 P|_p and the negative-order norms are defined at k = 0
        ("korn_ell", 1.5, None, 0),
        ("korn_const2_p2", 2.0, "zero", 0),
    ],
)
def test_order_zero_operator_from_spec_file(tmp_path, capsys, ident, p, partmap, code):
    (tmp_path / "zeroth.op").write_text(ORDER_ZERO_OP)
    doc = dict(KMS_CFG, inequality=ident, p=p, operator={"file": "zeroth.op"},
               partmap=partmap, trials=1)
    cfg = tmp_path / "zeroth.cfg"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == code
    err = capsys.readouterr().err
    if code:
        assert "'operator'" in err and "k >= 1" in err


def test_config_trials_zero_runs_the_sweep(tmp_path, schema):
    cfg = tmp_path / "kms.cfg"
    cfg.write_text(json.dumps(dict(KMS_CFG, trials=0)))
    out = tmp_path / "rep.json"
    assert run_cli(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    estimate = load_report(out, schema)["results"]["estimate"]
    assert estimate["family"]["random_trials"] == 0
    assert "random" not in estimate["family_maxima"]


def test_undefined_growth_is_null(tmp_path, schema):
    # without the correction both maxima diverge, so their growth is undefined
    doc = dict(KMS_CFG, inequality="korn_const", partmap="tr", correction=False, trials=1)
    cfg = tmp_path / "uncorrected.cfg"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "rep.json"
    assert run_cli(["verify", "--config", str(cfg), "--refine", "8,12", "--out", str(out)]) == 0
    study = load_report(out, schema)["results"]["study"]
    assert study["max_ratios"] == ["inf", "inf"]
    assert study["growth_fractions"] == [None]
    assert study["max_growth"] is None


def test_import_and_classify_load_no_scipy():
    src = Path(kmslab.__file__).resolve().parent.parent
    code = f"""
import sys
sys.path.insert(0, {str(src)!r})
import kmslab, kmslab.cli

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

assert not scipy_modules(), scipy_modules()
assert kmslab.cli.main(["classify", "--catalog", "curl_vector", "--n", "3", "--complex"]) == 0
assert not scipy_modules(), scipy_modules()
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_refined_c_ellipticity_verdict(tmp_path, schema):
    out = tmp_path / "rep.json"
    argv = ["classify", *CURLVEC, "--samples", "128", "--complex", "--refine", "5",
            "--out", str(out)]
    assert run_cli(argv) == 0
    verdict = load_report(out, schema)["results"]["is_c_elliptic"]
    assert verdict["verdict_kind"] == "sampled"
    assert verdict["is_c_elliptic"] is False
    assert len(verdict["witness"]) == 3


def test_argument_error_of_an_unmapped_argument_propagates():
    from kmslab.cli import _user_value
    from kmslab.operators import ArgumentError

    def build():
        raise ArgumentError("width", "width must be positive")

    with pytest.raises(ArgumentError):
        _user_value({"tol": "tol"}, build)


class TestClassifyCommand:
    def test_catalog_classify(self, tmp_path, schema):
        out = tmp_path / "rep.json"
        code = run_cli(
            ["classify", "--catalog", "curl_vector", "--n", "3", "--samples", "256", "--out", str(out)]
        )
        assert code == 0
        report = load_report(out, schema)
        res = report["results"]
        assert res["is_elliptic"] is False
        assert res["common_rank"] == 2
        assert res["is_cancelling"] is True
        assert report["manifest"]["timestamp"] is None

    def test_spec_file_classify(self, tmp_path, schema):
        op = tmp_path / "curl3.op"
        op.write_text("catalog curl_matrix_rowwise\nn 3\n")
        out = tmp_path / "rep.json"
        code = run_cli(["classify", "--spec", str(op), "--samples", "256", "--out", str(out)])
        assert code == 0
        res = load_report(out, schema)["results"]
        assert res["common_rank"] == 6
        assert res["is_constant_rank"] is True

    def test_on_kernel_of(self, tmp_path, schema):
        out = tmp_path / "rep.json"
        code = run_cli(
            [
                "classify", "--catalog", "curl_matrix_rowwise", "--n", "3",
                "--on-kernel-of", "sym", "--samples", "256", "--out", str(out),
            ]
        )
        assert code == 0
        res = load_report(out, schema)["results"]
        assert res["is_elliptic"] is True

    def test_complex_verdict(self, tmp_path, schema):
        out = tmp_path / "rep.json"
        code = run_cli(
            ["classify", "--catalog", "gradient", "--n", "2", "--samples", "128",
             "--complex", "--out", str(out)]
        )
        assert code == 0
        res = load_report(out, schema)["results"]
        assert res["is_c_elliptic"]["is_c_elliptic"] is True
        assert res["is_c_elliptic"]["verdict_kind"] == "sampled"

    def test_parse_error_exit_2(self, tmp_path, capsys):
        op = tmp_path / "broken.op"
        op.write_text("n 2\nd 1\nl 2\nk 1\ncoeff 1 0 : 1.0\n")
        code = run_cli(["classify", "--spec", str(op)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 5" in err

    def test_missing_input_exit_2(self):
        assert run_cli(["classify"]) == 2


class TestVerifyCommand:
    def test_replay_byte_identical(self, tmp_path, schema):
        cfg = tmp_path / "kms.cfg"
        cfg.write_text(json.dumps(KMS_CFG))
        out = tmp_path / "rep.json"
        args = ["verify", "--config", str(cfg), "--trials", "4", "--seed", "7", "--out", str(out)]
        assert run_cli(args) == 0
        first = out.read_bytes()
        assert "workers" not in load_report(out, schema)["manifest"]
        assert run_cli(args) == 0
        assert out.read_bytes() == first

    def test_refinement_flag(self, tmp_path, schema):
        cfg = tmp_path / "kms.cfg"
        cfg.write_text(json.dumps(dict(KMS_CFG, trials=2)))
        out = tmp_path / "rep.json"
        code = run_cli(
            ["verify", "--config", str(cfg), "--refine", "8,16", "--out", str(out)]
        )
        assert code == 0
        res = load_report(out, schema)["results"]
        assert res["kind"] == "refinement_study"
        assert res["study"]["sizes"] == [8, 16]

    def test_one_hypothesis_check_per_estimate(self, tmp_path, monkeypatch):
        from kmslab import cli, verify

        calls = []
        original = verify.check_hypotheses

        def counting(config, *args, **kwargs):
            calls.append(config.grid.points_per_axis)
            return original(config, *args, **kwargs)

        monkeypatch.setattr(verify, "check_hypotheses", counting)
        # the cli would hold its own reference had it imported the name
        monkeypatch.setattr(cli, "check_hypotheses", counting, raising=False)
        cfg = tmp_path / "kms.cfg"
        cfg.write_text(json.dumps(dict(KMS_CFG, trials=2)))
        out = tmp_path / "rep.json"
        assert run_cli(["verify", "--config", str(cfg), "--refine", "8,16", "--out", str(out)]) == 0
        assert calls == [8, 16]

    def test_precondition_failure_exit_1(self, tmp_path, capsys):
        doc = dict(KMS_CFG, inequality="korn_ellip", partmap="tr")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(json.dumps(doc))
        code = run_cli(["verify", "--config", str(cfg)])
        assert code == 1
        assert "precondition" in capsys.readouterr().err

    def test_internal_value_error_is_not_a_precondition_failure(
        self, tmp_path, monkeypatch, capsys
    ):
        from kmslab import verify

        def broken(config, fld):
            raise ValueError("internal fault")

        monkeypatch.setattr(verify, "kms_sides", broken)
        cfg = tmp_path / "kms.cfg"
        cfg.write_text(json.dumps(dict(KMS_CFG, trials=1)))
        with pytest.raises(ValueError, match="internal fault"):
            run_cli(["verify", "--config", str(cfg)])
        assert "precondition failure" not in capsys.readouterr().err

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("{broken")
        assert run_cli(["verify", "--config", str(cfg)]) == 2

    def test_korn_ell_config(self, tmp_path, schema):
        doc = {
            "inequality": "korn_ell",
            "n": 3,
            "grid_size": 8,
            "p": 2.0,
            "operator": "sym_gradient",
            "trials": 3,
            "seed": 1,
        }
        cfg = tmp_path / "korn.cfg"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "rep.json"
        assert run_cli(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        res = load_report(out, schema)["results"]
        assert res["estimate"]["max_ratio"] <= 1.42

    def test_negative_norm_variant_config(self, tmp_path, schema):
        doc = {
            "inequality": "korn_const2_p2",
            "n": 3,
            "grid_size": 8,
            "p": 2.0,
            "operator": "curl_matrix_rowwise",
            "partmap": "tr",
            "trials": 3,
            "seed": 1,
        }
        cfg = tmp_path / "c2.cfg"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "rep.json"
        assert run_cli(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        res = load_report(out, schema)["results"]
        assert res["estimate"]["infinite_count"] == 0


class TestDemoCommand:
    def test_necessity_trace_curl(self, tmp_path, schema):
        out = tmp_path / "rep.json"
        code = run_cli(
            ["demo", "necessity", "--A", "tr", "--B", "curl3", "--grid", "8", "--out", str(out)]
        )
        assert code == 0
        res = load_report(out, schema)["results"]
        assert res["found"] is True
        assert res["uncorrected"]["ratio"] == "inf"
        assert res["corrected"]["ratio"] == 0.0

    def test_necessity_default_p_fits_n2(self, tmp_path, schema):
        # p defaults to (1 + n) / 2, so n = 2 needs no --p
        out = tmp_path / "rep.json"
        code = run_cli(
            ["demo", "necessity", "--A", "tr", "--B", "div_matrix_rowwise", "--n", "2",
             "--grid", "8", "--out", str(out)]
        )
        assert code == 0
        report = load_report(out, schema)
        res = report["results"]
        assert res["found"] is True
        assert res["uncorrected"]["ratio"] == "inf"
        assert res["corrected"]["ratio"] == 0.0
        assert report["manifest"]["config"]["p"] == 1.5
        assert res["corrected"]["config"]["p"] == res["uncorrected"]["config"]["p"] == 1.5

    def test_necessity_sym_reports_elliptic(self, tmp_path, schema):
        out = tmp_path / "rep.json"
        code = run_cli(
            ["demo", "necessity", "--A", "sym", "--B", "curl3", "--grid", "8", "--out", str(out)]
        )
        assert code == 0
        res = load_report(out, schema)["results"]
        assert res["found"] is False
        assert "unnecessary" in res["message"]


class TestCrosscheckCommand:
    def test_symbol_mode(self, tmp_path, schema):
        out = tmp_path / "rep.json"
        code = run_cli(["crosscheck", "curl-riesz", "--mode", "symbol", "--grid", "8", "--out", str(out)])
        assert code == 0
        res = load_report(out, schema)["results"]
        assert res["max_relative_deviation"] <= 1e-12
