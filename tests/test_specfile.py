import json

import numpy as np
import pytest

from kmslab.operators import catalog_operator
from kmslab.specfile import (
    ConfigError,
    SpecFileError,
    load_verify_config,
    parse_operator_file,
    parse_operator_text,
)

CURL_VECTOR_TEXT = """
# 3d curl of vector fields
operator my_curl
n 3
d 3
l 3
k 1
coeff 1 0 0 : 0 0 0  0 0 -1  0 1 0
coeff 0 1 0 : 0 0 1  0 0 0  -1 0 0
coeff 0 0 1 : 0 -1 0  1 0 0  0 0 0
"""


class TestOperatorParsing:
    def test_explicit_matches_catalog(self):
        spec = parse_operator_text(CURL_VECTOR_TEXT)
        want = catalog_operator("curl_vector", 3)
        assert spec.name == "my_curl"
        assert (spec.n, spec.d, spec.l, spec.k) == (3, 3, 3, 1)
        for alpha, mat in want.coeffs.items():
            assert np.array_equal(spec.coefficient(alpha), mat)

    def test_catalog_reference(self):
        spec = parse_operator_text("catalog curl_vector\nn 3\n")
        assert spec.name == "curl_vector"
        assert spec.l == 3

    def test_catalog_unknown_name(self):
        with pytest.raises(SpecFileError) as err:
            parse_operator_text("catalog nope\nn 3\n")
        assert err.value.field == "catalog"

    def test_missing_dimension(self):
        with pytest.raises(SpecFileError) as err:
            parse_operator_text("d 1\nl 1\nk 1\ncoeff 1 : 1\n")
        assert err.value.field == "n"

    def test_wrong_entry_count_reports_line(self):
        text = "n 2\nd 1\nl 2\nk 1\ncoeff 1 0 : 1.0\n"
        with pytest.raises(SpecFileError) as err:
            parse_operator_text(text)
        assert err.value.line == 5
        assert "expected 2 matrix entries" in str(err.value)

    def test_order_mismatch_reports_line(self):
        text = "n 2\nd 1\nl 1\nk 2\ncoeff 1 0 : 1.0\n"
        with pytest.raises(SpecFileError) as err:
            parse_operator_text(text)
        assert err.value.line == 5

    def test_duplicate_multiindex(self):
        text = "n 1\nd 1\nl 1\nk 1\ncoeff 1 : 1\ncoeff 1 : 2\n"
        with pytest.raises(SpecFileError) as err:
            parse_operator_text(text)
        assert "duplicate" in str(err.value)

    def test_unknown_directive(self):
        with pytest.raises(SpecFileError) as err:
            parse_operator_text("frobnicate 3\n")
        assert err.value.line == 1

    def test_all_zero_rejected(self):
        text = "n 1\nd 1\nl 1\nk 1\ncoeff 1 : 0\n"
        with pytest.raises(SpecFileError) as err:
            parse_operator_text(text)
        assert "zero" in str(err.value)

    def test_catalog_and_coeff_exclusive(self):
        text = "catalog gradient\nn 2\ncoeff 1 0 : 1 1\n"
        with pytest.raises(SpecFileError):
            parse_operator_text(text)

    def test_bad_integer(self):
        with pytest.raises(SpecFileError) as err:
            parse_operator_text("n x\n")
        assert err.value.line == 1

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_coefficient_reports_line(self, token):
        with pytest.raises(SpecFileError) as err:
            parse_operator_text(f"n 2\nd 1\nl 1\nk 1\ncoeff 1 0 : 1\ncoeff 0 1 : {token}\n")
        assert (err.value.line, err.value.field) == (6, "coeff")

    @pytest.mark.parametrize("n", [0, -1])
    def test_catalog_dimension_below_one_names_n(self, n):
        with pytest.raises(SpecFileError) as err:
            parse_operator_text(f"catalog gradient\nn {n}\n")
        assert err.value.field == "n"

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "curl.op"
        path.write_text(CURL_VECTOR_TEXT)
        spec = parse_operator_file(path)
        assert spec.d == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecFileError):
            parse_operator_file(tmp_path / "absent.op")


def write_config(tmp_path, doc, name="run.cfg"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


BASE_DOC = {
    "inequality": "kms_sym",
    "n": 3,
    "grid_size": 8,
    "p": 2.0,
    "operator": "curl_matrix_rowwise",
    "partmap": "sym",
}


class TestVerifyConfig:
    def test_basic(self, tmp_path):
        config, extras = load_verify_config(write_config(tmp_path, BASE_DOC))
        assert config.inequality_id == "kms_sym"
        assert config.grid.points_per_axis == 8
        assert extras["trials"] == 50

    def test_operator_from_file(self, tmp_path):
        (tmp_path / "curl.op").write_text("catalog curl_matrix_rowwise\nn 3\n")
        doc = dict(BASE_DOC, operator={"file": "curl.op"})
        config, _ = load_verify_config(write_config(tmp_path, doc))
        assert config.operator.name == "curl_matrix_rowwise"

    @pytest.mark.parametrize("entry", [5, None, ["a"]])
    def test_operator_file_not_a_string(self, tmp_path, entry):
        doc = dict(BASE_DOC, operator={"file": entry})
        with pytest.raises(ConfigError) as err:
            load_verify_config(write_config(tmp_path, doc))
        assert err.value.field == "operator"

    @pytest.mark.parametrize("operator", ["curl_matrix_rowwise", {"file": "grad.op"}])
    def test_dimension_below_one_names_n(self, tmp_path, operator):
        (tmp_path / "grad.op").write_text("catalog gradient\nn 2\n")
        doc = dict(BASE_DOC, n=0, operator=operator)
        with pytest.raises(ConfigError) as err:
            load_verify_config(write_config(tmp_path, doc))
        assert err.value.field == "n"

    def test_unknown_key(self, tmp_path):
        doc = dict(BASE_DOC, banana=1)
        with pytest.raises(ConfigError) as err:
            load_verify_config(write_config(tmp_path, doc))
        assert err.value.field == "banana"

    def test_missing_key(self, tmp_path):
        doc = dict(BASE_DOC)
        del doc["p"]
        with pytest.raises(ConfigError) as err:
            load_verify_config(write_config(tmp_path, doc))
        assert err.value.field == "p"

    def test_unknown_inequality(self, tmp_path):
        doc = dict(BASE_DOC, inequality="nope")
        with pytest.raises(ConfigError) as err:
            load_verify_config(write_config(tmp_path, doc))
        assert err.value.field == "inequality"

    def test_korn_ell_partmap_must_be_null(self, tmp_path):
        doc = {
            "inequality": "korn_ell",
            "n": 3,
            "grid_size": 8,
            "p": 2.0,
            "operator": "sym_gradient",
            "partmap": "sym",
        }
        with pytest.raises(ConfigError) as err:
            load_verify_config(write_config(tmp_path, doc))
        assert err.value.field == "partmap"

    def test_korn_ell_valid(self, tmp_path):
        doc = {
            "inequality": "korn_ell",
            "n": 3,
            "grid_size": 8,
            "p": 2.0,
            "operator": "sym_gradient",
        }
        config, _ = load_verify_config(write_config(tmp_path, doc))
        assert config.part is None

    @pytest.mark.parametrize("seed", [-1, "x", 1.5, True])
    def test_bad_seed(self, tmp_path, seed):
        doc = dict(BASE_DOC, seed=seed)
        with pytest.raises(ConfigError) as err:
            load_verify_config(write_config(tmp_path, doc))
        assert err.value.field == "seed"

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as err:
            load_verify_config(path)
        assert err.value.field == "json"

    def test_inconsistent_p_reported(self, tmp_path):
        doc = dict(BASE_DOC, inequality="korn_const_p1", partmap="tr")
        with pytest.raises(ConfigError):
            load_verify_config(write_config(tmp_path, doc))
