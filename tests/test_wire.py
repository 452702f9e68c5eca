import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from povm_purity.errors import SchemaError
from povm_purity.wire import dumps_report, matrix_from_pairs, matrix_to_pairs, sha256_hex


def test_matrix_pairs_roundtrip(rng):
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    back = matrix_from_pairs(matrix_to_pairs(m), "/m")
    assert_allclose(back, m, atol=0)


def test_matrix_from_pairs_shape_errors():
    with pytest.raises(SchemaError) as exc:
        matrix_from_pairs([[[1.0, 0.0]]], "/eff", rows=2, cols=2)
    assert exc.value.path == "/eff"
    with pytest.raises(SchemaError) as exc:
        matrix_from_pairs([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], "/eff")
    assert exc.value.path == "/eff/1"
    with pytest.raises(SchemaError) as exc:
        matrix_from_pairs([[[1.0, 0.0], [1.0]]], "/eff")
    assert exc.value.path == "/eff/0/1"
    with pytest.raises(SchemaError):
        matrix_from_pairs("nope", "/eff")
    with pytest.raises(SchemaError):
        matrix_from_pairs([[[True, False]]], "/eff")


@pytest.mark.parametrize("rows, cols, path, message", [
    ([[]], None, "/eff/0", "expected a non-empty array of [re, im] pairs"),
    ([[[1.0, 0.0]], "row"], None, "/eff/1", "expected a non-empty array of [re, im] pairs"),
    ([[[1.0, 0.0]], []], None, "/eff/1", "expected a non-empty array of [re, im] pairs"),
    ([[[1.0, 0.0]], [[0.0, 0.0]]], 2, "/eff/0", "expected 2 columns, got 1"),
])
def test_matrix_from_pairs_refusals_name_their_path(rows, cols, path, message):
    with pytest.raises(SchemaError) as exc:
        matrix_from_pairs(rows, "/eff", cols=cols)
    assert exc.value.path == path
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 10**400])
def test_matrix_from_pairs_rejects_nonfinite(bad):
    for pair, where in (([bad, 0.0], "/eff/1/0"), ([0.0, bad], "/eff/1/0")):
        rows = [[[1.0, 0.0], [0.0, 0.0]], [pair, [1.0, 0.0]]]
        with pytest.raises(SchemaError) as exc:
            matrix_from_pairs(rows, "/eff")
        assert exc.value.path == where


def test_dumps_report_is_valid_json_and_deterministic():
    obj = {"b": 1, "a": [1.5, None, True, "x"], "m": [[0.1]]}
    text = dumps_report(obj)
    assert text == dumps_report(obj)
    assert json.loads(text) == obj
    # insertion order, not sorted
    assert text.index('"b"') < text.index('"a"')


def test_dumps_report_float_format_roundtrips():
    third = 1.0 / 3.0
    text = dumps_report({"x": third})
    assert text == '{"x":0.33333333333333331}'
    assert json.loads(text)["x"] == third


def test_dumps_report_numpy_scalars():
    text = dumps_report(
        {"i": np.int64(3), "f": np.float64(0.5), "b": np.bool_(True), "z": np.float64(0.0)}
    )
    assert text == '{"i":3,"f":0.5,"b":true,"z":0}'


def test_dumps_report_rejects_nonfinite_and_unknown():
    with pytest.raises(ValueError):
        dumps_report({"x": float("nan")})
    with pytest.raises(ValueError):
        dumps_report({"x": float("inf")})
    with pytest.raises(TypeError):
        dumps_report({"x": object()})


def test_sha256_hex():
    assert sha256_hex(b"") == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
