import json

import numpy as np
import pytest

from povm_purity import __version__
from povm_purity.cli import main
from povm_purity.dilation import factorize_outcome
from povm_purity.extremality import purity_verdict
from povm_purity.fixtures import FIXTURE_NAMES, fixture
from povm_purity.linalg import opnorm
from povm_purity.povm import povm_from_dict
from povm_purity.wire import matrix_to_pairs, sha256_hex


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


# ---------------------------------------------------------------------------
# validate / purity / split
# ---------------------------------------------------------------------------


def test_validate_fixture_by_name(capsys):
    code, doc = run(capsys, "validate", "trine")
    assert code == 0
    assert doc["report"] == {"valid": True, "dim": 2, "n_outcomes": 3, "is_pvm": False}
    assert doc["tool"] == {"name": "povm-purity", "version": __version__}
    assert doc["command"] == "validate"
    (src,) = doc["inputs"]
    assert src["path"] == "fixture:trine"
    assert len(src["sha256"]) == 64


def test_validate_file_digest(capsys, tmp_path):
    code, doc = run(capsys, "fixtures", "computational-pvm-d2")
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    code, doc2 = run(capsys, "validate", str(path))
    assert code == 0
    assert doc2["report"]["is_pvm"] is True
    assert doc2["inputs"][0] == {"path": str(path), "sha256": sha256_hex(path.read_bytes())}


def test_purity_verdicts(capsys):
    code, doc = run(capsys, "purity", "trine")
    assert code == 0
    assert doc["report"]["pure"] is True
    assert doc["report"]["kernel_dim"] == 0
    assert doc["report"]["witness"] is None

    code, doc = run(capsys, "purity", "mixed-basis-4")
    assert code == 2
    assert doc["report"]["pure"] is False
    assert doc["report"]["kernel_dim"] == 1
    labels = [w["label"] for w in doc["report"]["witness"]]
    assert labels == ["z0", "z1", "x+", "x-"]


def test_split_halves_are_pure(capsys):
    code, doc = run(capsys, "split", "mixed-basis-4")
    assert code == 0
    assert doc["report"]["mix_residual"] <= 1e-12
    plus = povm_from_dict(doc["report"]["plus"])
    minus = povm_from_dict(doc["report"]["minus"])
    # halves of the unique split direction are zero-padded PVMs, hence pure
    assert purity_verdict(plus).pure
    assert purity_verdict(minus).pure
    p = fixture("mixed-basis-4")
    for ep, em, e in zip(plus.effects, minus.effects, p.effects):
        assert opnorm(0.5 * (ep + em) - e) <= 1e-12


def test_split_of_pure_input_is_a_tool_error(capsys):
    code, doc = run(capsys, "split", "trine")
    assert code == 1
    assert doc["error"]["kind"] == "IsPure"


# ---------------------------------------------------------------------------
# dilate / preprocess / feasible
# ---------------------------------------------------------------------------


def test_dilate_coin(capsys):
    code, doc = run(capsys, "dilate", "coin")
    assert code == 0
    rep = doc["report"]
    assert rep["total_dim"] == 4
    assert rep["dim"] == 2
    assert rep["is_unitary"] is False
    assert rep["isometry_defect"] <= 1e-10
    assert [b["label"] for b in rep["blocks"]] == ["0", "1"]
    assert all(b["multiplicity"] == 2 for b in rep["blocks"])


def test_dilate_pvm_is_unitary(capsys):
    code, doc = run(capsys, "dilate", "computational-pvm-d2")
    assert code == 0
    assert doc["report"]["is_unitary"] is True
    assert doc["report"]["total_dim"] == 2


def test_dilate_blocks_are_the_outcome_factorizations(capsys, tmp_path):
    code, doc = run(capsys, "fixtures", "coin")
    doc["outcomes"].append({"label": "never", "effect": [[[0.0, 0.0]] * 2] * 2})
    padded = tmp_path / "padded.json"
    padded.write_text(json.dumps(doc))
    for arg in (*FIXTURE_NAMES, str(padded)):
        code, doc = run(capsys, "dilate", arg)
        assert code == 0
        p = fixture(arg) if arg in FIXTURE_NAMES else povm_from_dict(json.loads(padded.read_text()))
        expected = []
        for lab, eff in p:
            f = factorize_outcome(eff, label=lab)
            expected.append(
                {"label": lab, "multiplicity": f.multiplicity, "factor": matrix_to_pairs(f.factor)}
            )
        assert doc["report"]["blocks"] == expected


def test_preprocess_report(capsys):
    code, doc = run(capsys, "preprocess-from-pvm", "computational-pvm-d2", "smeared-pvm-d2")
    assert code == 0
    rep = doc["report"]
    assert (rep["in_dim"], rep["out_dim"], rep["n_kraus"]) == (2, 2, 4)
    assert rep["tp_defect"] <= 1e-10
    assert rep["max_pullback_residual"] <= 1e-10
    assert len(rep["kraus"]) == 4


def test_preprocess_rejects_nonprojective_source(capsys):
    code, doc = run(capsys, "preprocess-from-pvm", "trine", "trine")
    assert code == 1
    assert doc["error"]["kind"] == "NotPvm"


def test_feasible_positive_and_negative(capsys):
    code, doc = run(capsys, "feasible", "computational-pvm-d2", "smeared-pvm-d2")
    assert code == 0
    assert doc["report"]["feasible"] is True
    assert doc["report"]["residual"] <= 1e-7
    assert doc["report"]["choi"] is not None

    code, doc = run(capsys, "feasible", "coin", "computational-pvm-d2", "--max-iter", "300")
    assert code == 2
    rep = doc["report"]
    assert rep["feasible"] is False
    assert rep["residual"] > 1e-3
    assert rep["iterations"] == 300
    assert rep["max_iter"] == 300
    assert rep["choi"] is None
    assert len(rep["residual_history"]) == 3


def test_feasible_negative_budget_is_an_error(capsys):
    code, doc = run(capsys, "feasible", "coin", "computational-pvm-d2", "--max-iter", "-5")
    assert code == 1
    assert doc["error"]["kind"] == "InvalidBudget"


def test_feasible_label_mismatch_is_an_error(capsys):
    code, doc = run(capsys, "feasible", "trine", "computational-pvm-d2")
    assert code == 1
    assert doc["error"]["kind"] == "LabelMismatch"


# ---------------------------------------------------------------------------
# polycheck / phase-demo
# ---------------------------------------------------------------------------


def test_polycheck_certified(capsys):
    code, doc = run(capsys, "polycheck", "--max", "12", "--exclude", "2")
    assert code == 0
    rep = doc["report"]
    assert rep["verdict"] == "certified"
    assert rep["missing_degrees"] == []
    assert rep["n_members"] == 12
    assert rep["basis"] == "hermite"
    assert rep["weight"] == "exp(-x^2)"


def test_polycheck_inconclusive(capsys):
    code, doc = run(capsys, "polycheck", "--basis", "monomial", "--max", "0", "--degree", "2")
    assert code == 2
    assert doc["report"]["verdict"] == "inconclusive"
    assert doc["report"]["missing_degrees"] == [1, 2]


def test_polycheck_bad_exclude(capsys):
    code, doc = run(capsys, "polycheck", "--max", "3", "--exclude", "9")
    assert code == 1
    assert doc["error"]["kind"] == "IndexOutOfRange"


def test_phase_demo_single_mode(capsys):
    code, doc = run(
        capsys, "phase-demo", "--M", "4", "--target", "single-mode", "--members", "3",
        "--grid", "1024",
    )
    assert code == 0
    rep = doc["report"]
    assert rep["sup_error"] <= 1e-10
    assert rep["unital_defect"] <= 1e-10
    assert rep["gram_consistency_defect"] <= 1e-8
    assert rep["order"] == 4 and rep["grid"] == 1024


def test_phase_demo_grid_too_coarse(capsys):
    code, doc = run(capsys, "phase-demo", "--M", "4", "--grid", "8")
    assert code == 1
    assert doc["error"]["kind"] == "GridTooCoarse"


# ---------------------------------------------------------------------------
# fixtures subcommand
# ---------------------------------------------------------------------------


def test_fixtures_list(capsys):
    code, doc = run(capsys, "fixtures")
    assert code == 0
    assert doc["report"]["fixtures"] == list(FIXTURE_NAMES)


def test_fixtures_print_roundtrip(capsys):
    code, doc = run(capsys, "fixtures", "qubit-sic")
    assert code == 0
    p = povm_from_dict(doc)
    q = fixture("qubit-sic")
    assert p.labels == q.labels
    for a, b in zip(p.effects, q.effects):
        np.testing.assert_allclose(a, b, atol=1e-15)


def test_fixtures_unknown_name(capsys):
    code, doc = run(capsys, "fixtures", "nope")
    assert code == 1
    assert doc["error"]["kind"] == "SchemaError"


def test_fixtures_write_then_validate(capsys, tmp_path):
    outdir = tmp_path / "fx"
    code, doc = run(capsys, "fixtures", "--write", str(outdir))
    assert code == 0
    assert len(doc["report"]["written"]) == len(FIXTURE_NAMES)
    for name in FIXTURE_NAMES:
        assert (outdir / f"{name}.json").is_file()
    code, doc = run(capsys, "validate", str(outdir / "coin.json"))
    assert code == 0
    # file-by-path and fixture-by-name digests agree: same canonical bytes
    code, doc2 = run(capsys, "validate", "coin")
    assert doc["inputs"][0]["sha256"] == doc2["inputs"][0]["sha256"]


# ---------------------------------------------------------------------------
# envelope and error plumbing
# ---------------------------------------------------------------------------


def test_reports_are_byte_identical(capsys):
    main(["purity", "mixed-basis-4"])
    first = capsys.readouterr().out
    main(["purity", "mixed-basis-4"])
    second = capsys.readouterr().out
    assert first == second
    main(["feasible", "computational-pvm-d2", "computational-pvm-d2"])
    third = capsys.readouterr().out
    main(["feasible", "computational-pvm-d2", "computational-pvm-d2"])
    assert capsys.readouterr().out == third


def test_missing_file_is_a_schema_error(capsys):
    code, doc = run(capsys, "validate", "/no/such/file.json")
    assert code == 1
    assert doc["error"]["kind"] == "SchemaError"
    assert "no such file or fixture" in doc["error"]["detail"]


def test_invalid_json_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc = run(capsys, "validate", str(bad))
    assert code == 1
    assert doc["error"]["kind"] == "SchemaError"
    assert "invalid JSON" in doc["error"]["detail"]


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_nonfinite_entries_are_schema_errors(capsys, tmp_path, bad):
    code, doc = run(capsys, "fixtures", "coin")
    text = json.dumps(doc).replace("0.5", bad, 1)
    path = tmp_path / "bad.json"
    path.write_text(text)
    for command in ("validate", "purity"):
        code, doc = run(capsys, command, str(path))
        assert code == 1
        assert doc["error"]["kind"] == "SchemaError"
        assert doc["error"]["detail"].startswith("/outcomes/0/effect/0/0:")


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["purity"])  # missing positional
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["purity", "trine", "--bogus"])
    assert exc.value.code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_out_file_redirects_report(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["purity", "mixed-basis-4", "--out", str(target)])
    assert code == 2
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["report"]["kernel_dim"] == 1


def test_out_file_used_for_errors_too(capsys, tmp_path):
    target = tmp_path / "err.json"
    code = main(["split", "trine", "--out", str(target)])
    assert code == 1
    assert json.loads(target.read_text())["error"]["kind"] == "IsPure"


def test_tolerance_overrides_reach_envelope(capsys):
    code, doc = run(capsys, "validate", "trine", "--tol-abs", "1e-6", "--tol-rank", "1e-5")
    assert code == 0
    assert doc["tolerances"] == {"abs_eps": 1e-6, "rank_rel": 1e-5}


@pytest.mark.parametrize(
    "flags",
    [("--tol-abs", "inf"), ("--tol-abs", "nan"), ("--tol-abs", "10"), ("--tol-rank", "5")],
)
def test_invalid_tolerances_are_typed_errors(capsys, flags):
    code = main(["purity", "coin", *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"]["kind"] == "InvalidTolerance"
    assert captured.err == ""
