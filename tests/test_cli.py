import contextlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import SEED
from numpy.testing import assert_allclose

from povm_purity import __version__, phase, polycert
from povm_purity.cli import main
from povm_purity.errors import IndexOutOfRange
from povm_purity.extremality import purity_verdict
from povm_purity.fixtures import FIXTURE_NAMES, fixture
from povm_purity.linalg import opnorm
from povm_purity.povm import povm_from_dict, povm_to_dict
from povm_purity.rand import random_povm
from povm_purity.wire import sha256_hex


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def _child(*argv, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout's src."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, *argv], env={**os.environ, "PYTHONPATH": str(src)}, timeout=120, **kwargs)


def test_cli_import_loads_no_exact_arithmetic_modules():
    # every CLI run pays for the modules that importing cli loads
    code = "import sys, povm_purity.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    out = _child("-c", code, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# ``python -m povm_purity ARGV``, then the package's loaded submodules as the last line
RUN_AND_LIST_MODULES = """
import runpy, sys
sys.argv[0] = "povm-purity"
try:
    runpy.run_module("povm_purity", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, sorted(m.split(".")[1] for m in sys.modules if m.startswith("povm_purity.")))
"""
NO_SEARCH = {"channels", "polycert", "phase"}
NO_PURITY_MAP = {"extremality", "dilation", "channels"}


@pytest.mark.parametrize("argv, code, runs, skips", [
    (["validate", "trine"], 0, {"povm"}, NO_SEARCH),
    (["purity", "coin"], 2, {"extremality"}, NO_SEARCH),
    (["split", "coin"], 0, {"extremality"}, NO_SEARCH),
    (["dilate", "qubit-sic"], 0, {"dilation"}, NO_SEARCH),
    (["polycheck", "--max", "6"], 0, {"polycert"}, NO_PURITY_MAP | {"phase"}),
    (["phase-demo", "--M", "4"], 0, {"phase"}, NO_PURITY_MAP),
])
def test_each_command_loads_only_the_modules_it_runs(argv, code, runs, skips):
    out = _child("-c", RUN_AND_LIST_MODULES, *argv, capture_output=True, text=True, check=True)
    got_code, loaded = out.stdout.splitlines()[-1].split(" ", 1)
    loaded = set(eval(loaded))
    assert int(got_code) == code
    assert runs <= loaded
    assert skips.isdisjoint(loaded)


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


def _eigh_factor_oracle(eff, abs_eps=1e-10, rank_rel=1e-8):
    """Retained eigenvalues (descending) and eigenvectors of one effect."""
    w, v = np.linalg.eigh(eff)
    w, v = w[::-1], v[:, ::-1]
    keep = (w > abs_eps) & (w > rank_rel * w[0]) if w[0] > abs_eps else np.zeros(w.size, bool)
    return w[keep], v[:, keep]


def test_dilate_blocks_are_the_outcome_factorizations(capsys, tmp_path):
    code, doc = run(capsys, "fixtures", "coin")
    doc["outcomes"].append({"label": "never", "effect": [[[0.0, 0.0]] * 2] * 2})
    padded = tmp_path / "padded.json"
    padded.write_text(json.dumps(doc))
    for arg in (*FIXTURE_NAMES, str(padded)):
        code, doc = run(capsys, "dilate", arg)
        assert code == 0
        p = fixture(arg) if arg in FIXTURE_NAMES else povm_from_dict(json.loads(padded.read_text()))
        blocks = doc["report"]["blocks"]
        assert [b["label"] for b in blocks] == list(p.labels)
        for b, eff in zip(blocks, p.effects):
            w, v = _eigh_factor_oracle(eff)
            a = np.array([[complex(*z) for z in row] for row in b["factor"]]).reshape(w.size, p.dim)
            assert b["multiplicity"] == w.size
            # rows sqrt(w_k) <v_k|: orthogonal, squared norms the eigenvalues,
            # spanning the oracle's eigenspaces, each with a real positive lead
            assert_allclose(a @ a.conj().T, np.diag(w), atol=1e-12)
            assert_allclose(a.conj().T @ a, eff, atol=1e-12)
            assert_allclose(a @ v @ v.conj().T, a, atol=1e-12)
            for row in a:
                lead = row[np.flatnonzero(np.abs(row) > 1e-12)[0]]
                assert lead.imag == 0.0 and lead.real > 0.0


@pytest.mark.parametrize(
    "argv, stacks",
    [
        (("purity", "trine"), [(3, 2, 2)]),
        (("dilate", "coin"), [(2, 2, 2)]),
        # the input, then both halves' moved effects in one solve
        (("split", "coin"), [(2, 2, 2), (4, 2, 2)]),
        # the lent-row witness moves two outcomes; both halves solve only those
        (("split", "full-rank-d4-k4"), [(4, 4, 4), (4, 4, 4)]),
        (("preprocess-from-pvm", "computational-pvm-d2", "smeared-pvm-d2"), [(2, 2, 2)] * 2),
    ],
    ids=["purity", "dilate", "split", "split-full-rank", "preprocess"],
)
def test_each_validated_povm_is_factorized_once(capsys, monkeypatch, tmp_path, argv, stacks):
    """validate's one batched eigh of the effect stack is the only eigensolve:
    the dilation, the sharpness test and support domination read it, and a
    split decomposes only the effects the witness changes, both halves' in
    one solve."""
    files = []
    for name in argv[1:]:  # from files, so that loading a fixture solves nothing
        p = random_povm(np.random.default_rng(SEED), 4, 4) if name == "full-rank-d4-k4" else fixture(name)
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps(povm_to_dict(p)))
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _f(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    code, doc = run(capsys, argv[0], *map(str, files))
    assert code == 0 and doc["command"] == argv[0]
    assert calls == [("eigh", shape) for shape in stacks]


@pytest.mark.parametrize(
    "argv",
    [
        ("purity", "coin"),
        ("split", "coin"),
        ("dilate", "coin"),
        ("preprocess-from-pvm", "computational-pvm-d2", "smeared-pvm-d2"),
    ],
)
def test_cut_that_empties_the_dilation_is_a_typed_error(capsys, argv):
    code, doc = run(capsys, *argv, "--tol-abs", "0.9")
    assert code == 1
    assert doc["error"]["kind"] == "InvalidTolerance"
    assert "total dimension 0 below the dimension 2" in doc["error"]["detail"]


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


def test_polycheck_refuses_a_huge_degree_before_listing_slots(capsys):
    code, doc = run(capsys, "polycheck", "--max", "3", "--degree", "1000000000")
    assert code == 1
    assert doc["error"]["kind"] == "IndexOutOfRange"
    assert "1000000001 slots over 4 indices" in doc["error"]["detail"]


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


def test_phase_demo_negative_support_is_an_error(capsys):
    code, doc = run(capsys, "phase-demo", "--M", "4", "--support", "-5")
    assert code == 1
    assert doc["error"]["kind"] == "IndexOutOfRange"


def test_polycheck_hermite_28_is_certified(capsys):
    # the float rank ladder left degrees 27 and 28 uncovered here
    code, doc = run(capsys, "polycheck", "--max", "28")
    assert code == 0
    assert doc["report"]["verdict"] == "certified"
    assert doc["report"]["missing_degrees"] == []


# commands that read no tolerance: their envelopes echo none, and the flags are usage errors
UNTOLERANT = [
    ("polycheck", "--max", "5"),
    ("phase-demo", "--M", "2"),
    ("fixtures",),
]


@pytest.mark.parametrize("argv", UNTOLERANT)
def test_untolerant_envelopes_have_no_tolerances(capsys, argv):
    code, doc = run(capsys, *argv)
    assert code == 0
    assert list(doc) == ["tool", "command", "inputs", "report"]


@pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rank"])
@pytest.mark.parametrize("argv", UNTOLERANT)
def test_untolerant_commands_reject_tolerance_flags(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "1e-6"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


def test_phase_demo_member_bound_is_a_typed_error(capsys):
    # 1100 members need about 2.7 GB of demo arrays
    code, doc = run(capsys, "phase-demo", "--M", "4", "--target", "single-mode", "--members", "1100")
    assert code == 1
    assert doc["error"]["kind"] == "IndexOutOfRange"
    assert "1100 members" in doc["error"]["detail"]
    # with geometric tails the members underflow first
    code, doc = run(capsys, "phase-demo", "--M", "4", "--members", "1100", "--support", "0")
    assert code == 1
    assert doc["error"]["kind"] == "EmptyFamily"


@pytest.mark.parametrize("argv", [
    ("--target", "single-mode", "--members", "3000000"),
    ("--ratio", "0.9", "--support", "1000000"),
])
def test_phase_demo_refuses_huge_families_before_building_them(capsys, argv):
    code, doc = run(capsys, "phase-demo", "--M", "4", *argv)
    assert code == 1
    assert doc["error"]["kind"] == "IndexOutOfRange"


WIDE_SUPPORT_DETAIL = (
    "2 members over 600001 frequencies need 10988251 MB of arrays (the (64, 2, 2) interval Grams and 43 "
    "more (2, 2) complex blocks, four (600001, 9, 2) complex stacks, four (600001, 600001) float matrices), "
    "over the 256 MB limit"
)


def test_phase_demo_refuses_a_wide_support_before_building_the_family(capsys):
    # building these two 600001-coefficient members alone took about 1.5 s
    start = time.perf_counter()
    code, doc = run(capsys, "phase-demo", "--M", "4", "--members", "2", "--ratio", "0.999999",
                    "--support", "300000")
    assert time.perf_counter() - start < 0.2
    assert code == 1
    assert doc == {"error": {"kind": "IndexOutOfRange", "detail": WIDE_SUPPORT_DETAIL}}


@pytest.mark.parametrize("argv, fits", [
    (("--target", "single-mode", "--members", "337"), True),
    (("--target", "single-mode", "--members", "338"), False),
    (("--members", "2", "--ratio", "0.999", "--support", "1422"), True),  # 2845 frequencies
    (("--members", "2", "--ratio", "0.999", "--support", "1423"), False),  # 2847 frequencies
])
def test_phase_demo_early_refusal_agrees_with_the_library_at_the_threshold(capsys, monkeypatch, argv, fits):
    """At the largest demo that fits and one past it, the CLI's count from the
    arguments, before the family is built, and the demo's own count on the
    built family decide alike, with the same megabytes and text.  A sentinel
    stops each count that passes, so nothing is allocated."""

    class Counted(Exception):
        pass

    count = phase._check_demo

    def check(*args):
        raise Counted(count(*args))

    monkeypatch.setattr(phase, "_check_demo", check)
    args = dict(zip(argv[::2], argv[1::2]))
    members = int(args["--members"])
    tracemalloc.start()
    try:
        with pytest.raises(Counted) if fits else contextlib.nullcontext() as early:
            assert main(["phase-demo", "--M", "4", *argv]) == 1
        fam = (phase.single_mode_family(members) if "--target" in args
               else phase.geometric_tail_family(members, float(args["--ratio"]), int(args["--support"])))
        with pytest.raises(Counted if fits else IndexOutOfRange) as late:
            phase.phase_truncation_demo(fam, 4, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if fits:
        assert early.value.args == late.value.args
        assert late.value.args[0] <= phase.MAX_STACK_MB
    else:
        detail = json.loads(capsys.readouterr().out)["error"]
        assert detail == {"kind": "IndexOutOfRange", "detail": str(late.value)}
        assert f"{members} members over " in detail["detail"]
    assert peak < 4 * 2**20  # the family's dicts; the counted arrays are about 256 MB


def test_phase_demo_refuses_a_long_tail_before_building_the_family(capsys):
    # ratio^(support + members) is below 2^-500, yet every coefficient survives
    # normalization: building the 800001-coefficient member took about 1 s
    start = time.perf_counter()
    code, doc = run(capsys, "phase-demo", "--M", "4", "--members", "1", "--ratio", "0.999",
                    "--support", "400000")
    assert time.perf_counter() - start < 0.2
    assert code == 1
    assert doc == {"error": {"kind": "IndexOutOfRange", "detail": (
        "1 members over 800001 frequencies need 19533350 MB of arrays (the (64, 1, 1) interval Grams and 43 "
        "more (1, 1) complex blocks, four (800001, 9, 1) complex stacks, four (800001, 800001) float matrices), "
        "over the 256 MB limit")}}


@pytest.mark.parametrize("argv", [
    ("--members", "2", "--ratio", "0.999", "--support", "3000"),
    ("--members", "2", "--ratio", "0.999", "--support", "1000", "--M", "-1"),
    ("--members", "2", "--ratio", "0.999", "--support", "1000", "--grid", "8"),
    ("--target", "single-mode", "--members", "400"),
    ("--target", "single-mode", "--members", "400", "--grid", "100"),
    ("--members", "1100", "--support", "0"),
    # 100 members over 2248 frequencies: 305 MB (40 members, 204 MB, now fit)
    ("--members", "100", "--ratio", "0.5", "--support", "1000000"),
])
def test_phase_demo_early_refusal_has_the_demos_bytes(capsys, monkeypatch, argv):
    """The refusal before building prints what the demo prints on the built family."""
    argv = ["phase-demo", "--M", "4", *argv]
    code = main(argv)
    early = capsys.readouterr().out
    monkeypatch.setattr(phase, "_frequency_count", lambda *args: None)
    assert main(argv) == code == 1
    assert capsys.readouterr().out == early


def test_phase_demo_order_past_the_support_costs_nothing(capsys):
    # every member lives on |s| <= 32, so any order from 32 up gives one report
    code, doc = run(capsys, "phase-demo", "--M", "100000000", "--members", "4")
    assert code == 0
    _, at_support = run(capsys, "phase-demo", "--M", "32", "--members", "4")
    assert doc["report"].pop("order") == 100000000
    assert at_support["report"].pop("order") == 32
    assert doc == at_support


def test_phase_demo_nan_ratio_is_a_typed_error(capsys):
    code, doc = run(capsys, "phase-demo", "--M", "4", "--ratio", "nan")
    assert code == 1
    assert doc["error"]["kind"] == "InvalidRatio"


def test_polycheck_row_block_bound_is_a_typed_error(capsys):
    # without P_0 no single product reaches degree 0, so the sketch runs, and
    # 406 real members give 406 * 407 / 2 product rows over 407 slots: an
    # int64 block of about 257 MiB, past the 256 MiB limit
    code, doc = run(capsys, "polycheck", "--basis", "legendre", "--max", "406", "--exclude", "0")
    assert code == 1
    assert doc["error"]["kind"] == "IndexOutOfRange"
    assert "82621 product rows over 407 slots" in doc["error"]["detail"]
    # the full bases are proven by single products, and no block is bounded
    for basis in ("legendre", "laguerre", "monomial"):
        code, doc = run(capsys, "polycheck", "--basis", basis, "--max", "406")
        assert code == 0 and doc["report"]["verdict"] == "certified"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, kind", [
    (["phase-demo", "--M", "2", "--members", "3", "--support", "0", "--ratio", "1e-200"], "EmptyFamily"),
    # integer members know no double range: both certify (kind None)
    (["polycheck", "--max", "151"], None),
    (["polycheck", "--max", "171"], None),
])
def test_families_past_the_double_range_are_typed_errors(capsys, argv, kind):
    code = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert captured.err == ""
    if kind is None:
        assert code == 0 and doc["report"]["verdict"] == "certified"
    else:
        assert code == 1 and doc["error"]["kind"] == kind


def test_legendre_past_index_813_certifies(capsys):
    # 2^n P_n past index 813 overflowed its float copy
    code, doc = run(capsys, "polycheck", "--basis", "legendre", "--max", "900")
    assert code == 0 and doc["report"]["verdict"] == "certified" and doc["report"]["n_members"] == 901


@pytest.mark.parametrize("basis, top, detail", [
    ("hermite", 241, "pass the 1 MB limit at member 240"),
    ("legendre", 264, "pass the 1 MB limit at member 264"),
    ("laguerre", 178, "pass the 1 MB limit at member 178"),
    ("monomial", 511, "hold 131328 coefficients: at 8 bytes each"),
], ids=["hermite", "legendre", "laguerre", "monomial"])
def test_polycheck_refuses_coefficients_past_the_stack_bound(capsys, monkeypatch, basis, top, detail):
    # at 256 MB the first refused indices are 1532, 1830, 1071 and 8191; at 1 MB
    # they are these, the monomials' on the entry count before any member is built
    monkeypatch.setattr(polycert, "MAX_STACK_MB", 1)
    code, doc = run(capsys, "polycheck", "--basis", basis, "--max", str(top))
    assert code == 1 and doc["error"]["kind"] == "IndexOutOfRange"
    assert f"{basis} members to index {top} {detail}" in doc["error"]["detail"]
    assert len(polycert.orthonormal_family(basis, top - 1).members) == top


@pytest.mark.parametrize("argv, detail", [
    (("--basis", "monomial", "--max", "5792"), "5793 slots over 5793 indices: a 256 MB meet array, over 256 MB"),
    (("--basis", "hermite", "--max", "6000", "--exclude", "6000"), "6001 slots over 6000 indices: a 275 MB meet array"),
    (("--basis", "laguerre", "--max", "4", "--degree", "8388607"), "8388608 slots over 5 indices: a 320 MB meet array"),
], ids=["monomial", "hermite", "degree"])
def test_an_oversized_meet_array_is_refused_before_the_family_is_built(capsys, argv, detail):
    # the count of support indices comes from the arguments: the monomials
    # to 5792 once took 6 s and a 1.2 GB peak to build before this refusal
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, doc = run(capsys, "polycheck", *argv)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and doc["error"]["kind"] == "IndexOutOfRange"
    assert doc["error"]["detail"].startswith(detail)
    assert elapsed < 1.0 and peak < 2**20, (elapsed, peak)


def test_a_huge_family_is_refused_before_it_is_built(capsys):
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(IndexOutOfRange, match="hermite members to index 100000 hold 5000150001 coefficients"):
            polycert.orthonormal_family("hermite", 100_000)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 2**16, (elapsed, peak)
    code, doc = run(capsys, "polycheck", "--max", "100000")
    assert code == 1 and doc["error"]["kind"] == "IndexOutOfRange"


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


def test_deeply_nested_json_is_a_schema_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    code = main(["validate", str(deep)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["kind"] == "SchemaError"
    assert error["detail"].startswith(": invalid JSON")


def test_schema_refusal_reports_its_path(capsys, tmp_path):
    code, doc = run(capsys, "fixtures", "coin")
    doc["outcomes"][1]["label"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out) == {
        "error": {"kind": "SchemaError", "detail": "/outcomes/1/label: expected a string"}
    }


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


@pytest.mark.parametrize("where", ["missing/report.json", "file/report.json"])
def test_unwritable_out_is_an_oserror_report(capsys, tmp_path, where):
    (tmp_path / "file").write_text("")
    for argv in (["validate", "trine"], ["split", "trine"]):
        code = main([*argv, "--out", str(tmp_path / where)])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["error"]["kind"] == "OSError"
        assert captured.err == ""


def test_fixtures_write_onto_a_file_is_an_oserror_report(capsys, tmp_path):
    (tmp_path / "file").write_text("")
    code, doc = run(capsys, "fixtures", "--write", str(tmp_path / "file"))
    assert code == 1
    assert doc["error"]["kind"] == "OSError"


@pytest.mark.parametrize(
    "argv",
    [["validate", "trine"], ["split", "BIG"], ["fixtures", "nope"], ["--version"], ["polycheck", "--help"]],
)
def test_closed_stdout_exits_1_with_nothing_on_stderr(tmp_path, argv):
    """A reader gone before the report, the version or the help text is
    written: no second report, no traceback."""
    if "BIG" in argv:  # a report far past the pipe's buffer
        big = tmp_path / "big.json"
        big.write_text(json.dumps(povm_to_dict(random_povm(np.random.default_rng(SEED), 12, 6))))
        argv = [str(big) if a == "BIG" else a for a in argv]
    read, write = os.pipe()
    os.close(read)
    try:
        out = _child("-m", "povm_purity", *argv, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (1, b"")


def test_tolerance_overrides_reach_envelope(capsys):
    code, doc = run(capsys, "validate", "trine", "--tol-abs", "1e-6", "--tol-rank", "1e-5")
    assert code == 0
    assert doc["tolerances"] == {"abs_eps": 1e-6, "rank_rel": 1e-5}
    assert list(doc) == ["tool", "command", "tolerances", "inputs", "report"]


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
