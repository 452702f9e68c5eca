"""Command-line front end.

Every subcommand reads POVMs in the shared JSON schema (or by built-in
fixture name), prints a deterministic JSON report to stdout (or ``--out``),
and exits 0 on success, 2 on a mathematical "no" (not pure, not feasible
within budget, inconclusive certificate) and 1 on any tool error.  Error
reports look like {"error": {"kind": ..., "detail": ...}}.

Reports embed the tool version, the tolerances used and a sha256 digest of
each input, and identical invocations produce byte-identical output (floats
are printed with 17 significant digits; nothing time- or path-dependent goes
in).  POVM_PURITY_SEED seeds the randomized helpers of the test suite; the
subcommands themselves are deterministic and ignore it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channels import apply_dual, connection_feasible, preprocess_from_pvm
from .dilation import build_dilation, dilation_is_unitary
from .errors import PovmError, SchemaError
from .extremality import convex_split, purity_verdict
from .fixtures import FIXTURE_NAMES, fixture
from .linalg import Tolerance, opnorm
from .phase import geometric_tail_family, phase_truncation_demo, single_mode_family
from .polycert import BASIS_INFO, orthonormal_family, product_span_certificate
from .povm import Povm, is_pvm, povm_from_dict, povm_to_dict
from .wire import dumps_report, matrix_to_pairs, sha256_hex

TOOL_NAME = "povm-purity"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; 2 is reserved for verdicts."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _tolerance(args) -> Tolerance:
    return Tolerance(abs_eps=args.tol_abs, rank_rel=args.tol_rank)


def _load_povm(arg: str, tol: Tolerance) -> tuple[Povm, dict]:
    path = Path(arg)
    if path.is_file():
        data = path.read_bytes()
        try:
            obj = json.loads(data)
        except ValueError as exc:
            raise SchemaError("", f"invalid JSON in {arg}: {exc}") from None
        return povm_from_dict(obj, tol), {"path": arg, "sha256": sha256_hex(data)}
    name = path.name[: -len(".json")] if path.name.endswith(".json") else path.name
    if name in FIXTURE_NAMES:
        p = fixture(name)
        # digest of the canonical file form, matching what --write produces
        data = (dumps_report(povm_to_dict(p)) + "\n").encode()
        return p, {"path": f"fixture:{name}", "sha256": sha256_hex(data)}
    raise SchemaError("", f"no such file or fixture: {arg}")


def _envelope(command: str, tol: Tolerance, inputs: list[dict], report: dict) -> dict:
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "command": command,
        "tolerances": {"abs_eps": tol.abs_eps, "rank_rel": tol.rank_rel},
        "inputs": inputs,
        "report": report,
    }


def _witness_json(witness) -> list | None:
    if witness is None:
        return None
    return [{"label": lab, "block": matrix_to_pairs(b)} for lab, b in witness.items()]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, report_dict)
# ---------------------------------------------------------------------------


def _cmd_validate(args, tol):
    p, src = _load_povm(args.povm, tol)
    report = {
        "valid": True,
        "dim": p.dim,
        "n_outcomes": len(p),
        "is_pvm": is_pvm(p, tol),
    }
    return EXIT_OK, _envelope("validate", tol, [src], report)


def _cmd_purity(args, tol):
    p, src = _load_povm(args.povm, tol)
    v = purity_verdict(p, tol)
    report = {
        "pure": v.pure,
        "kernel_dim": v.kernel_dim,
        "smallest_sv": v.smallest_singular_value,
        "marginal": v.marginal,
        "witness": _witness_json(v.witness),
    }
    return (EXIT_OK if v.pure else EXIT_NEGATIVE), _envelope("purity", tol, [src], report)


def _cmd_split(args, tol):
    p, src = _load_povm(args.povm, tol)
    v = purity_verdict(p, tol)
    split = convex_split(p, v, tol)  # raises IsPure on extremal input
    residual = max(
        opnorm(0.5 * (ep + em) - e)
        for ep, em, e in zip(split.plus.effects, split.minus.effects, p.effects)
    )
    report = {
        "witness": _witness_json(v.witness),
        "mix_residual": residual,
        "plus": povm_to_dict(split.plus),
        "minus": povm_to_dict(split.minus),
    }
    return EXIT_OK, _envelope("split", tol, [src], report)


def _cmd_dilate(args, tol):
    p, src = _load_povm(args.povm, tol)
    dil = build_dilation(p, tol)
    blocks = [
        {"label": lab, "multiplicity": hi - lo, "factor": matrix_to_pairs(dil.block(lab))}
        for lab, (lo, hi) in dil.block_index.items()
    ]
    j = dil.isometry
    defect = opnorm(j.conj().T @ j - np.eye(p.dim))
    report = {
        "total_dim": dil.total_dim,
        "dim": p.dim,
        "is_unitary": dilation_is_unitary(dil, tol),
        "isometry_defect": defect,
        "blocks": blocks,
    }
    return EXIT_OK, _envelope("dilate", tol, [src], report)


def _cmd_preprocess(args, tol):
    p, src_p = _load_povm(args.pvm, tol)
    q, src_q = _load_povm(args.povm, tol)
    ch = preprocess_from_pvm(p, q, tol)
    pullback = max(opnorm(apply_dual(ch, e) - f) for e, f in zip(p.effects, q.effects))
    report = {
        "in_dim": ch.in_dim,
        "out_dim": ch.out_dim,
        "n_kraus": len(ch.kraus),
        "tp_defect": ch.tp_defect(),
        "max_pullback_residual": pullback,
        "kraus": [matrix_to_pairs(a) for a in ch.kraus],
    }
    return EXIT_OK, _envelope("preprocess-from-pvm", tol, [src_p, src_q], report)


def _cmd_feasible(args, tol):
    p, src_p = _load_povm(args.source, tol)
    q, src_q = _load_povm(args.target, tol)
    res = connection_feasible(p, q, max_iter=args.max_iter, tol=tol)
    report = {
        "feasible": res.feasible,
        "residual": res.residual,
        "iterations": res.iterations,
        "max_iter": args.max_iter,
        "residual_history": list(res.residual_history),
        "choi": matrix_to_pairs(res.choi.matrix) if res.choi is not None else None,
    }
    code = EXIT_OK if res.feasible else EXIT_NEGATIVE
    return code, _envelope("feasible", tol, [src_p, src_q], report)


def _cmd_polycheck(args, tol):
    exclude = () if args.exclude is None else (args.exclude,)
    fam = orthonormal_family(args.basis, args.max, exclude=exclude)
    degree = args.degree if args.degree is not None else args.max
    cert = product_span_certificate(fam, degree, tol)
    weight, interval = BASIS_INFO[args.basis]
    report = {
        "basis": args.basis,
        "weight": weight,
        "interval": interval,
        "max_index": args.max,
        "excluded": args.exclude,
        "n_members": len(fam.members),
        "check_degree": degree,
        "verdict": cert.verdict,
        "certified_to_degree": cert.certified_to_degree,
        "missing_degrees": list(cert.missing_degrees),
    }
    return (EXIT_OK if cert.certified else EXIT_NEGATIVE), _envelope("polycheck", tol, [], report)


def _cmd_phase_demo(args, tol):
    if args.target == "geometric":
        fam = geometric_tail_family(args.members, ratio=args.ratio, support=args.support)
    else:
        fam = single_mode_family(args.members)
    demo = phase_truncation_demo(fam, args.M, args.grid)
    gram = demo.full_circle_gram
    consistency = opnorm(demo.gram_vectors.gram() - gram)
    report = {
        "target": args.target,
        "n_members": args.members,
        "order": demo.order,
        "grid": demo.grid,
        "sup_error": demo.sup_error,
        "unital_defect": demo.unital_defect,
        "gram_consistency_defect": consistency,
        "full_circle_gram": matrix_to_pairs(gram),
    }
    return EXIT_OK, _envelope("phase-demo", tol, [], report)


def _cmd_fixtures(args, tol):
    if args.write is not None:
        outdir = Path(args.write)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        for name in FIXTURE_NAMES:
            path = outdir / f"{name}.json"
            path.write_text(dumps_report(povm_to_dict(fixture(name))) + "\n")
            written.append(str(path))
        return EXIT_OK, _envelope("fixtures", tol, [], {"written": written})
    if args.name is not None:
        if args.name not in FIXTURE_NAMES:
            raise SchemaError("", f"unknown fixture {args.name!r}; one of {list(FIXTURE_NAMES)}")
        return EXIT_OK, povm_to_dict(fixture(args.name))
    return EXIT_OK, _envelope("fixtures", tol, [], {"fixtures": list(FIXTURE_NAMES)})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=TOOL_NAME,
        description="Purity analysis, dilations and pre-processing channels for finite-outcome POVMs.",
        epilog="Exit codes: 0 success, 2 negative verdict (not pure / not feasible within "
        "budget / inconclusive), 1 tool error.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-abs", type=float, default=1e-10, metavar="EPS",
                        help="absolute tolerance for symmetry/positivity checks (default 1e-10)")
    common.add_argument("--tol-rank", type=float, default=1e-8, metavar="REL",
                        help="relative singular-value cutoff for numeric rank (default 1e-8)")
    common.add_argument("--out", metavar="PATH", help="write the JSON report here instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("validate", parents=[common], help="check a POVM file (or fixture name)")
    sp.add_argument("povm")
    sp.set_defaults(handler=_cmd_validate)

    sp = sub.add_parser("purity", parents=[common], help="extremality verdict with witness")
    sp.add_argument("povm")
    sp.set_defaults(handler=_cmd_purity)

    sp = sub.add_parser("split", parents=[common], help="convex split of an impure POVM")
    sp.add_argument("povm")
    sp.set_defaults(handler=_cmd_split)

    sp = sub.add_parser("dilate", parents=[common], help="minimal projective dilation")
    sp.add_argument("povm")
    sp.set_defaults(handler=_cmd_dilate)

    sp = sub.add_parser("preprocess-from-pvm", parents=[common],
                        help="measure-and-prepare channel from a PVM to a dominated POVM")
    sp.add_argument("pvm")
    sp.add_argument("povm")
    sp.set_defaults(handler=_cmd_preprocess)

    sp = sub.add_parser("feasible", parents=[common],
                        help="search for a connecting channel (Choi/Dykstra; one-sided)")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("--max-iter", type=int, default=10000, metavar="N",
                    help="projection iteration budget (default 10000)")
    sp.set_defaults(handler=_cmd_feasible)

    sp = sub.add_parser("polycheck", parents=[common],
                        help="polynomial product-span purity certificate")
    sp.add_argument("--basis", choices=sorted(BASIS_INFO), default="hermite")
    sp.add_argument("--max", type=int, required=True, metavar="M",
                    help="largest member index")
    sp.add_argument("--exclude", type=int, default=None, metavar="K",
                    help="member index to drop")
    sp.add_argument("--degree", type=int, default=None, metavar="D",
                    help="check degree (default: --max)")
    sp.set_defaults(handler=_cmd_polycheck)

    sp = sub.add_parser("phase-demo", parents=[common],
                        help="Fourier truncation diagnostics for a phase-like family")
    sp.add_argument("--M", type=int, required=True, help="truncation order")
    sp.add_argument("--grid", type=int, default=4096,
                    help="validated and echoed; integrals are exact, so it changes no number (default 4096)")
    sp.add_argument("--target", choices=("geometric", "single-mode"), default="geometric")
    sp.add_argument("--members", type=int, default=4, help="family size (default 4)")
    sp.add_argument("--ratio", type=float, default=0.5, help="geometric tail ratio (default 0.5)")
    sp.add_argument("--support", type=int, default=32, help="geometric tail support (default 32)")
    sp.set_defaults(handler=_cmd_phase_demo)

    sp = sub.add_parser("fixtures", parents=[common], help="list, print or write built-in fixtures")
    sp.add_argument("name", nargs="?", default=None)
    sp.add_argument("--write", metavar="DIR", help="write every fixture to DIR as JSON")
    sp.set_defaults(handler=_cmd_fixtures)
    return parser


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _tolerance(args)
        code, report = args.handler(args, tol)
    except PovmError as exc:
        _emit(args, dumps_report({"error": {"kind": exc.kind, "detail": str(exc)}}))
        return EXIT_ERROR
    except ValueError as exc:
        _emit(args, dumps_report({"error": {"kind": "ValueError", "detail": str(exc)}}))
        return EXIT_ERROR
    _emit(args, dumps_report(report))
    return code


def entry() -> None:
    sys.exit(main())
