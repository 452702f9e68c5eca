"""Finite-outcome POVMs on C^d.

A measurement is a labelled sequence of positive semidefinite effects summing
to the identity.  :func:`validate` is the single gatekeeper: everything else
in the package assumes its input went through it (ops are cheap at desk scale
but re-validating on every call would dominate, so the contract is explicit
instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateLabel,
    InvalidMixWeight,
    LabelMismatch,
    NotNormalized,
    NotPsd,
    SchemaError,
)
from .linalg import DEFAULT_TOL, Tolerance, opnorm, psd_mask
from .wire import matrix_from_pairs, matrix_to_pairs

__all__ = [
    "Povm",
    "validate",
    "is_pvm",
    "mix",
    "support_dominates",
    "povm_to_dict",
    "povm_from_dict",
]

# The sum-to-identity residual is allowed to be looser than abs_eps: it
# accumulates over outcomes.
NORMALIZATION_EPS = 1e-9

# Idempotence threshold for the sharpness test ||E^2 - E||.
PVM_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class Povm:
    """Labelled effects on C^dim.  Construct, then :func:`validate`."""

    dim: int
    labels: tuple[str, ...]
    effects: tuple[np.ndarray, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(zip(self.labels, self.effects))

    def effect(self, label: str) -> np.ndarray:
        try:
            return self.effects[self.labels.index(label)]
        except ValueError:
            raise KeyError(label) from None


def validate(
    dim: int,
    outcomes: Iterable[tuple[str, np.ndarray]],
    tol: Tolerance = DEFAULT_TOL,
) -> Povm:
    """Check shapes, positivity and normalization; return a frozen Povm.

    Raises
    ------
    DimensionMismatch
        An effect is not dim x dim.
    DuplicateLabel
        Two outcomes share a label.
    NotPsd
        An effect fails the positivity check (message names the label).
    NotNormalized
        The effects do not sum to the identity within 1e-9.
    """
    pairs = list(outcomes)
    if dim < 1:
        raise DimensionMismatch(f"dimension must be positive, got {dim}")
    if not pairs:
        raise NotNormalized("a measurement needs at least one outcome")
    labels = tuple(str(lab) for lab, _ in pairs)
    if len(set(labels)) != len(labels):
        dupes = sorted({lab for lab in labels if labels.count(lab) > 1})
        raise DuplicateLabel(f"duplicate outcome labels: {dupes}")
    # Effects are checked in order, shape before positivity; the positivity
    # of every effect before the first misshapen one comes from one stack.
    arrays, misshapen = [], None
    for lab, eff in pairs:
        a = np.asarray(eff, dtype=np.complex128)
        if a.shape != (dim, dim):
            misshapen = DimensionMismatch(f"effect {lab!r} has shape {a.shape}, expected ({dim}, {dim})")
            break
        arrays.append(a)
    if arrays:
        stack = np.stack(arrays)
        psd = psd_mask(stack, tol)
        if not psd.all():
            raise NotPsd(f"effect {pairs[int(np.argmin(psd))][0]!r} is not positive semidefinite within tolerance")
    if misshapen is not None:
        raise misshapen
    stack.setflags(write=False)
    effects = tuple(stack)
    residual = opnorm(sum(effects) - np.eye(dim))
    if residual > NORMALIZATION_EPS:
        raise NotNormalized(f"effects sum to identity with residual {residual:.3e} > {NORMALIZATION_EPS:g}")
    return Povm(dim=dim, labels=labels, effects=effects)


def is_pvm(p: Povm) -> bool:
    """True iff every effect is idempotent, ||E^2 - E|| <= 1e-9.

    Idempotence suffices: a POVM of projections automatically has mutually
    orthogonal effects, so no pairwise check is needed.
    """
    return all(opnorm(e @ e - e) <= PVM_EPS for e in p.effects)


def _require_same_labels(p: Povm, q: Povm) -> None:
    if p.labels != q.labels:
        raise LabelMismatch(f"outcome labels differ: {p.labels} vs {q.labels}")


def mix(p: Povm, q: Povm, a: float, tol: Tolerance = DEFAULT_TOL) -> Povm:
    """Convex combination a*P + (1-a)*Q, outcome by outcome.

    Requires matching label sequences, equal dimensions and a in (0, 1).
    """
    _require_same_labels(p, q)
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimensions differ: {p.dim} vs {q.dim}")
    a = float(a)
    if not 0.0 < a < 1.0:
        raise InvalidMixWeight(f"mixing weight must lie strictly inside (0, 1), got {a}")
    outcomes = [(lab, a * e + (1.0 - a) * f) for (lab, e), f in zip(p, q.effects)]
    return validate(p.dim, outcomes, tol)


def support_dominates(p: Povm, q: Povm, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every vanishing effect of ``p`` also vanishes in ``q``.

    Dimensions may differ; the label sequences must match.
    """
    _require_same_labels(p, q)
    return all(
        opnorm(f) <= tol.abs_eps
        for e, f in zip(p.effects, q.effects)
        if opnorm(e) <= tol.abs_eps
    )


# ---------------------------------------------------------------------------
# JSON schema, shared with the CLI:
#   {"dim": d, "outcomes": [{"label": str, "effect": [[[re, im], ...], ...]}]}
# ---------------------------------------------------------------------------


def povm_to_dict(p: Povm) -> dict:
    return {
        "dim": p.dim,
        "outcomes": [
            {"label": lab, "effect": matrix_to_pairs(eff)} for lab, eff in p
        ],
    }


def povm_from_dict(obj, tol: Tolerance = DEFAULT_TOL) -> Povm:
    """Parse and validate the JSON object form.  SchemaError carries the path."""
    if not isinstance(obj, dict):
        raise SchemaError("", "expected a JSON object")
    if "dim" not in obj:
        raise SchemaError("/dim", "missing")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError("/dim", f"expected a positive integer, got {dim!r}")
    if "outcomes" not in obj:
        raise SchemaError("/outcomes", "missing")
    raw = obj["outcomes"]
    if not isinstance(raw, list) or not raw:
        raise SchemaError("/outcomes", "expected a non-empty array")
    extra = set(obj) - {"dim", "outcomes"}
    if extra:
        raise SchemaError(f"/{sorted(extra)[0]}", "unexpected key")
    outcomes: list[tuple[str, np.ndarray]] = []
    for i, entry in enumerate(raw):
        path = f"/outcomes/{i}"
        if not isinstance(entry, dict):
            raise SchemaError(path, "expected an object with 'label' and 'effect'")
        if "label" not in entry:
            raise SchemaError(f"{path}/label", "missing")
        if not isinstance(entry["label"], str):
            raise SchemaError(f"{path}/label", "expected a string")
        if "effect" not in entry:
            raise SchemaError(f"{path}/effect", "missing")
        eff = matrix_from_pairs(entry["effect"], f"{path}/effect", rows=dim, cols=dim)
        outcomes.append((entry["label"], eff))
    return validate(dim, outcomes, tol)
