"""Finite-outcome POVMs on C^d.

A measurement is a labelled sequence of positive semidefinite effects summing
to the identity.  :func:`validate` is the single gatekeeper: everything else
in the package assumes its input went through it (ops are cheap at desk scale
but re-validating on every call would dominate, so the contract is explicit
instead).  Its positivity check is the package's one eigendecomposition of
the effects; the :class:`Povm` keeps it, and everything downstream reads it.
The halves of a convex split pass the same checks, at the split's tolerance,
through the same stack-level core: each half is one effect stack, with its
spectrum rows handed over by the split (the input's rows for the effects it
keeps, one solve shared by both halves for the others).
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
    NonFinite,
    NotNormalized,
    NotPsd,
    SchemaError,
    _is_integer,
)
from .linalg import DEFAULT_TOL, EigenResult, Tolerance, _hermitian_mask, _sorted_eig, opnorm
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

# Idempotence threshold for the sharpness test max |lambda^2 - lambda|.
PVM_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class Povm:
    """Labelled effects on C^dim with their stacked ``spectrum``, built by :func:`validate`."""

    dim: int
    labels: tuple[str, ...]
    effects: tuple[np.ndarray, ...] = field(repr=False)
    spectrum: EigenResult = field(repr=False)

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

    Positivity reads ``spectrum``, one batched eigendecomposition of the
    effect stack; nothing downstream decomposes these effects again.

    Raises
    ------
    DimensionMismatch
        ``dim`` is not a positive integer (a bool is not one), or an effect
        is not dim x dim.
    DuplicateLabel
        Two outcomes share a label.
    NonFinite
        An effect has a NaN or infinite entry (message names the label).
    NotPsd
        An effect is not Hermitian within abs_eps, or its smallest eigenvalue
        in ``spectrum`` is below -abs_eps (message names the label).
    NotNormalized
        The effects do not sum to the identity within 1e-9.
    """
    pairs = list(outcomes)
    if not _is_integer(dim) or dim < 1:
        raise DimensionMismatch(f"dimension must be a positive integer, got {dim!r}")
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
    if not arrays:
        raise misshapen
    return _checked(dim, tuple(lab for lab, _ in pairs), np.array([arrays]), tol, misshapen=misshapen)[0]


def _checked(
    dim: int,
    labels: tuple,
    stacks: np.ndarray,
    tol: Tolerance,
    spectra: EigenResult | None = None,
    misshapen: DimensionMismatch | None = None,
) -> list[Povm]:
    """The checks of :func:`validate` on h (k, dim, dim) complex effect
    stacks, ``stacks``, that share the k ``labels`` (errors name a label as
    given; each Povm holds them as strings).

    All h stacks are checked for finite entries first.  Then, stack by
    stack, each effect must be Hermitian and PSD, read from ``spectra``
    (computed for all h k effects at once), and the effects must sum to the
    identity, added left to right.  ``spectra`` holds the h k spectra in
    order: one batched solve when not given, else what ``_sorted_eig`` would
    return, as the convex split's are.  ``misshapen`` is :func:`validate`'s
    first effect of the wrong shape, raised after the positivity checks of
    the effects before it.  ``stacks`` and ``spectra`` are frozen; each Povm
    keeps views of them.
    """
    flat = stacks.reshape(-1, dim, dim)
    if not np.isfinite(flat).all():
        finite = np.isfinite(flat).all(axis=(1, 2))
        raise NonFinite(f"effect {labels[int(np.argmin(finite)) % len(labels)]!r} has a NaN or infinite entry")
    if spectra is None:
        spectra = _sorted_eig(flat)
    psd = _hermitian_mask(flat, tol) & (spectra.eigenvalues[:, -1] >= -tol.abs_eps)
    for a in (stacks, spectra.eigenvalues, spectra.eigenvectors):
        a.setflags(write=False)
    k, names, eye, povms = len(labels), tuple(str(lab) for lab in labels), np.eye(dim), []
    for h, stack in enumerate(stacks):
        rows = slice(h * k, (h + 1) * k)
        if not psd[rows].all():
            raise NotPsd(f"effect {labels[int(np.argmin(psd[rows]))]!r} is not positive semidefinite within tolerance")
        if misshapen is not None:
            raise misshapen
        spectrum = EigenResult(eigenvalues=spectra.eigenvalues[rows], eigenvectors=spectra.eigenvectors[rows])
        effects = tuple(stack)
        # sum(effects), in its order: numpy reduces the outcome axis outermost,
        # except when d = 1 leaves it innermost, to be summed pairwise
        gap = (np.add.reduce(stack) if dim > 1 else sum(effects)) - eye  # its Frobenius norm bounds opnorm
        residual = opnorm(gap) if np.linalg.norm(gap) > NORMALIZATION_EPS else 0.0
        if residual > NORMALIZATION_EPS:
            raise NotNormalized(f"effects sum to identity with residual {residual:.3e} > {NORMALIZATION_EPS:g}")
        povms.append(Povm(dim=dim, labels=names, effects=effects, spectrum=spectrum))
    return povms


def is_pvm(p: Povm) -> bool:
    """True iff every effect is idempotent, ||E^2 - E|| = max |lambda^2 - lambda| <= 1e-9.

    Idempotence suffices: a POVM of projections automatically has mutually
    orthogonal effects, so no pairwise check is needed.
    """
    return bool(np.abs(p.spectrum.eigenvalues**2 - p.spectrum.eigenvalues).max() <= PVM_EPS)


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
    """True iff every vanishing effect (||E|| <= abs_eps) of ``p`` also vanishes in ``q``.

    Dimensions may differ; the label sequences must match.
    """
    _require_same_labels(p, q)
    p_zero, q_zero = (np.abs(r.spectrum.eigenvalues).max(axis=1) <= tol.abs_eps for r in (p, q))
    return bool(q_zero[p_zero].all())


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
    if not _is_integer(dim) or dim < 1:
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
