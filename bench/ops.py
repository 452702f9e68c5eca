"""The operations the workloads time.  This module imports only the program.

Each case's call is ``functools.partial(<op>, *inputs)``, so set-up can
pickle a workload's first call for ``cold.py`` to run alone in a fresh
process.  Calls go through the module attributes, so the traced run's
wrappers see them.
"""

from __future__ import annotations

from povm_purity import channels, dilation, extremality, phase, polycert


def purity(p):
    """build_dilation, purity_verdict, and convex_split when impure."""
    dil = dilation.build_dilation(p)
    v = extremality.purity_verdict(p)
    split = None if v.pure else extremality.convex_split(p, v)
    return dil, v, split


def feasible(p, q, budget: int):
    return channels.connection_feasible(p, q, max_iter=budget)


def preprocess(pvm, target):
    return channels.preprocess_from_pvm(pvm, target)


def product_span(fam, degree: int):
    return polycert.product_span_certificate(fam, degree)


def fourier_span(fam, order: int):
    return phase.fourier_span_certificate(fam, order)


def phase_demo(fam, order: int, grid: int):
    return phase.phase_truncation_demo(fam, order, grid)
