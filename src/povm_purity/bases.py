"""The orthonormal polynomial bases of ``polycert``: names, weights, intervals
and member builders.

The table lives apart from the certificate machinery so that the CLI can list
``polycheck --basis`` choices without loading it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IndexOutOfRange


def _hermite_member(n: int) -> tuple[list[int], np.ndarray]:
    # physicists' convention: H_{n+1} = 2x H_n - 2n H_{n-1}, in closed form,
    # normalized by c_n = (2^n n! sqrt(pi))^(-1/2) against weight exp(-x^2).
    try:
        cn = 1.0 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    except OverflowError:  # n! or 2^n alone is past the double range
        cn = 0.0
    if cn == 0.0:
        raise IndexOutOfRange(
            f"Hermite index {n} is too large: its normalization constant is not a positive double"
        )
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        m = n - 2 * k  # H_n = sum_k (-1)^k n! / (k! m!) (2x)^m
        coeffs[m] = (-1) ** k * math.factorial(n) // (math.factorial(k) * math.factorial(m)) * 2**m
    return coeffs, cn * np.array(coeffs, dtype=float)


def _legendre_member(n: int) -> tuple[list[int], np.ndarray]:
    # 2^n P_n = sum_k (-1)^k C(n, k) C(2n - 2k, n) x^(n - 2k)
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = (-1) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n)
    return coeffs, math.sqrt((2.0 * n + 1.0) / 2.0) * np.array([c / 2**n for c in coeffs])


def _laguerre_member(n: int) -> tuple[list[int], np.ndarray]:
    # n! L_n; L_n is already orthonormal against exp(-x) on [0, inf)
    coeffs = [(-1) ** k * math.comb(n, k) * math.factorial(n) // math.factorial(k) for k in range(n + 1)]
    return coeffs, np.array([c / math.factorial(n) for c in coeffs])


def _monomial_member(n: int) -> tuple[list[int], np.ndarray]:
    coeffs = [0] * n + [1]
    return coeffs, np.array(coeffs, dtype=float)


# basis name -> (weight, interval) for reporting, and the member builder
# n -> (integer multiple of the member, low to high; the orthonormal member)
BASIS_INFO = {
    "hermite": ("exp(-x^2)", "(-inf, inf)", _hermite_member),
    "legendre": ("1", "[-1, 1]", _legendre_member),
    "laguerre": ("exp(-x)", "[0, inf)", _laguerre_member),
    "monomial": ("1", "[-1, 1]", _monomial_member),
}
