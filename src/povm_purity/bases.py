"""The orthonormal polynomial bases of ``polycert``: names, weights, intervals
and three-term recurrences.

The table lives apart from the certificate machinery so that the CLI can list
``polycheck --basis`` choices without loading it.
"""

# basis name -> (weight, interval) for reporting, and the row n -> (a, b, c, d)
# of the recurrence p_{n+1} = ((a x + b) p_n - c p_{n-1}) / d from p_0 = 1,
# p_{-1} = 0 (DLMF 18.9), whose division is exact: p_n is H_n, 2^n P_n, n! L_n
# or x^n, with integer coefficients, each of the first three a positive multiple
# of its orthonormal member
BASIS_INFO = {
    "hermite": ("exp(-x^2)", "(-inf, inf)", lambda n: (2, 0, 2 * n, 1)),
    "legendre": ("1", "[-1, 1]", lambda n: (2 * (2 * n + 1), 0, 4 * n, n + 1)),
    "laguerre": ("exp(-x)", "[0, inf)", lambda n: (-1, 2 * n + 1, n * n, 1)),
    "monomial": ("1", "[-1, 1]", lambda n: (1, 0, 0, 1)),
}
