"""Exact-rational oracles for the sums the package adds as integer fractions.

gradient_sq_mass is the package's earlier route to the gradient mass: one
Fraction per distinct exponent sum E, reduced at every step, then rounded
once by float(Fraction).  The package now adds the same pieces as
unreduced integer pairs; both must round to the same double.
"""

from fractions import Fraction

from hardyshift.search import TWO_PI, _integer_coefficients


def gradient_sq_mass(series) -> float:
    """2 pi sum_E s_E / (2E (2E+1)) / scale^2, s_E = sum over e_i + e_j = E of
    a_i a_j, a_i = e_i n_i, summed in Fraction and rounded once."""
    coeffs, scale = _integer_coefficients(series)
    terms = [(e, e * n) for e, n in coeffs if e]
    sums: dict[int, int] = {}
    for ei, ai in terms:
        for ej, aj in terms:
            sums[ei + ej] = sums.get(ei + ej, 0) + ai * aj
    total = sum(Fraction(s, 2 * e * (2 * e + 1)) for e, s in sums.items())
    return TWO_PI * float(total / scale ** 2)
