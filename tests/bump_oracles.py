"""mpmath oracles for the decay quantities of the edge bump s^n (1 - s), s = r^2.

Each is computed independently of the package's closed forms: the suprema
at the real roots of the polynomial whose zeros are the critical radii,
the Laplacian mass from the antiderivative on both sides of the sign
change r* = n / (n + 1).
"""

import mpmath


def _critical_radii(cubic):
    roots = mpmath.polyroots(cubic, maxsteps=200, extraprec=200)
    radii = [mpmath.re(z) for z in roots if abs(mpmath.im(z)) < mpmath.mpf(10) ** -40]
    return [r for r in radii if 0 < r < 1]


def laplacian_sup(n: int) -> mpmath.mpf:
    """max of r^{2n-2} |n^2 - (n+1)^2 r^2| (1 - r)^2 over [0, 1): the critical
    radii solve (2n-2)(a - b r^2)(1 - r) - 2 b r^2 (1 - r) - 2 r (a - b r^2) = 0,
    a = n^2 and b = (n+1)^2; r = 0 counts for n = 1."""
    with mpmath.workdps(60):
        a, b = mpmath.mpf(n) ** 2, mpmath.mpf(n + 1) ** 2
        c = 2 * n - 2
        cubic = [(c + 4) * b, -(c + 2) * b, -(c + 2) * a, c * a]
        values = [r ** (2 * n - 2) * abs(a - b * r * r) * (1 - r) ** 2 for r in _critical_radii(cubic)]
        return max(values + ([a] if n == 1 else []))


def gradient_sup(n: int) -> mpmath.mpf:
    """max of r^{2n-1} |n - (n+1) r^2| (1 - r) over [0, 1), at the real roots of
    the cubic 2(n+1)^2 r^3 - (n+1)(2n+1) r^2 - 2n^2 r + n(2n-1)."""
    with mpmath.workdps(60):
        cubic = [2 * (n + 1) ** 2, -(n + 1) * (2 * n + 1), -2 * n * n, n * (2 * n - 1)]
        return max(abs(r ** (2 * n - 1) * (n - (n + 1) * r * r) * (1 - r))
                   for r in _critical_radii(cubic))


def laplacian_mass(n: int) -> mpmath.mpf:
    """2 pi integral_0^1 |n^2 r^{2n-2} - (n+1)^2 r^{2n}| (1 - r) r dr, from the
    antiderivative of the polynomial on [0, r*] and [r*, 1]."""
    with mpmath.workdps(80):
        def antiderivative(r):
            return (n * n * (r ** (2 * n) / (2 * n) - r ** (2 * n + 1) / (2 * n + 1))
                    - (n + 1) ** 2 * (r ** (2 * n + 2) / (2 * n + 2) - r ** (2 * n + 3) / (2 * n + 3)))

        zero, r_star, one = mpmath.mpf(0), mpmath.mpf(n) / (n + 1), mpmath.mpf(1)
        mid = antiderivative(r_star)
        return 2 * mpmath.pi * (abs(mid - antiderivative(zero)) + abs(antiderivative(one) - mid))


def gradient_sq_mass(n: int) -> mpmath.mpf:
    """2 pi [n^2 B(4n-1) - 2n(n+1) B(4n+1) + (n+1)^2 B(4n+3)], B(m) = 1/((m+1)(m+2))."""
    with mpmath.workdps(60):
        def b(m):
            return mpmath.mpf(1) / ((m + 1) * (m + 2))
        return 2 * mpmath.pi * (n * n * b(4 * n - 1) - 2 * n * (n + 1) * b(4 * n + 1)
                                + (n + 1) ** 2 * b(4 * n + 3))
