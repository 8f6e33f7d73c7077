"""The binomial expansion of carleson._runs, its oracle.

runs is _runs as it was before it formed S(u) by Horner's rule, unchanged:
both must return the same integer lists.
"""

import math


def runs(terms: list[tuple[int, int]]) -> list[tuple[int, list[int]]]:
    """(N, S) for each run of consecutive exponents N..N+w of sum_e n_e s^e:
    since s = (1-u)^2 in u = 1 - r, the run is (1-u)^{2N} S(u) with
    S(u) = sum_e n_e (1-u)^{2(e-N)}, whose integer coefficients are formed
    exactly.  A run of w + 1 terms gives S degree 2w; a zero term does not
    end it, so a spike term, zeros kept, is one run."""
    runs = []
    starts = [i for i in range(len(terms)) if i == 0 or terms[i][0] != terms[i - 1][0] + 1]
    for lo, hi in zip(starts, [*starts[1:], len(terms)]):
        low = terms[lo][0]
        s = [0] * (2 * (hi - lo) - 1)
        for e, num in terms[lo:hi]:
            d = 2 * (e - low)
            for k in range(d + 1):
                s[k] += (-1) ** k * math.comb(d, k) * num
        runs.append((low, s))
    return runs
