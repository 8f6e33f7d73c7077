"""The block scan that evaluates every grid point, the oracle for
carleson._block_roots, which skips the points whose sign it can certify.

full_scan is _block_roots as it was before that skip, unchanged: it must
return the same roots bit for bit.
"""

import math
from typing import Sequence

from hardyshift.carleson import _TINY, _Block, _block_density, brentq


def full_scan(blocks: Sequence[_Block]) -> list[float]:
    """Sign changes of the summed block densities in u in (0, 1), ascending.

    One geometric scan of 16 points per octave, from 2^-30 / (m+1) of the
    block with the largest m up to 1, brackets them, and brentq polishes
    each to rounding in u; two roots within 4 % of each other would be
    missed.  The scan's points are those of numpy's geomspace, formed the
    same way in floats: 10 ** y for y evenly spaced from log10 of the start
    to 0, with both ends pinned.  A value below the smallest normal float
    counts as zero, as in grids.sign_roots, and a bracket needs two nonzero
    ends of opposite sign.
    """
    if not blocks:
        return []
    top = max(b.m for b in blocks) + 1
    start, count = 2.0 ** -30 / top, 16 * (30 + top.bit_length())
    log_start = math.log10(start)
    step = -log_start / (count - 1)
    grid = [start, *(10.0 ** (i * step + log_start) for i in range(1, count - 1)), 1.0]
    values = [_block_density(blocks, u) for u in grid]
    values = [0.0 if abs(v) < _TINY else v for v in values]
    return [brentq(lambda u: _block_density(blocks, u), lo, hi, xtol=0.0)
            for lo, hi, a, b in zip(grid, grid[1:], values, values[1:])
            if (a < 0.0) != (b < 0.0) and abs(a) > 0.0 and abs(b) > 0.0]
