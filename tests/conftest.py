import numpy as np
import pytest
from hypothesis import strategies as st

from hardyshift import ConstructionConfig, build_spiked_weights, kernel_diagonal_series

# positions produced by the search at alpha=1, delta=0.5; their minimality
# is asserted in test_construction
STANDARD_STARTS = (3, 32, 117)
# the starts `construct --alpha 1 --delta 0.5 --K 16` selects
K16_STARTS = (3, 32, 117, 343, 906, 2248, 5368, 12479, 28443, 63853, 141639, 311144, 678018,
              1467493, 3157899, 6761622)
# and the next eight of `--K 24`
K24_STARTS = (*K16_STARTS, 14414887, 30613062, 64792695, 136718533, 287703349, 603939264,
              1264943658, 2644017572)
# the starts `construct --alpha 1 --delta 1e-6 --K 8` selects, each minimal
SMALL_DELTA_K8 = (2551008, 16581563, 59310981, 172512049, 453601462, 1124756247,
                  2684818434, 6240348396)


@pytest.fixture(scope="session")
def standard_config() -> ConstructionConfig:
    return ConstructionConfig(alpha=1.0, delta=0.5, n_spikes=3,
                              spike_starts=STANDARD_STARTS)


@st.composite
def spiked_layouts(draw, max_spikes=4, max_gap=40):
    """Random alpha in [0.01, 3] and up to max_spikes separated spikes with half
    widths 1, 2, ..., each starting 1 .. max_gap past the previous one's end"""
    alpha = draw(st.floats(0.01, 3.0))
    gaps = draw(st.lists(st.integers(1, max_gap), max_size=max_spikes))
    starts, nxt = [], 0
    for k, gap in enumerate(gaps, start=1):
        starts.append(nxt + gap - 1)
        nxt = starts[-1] + 2 * k + 1  # first index past spike k
    return build_spiked_weights(alpha, starts)


def dense_curvature(weights, r) -> np.ndarray:
    """Delta log K from the dense truncated diagonal, the oracle for
    curvature_weighted's exact split: kernel_diagonal_series truncated by
    the tail bound at max(r), with the tolerance 1e-12 tightened by
    (1 - s)^3 so the tail of the second derivative stays negligible."""
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    s, r_top = r * r, float(np.max(r))
    tol = max(1e-12 * (1.0 - r_top * r_top) ** 3, 1e-300)
    k, k_p, k_pp = kernel_diagonal_series(weights, r_top, tol).eval_with_derivatives(s)
    return (k * (k_p + s * k_pp) - s * k_p * k_p) / (k * k)
