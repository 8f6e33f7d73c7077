import pytest
from hypothesis import strategies as st

from hardyshift import ConstructionConfig, build_spiked_weights

# positions produced by the search at alpha=1, delta=0.5; their minimality
# is asserted in test_construction
STANDARD_STARTS = (3, 32, 117)


@pytest.fixture(scope="session")
def standard_config() -> ConstructionConfig:
    return ConstructionConfig(alpha=1.0, delta=0.5, n_spikes=3,
                              spike_starts=STANDARD_STARTS)


@st.composite
def spiked_layouts(draw):
    """Random alpha in [0.01, 3] and up to four separated spikes with half widths 1, 2, ..."""
    alpha = draw(st.floats(0.01, 3.0))
    gaps = draw(st.lists(st.integers(1, 40), max_size=4))
    starts, nxt = [], 0
    for k, gap in enumerate(gaps, start=1):
        starts.append(nxt + gap - 1)
        nxt = starts[-1] + 2 * k + 1  # first index past spike k
    return build_spiked_weights(alpha, starts)
