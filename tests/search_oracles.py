"""The doubling-then-bisection spike search, the oracle for
search.select_spike_positions, which steps by the lemma's decay orders.

select_spike_positions is the search as it was before that step,
unchanged: it probes with search.probe_and_predict at the spike's budget
and thresholds and confirms with search.spike_gate, both looked up at call
time, and reads search.MAX_START at call time, so a test's patches reach
it as they reach the search.
Both must return the same starts, or raise the same
InfeasibleConstructionError.
"""

from hardyshift import search
from hardyshift.search import InfeasibleConstructionError, _check_construction
from hardyshift.weights import SpikeSpec


def select_spike_positions(alpha: float, delta: float, n_spikes: int) -> list[int]:
    """Doubles from start 1, or from the floor past the previous spike, up
    to MAX_START, then bisects down to a start whose predecessor fails the
    head probe; the full gate confirms it, stepping up one start while it
    fails.  A probe or gate failing at MAX_START, or a floor past it,
    raises InfeasibleConstructionError naming the spike."""
    _check_construction(alpha, delta, n_spikes)

    starts: list[int] = []
    floor = 1
    for k in range(1, n_spikes + 1):
        def stop_at_cap(n: int) -> None:
            if n >= search.MAX_START:
                raise InfeasibleConstructionError(
                    f"no admissible start for spike {k} at or below {search.MAX_START} "
                    f"(alpha={alpha}, delta={delta})"
                )

        def probe(n: int) -> bool:
            spike = SpikeSpec(n, k)
            thresholds = search.spike_correction_thresholds(delta, k)
            return search.probe_and_predict(search.spike_budget(alpha, spike), thresholds, n)[0]

        lo, hi = None, floor
        while hi > search.MAX_START or not probe(hi):
            stop_at_cap(hi)
            lo, hi = hi, min(2 * hi, search.MAX_START)
        if lo is not None:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if probe(mid):
                    hi = mid
                else:
                    lo = mid
        while not search.spike_gate(alpha, delta, SpikeSpec(hi, k)).passed:
            stop_at_cap(hi)
            hi += 1
        starts.append(hi)
        floor = hi + 2 * k + 1  # next spike must start past this one's end
    return starts
