"""Channel recommendation from secondary users' access experience.

Every resolved channel access leaves a rating: how many slots the user
transmitted before the primary user came back (the full K when it never
did). Channels are scored by the mean rating over a recent time window,
optionally discounting each record by the distance between its author and
the target user, and channels above a threshold form the recommendation
list.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional, Sequence


def score_access(slots_transmitted: int, k: int) -> int:
    """Rating for one access: slots sent before interruption, at most K."""
    if not 0 <= slots_transmitted <= k:
        raise ValueError(
            f"slots_transmitted must be in [0, {k}], got {slots_transmitted}"
        )
    return int(slots_transmitted)


@dataclass
class ScoreMatrix:
    """Access records, appended in time order.

    A record is one access outcome: user, channel, time and rating. One
    time-ordered log keeps every record's (su, channel, rating) and its
    time, so a recent-window query bisects it and walks just the window's
    records. Each channel also keeps its records' times and a running sum
    of their ratings, so one channel's window mean is two bisections.
    """

    n_su: int
    m_ch: int

    def __post_init__(self):
        self._times = [[] for _ in range(self.m_ch)]
        self._cum = [[0] for _ in range(self.m_ch)]  # ratings before each record
        self._log, self._log_times = [], []  # (su, channel, rating) per record

    def append(self, su: int, channel: int, t: int, rating: int) -> None:
        if not 0 <= su < self.n_su:
            raise ValueError(f"su {su} out of range")
        if not 0 <= channel < self.m_ch:
            raise ValueError(f"channel {channel} out of range")
        if rating < 0:
            raise ValueError(f"rating must be nonnegative, got {rating}")
        if self._log_times and t < self._log_times[-1]:
            raise ValueError("records must be appended in nondecreasing time order")
        self._times[channel].append(t)
        self._cum[channel].append(self._cum[channel][-1] + rating)
        self._log.append((su, channel, rating))
        self._log_times.append(t)

    def window_records(self, channel: int, now: int, window: int) -> list:
        """(su, rating) per record of a channel in the `window` slots before now."""
        j = bisect.bisect_left(self._log_times, now)
        i = bisect.bisect_left(self._log_times, now - window, 0, j)
        return [(su, r) for su, ch, r in self._log[i:j] if ch == channel]


def final_score(
    matrix: ScoreMatrix, channel: int, now: int, window: int
) -> Optional[float]:
    """Mean rating of a channel over the recent window; None when untried.

    All raters count equally (unit similarity).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    times = matrix._times[channel]
    j = bisect.bisect_left(times, now)
    i = bisect.bisect_left(times, now - window, 0, j)
    if i == j:
        return None
    cum = matrix._cum[channel]
    return (cum[j] - cum[i]) / (j - i)


def final_score_located(
    matrix: ScoreMatrix, weights: Sequence[float], now: int, window: int
) -> list:
    """Each channel's distance-weighted mean rating; None where untried.

    A record counts rating * e^(-d): weights[u] is e^(-d) for the Euclidean
    distance d from user u to the target user, so far-away experience
    contributes almost nothing. One pass over the window's records sums
    each channel's records in time order.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    times = matrix._log_times
    j = bisect.bisect_left(times, now)
    i = bisect.bisect_left(times, now - window, 0, j)
    totals, counts = [0.0] * matrix.m_ch, [0] * matrix.m_ch
    for su, channel, rating in matrix._log[i:j]:
        totals[channel] += rating * weights[su]
        counts[channel] += 1
    return [total / n if n else None for total, n in zip(totals, counts)]


def default_threshold(scores: Sequence[Optional[float]]) -> Optional[float]:
    """Half the best defined score; None when every channel is unscored."""
    defined = [s for s in scores if s is not None]
    if not defined:
        return None
    return max(defined) / 2.0
