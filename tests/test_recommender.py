import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crspectrum.channel import links
from crspectrum.recommender import (
    ScoreMatrix,
    default_threshold,
    final_score,
    final_score_located,
    score_access,
)


class TestScoreAccess:
    def test_interrupted_after_three(self):
        assert score_access(3, 5) == 3

    def test_immediate_collision(self):
        assert score_access(0, 5) == 0

    def test_uninterrupted(self):
        assert score_access(5, 5) == 5

    def test_over_cap_rejected(self):
        with pytest.raises(ValueError):
            score_access(6, 5)


class TestScoreMatrix:
    def test_append_and_window(self):
        m = ScoreMatrix(n_su=2, m_ch=3)
        m.append(su=0, channel=1, t=5, rating=3)
        m.append(su=1, channel=1, t=9, rating=2)
        m.append(su=0, channel=2, t=9, rating=4)
        # window [now-L, now) = [4, 14): both channel-1 records inside
        assert m.window_records(channel=1, now=14, window=10) == [(0, 3), (1, 2)]
        # shrink the window so only the later record stays
        assert m.window_records(channel=1, now=10, window=2) == [(1, 2)]

    def test_time_order_enforced(self):
        m = ScoreMatrix(n_su=1, m_ch=1)
        m.append(su=0, channel=0, t=5, rating=1)
        with pytest.raises(ValueError):
            m.append(su=0, channel=0, t=4, rating=1)

    def test_index_range(self):
        m = ScoreMatrix(n_su=1, m_ch=1)
        with pytest.raises(ValueError):
            m.append(su=1, channel=0, t=0, rating=0)
        with pytest.raises(ValueError):
            m.append(su=0, channel=1, t=0, rating=0)

    def test_negative_rating_rejected(self):
        m = ScoreMatrix(n_su=1, m_ch=1)
        with pytest.raises(ValueError):
            m.append(su=0, channel=0, t=0, rating=-1)


def _matrix_with(ratings_at):
    """ratings_at: list of (t, su, channel, rating)."""
    n_su = max(r[1] for r in ratings_at) + 1
    m_ch = max(r[2] for r in ratings_at) + 1
    m = ScoreMatrix(n_su=n_su, m_ch=m_ch)
    for t, su, ch, rating in sorted(ratings_at):
        m.append(su, ch, t, rating)
    return m


def _plain(m, now, window):
    """Every channel's score with all raters weighted equally."""
    return final_score_located(m, [1.0] * m.n_su, now=now, window=window)


class TestFinalScore:
    def test_mean_of_window(self):
        m = _matrix_with([(1, 0, 0, 3), (2, 1, 0, 2), (3, 0, 0, 4)])
        assert final_score(m, 0, now=4, window=10) == 3.0
        assert _plain(m, now=4, window=10) == [3.0]

    def test_empty_window_undefined(self):
        m = _matrix_with([(1, 0, 0, 3)])
        assert final_score(m, 0, now=20, window=5) is None
        assert _plain(m, now=20, window=5) == [None]

    def test_single_record(self):
        m = _matrix_with([(7, 0, 1, 5)])
        assert final_score(m, 1, now=8, window=3) == 5.0
        assert _plain(m, now=8, window=3) == [None, 5.0]

    def test_uniform_ratings_score_exactly(self):
        m = _matrix_with([(t, 0, 0, 4) for t in range(10)])
        assert final_score(m, 0, now=10, window=10) == 4.0
        assert _plain(m, now=10, window=10) == [4.0]


def _weights_for(coords, target):
    """The target's row of distance weights, as the harness builds it."""
    return links(coords, 5.0)[1][target]


class TestFinalScoreLocated:
    def test_zero_distance_matches_plain(self):
        m = _matrix_with([(1, 0, 0, 4)])
        coords = [(3.0, 3.0), (3.0, 3.0)]
        got = final_score_located(m, _weights_for(coords, 1), now=2, window=5)
        assert got == _plain(m, now=2, window=5) == [4.0]

    def test_log_two_distance_halves(self):
        m = _matrix_with([(1, 0, 0, 4)])
        coords = [(0.0, 0.0), (math.log(2), 0.0)]
        got = final_score_located(m, _weights_for(coords, 1), now=2, window=5)
        assert got == [pytest.approx(2.0, abs=1e-12)]

    def test_far_records_vanish(self):
        m = _matrix_with([(1, 0, 0, 5)])
        coords = [(0.0, 0.0), (60.0, 0.0)]
        (got,) = final_score_located(m, _weights_for(coords, 1), now=2, window=5)
        assert 0.0 < got < 1e-20

    def test_one_score_per_channel_none_where_untried(self):
        m = _matrix_with([(1, 0, 0, 4), (2, 0, 2, 3)])
        got = final_score_located(m, [1.0], now=3, window=5)
        assert got == [4.0, None, 3.0]

    def test_window_must_be_positive(self):
        m = _matrix_with([(1, 0, 0, 4)])
        with pytest.raises(ValueError, match="window"):
            final_score_located(m, [1.0], now=2, window=0)

    def test_never_exceeds_plain_score(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n_rec = int(rng.integers(1, 8))
            recs = [
                (int(t), int(rng.integers(0, 3)), 0, int(rng.integers(0, 6)))
                for t, _ in zip(sorted(rng.integers(0, 10, size=n_rec)), range(n_rec))
            ]
            m = _matrix_with(recs + [(0, 3, 1, 0)])  # pad user/channel counts
            coords = rng.uniform(0, 10, size=(4, 2))
            located = final_score_located(
                m, _weights_for(coords, 3), now=11, window=20
            )
            for ch, score in enumerate(located):
                plain = final_score(m, ch, now=11, window=20)
                if plain is None:
                    assert score is None
                else:
                    assert score <= plain + 1e-12


N_SU, M_CH = 4, 3

# a time-ordered log: (su, channel, time step >= 0, rating) per record
record_logs = st.lists(
    st.tuples(
        st.integers(0, N_SU - 1),
        st.integers(0, M_CH - 1),
        st.integers(0, 3),
        st.integers(0, 10),
    ),
    max_size=40,
)
# queries in any time order, including windows that reach before slot 0
queries = st.lists(
    st.tuples(st.integers(0, M_CH - 1), st.integers(-5, 70), st.integers(1, 30)),
    min_size=1,
    max_size=15,
)
places = st.lists(
    st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    min_size=N_SU,
    max_size=N_SU,
)


class TestWindowQueriesMatchBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(record_logs, queries, places)
    def test_window_and_scores(self, log, asked, xy):
        m = ScoreMatrix(n_su=N_SU, m_ch=M_CH)
        appended = []
        t = 0
        for su, ch, step, rating in log:
            t += step
            appended.append((su, ch, t, rating))
            m.append(su, ch, t, rating)
        row = _weights_for(xy, 0)

        def records(ch, now, window):
            return [
                (su, rating) for su, c, t, rating in appended
                if c == ch and now - window <= t < now
            ]

        for ch, now, window in asked:
            want = records(ch, now, window)
            assert m.window_records(ch, now, window) == want
            # unit weights give exactly the int/int mean that final_score
            # gives, as integer ratings sum exactly in doubles
            plain = _plain(m, now=now, window=window)
            assert len(plain) == M_CH
            for c, score in enumerate(plain):
                assert final_score(m, c, now=now, window=window) == score
                ratings = [rating for _, rating in records(c, now, window)]
                if ratings:
                    assert score == sum(ratings) / len(ratings)
                else:
                    assert score is None
            located = final_score_located(m, row, now=now, window=window)
            assert len(located) == M_CH
            for c, score in enumerate(located):
                recs = records(c, now, window)
                if not recs:
                    assert score is None
                    continue
                weighted = 0.0
                for su, rating in recs:
                    weighted += rating * row[su]
                assert score == weighted / len(recs)


class TestRecommend:
    def test_default_threshold(self):
        assert default_threshold([4.0, None, 6.0]) == 3.0
        assert default_threshold([None, None]) is None
