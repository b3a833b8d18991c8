import numpy as np
import pytest

from winmt import positions as P
from winmt.rng import stream

import reference_ops as R


class TestSinusoidalPe:
    def test_position_zero_alternates_zero_one(self):
        pe = P.sinusoidal_pe(0, 8)
        np.testing.assert_allclose(pe, [0, 1, 0, 1, 0, 1, 0, 1])

    def test_squared_norm_is_half_dim(self):
        for p in [0, 1, 17, 1000, 123456]:
            pe = P.sinusoidal_pe(p, 32)
            assert np.dot(pe, pe) == pytest.approx(16.0, abs=1e-9)

    def test_dot_product_depends_only_on_offset(self):
        # angle addition makes PE(t) . PE(t+d) independent of t
        rng = stream(0, "pe")
        dim = 16
        for _ in range(50):
            t1, t2 = rng.integers(0, 5000, 2)
            d = int(rng.integers(0, 300))
            dot1 = np.dot(P.sinusoidal_pe(int(t1), dim), P.sinusoidal_pe(int(t1) + d, dim))
            dot2 = np.dot(P.sinusoidal_pe(int(t2), dim), P.sinusoidal_pe(int(t2) + d, dim))
            assert dot1 == pytest.approx(dot2, abs=1e-9)

    def test_odd_dim_rejected(self):
        with pytest.raises(P.PositionError):
            P.sinusoidal_pe(0, 7)

    def test_array_positions(self):
        out = P.sinusoidal_pe(np.array([[0, 1], [2, 3]]), 6)
        assert out.shape == (2, 2, 6)
        np.testing.assert_allclose(out[0, 0], P.sinusoidal_pe(0, 6))


class TestShiftedPositions:
    def test_worked_example(self):
        # sentence 0 at raw 0..4 (its <S> at 4), sentence 1 from raw 5, shift 10
        seg = [0, 0, 0, 0, 0, 1, 1, 1]
        out = R.shifted_positions(seg, 10)
        np.testing.assert_array_equal(out[:5], [0, 1, 2, 3, 4])
        assert out[5] == 15

    def test_boundary_gap_is_one_plus_shift(self):
        seg = np.array([0, 0, 1, 1, 1, 2, 2, 3])
        for shift in [0, 1, 7, 100]:
            out = R.shifted_positions(seg, shift)
            for i in range(len(seg) - 1):
                gap = out[i + 1] - out[i]
                if seg[i + 1] != seg[i]:
                    assert gap == 1 + shift
                else:
                    assert gap == 1

    def test_zero_shift_is_identity(self):
        seg = [0, 0, 1, 1, 2]
        np.testing.assert_array_equal(R.shifted_positions(seg, 0), np.arange(5))

    def test_intra_sentence_distances_unchanged(self):
        seg = np.array([0] * 4 + [1] * 5 + [2] * 3)
        raw = np.arange(len(seg))
        out = R.shifted_positions(seg, 13)
        for k in range(3):
            idx = np.where(seg == k)[0]
            np.testing.assert_array_equal(np.diff(out[idx]), np.diff(raw[idx]))

    def test_negative_shift_rejected(self):
        with pytest.raises(P.PositionError):
            R.shifted_positions([0, 1], -1)

    def test_non_monotone_seg_rejected(self):
        with pytest.raises(P.PositionError):
            R.shifted_positions([0, 1, 0], 5)
        with pytest.raises(P.PositionError):
            R.shifted_positions([0, 2], 5)

    def test_truncated_windows_compose(self):
        # formulas hold for any included-sentence count
        for n_sent in range(1, 5):
            seg = np.repeat(np.arange(n_sent), 3)
            out = R.shifted_positions(seg, 9)
            assert out[0] == 0
            assert np.all(np.diff(out) > 0)


def test_shift_positions_broadcasts_one_shift_per_row():
    seg = np.array([[0, 0, 1, 1, 2], [0, 1, 1, 1, 1]])
    shifts = np.array([3, 10])
    out = P.shift_positions(np.arange(5)[None, :], seg, shifts[:, None])
    for row, shift in zip(range(2), shifts):
        np.testing.assert_array_equal(out[row], R.shifted_positions(seg[row], int(shift)))
    # one decode step: raw position t for every hypothesis row
    np.testing.assert_array_equal(P.shift_positions(4, seg[:, 4:], shifts[:, None]),
                                  out[:, 4:])


def test_segment_table_shape():
    assert P.init_segment_table(4, 8, stream(0, "seg")).shape == (4, 8)


def test_current_sentence_encoding_matches_standalone_up_to_offset():
    # with shifting, the current sentence of a window sees the same relative
    # position structure it would get standalone, offset by a constant
    dim, shift = 16, 11
    seg = np.array([0] * 5 + [1] * 4)
    eff = R.shifted_positions(seg, shift)
    cur = eff[seg == 1]
    standalone = np.arange(4)
    offset = cur[0] - standalone[0]
    np.testing.assert_array_equal(cur, standalone + offset)
    # dot-product structure between current-sentence encodings is preserved
    a = P.sinusoidal_pe(cur, dim)
    b = P.sinusoidal_pe(standalone, dim)
    np.testing.assert_allclose(a @ a.T, b @ b.T, atol=1e-9)
