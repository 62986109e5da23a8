import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fsum_whitening
from panoloc.geometry import quaternion_to_rotation
from panoloc.instance_map import (DegenerateInstanceError, EIGENVALUE_FLOOR, _segment_sums,
                                  build_instance_map, fit_whitening, unwhiten,
                                  whiten)

# any finite double: a 53-bit integer mantissa at any binary exponent, so
# subnormals and values next to overflow are as likely as ordinary ones
FINITE = st.builds(lambda m, e, negative: math.ldexp(-m if negative else m, e),
                   st.integers(0, 2 ** 53 - 1), st.integers(-1074, 1024 - 53), st.booleans())
TERMS = st.one_of(FINITE, st.floats(-1e300, 1e300),
                  st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308]))


def cube_corners(center, half=0.5):
    signs = np.array([[sx, sy, sz]
                      for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
    return np.asarray(center, dtype=float) + half * signs


def sample_covariance(points):
    """Brute-force population covariance (the oracle for whitening checks)."""
    pts = np.asarray(points, dtype=np.float64)
    mean = pts.mean(axis=0)
    d = pts - mean
    return mean, d.T @ d / pts.shape[0]


class TestFitWhitening:
    def test_unit_cube_mean_and_whitened_covariance(self):
        pts = cube_corners([10.0, 0.0, 5.0])
        tf = fit_whitening(pts, 1000)
        assert np.allclose(tf.mean, [10.0, 0.0, 5.0], atol=1e-12)
        _, cov = sample_covariance(whiten(tf, pts))
        assert np.abs(cov - np.eye(3)).max() < 1e-6

    def test_whitened_identity_covariance_large_sample(self, rng):
        pts = rng.normal(size=(5000, 3))
        tf = fit_whitening(pts, 1001)
        # W reproduces the covariance regardless of eigenvector conventions
        _, cov = sample_covariance(pts)
        ww = tf.unwhiten_matrix @ tf.unwhiten_matrix.T
        assert np.abs(ww - cov).max() < 1e-6

    def test_coplanar_points_still_invertible(self, rng):
        uv = rng.uniform(-5, 5, (200, 2))
        pts = np.column_stack([uv[:, 0], uv[:, 1], np.full(200, 2.0)])
        tf = fit_whitening(pts, 1002)
        back = unwhiten(tf, whiten(tf, pts))
        assert np.abs(back - pts).max() < 1e-6

    def test_inverse_pair_consistent(self, rng):
        tf = fit_whitening(rng.normal(size=(100, 3)) * [3.0, 0.5, 9.0], 1003)
        assert np.abs(tf.unwhiten_matrix @ tf.whiten_matrix - np.eye(3)).max() < 1e-8

    def test_too_few_points(self):
        with pytest.raises(DegenerateInstanceError):
            fit_whitening(np.zeros((3, 3)), 1004)

    def test_translation_equivariance(self, rng):
        pts = rng.normal(size=(300, 3)) * [4.0, 1.0, 2.0]
        shift = np.array([100.0, -3.0, 42.0])
        a = fit_whitening(pts, 1005)
        b = fit_whitening(pts + shift, 1005)
        assert np.abs(b.mean - (a.mean + shift)).max() < 1e-8
        assert np.abs(b.unwhiten_matrix - a.unwhiten_matrix).max() < 1e-8

    def test_order_insensitive(self, rng):
        pts = rng.normal(size=(500, 3)) * [5.0, 2.0, 0.3] + [100.0, 5.0, -60.0]
        a = fit_whitening(pts, 1006)
        b = fit_whitening(pts[rng.permutation(500)], 1006)
        assert np.abs(a.mean - b.mean).max() < 1e-9
        assert np.abs(a.unwhiten_matrix - b.unwhiten_matrix).max() < 1e-9

    def test_eigenvalue_floor_bounds_degenerate_axis(self):
        pts = cube_corners([0.0, 0.0, 0.0])
        pts[:, 2] = 7.0  # collapse z
        tf = fit_whitening(pts, 1007)
        scales = np.linalg.svd(tf.unwhiten_matrix, compute_uv=False)
        assert scales.min() == pytest.approx(np.sqrt(EIGENVALUE_FLOOR), rel=1e-3)


class TestWhitenUnwhiten:
    def test_zero_local_recovers_mean(self, rng):
        tf = fit_whitening(rng.normal(size=(50, 3)), 1000)
        assert np.allclose(unwhiten(tf, np.zeros(3)), tf.mean)

    def test_mean_whitens_to_zero(self, rng):
        tf = fit_whitening(rng.normal(size=(50, 3)), 1000)
        assert np.abs(whiten(tf, tf.mean)).max() < 1e-12

    def test_round_trip_random_points(self, rng):
        tf = fit_whitening(rng.normal(size=(200, 3)) * [8.0, 2.0, 0.1] + 50.0, 1000)
        world = rng.uniform(-100, 100, (1000, 3))
        assert np.abs(unwhiten(tf, whiten(tf, world)) - world).max() < 1e-9
        local = rng.normal(size=(1000, 3))
        assert np.abs(whiten(tf, unwhiten(tf, local)) - local).max() < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           spreads=st.lists(st.floats(1e-6, 1e3), min_size=3, max_size=3),
           offset=st.floats(0.0, 1e4), n=st.integers(4, 60))
    def test_round_trip_property(self, seed, spreads, offset, n):
        # any instance, from flat to round and up to 10 km out; rounding
        # grows with |M| and with the condition of W (the eigenvalue floor
        # bounds it)
        rng = np.random.default_rng(seed)
        axes = quaternion_to_rotation(rng.normal(size=4))
        centre = offset * rng.normal(size=3) / math.sqrt(3.0)
        tf = fit_whitening(rng.normal(size=(n, 3)) * spreads @ axes.T + centre, 1000)
        w_norm = np.linalg.norm(tf.unwhiten_matrix, 2)
        inv_norm = np.linalg.norm(tf.whiten_matrix, 2)
        m_norm = np.linalg.norm(tf.mean)

        world = tf.mean + rng.normal(size=(50, 3)) * spreads @ axes.T * 3.0
        d = np.linalg.norm(world - tf.mean, axis=1)
        err = np.linalg.norm(unwhiten(tf, whiten(tf, world)) - world, axis=1)
        assert (err <= 1e-14 * (w_norm * inv_norm * d + m_norm + d)).all()

        local = rng.normal(size=(50, 3)) * 3.0
        c = np.linalg.norm(local, axis=1)
        err = np.linalg.norm(whiten(tf, unwhiten(tf, local)) - local, axis=1)
        assert (err <= 1e-14 * inv_norm * (w_norm * c + m_norm)).all()

    def test_first_cube_corner_round_trip(self):
        pts = cube_corners([10.0, 0.0, 5.0])
        tf = fit_whitening(pts, 1000)
        local = whiten(tf, pts[0])
        assert np.abs(unwhiten(tf, local) - pts[0]).max() < 1e-9

    def test_fitting_set_statistics(self, rng):
        pts = rng.normal(size=(2000, 3)) * [6.0, 3.0, 1.5] + [10.0, 4.0, -7.0]
        tf = fit_whitening(pts, 1000)
        mean, cov = sample_covariance(whiten(tf, pts))
        assert np.linalg.norm(mean) < 1e-8
        assert np.abs(cov - np.eye(3)).max() < 1e-6


def fsum_runs(terms, counts):
    """math.fsum of each run; None where one overflows."""
    try:
        return np.array([math.fsum(terms[s:s + n])
                         for s, n in zip(np.cumsum(counts) - counts, counts)])
    except OverflowError:
        return None


def check_against_fsum(terms, counts):
    """_segment_sums has fsum's bits, and raises OverflowError where fsum
    does or where some run is within a factor 4 of overflowing."""
    terms, counts = np.array(terms, dtype=np.float64), np.array(counts)
    expected = fsum_runs(terms, counts)
    try:
        got = _segment_sums(terms.copy(), counts)
    except OverflowError:
        tops = np.maximum.reduceat(np.abs(terms), np.cumsum(counts) - counts)
        assert expected is None or (tops > 2.0 ** 1022 / (counts + 2.0)).any()
        return
    assert expected is not None
    assert got.tobytes() == expected.tobytes()


def draw_runs(data, terms, counts):
    """Runs of ``counts`` terms each, some of them cancelling pairs. A run
    draws from ``terms`` or, as likely, takes full 53-bit mantissas within
    a factor 8 of its top exponent or next to its last bits, where the
    extraction rounds."""
    row = []
    for n in counts:
        top = data.draw(st.integers(-1074 + 58, 1024 - 53))
        near = st.builds(lambda m, e, negative: math.ldexp(-m if negative else m, e),
                         st.integers(2 ** 52, 2 ** 53 - 1),
                         st.integers(top - 3, top) | st.integers(top - 58, top - 50),
                         st.booleans())
        run = data.draw(st.lists(near if data.draw(st.booleans()) else terms,
                                 min_size=n, max_size=n))
        pairs = data.draw(st.integers(0, n // 2))
        run[n - pairs:] = [-x for x in run[:pairs]]
        row += data.draw(st.permutations(run))
    return row


class TestSegmentSums:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), counts=st.lists(st.integers(1, 12), min_size=1, max_size=6))
    def test_fsum_bits(self, data, counts):
        check_against_fsum(draw_runs(data, TERMS, counts), counts)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), counts=st.lists(st.integers(1, 6), min_size=1, max_size=3))
    def test_overflow_where_fsum_overflows(self, data, counts):
        giants = st.floats(2.0 ** 1020, 1.7976931348623157e308) | st.floats(
            -1.7976931348623157e308, -2.0 ** 1020)
        check_against_fsum(draw_runs(data, giants | TERMS, counts), counts)

    @pytest.mark.parametrize("terms, counts", [
        ([0.1] * 10, [10]),
        ([1.0, 1e100, 1.0, -1e100, 5e-324, -0.0], [3, 2, 1]),
        ([-0.0, -0.0, 0.0, -0.0], [2, 2]),
        ([2.0 ** 1000, 2.0 ** -1074, -2.0 ** 1000, 3.0, 2.0 ** -60, 1.0], [3, 3]),
        # three terms the extraction rounds up to 1, and one on a finer grid
        ([1 - 2.0 ** -53] * 3 + [-3 * 2.0 ** -52], [4]),
    ], ids=["tenths", "cancelled-giants", "signed-zeros", "subnormal-under-giants",
            "rounded-up-tops"])
    def test_fsum_bits_of_hard_runs(self, terms, counts):
        terms, counts = np.array(terms), np.array(counts)
        assert _segment_sums(terms.copy(), counts).tobytes() == fsum_runs(terms, counts).tobytes()

    @pytest.mark.parametrize("terms", [[1e308, 1e308], [-1.7e308, -1.7e308, 1.0],
                                       [1.7976931348623157e308, -1e300], [math.inf, 1.0],
                                       [math.nan, 1.0]])
    def test_overflow_and_non_finite_terms_raise(self, terms):
        with pytest.raises(OverflowError):
            _segment_sums(np.array(terms), np.array([len(terms)]))


class TestFsumOracle:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           spreads=st.lists(st.floats(0.0, 1e3), min_size=3, max_size=3),
           offset=st.floats(0.0, 1e5), n=st.integers(4, 300), repeats=st.integers(1, 3))
    def test_fit_whitening_has_the_oracle_bits(self, seed, spreads, offset, n, repeats):
        # flat to round, near and far, some points repeated; a zero spread
        # gives an axis of equal coordinates
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3)) * spreads + offset * rng.normal(size=3)
        pts = np.tile(pts, (repeats, 1))
        tf = fit_whitening(pts, 1000)
        mean, w = fsum_whitening(pts)
        assert tf.mean.tobytes() == mean.tobytes()
        assert tf.unwhiten_matrix.tobytes() == w.tobytes()


class TestBuildInstanceMap:
    def test_two_cuboid_instances(self):
        a = cube_corners([0.0, 5.0, 0.0], half=2.0)
        b = cube_corners([30.0, 3.0, 10.0], half=1.5)
        points = np.vstack([a, b])
        labels = np.array([1000] * 8 + [1001] * 8)
        imap = build_instance_map(points, labels)
        assert imap.instance_labels() == [1000, 1001]
        assert imap.get(1000).point_count == 8
        assert imap.get(1001).point_count == 8
        assert imap.label_count == 3 + 2

    def test_empty_building_set(self):
        points = np.zeros((10, 3))
        labels = np.full(10, 2)  # road class only
        imap = build_instance_map(points, labels)
        assert len(imap) == 0
        assert imap.label_count == 3

    def test_disconnected_same_label_fits_union(self, rng):
        near = rng.normal(size=(20, 3))
        far = rng.normal(size=(20, 3)) + 100.0
        points = np.vstack([near, far])
        labels = np.full(40, 1000)
        imap = build_instance_map(points, labels)
        assert len(imap) == 1
        assert imap.get(1000).point_count == 40
        expected_mean, _ = sample_covariance(points)
        assert np.allclose(imap.get(1000).mean, expected_mean, atol=1e-9)

    def test_undersized_instance_reported_not_fatal(self, rng):
        points = np.vstack([rng.normal(size=(10, 3)), rng.normal(size=(2, 3))])
        labels = np.array([1000] * 10 + [1001] * 2)
        imap = build_instance_map(points, labels)
        assert imap.instance_labels() == [1000]
        assert imap.skipped == {1001: 2}

    def test_interleaved_labels_match_per_label_fits(self, rng):
        # each instance is fitted from exactly its own points, bit for bit
        labels = rng.choice([2, 1000, 1001, 1002, 1005], size=300)
        labels[:3] = 1009
        points = rng.normal(size=(300, 3)) * 5.0
        imap = build_instance_map(points, labels)
        assert imap.skipped == {1009: 3}
        for label in (1000, 1001, 1002, 1005):
            ref, tf = fit_whitening(points[labels == label], label), imap.get(label)
            assert np.array_equal(tf.mean, ref.mean)
            assert np.array_equal(tf.unwhiten_matrix, ref.unwhiten_matrix)
            assert tf.point_count == ref.point_count

    def test_class_labels_carry_no_transform(self, rng):
        points = rng.normal(size=(20, 3))
        labels = np.array([2] * 10 + [1000] * 10)
        imap = build_instance_map(points, labels)
        assert imap.instance_labels() == [1000]
