import re

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from panoloc.evaluation import (EmptyMetricsError, coord_distances, coord_metrics, error_curves,
                                percentile_linear, pose_metrics, roc_percentages)
from panoloc.images import SceneCoordinateImage


def brute_force_coord_metrics(pred, gt):
    """Scalar-loop oracle for coord_metrics over coord_distances."""
    h, w, _ = gt.shape
    n_valid = 0
    hits = [0, 0, 0]
    within3 = []
    for r in range(h):
        for c in range(w):
            if not np.all(np.isfinite(gt[r, c])):
                continue
            n_valid += 1
            if np.all(np.isfinite(pred[r, c])):
                d = float(np.sqrt(((pred[r, c] - gt[r, c]) ** 2).sum()))
            else:
                d = float("inf")
            for k, t in enumerate((0.5, 1.0, 3.0)):
                if d <= t:
                    hits[k] += 1
            if d <= 3.0:
                within3.append(d)
    mean3 = sum(within3) / len(within3) if within3 else 0.0
    return ([100.0 * hit / n_valid for hit in hits], mean3, n_valid)


def random_pair(rng, h=6, w=12, noise=1.0):
    gt = rng.uniform(-20, 20, (h, w, 3))
    drop = rng.uniform(size=(h, w)) < 0.2
    gt[drop] = np.nan
    pred = gt + rng.normal(scale=noise, size=gt.shape)
    pred_drop = rng.uniform(size=(h, w)) < 0.1
    pred[pred_drop] = np.nan
    return SceneCoordinateImage(pred), SceneCoordinateImage(gt)


class TestCoordAccuracy:
    def test_perfect_prediction(self, rng):
        pred, gt = random_pair(rng, noise=0.0)
        m = coord_metrics(coord_distances(gt, gt)[0])
        assert (m.pct_within_0_5m, m.pct_within_1m, m.pct_within_3m) == (100.0, 100.0, 100.0)
        assert m.mean_dist_within_3m == 0.0

    def test_constructed_half_offsets(self):
        h, w = 2, 4
        gt = np.zeros((h, w, 3))
        pred = gt.copy()
        pred[0, :, 0] += 0.4  # half the pixels at 0.4 m
        pred[1, :, 0] += 2.0  # half at 2.0 m
        m = coord_metrics(coord_distances(SceneCoordinateImage(pred), SceneCoordinateImage(gt))[0])
        assert m.pct_within_0_5m == 50.0
        assert m.pct_within_1m == 50.0
        assert m.pct_within_3m == 100.0
        assert m.mean_dist_within_3m == pytest.approx(1.2, abs=1e-12)

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(20):
            pred, gt = random_pair(rng)
            m = coord_metrics(coord_distances(pred, gt)[0])
            (pcts, mean3, n_valid) = brute_force_coord_metrics(pred.coords, gt.coords)
            assert m.pct_within_0_5m == pcts[0]
            assert m.pct_within_1m == pcts[1]
            assert m.pct_within_3m == pcts[2]
            assert m.mean_dist_within_3m == pytest.approx(mean3, rel=1e-12)
            assert m.n_valid == n_valid

    def test_missing_prediction_counts_as_failure(self):
        gt = np.zeros((1, 2, 3))
        pred = gt.copy()
        pred[0, 0] = np.nan
        m = coord_metrics(coord_distances(SceneCoordinateImage(pred), SceneCoordinateImage(gt))[0])
        assert m.pct_within_3m == 50.0
        assert m.n_valid == 2

    def test_empty_overlap_raises(self):
        gt = SceneCoordinateImage(np.full((1, 2, 3), np.nan))
        pred = SceneCoordinateImage(np.zeros((1, 2, 3)))
        with pytest.raises(EmptyMetricsError):
            coord_metrics(coord_distances(pred, gt)[0])

    def test_pixel_permutation_invariant(self, rng):
        pred, gt = random_pair(rng)
        m = coord_metrics(coord_distances(pred, gt)[0])
        perm = rng.permutation(pred.coords.shape[0] * pred.coords.shape[1])
        shape = pred.coords.shape
        pred_p = SceneCoordinateImage(pred.coords.reshape(-1, 3)[perm].reshape(shape))
        gt_p = SceneCoordinateImage(gt.coords.reshape(-1, 3)[perm].reshape(shape))
        mp = coord_metrics(coord_distances(pred_p, gt_p)[0])
        assert m == mp


class TestPoseMetrics:
    def test_single_error_all_quantiles_equal(self):
        m = pose_metrics([(0.22, 0.71)])
        assert m.median_dist_m == m.p95_dist_m == 0.22
        assert m.median_angle_deg == m.p95_angle_deg == 0.71

    def test_uniform_interpolation_oracle(self):
        errors = [(float(i), float(i)) for i in range(1, 101)]
        m = pose_metrics(errors)
        assert m.median_dist_m == pytest.approx(50.5, abs=1e-12)
        assert m.p95_dist_m == pytest.approx(95.05, abs=1e-12)

    def test_all_zero(self):
        m = pose_metrics([(0.0, 0.0)] * 10)
        assert (m.median_dist_m, m.p95_dist_m, m.median_angle_deg, m.p95_angle_deg) \
            == (0.0, 0.0, 0.0, 0.0)

    def test_extra_percentiles_requested(self):
        errors = [(float(i), 2.0 * i) for i in range(1, 101)]
        m = pose_metrics(errors, percentiles=[80])
        assert m.extra_percentiles[80.0][0] == pytest.approx(np.percentile(
            [e[0] for e in errors], 80))

    def test_percentile_monotone(self, rng):
        errors = [(float(d), float(a)) for d, a in rng.uniform(0, 10, (50, 2))]
        m = pose_metrics(errors, percentiles=[10, 30, 50, 70, 90])
        dists = [m.extra_percentiles[p][0] for p in (10.0, 30.0, 50.0, 70.0, 90.0)]
        assert dists == sorted(dists)
        assert m.median_dist_m <= m.p95_dist_m

    def test_empty_errors_raise(self):
        with pytest.raises(EmptyMetricsError):
            pose_metrics([])


class TestPercentileLinear:
    def test_ends_are_the_least_and_the_largest(self):
        assert percentile_linear([3.0, 1.0, 2.0], 0) == 1.0
        assert percentile_linear([3.0, 1.0, 2.0], 100) == 3.0

    @pytest.mark.parametrize("q", [-10.0, 150.0, float("nan")])
    def test_outside_0_100_raises_naming_the_value(self, q):
        # unchecked, -10 would read x[-1], the largest value, and 150 past the end
        with pytest.raises(ValueError, match=re.escape(f"percentile {q} is outside [0, 100]")):
            percentile_linear([3.0, 1.0, 2.0], q)


class TestErrorCurves:
    def test_sorted_input_idempotent(self):
        errors = [(1.0, 0.1), (2.0, 0.2), (3.0, 0.3)]
        dist, angle = error_curves(errors)
        assert np.array_equal(dist, [1.0, 2.0, 3.0])
        assert np.array_equal(angle, [0.1, 0.2, 0.3])

    def test_reverse_sorted_input(self):
        errors = [(3.0, 0.3), (2.0, 0.2), (1.0, 0.1)]
        dist, angle = error_curves(errors)
        assert np.array_equal(dist, [1.0, 2.0, 3.0])

    def test_matches_reference_sort(self, rng):
        errors = rng.uniform(0, 5, (100, 2))
        dist, angle = error_curves([tuple(e) for e in errors])
        assert np.array_equal(dist, np.array(sorted(errors[:, 0])))
        assert np.array_equal(angle, np.array(sorted(errors[:, 1])))


class TestDistanceRoc:
    def test_perfect_prediction_everywhere_100(self, rng):
        _, gt = random_pair(rng, noise=0.0)
        pct = roc_percentages(coord_distances(gt, gt)[0], [0.1, 0.5, 1.0, 3.0])
        assert np.all(pct == 100.0)

    def test_consistent_with_coord_metrics(self, rng):
        pred, gt = random_pair(rng)
        dist = coord_distances(pred, gt)[0]
        m = coord_metrics(dist)
        pct = roc_percentages(dist, [0.5, 1.0, 3.0])
        assert pct[0] == m.pct_within_0_5m
        assert pct[1] == m.pct_within_1m
        assert pct[2] == m.pct_within_3m

    def test_monotone_and_matches_oracle(self, rng):
        pred, gt = random_pair(rng)
        grid = np.linspace(0.1, 5.0, 25)
        pct = roc_percentages(coord_distances(pred, gt)[0], grid)
        assert np.all(np.diff(pct) >= 0.0)
        # scalar-loop oracle at one threshold
        h, w, _ = gt.coords.shape
        n_valid = hits = 0
        for r in range(h):
            for c in range(w):
                if not np.all(np.isfinite(gt.coords[r, c])):
                    continue
                n_valid += 1
                if np.all(np.isfinite(pred.coords[r, c])):
                    d = float(np.linalg.norm(pred.coords[r, c] - gt.coords[r, c]))
                    if d <= grid[10]:
                        hits += 1
        assert pct[10] == 100.0 * hits / n_valid

    def test_pooled_distances_weigh_frames_by_their_pixels(self, rng):
        frames = [random_pair(rng), random_pair(rng, h=4, w=8)]
        grid = [0.5, 1.0, 3.0]
        dists = [coord_distances(pred, gt) for pred, gt in frames]
        pooled = roc_percentages(np.concatenate([d for d, _ in dists]), grid)
        weighted = sum(roc_percentages(d, grid) * n for d, n in dists) \
            / sum(n for _, n in dists)
        assert np.allclose(pooled, weighted, rtol=1e-12)
        with pytest.raises(EmptyMetricsError):
            roc_percentages(np.empty(0), grid)

    @settings(max_examples=200, deadline=None)
    @given(dist=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, np.inf, np.nan])
                         | st.floats(0.0, 10.0), min_size=1, max_size=40),
           thresholds=st.lists(st.sampled_from([0.5, 1.0, np.inf, -np.inf, np.nan])
                               | st.floats(-1.0, 11.0), min_size=1, max_size=8))
    def test_roc_counts_equal_per_threshold_comparisons(self, dist, thresholds):
        # ties at a threshold, infinite and NaN distances and thresholds
        dist = np.array(dist, dtype=np.float64)
        expected = [100.0 * float((dist <= t).sum()) / dist.size for t in thresholds]
        assert roc_percentages(dist, thresholds).tolist() == expected
