import math

import numpy as np
import pytest

from conftest import camera_to_world, gradient_close, numeric_gradient, random_pose, whiten_image
from panoloc.geometry import image_bearings
from panoloc.images import LabelImage, SceneCoordinateImage
from panoloc.instance_map import build_instance_map
from panoloc.losses import (LogitImage, LossWeights, cross_entropy, loss_l1_repr,
                            loss_l2_rec, loss_l3, loss_l4, loss_l5)

W, H = 16, 8


def random_coord_image(rng, pose=None, invalid_fraction=0.2):
    """Coordinates placed a few metres out along each pixel ray, jittered."""
    bearings = image_bearings(W, H)
    if pose is None:
        pose = random_pose(rng)
    depth = rng.uniform(3.0, 30.0, (H, W, 1))
    cam = bearings * depth
    coords = camera_to_world(pose, cam.reshape(-1, 3)).reshape(H, W, 3)
    coords += rng.normal(scale=0.5, size=coords.shape)
    drop = rng.uniform(size=(H, W)) < invalid_fraction
    coords[drop] = np.nan
    return SceneCoordinateImage(coords), pose, bearings


def scale_depths(image, pose, factor):
    """Move every valid prediction along its own camera ray by ``factor``."""
    cam = pose.world_to_camera(image.coords.reshape(-1, 3))
    out = camera_to_world(pose, cam * factor).reshape(image.coords.shape)
    return SceneCoordinateImage(out)


def random_logits(rng, label_ids):
    scores = rng.normal(size=(H, W, len(label_ids)))
    return LogitImage(scores, np.array(label_ids))


class TestL1Repr:
    def test_points_on_ray_zero(self, rng):
        bearings = image_bearings(W, H)
        pose = random_pose(rng)
        depth = rng.uniform(1.0, 100.0, (H, W, 1))
        coords = camera_to_world(pose, (bearings * depth).reshape(-1, 3)).reshape(H, W, 3)
        value, _ = loss_l1_repr(SceneCoordinateImage(coords), pose, bearings)
        assert value < 1e-9

    def test_radial_scale_invariance(self, rng):
        pred, pose, bearings = random_coord_image(rng)
        base, _ = loss_l1_repr(pred, pose, bearings)
        for lam in (0.5, 2.0, 10.0):
            scaled = scale_depths(pred, pose, lam)
            value, _ = loss_l1_repr(scaled, pose, bearings)
            assert abs(value - base) < 1e-9

    def test_gradient_matches_finite_differences(self, rng):
        pred, pose, bearings = random_coord_image(rng)
        _, grad = loss_l1_repr(pred, pose, bearings)
        valid_flat = np.flatnonzero(np.repeat(pred.mask.ravel(), 3))
        idx = rng.choice(valid_flat, size=100, replace=False)

        def fn(coords):
            return loss_l1_repr(SceneCoordinateImage(coords), pose, bearings)[0]

        numeric = numeric_gradient(fn, pred.coords, idx)
        assert gradient_close(grad.reshape(-1)[idx], numeric)

    def test_center_pixel_skipped_and_tallied(self, rng):
        pred, pose, bearings = random_coord_image(rng, invalid_fraction=0.0)
        coords = pred.coords.copy()
        coords[0, 0] = pose.camera_center  # zero-length camera vector
        tally = {}
        value, grad = loss_l1_repr(SceneCoordinateImage(coords), pose, bearings, tally=tally)
        assert tally["skipped"] == 1
        assert np.isfinite(value)
        assert np.all(grad[0, 0] == 0.0)

    def test_nonnegative(self, rng):
        pred, pose, bearings = random_coord_image(rng)
        value, _ = loss_l1_repr(pred, pose, bearings)
        assert value >= 0.0


class TestL2Rec:
    def test_zero_at_ground_truth(self, rng):
        pred, _, _ = random_coord_image(rng)
        value, grad = loss_l2_rec(pred, pred)
        assert value == 0.0
        assert np.abs(grad).max() == 0.0

    def test_three_four_five(self):
        gt = np.full((H, W, 3), np.nan)
        gt[3, 5] = [1.0, 2.0, 3.0]
        pred = gt.copy()
        pred[3, 5] += [3.0, 4.0, 0.0]
        value, _ = loss_l2_rec(SceneCoordinateImage(pred), SceneCoordinateImage(gt))
        assert value == pytest.approx(5.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        pred, _, _ = random_coord_image(rng)
        gt, _, _ = random_coord_image(rng)
        _, grad = loss_l2_rec(pred, gt)
        both = pred.mask & gt.mask
        valid_flat = np.flatnonzero(np.repeat(both.ravel(), 3))
        idx = rng.choice(valid_flat, size=100, replace=False)

        def fn(coords):
            return loss_l2_rec(SceneCoordinateImage(coords), gt)[0]

        numeric = numeric_gradient(fn, pred.coords, idx)
        assert gradient_close(grad.reshape(-1)[idx], numeric)

    def test_order_independent(self, rng):
        pred, _, _ = random_coord_image(rng)
        gt, _, _ = random_coord_image(rng)
        base, _ = loss_l2_rec(pred, gt)
        perm = rng.permutation(H * W)
        pred_p = SceneCoordinateImage(pred.coords.reshape(-1, 3)[perm].reshape(H, W, 3))
        gt_p = SceneCoordinateImage(gt.coords.reshape(-1, 3)[perm].reshape(H, W, 3))
        permuted, _ = loss_l2_rec(pred_p, gt_p)
        assert abs(base - permuted) < 1e-10


class TestL3:
    def test_alpha_weighted_combination(self, rng):
        pred, pose, bearings = random_coord_image(rng)
        gt, _, _ = random_coord_image(rng)
        w = LossWeights(alpha=0.02)
        v1, g1 = loss_l1_repr(pred, pose, bearings)
        v2, g2 = loss_l2_rec(pred, gt)
        v3, g3 = loss_l3(pred, gt, pose, bearings, w)
        assert v3 == pytest.approx(0.02 * v1 + 0.98 * v2, rel=1e-12)
        assert np.abs(g3 - (0.02 * g1 + 0.98 * g2)).max() < 1e-12

    def test_paper_arithmetic_fixture(self):
        # alpha = 0.02 with L1 = 10, L2 = 5 blends to 0.2 + 4.9 = 5.1
        assert 0.02 * 10.0 + (1 - 0.02) * 5.0 == pytest.approx(5.1, abs=1e-12)

    def test_alpha_zero_equals_l2(self, rng):
        pred, pose, bearings = random_coord_image(rng)
        gt, _, _ = random_coord_image(rng)
        v2, g2 = loss_l2_rec(pred, gt)
        v3, g3 = loss_l3(pred, gt, pose, bearings, LossWeights(alpha=0.0))
        assert v3 == v2
        assert np.array_equal(g3, g2)

    def test_gradient_matches_finite_differences(self, rng):
        pred, pose, bearings = random_coord_image(rng)
        gt, _, _ = random_coord_image(rng)
        _, grad = loss_l3(pred, gt, pose, bearings)
        both = pred.mask & gt.mask
        idx = rng.choice(np.flatnonzero(np.repeat(both.ravel(), 3)), size=100, replace=False)

        def fn(coords):
            return loss_l3(SceneCoordinateImage(coords), gt, pose, bearings)[0]

        numeric = numeric_gradient(fn, pred.coords, idx)
        assert gradient_close(grad.reshape(-1)[idx], numeric)


class TestCrossEntropy:
    def test_uniform_logits_log_l(self, rng):
        ids = [0, 1, 2, 1000, 1001]
        logits = LogitImage(np.zeros((H, W, 5)), np.array(ids))
        labels = LabelImage(rng.choice(ids, size=(H, W)).astype(np.uint32))
        value, _ = cross_entropy(logits, labels)
        assert value == pytest.approx(math.log(5), rel=1e-12)

    def test_large_margin_near_zero(self, rng):
        ids = [0, 1, 2]
        labels = LabelImage(rng.choice(ids, size=(H, W)).astype(np.uint32))
        scores = np.zeros((H, W, 3))
        for c, lab in enumerate(ids):
            scores[..., c] = np.where(labels.labels == lab, 100.0, 0.0)
        value, _ = cross_entropy(LogitImage(scores, np.array(ids)), labels)
        assert value < 1e-9

    def test_label_without_channel_is_domain_error(self, rng):
        logits = LogitImage(np.zeros((H, W, 2)), np.array([0, 1]))
        labels = LabelImage(np.full((H, W), 7, dtype=np.uint32))
        with pytest.raises(ValueError, match="logit channel"):
            cross_entropy(logits, labels)

    def test_gradient_matches_finite_differences(self, rng):
        ids = [0, 1, 2, 1000]
        logits = random_logits(rng, ids)
        labels = LabelImage(rng.choice(ids, size=(H, W)).astype(np.uint32))
        _, grad = cross_entropy(logits, labels)
        idx = rng.choice(logits.scores.size, size=100, replace=False)

        def fn(scores):
            return cross_entropy(LogitImage(scores, np.array(ids)), labels)[0]

        numeric = numeric_gradient(fn, logits.scores, idx)
        assert gradient_close(grad.reshape(-1)[idx], numeric)


class TestL4:
    def test_formula(self, rng):
        pred, _, _ = random_coord_image(rng)
        gt, _, _ = random_coord_image(rng)
        ids = [0, 1, 2, 1000]
        logits = random_logits(rng, ids)
        labels = LabelImage(rng.choice(ids, size=(H, W)).astype(np.uint32))
        w = LossWeights()
        vce, _ = cross_entropy(logits, labels)
        vrec, _ = loss_l2_rec(pred, gt)
        value, _ = loss_l4(pred, gt, logits, labels, w)
        assert value == pytest.approx(vce + 0.1 * vrec, rel=1e-12)
        # weighting fixture: CE = 2, rec = 10 -> 3.0
        assert 2.0 + 0.1 * 10.0 == pytest.approx(3.0, abs=1e-12)

    def test_perfect_prediction_is_ce_floor(self, rng):
        gt, _, _ = random_coord_image(rng)
        ids = [0, 2]
        labels = LabelImage(rng.choice(ids, size=(H, W)).astype(np.uint32))
        scores = np.zeros((H, W, 2))
        for c, lab in enumerate(ids):
            scores[..., c] = np.where(labels.labels == lab, 60.0, 0.0)
        value, _ = loss_l4(gt, gt, LogitImage(scores, np.array(ids)), labels)
        assert value < 1e-9

    def test_joint_gradients_match_finite_differences(self, rng):
        pred, _, _ = random_coord_image(rng)
        gt, _, _ = random_coord_image(rng)
        ids = [0, 1, 2, 1000]
        logits = random_logits(rng, ids)
        labels = LabelImage(rng.choice(ids, size=(H, W)).astype(np.uint32))
        _, (grad_coords, grad_logits) = loss_l4(pred, gt, logits, labels)

        both = pred.mask & gt.mask
        cidx = rng.choice(np.flatnonzero(np.repeat(both.ravel(), 3)), size=50, replace=False)
        numeric = numeric_gradient(
            lambda c: loss_l4(SceneCoordinateImage(c), gt, logits, labels)[0],
            pred.coords, cidx)
        assert gradient_close(grad_coords.reshape(-1)[cidx], numeric)

        lidx = rng.choice(logits.scores.size, size=50, replace=False)
        numeric = numeric_gradient(
            lambda s: loss_l4(pred, gt, LogitImage(s, np.array(ids)), labels)[0],
            logits.scores, lidx)
        assert gradient_close(grad_logits.reshape(-1)[lidx], numeric)


class TestL5:
    @staticmethod
    def _local_setup(rng):
        pts = np.vstack([rng.normal(size=(30, 3)) * 2.0,
                         rng.normal(size=(30, 3)) * 2.0 + 40.0])
        pt_labels = np.array([1000] * 30 + [1001] * 30)
        imap = build_instance_map(pts, pt_labels)
        gt, _, _ = random_coord_image(rng)
        ids = [0, 1, 2, 1000, 1001]
        labels = LabelImage(rng.choice(ids, size=(H, W),
                                       p=[0.1, 0.1, 0.2, 0.3, 0.3]).astype(np.uint32))
        local_gt = SceneCoordinateImage(whiten_image(imap, gt.coords, labels.labels))
        jitter = rng.normal(scale=0.3, size=local_gt.coords.shape)
        local_pred = SceneCoordinateImage(local_gt.coords + jitter)
        logits = LogitImage(rng.normal(size=(H, W, 5)), np.array(ids))
        return imap, labels, local_gt, local_pred, logits, ids

    def test_perfect_local_prediction_is_ce_only(self, rng):
        _, labels, local_gt, _, logits, _ = self._local_setup(rng)
        vce, _ = cross_entropy(logits, labels)
        value, _ = loss_l5(local_gt, local_gt, logits, labels)
        assert value == pytest.approx(vce, rel=1e-12)

    def test_formula(self, rng):
        _, labels, local_gt, local_pred, logits, _ = self._local_setup(rng)
        vce, _ = cross_entropy(logits, labels)
        vrec, _ = loss_l2_rec(local_pred, local_gt)
        value, _ = loss_l5(local_pred, local_gt, logits, labels)
        assert value == pytest.approx(vce + 0.5 * vrec, rel=1e-12)
        # weighting fixture: CE = 1, local rec = 4 -> 3.0
        assert 1.0 + 0.5 * 4.0 == pytest.approx(3.0, abs=1e-12)

    def test_pixels_without_transform_excluded(self, rng):
        _, labels, local_gt, local_pred, logits, _ = self._local_setup(rng)
        # class-label pixels have NaN local ground truth
        assert np.isnan(local_gt.coords[labels.labels < 1000]).all()
        moved = local_pred.coords.copy()
        moved[labels.labels < 1000] = 1e6  # must not affect the loss
        a, _ = loss_l5(local_pred, local_gt, logits, labels)
        b, _ = loss_l5(SceneCoordinateImage(moved), local_gt, logits, labels)
        assert a == pytest.approx(b, rel=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        _, labels, local_gt, local_pred, logits, ids = self._local_setup(rng)
        _, (grad_coords, grad_logits) = loss_l5(local_pred, local_gt, logits, labels)
        both = local_pred.mask & local_gt.mask
        cidx = rng.choice(np.flatnonzero(np.repeat(both.ravel(), 3)), size=50, replace=False)
        numeric = numeric_gradient(
            lambda c: loss_l5(SceneCoordinateImage(c), local_gt, logits, labels)[0],
            local_pred.coords, cidx)
        assert gradient_close(grad_coords.reshape(-1)[cidx], numeric)

        lidx = rng.choice(logits.scores.size, size=50, replace=False)
        numeric = numeric_gradient(
            lambda s: loss_l5(local_pred, local_gt, LogitImage(s, np.array(ids)), labels)[0],
            logits.scores, lidx)
        assert gradient_close(grad_logits.reshape(-1)[lidx], numeric)


class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.alpha, w.w_rec_global, w.w_rec_local) == (0.02, 0.1, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LossWeights(alpha=1.5)
        with pytest.raises(ValueError):
            LossWeights(w_rec_global=0.0)
