from hypothesis import given, settings, strategies as st
import numpy as np

from panoloc.images import SceneCoordinateImage


@settings(max_examples=100, deadline=None)
@given(height=st.integers(1, 6), seed=st.integers(0, 2**16),
       bad=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2),
                              st.sampled_from([np.nan, np.inf, -np.inf])), max_size=12))
def test_mask_is_all_channels_finite(height, seed, bad):
    coords = np.random.default_rng(seed).uniform(-1e3, 1e3, (height, 2 * height, 3))
    for pixel, channel, value in bad:
        # one non-finite value in a single channel of a pixel
        coords.reshape(-1, 3)[pixel % (2 * height * height), channel] = value
    mask = SceneCoordinateImage(coords).mask
    assert mask.dtype == bool
    assert np.array_equal(mask, np.isfinite(coords).all(axis=2))
