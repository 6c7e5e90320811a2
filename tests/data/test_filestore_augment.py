"""Tests for the augmentation pipeline."""

import numpy as np
import pytest

from repro.data import augment_batch, normalize_batch
from repro.data.augment import random_resized_crop


def test_random_resized_crop_shape_and_determinism():
    rng1 = np.random.default_rng(0)
    rng2 = np.random.default_rng(0)
    img = np.arange(3 * 16 * 16, dtype=float).reshape(3, 16, 16)
    a = random_resized_crop(img, 8, rng1)
    b = random_resized_crop(img, 8, rng2)
    assert a.shape == (3, 8, 8)
    np.testing.assert_array_equal(a, b)


def test_random_resized_crop_values_from_source():
    rng = np.random.default_rng(1)
    img = np.random.default_rng(2).standard_normal((3, 12, 12))
    crop = random_resized_crop(img, 6, rng)
    assert np.isin(crop, img).all()


def test_augment_batch_shapes():
    rng = np.random.default_rng(3)
    batch = np.random.default_rng(4).random((5, 3, 16, 16))
    out = augment_batch(batch, rng, out_size=8)
    assert out.shape == (5, 3, 8, 8)


def test_augment_flip_probability():
    rng = np.random.default_rng(5)
    batch = np.random.default_rng(6).random((64, 1, 4, 4))
    out = augment_batch(batch, rng, flip_prob=1.0, out_size=4)
    assert out.shape == batch.shape


def test_normalize_batch_standardizes():
    batch = np.random.default_rng(7).random((16, 3, 8, 8)) * 7 + 3
    out = normalize_batch(batch)
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, rtol=1e-6)


def test_normalize_batch_explicit_stats():
    batch = np.ones((2, 2, 2, 2))
    out = normalize_batch(batch, mean=np.array([1.0, 0.0]), std=np.array([1.0, 2.0]))
    assert out[0, 0, 0, 0] == pytest.approx(0.0)
    assert out[0, 1, 0, 0] == pytest.approx(0.5)


def test_augment_validation():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        augment_batch(np.zeros((3, 4, 4)), rng)
    with pytest.raises(ValueError):
        normalize_batch(np.zeros((2, 2)), None, None)
    with pytest.raises(ValueError):
        random_resized_crop(np.zeros((3, 4, 4)), 0, rng)
    with pytest.raises(ValueError):
        normalize_batch(np.zeros((1, 2, 2, 2)), mean=np.zeros(3), std=np.ones(3))
