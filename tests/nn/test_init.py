"""Tests for weight initializers."""

from __future__ import annotations

import math

import numpy as np

from repro.nn import init


class TestFans:
    def test_linear_shape(self):
        assert init._fan_in((8, 3)) == 3

    def test_conv_shape(self):
        assert init._fan_in((16, 4, 3)) == 12


class TestInitializers:

    def test_kaiming_bound(self, rng):
        shape = (16, 8, 3)
        weights = init.kaiming_uniform(shape, rng)
        bound = math.sqrt(6.0 / 24)
        assert np.all(np.abs(weights) <= bound)

    def test_uniform_fan_in_bound(self, rng):
        values = init.uniform_fan_in((100,), fan_in=25, rng=rng)
        assert np.all(np.abs(values) <= 0.2)

    def test_uniform_fan_in_zero_fan_safe(self, rng):
        values = init.uniform_fan_in((4,), fan_in=0, rng=rng)
        assert np.all(np.abs(values) <= 1.0)

    def test_variance_scales_with_fan(self, rng):
        wide = init.kaiming_uniform((8, 1000), np.random.default_rng(0))
        narrow = init.kaiming_uniform((8, 10), np.random.default_rng(0))
        assert wide.std() < narrow.std()

    def test_deterministic_given_rng(self):
        a = init.kaiming_uniform((5, 5), np.random.default_rng(3))
        b = init.kaiming_uniform((5, 5), np.random.default_rng(3))
        assert np.array_equal(a, b)
