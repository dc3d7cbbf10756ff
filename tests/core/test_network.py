"""Tests for the one-hidden-layer ReLU network: parameters, forward, kinks."""

import numpy as np
import pytest

from repro.core.network import OneHiddenReluNet


def make_net(n, b, m, c=0.0):
    return OneHiddenReluNet(n, b, m, output_bias=c)


class TestParameters:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="same length"):
            OneHiddenReluNet(first_weight=[1.0, 2.0], first_bias=[0.0], second_weight=[1.0, 1.0])

    def test_hidden_size(self):
        assert make_net([1.0, -1.0, 2.0], [0.0, 1.0, -1.0], [1.0, 1.0, 1.0]).hidden_size == 3

    def test_copy_is_independent(self):
        net = make_net([1.0], [0.0], [1.0], c=0.5)
        clone = net.copy()
        clone.first_weight[0] = 99.0
        clone.output_bias = 2.0
        assert (net.first_weight[0], net.output_bias) == (1.0, 0.5)


class TestForward:
    def test_single_relu(self):
        net = make_net([1.0], [0.0], [1.0])
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(net(x), np.maximum(x, 0.0))

    def test_output_bias(self):
        net = make_net([1.0], [0.0], [1.0], c=3.0)
        assert net(np.array([-5.0]))[0] == pytest.approx(3.0)

    def test_shape_preserved(self, rng):
        net = make_net([1.0, -0.5], [0.2, 0.3], [1.0, 2.0])
        x = rng.normal(size=(3, 4, 5))
        assert net(x).shape == (3, 4, 5)

    def test_piecewise_linear_between_breakpoints(self):
        net = make_net([1.0, 1.0], [-1.0, -2.0], [1.0, 1.0])
        # Between the kinks at 1 and 2 the function must be exactly linear.
        x = np.linspace(1.01, 1.99, 50)
        y = net(x)
        slopes = np.diff(y) / np.diff(x)
        np.testing.assert_allclose(slopes, slopes[0], rtol=1e-9)

    def test_breakpoints_sorted_and_skip_zero_weight(self):
        net = make_net([2.0, 0.0, -1.0], [-4.0, 1.0, 3.0], [1.0, 1.0, 1.0])
        bps = net.breakpoints()
        # neuron 0: kink at 2.0; neuron 1: no kink (zero weight); neuron 2: kink at 3.0
        np.testing.assert_allclose(bps, [2.0, 3.0])
