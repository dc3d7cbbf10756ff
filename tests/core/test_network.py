"""Tests for the one-hidden-layer ReLU network: parameters, forward, kinks."""

import numpy as np
import pytest

from repro.core.network import NetworkParameters, OneHiddenReluNet


def make_net(n, b, m, c=0.0):
    return OneHiddenReluNet.from_arrays(n, b, m, output_bias=c)


class TestNetworkParameters:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="same length"):
            NetworkParameters(first_weight=[1.0, 2.0], first_bias=[0.0], second_weight=[1.0, 1.0])

    def test_hidden_size(self):
        params = NetworkParameters([1.0, -1.0, 2.0], [0.0, 1.0, -1.0], [1.0, 1.0, 1.0])
        assert params.hidden_size == 3

    def test_copy_is_independent(self):
        params = NetworkParameters([1.0], [0.0], [1.0])
        clone = params.copy()
        clone.first_weight[0] = 99.0
        assert params.first_weight[0] == 1.0


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
