"""Tests for the LookupTable and the exact NN -> LUT transformation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.conversion import lut_matches_network, network_to_lut, network_to_lut_eq7
from repro.core.lut import (
    LookupTable,
    lut_evaluation_stats,
    reset_lut_evaluation_stats,
)
from repro.core.network import OneHiddenReluNet


class TestLookupTable:
    def test_single_segment_is_a_line(self):
        lut = LookupTable(breakpoints=[], slopes=[2.0], intercepts=[1.0])
        x = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(lut(x), 2.0 * x + 1.0)

    def test_segment_selection(self):
        lut = LookupTable(breakpoints=[0.0], slopes=[0.0, 1.0], intercepts=[0.0, 0.0])
        np.testing.assert_allclose(lut(np.array([-1.0, -0.1, 0.1, 2.0])), [0.0, 0.0, 0.1, 2.0])

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="same length"):
            LookupTable(breakpoints=[0.0], slopes=[1.0, 2.0], intercepts=[0.0])
        with pytest.raises(ValueError, match="breakpoints"):
            LookupTable(breakpoints=[0.0, 1.0], slopes=[1.0, 2.0], intercepts=[0.0, 0.0])
        with pytest.raises(ValueError, match="sorted"):
            LookupTable(breakpoints=[1.0, 0.0], slopes=[1.0, 2.0, 3.0], intercepts=[0.0, 0.0, 0.0])

    def test_roundtrip_serialisation(self):
        lut = LookupTable(
            breakpoints=[0.0, 1.0], slopes=[1.0, 2.0, 3.0], intercepts=[0.0, -1.0, 1.0],
            name="demo", metadata={"k": 1},
        )
        clone = LookupTable.from_dict(lut.to_dict())
        x = np.linspace(-2, 3, 50)
        np.testing.assert_allclose(lut(x), clone(x))
        assert clone.name == "demo"
        assert clone.metadata["k"] == 1

    def test_num_entries_and_edges(self):
        lut = LookupTable(breakpoints=[0.0, 2.0], slopes=[1.0, 2.0, 3.0], intercepts=[0.0] * 3)
        assert lut.num_entries == 3
        edges = lut.segment_edges()
        assert edges[0] == -np.inf and edges[-1] == np.inf

    def test_error_helpers(self):
        lut = LookupTable(breakpoints=[], slopes=[1.0], intercepts=[0.0])
        assert lut.max_error(lambda x: x, (-1, 1)) == pytest.approx(0.0)
        assert lut.mean_l1_error(lambda x: x + 1.0, (-1, 1)) == pytest.approx(1.0)


def random_network(rng, hidden=6):
    weights = rng.uniform(0.3, 2.0, size=hidden) * rng.choice([-1.0, 1.0], size=hidden)
    biases = rng.normal(0.0, 2.0, size=hidden)
    second = rng.normal(0.0, 1.0, size=hidden)
    return OneHiddenReluNet(weights, biases, second, output_bias=float(rng.normal()))


class TestConversionEquivalence:
    def test_exact_on_dense_grid(self, rng):
        for _ in range(10):
            net = random_network(rng)
            lut = network_to_lut(net)
            x = np.linspace(-20, 20, 4001)
            np.testing.assert_allclose(lut(x), net(x), rtol=1e-9, atol=1e-9)

    def test_matches_eq7_form(self, rng):
        for _ in range(5):
            net = random_network(rng)
            lut_robust = network_to_lut(net)
            lut_eq7 = network_to_lut_eq7(net)
            x = np.linspace(-15, 15, 1001)
            np.testing.assert_allclose(lut_robust(x), lut_eq7(x), rtol=1e-8, atol=1e-8)

    def test_entry_count(self, rng):
        net = random_network(rng, hidden=15)
        lut = network_to_lut(net)
        # N-1 = 15 neurons with distinct kinks -> N = 16 entries.
        assert lut.num_entries == 16

    def test_degenerate_zero_weight_neuron(self):
        net = OneHiddenReluNet(
            [1.0, 0.0], [0.0, 2.0], [1.0, 3.0], output_bias=0.5
        )
        lut = network_to_lut(net)
        x = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(lut(x), net(x), atol=1e-10)

    def test_eq7_rejects_zero_weight(self):
        net = OneHiddenReluNet([1.0, 0.0], [0.0, 2.0], [1.0, 3.0])
        with pytest.raises(ValueError, match="non-zero"):
            network_to_lut_eq7(net)

    def test_lut_matches_network_helper(self, rng):
        net = random_network(rng)
        lut = network_to_lut(net)
        assert lut_matches_network(net, lut, (-10, 10))
        # Perturb the LUT and the check must fail.
        broken = lut.copy()
        broken.slopes = broken.slopes + 0.5
        assert not lut_matches_network(net, broken, (-10, 10))

    @given(
        weights=hnp.arrays(np.float64, 5, elements=st.floats(0.2, 3.0)),
        signs=hnp.arrays(np.int64, 5, elements=st.sampled_from([-1, 1])),
        biases=hnp.arrays(np.float64, 5, elements=st.floats(-4.0, 4.0)),
        second=hnp.arrays(np.float64, 5, elements=st.floats(-2.0, 2.0)),
        bias_out=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_equivalence(self, weights, signs, biases, second, bias_out):
        """NN(x) == LUT(x) for arbitrary (non-degenerate) parameters."""
        net = OneHiddenReluNet(
            weights * signs, biases, second, output_bias=bias_out
        )
        lut = network_to_lut(net)
        x = np.linspace(-25, 25, 501)
        np.testing.assert_allclose(lut(x), net(x), rtol=1e-8, atol=1e-8)

    def test_fitted_primitive_equivalence(self, fitted_gelu):
        """The fitted GELU network converts to an exactly-equivalent table."""
        assert lut_matches_network(
            fitted_gelu.network, fitted_gelu.lut, fitted_gelu.input_range
        )


class TestNonContiguousEvaluate:
    """Strided/transposed inputs take one explicit, counted contiguous copy."""

    @pytest.fixture()
    def lut(self):
        return LookupTable(
            breakpoints=np.array([-1.0, 0.0, 1.5]),
            slopes=np.array([0.0, -0.5, 1.0, 2.0]),
            intercepts=np.array([0.25, 0.0, -0.5, 1.0]),
            name="test",
        )

    def test_strided_matches_contiguous(self, lut):
        base = np.linspace(-3.0, 3.0, 64)
        strided = base[::2]
        assert not strided.flags.c_contiguous or strided.strides == base.strides
        reset_lut_evaluation_stats()
        got = lut.evaluate(base[::2])
        stats = lut_evaluation_stats()
        expected = lut.evaluate(np.ascontiguousarray(base[::2]))
        np.testing.assert_array_equal(got, expected)
        assert stats["evaluations"] == 1
        assert stats["noncontiguous_inputs"] == 1
        assert stats["contiguous_copies"] == 1

    def test_transposed_matches_contiguous(self, lut):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(16, 24))
        transposed = base.T
        assert not transposed.flags.c_contiguous
        reset_lut_evaluation_stats()
        got = lut.evaluate(transposed)
        assert lut_evaluation_stats()["contiguous_copies"] == 1
        np.testing.assert_array_equal(got, lut.evaluate(np.ascontiguousarray(base.T)))
        assert got.shape == transposed.shape

    def test_contiguous_input_is_not_copied(self, lut):
        x = np.linspace(-2.0, 2.0, 33)
        reset_lut_evaluation_stats()
        lut.evaluate(x)
        stats = lut_evaluation_stats()
        assert stats["evaluations"] == 1
        assert stats["noncontiguous_inputs"] == 0
        assert stats["contiguous_copies"] == 0

    def test_strided_input_does_not_mutate_source(self, lut):
        base = np.linspace(-3.0, 3.0, 40)
        backup = base.copy()
        lut.evaluate(base[::2])
        np.testing.assert_array_equal(base, backup)

    def test_out_aliasing_strided_view_counts_without_copy(self, lut):
        buf = np.linspace(-3.0, 3.0, 40)
        view = buf[::2]
        expected = lut.evaluate(view.copy())
        reset_lut_evaluation_stats()
        got = lut.evaluate(view, out=view)
        stats = lut_evaluation_stats()
        assert got is view
        np.testing.assert_array_equal(view, expected)
        # The alias forbids substituting a copy for the caller's buffer, so
        # the strided traversal is counted but no copy is made.
        assert stats["noncontiguous_inputs"] == 1
        assert stats["contiguous_copies"] == 0

    def test_distinct_out_with_strided_input_uses_copy(self, lut):
        base = np.linspace(-3.0, 3.0, 40)
        out = np.empty(20)
        reset_lut_evaluation_stats()
        got = lut.evaluate(base[::2], out=out)
        stats = lut_evaluation_stats()
        assert got is out
        np.testing.assert_array_equal(out, lut.evaluate(base[::2].copy()))
        assert stats["contiguous_copies"] == 1

    def test_reset_clears_counters(self, lut):
        lut.evaluate(np.linspace(-1.0, 1.0, 9)[::2])
        assert lut_evaluation_stats()["evaluations"] >= 1
        reset_lut_evaluation_stats()
        assert lut_evaluation_stats() == {
            "evaluations": 0,
            "noncontiguous_inputs": 0,
            "contiguous_copies": 0,
        }
