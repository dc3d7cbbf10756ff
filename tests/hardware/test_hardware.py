"""Tests for the hardware cost models: components, units, workload, accelerator."""

import pytest

from repro.hardware import (
    AcceleratorConfig,
    AcceleratorSimulator,
    IBERT_COST_MODEL,
    IBertUnit,
    NN_LUT_COST_MODEL,
    NnLutUnit,
    NonlinearCostModel,
    build_table4_units,
    build_workload,
    default_library,
    run_system_comparison,
)
from repro.transformer.config import mobilebert_config, roberta_base_config


class TestComponentLibrary:
    def test_costs_scale_with_width(self):
        lib = default_library()
        assert lib.adder(32).area_um2 > lib.adder(16).area_um2
        assert lib.multiplier(32).area_um2 > 2 * lib.multiplier(16).area_um2
        assert lib.divider(32).delay_ns > lib.adder(32).delay_ns

    def test_table_cost_scales_with_entries(self):
        lib = default_library()
        assert lib.table(32, 64).area_um2 == pytest.approx(2 * lib.table(16, 64).area_um2)

    def test_fp_units_cost_more_than_int_of_same_mantissa(self):
        lib = default_library()
        assert lib.fp_multiplier(32).delay_ns > lib.multiplier(24).delay_ns
        assert lib.fp_adder(32).area_um2 > lib.adder(24).area_um2

    def test_scaled_helper(self):
        lib = default_library()
        single = lib.register(32)
        four = single.scaled(4)
        assert four.area_um2 == pytest.approx(4 * single.area_um2)
        assert four.delay_ns == single.delay_ns


class TestArithmeticUnits:
    def test_table4_ratios(self):
        units = {f"{u.name} {u.precision}": u for u in build_table4_units()}
        ibert = units["I-BERT INT32"]
        nn_int32 = units["NN-LUT INT32"]
        # Paper: 2.63x area, 36.4x power, 3.93x delay.
        assert 2.0 < ibert.area_um2 / nn_int32.area_um2 < 3.5
        assert 20.0 < ibert.power_mw / nn_int32.power_mw < 60.0
        assert 3.0 < ibert.delay_ns / nn_int32.delay_ns < 5.0

    def test_absolute_numbers_near_paper(self):
        units = {f"{u.name} {u.precision}": u for u in build_table4_units()}
        paper = {
            "I-BERT INT32": 2654.32,
            "NN-LUT INT32": 1008.92,
            "NN-LUT FP16": 498.38,
            "NN-LUT FP32": 1133.60,
        }
        for key, area in paper.items():
            assert abs(units[key].area_um2 - area) / area < 0.20

    def test_latency_cycles(self):
        nn = NnLutUnit(precision="int32").cost()
        ib = IBertUnit().cost()
        assert set(nn.latency_cycles.values()) == {2}
        assert ib.latency_cycles["gelu"] == 3
        assert ib.latency_cycles["exp"] == 4
        assert ib.latency_cycles["rsqrt"] == 5

    def test_fp16_smaller_than_fp32(self):
        fp16 = NnLutUnit(precision="fp16").cost()
        fp32 = NnLutUnit(precision="fp32").cost()
        assert fp16.area_um2 < fp32.area_um2

    def test_validation(self):
        with pytest.raises(ValueError):
            NnLutUnit(precision="int8")
        with pytest.raises(ValueError):
            NnLutUnit(num_entries=1)
        with pytest.raises(ValueError):
            IBertUnit(precision="fp32")

    def test_as_row(self):
        row = NnLutUnit().cost().as_row()
        assert row["unit"] == "NN-LUT"
        assert "area_um2" in row


class TestWorkload:
    def test_macs_scale_with_sequence_length(self):
        short = build_workload(64)
        long = build_workload(512)
        assert long.total_macs > short.total_macs

    def test_roberta_base_mac_count(self):
        workload = build_workload(128, config=roberta_base_config())
        hidden, inter, layers = 768, 3072, 12
        expected_per_layer = (
            4 * 128 * hidden * hidden + 2 * 128 * 128 * hidden + 2 * 128 * hidden * inter
        )
        assert workload.total_macs == expected_per_layer * layers

    def test_softmax_elements_quadratic_in_seq(self):
        totals_128 = build_workload(128).nonlinear_totals()
        totals_256 = build_workload(256).nonlinear_totals()
        assert totals_256["softmax"]["elements"] == 4 * totals_128["softmax"]["elements"]
        assert totals_256["gelu"]["elements"] == 2 * totals_128["gelu"]["elements"]

    def test_mobilebert_has_no_gelu_or_layernorm(self):
        workload = build_workload(64, config=mobilebert_config())
        totals = workload.nonlinear_totals()
        assert "gelu" not in totals
        assert "layernorm" not in totals
        assert "softmax" in totals

    def test_validation(self):
        with pytest.raises(ValueError):
            build_workload(0)
        with pytest.raises(ValueError):
            build_workload(4096, config=roberta_base_config())


class TestAcceleratorModel:
    def test_nn_lut_always_faster(self):
        simulator = AcceleratorSimulator()
        for seq in (16, 128, 1024):
            workload = build_workload(seq)
            ibert = simulator.run(workload, IBERT_COST_MODEL)
            nn_lut = simulator.run(workload, NN_LUT_COST_MODEL)
            assert nn_lut.total < ibert.total

    def test_breakdown_sums_to_100(self):
        simulator = AcceleratorSimulator()
        breakdown = simulator.run(build_workload(256), IBERT_COST_MODEL)
        assert sum(breakdown.relative().values()) == pytest.approx(100.0)

    def test_speedup_grows_with_sequence_length(self):
        comparison = run_system_comparison(sequence_lengths=(16, 128, 1024))
        speedups = comparison.speedups()
        assert speedups[16] < speedups[128] < speedups[1024]

    def test_speedups_match_paper_trend(self):
        comparison = run_system_comparison(sequence_lengths=(16, 1024))
        speedups = comparison.speedups()
        assert speedups[16] == pytest.approx(1.08, abs=0.03)
        assert speedups[1024] == pytest.approx(1.26, abs=0.04)

    def test_softmax_share_grows_with_sequence_length(self):
        comparison = run_system_comparison(sequence_lengths=(16, 1024))
        first, last = comparison.points
        assert last.ibert.relative()["Softmax"] > first.ibert.relative()["Softmax"]

    def test_nonlinear_share_lower_for_nn_lut(self):
        comparison = run_system_comparison(sequence_lengths=(512,))
        point = comparison.points[0]
        assert point.nonlinear_share("nn_lut") < point.nonlinear_share("ibert")

    def test_unknown_cost_kind_raises(self):
        model = NonlinearCostModel(name="partial", element_cycles={"gelu": 1.0}, row_cycles={})
        simulator = AcceleratorSimulator()
        with pytest.raises(KeyError):
            simulator.run(build_workload(32), model)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(num_engines=0)
        with pytest.raises(ValueError):
            AcceleratorConfig(matmul_efficiency=1.5)
