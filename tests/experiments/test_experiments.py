"""Integration tests: the experiment drivers run end to end at smoke scale
and reproduce the qualitative shape of the paper's tables."""

import numpy as np
import pytest

from repro.core import functions
from repro.core.quantization import Fp16LookupTable, Int32LookupTable
from repro.experiments import (
    ExperimentScale,
    run_figure2,
    run_table2a,
    run_table2b,
    run_table3,
    run_table4,
    run_table5,
)
from repro.experiments.table4 import PAPER_TABLE4
from repro.experiments.table5 import PAPER_SPEEDUPS

TINY = ExperimentScale(
    num_train=80,
    num_test=64,
    sequence_length=32,
    glue_tasks=("SST-2", "MRPC"),
)


class TestBackendVariantSpecs:
    def test_table2a_grid_labels(self):
        from repro.experiments import backend_variant_specs

        specs = backend_variant_specs(num_entries=8)
        assert list(specs) == [
            "Linear-LUT GELU only", "Linear-LUT Softmax only",
            "Linear-LUT LayerNorm only", "Linear-LUT Altogether",
            "NN-LUT GELU only", "NN-LUT Softmax only",
            "NN-LUT LayerNorm only", "NN-LUT Altogether",
        ]
        assert specs["NN-LUT GELU only"].replaced() == ("gelu",)
        assert specs["NN-LUT Altogether"].gelu.num_entries == 8

    def test_precision_sweep_skips_non_lut_methods(self):
        from repro.experiments import backend_variant_specs

        specs = backend_variant_specs(
            methods=("nn_lut", "ibert"),
            groups=(("", ("softmax",)),),
            precisions=("fp32", "fp16"),
        )
        # One I-BERT row (it has no precision variants), two NN-LUT rows.
        assert list(specs) == ["NN-LUT FP32", "NN-LUT FP16", "I-BERT"]

    def test_exact_method_emits_a_single_baseline_row(self):
        from repro.experiments import backend_variant_specs

        specs = backend_variant_specs(methods=("exact", "nn_lut"))
        baseline_rows = [label for label in specs if label.startswith("Baseline")]
        assert baseline_rows == ["Baseline"]
        assert specs["Baseline"].replaced() == ()


class TestFigure2:
    def test_nn_lut_beats_linear_lut_on_wide_range_ops(self, fast_registry):
        result = run_figure2(registry=fast_registry, num_points=256)
        errors = result.errors
        assert errors["NN-LUT"]["softmax"] < errors["Linear-LUT"]["softmax"]
        assert errors["NN-LUT"]["layernorm"] < errors["Linear-LUT"]["layernorm"]
        # Both methods approximate GELU well (paper's observation).
        assert errors["Linear-LUT"]["gelu"] < 0.02
        assert errors["NN-LUT"]["gelu"] < 0.02
        assert "Figure 2" in result.report()


class TestAblations:
    """The ablations the paper calls out (Sec. 4.1), on GELU over [-5, 5]."""

    GRID = np.linspace(-5, 5, 2000)

    def _error(self, lut):
        return float(np.mean(np.abs(lut(self.GRID) - functions.gelu(self.GRID))))

    @pytest.mark.parametrize("name", ["gelu", "exp", "reciprocal", "rsqrt"])
    def test_sixteen_entries_are_enough(self, fast_registry, name):
        # Mean absolute error on a linspace grid for GELU and exp, mean
        # relative error on a geomspace grid for 1/x and 1/sqrt.
        low, high = functions.get_training_range(name)
        function = functions.get_target_function(name)
        relative = name in ("reciprocal", "rsqrt")
        grid = np.geomspace(low, high, 20_000) if relative else np.linspace(low, high, 20_000)

        def error(entries):
            lut = fast_registry.get(name, num_entries=entries).lut
            gap = np.abs(lut(grid) - function(grid))
            return float(np.mean(gap / function(grid) if relative else gap))

        errors = {entries: error(entries) for entries in (4, 8, 16, 32)}
        assert errors[4] > errors[8] > errors[16] > errors[32]
        if name == "gelu":
            assert errors[16] < 0.01
        # Beyond 16 entries the improvement is marginal (well under a decade).
        assert errors[16] < 10 * errors[32]

    def test_table_precision_barely_moves_the_error(self, fitted_gelu):
        fp32 = self._error(fitted_gelu.lut)
        assert self._error(Fp16LookupTable(fitted_gelu.lut)) < fp32 + 0.01
        assert self._error(Int32LookupTable(fitted_gelu.lut, (-5, 5))) < fp32 + 0.001


@pytest.mark.slow
class TestTable2:
    def test_table2a_shape(self, fast_registry):
        result = run_table2a(scale=TINY, registry=fast_registry)
        scores = result.scores
        assert set(scores["Baseline"]) == set(TINY.glue_tasks)
        baseline_avg = np.mean(list(scores["Baseline"].values()))
        nn_avg = np.mean(list(scores["NN-LUT Altogether"].values()))
        linear_ln_avg = np.mean(list(scores["Linear-LUT LayerNorm only"].values()))
        linear_avg = np.mean(list(scores["Linear-LUT Altogether"].values()))
        # NN-LUT stays close to the baseline; Linear-LUT's LayerNorm does not,
        # and Linear-LUT altogether falls behind NN-LUT.
        assert abs(baseline_avg - nn_avg) < 12.0
        assert baseline_avg - linear_ln_avg > -5.0  # never dramatically better
        assert nn_avg > linear_avg - 2.0
        assert "Table 2(a)" in result.report()

    def test_table2b_contains_all_rows(self, fast_registry):
        result = run_table2b(scale=TINY, registry=fast_registry)
        expected = {
            "Baseline", "I-BERT", "NN-LUT FP32", "NN-LUT FP32+C",
            "NN-LUT INT32", "NN-LUT INT32+C",
        }
        assert expected == set(result.scores)
        averages = result.averages()
        assert all(np.isfinite(v) for v in averages.values())
        # I-BERT tracks the baseline closely on the INT8 model.
        assert abs(averages["Baseline"] - averages["I-BERT"]) < 10.0
        # NN-LUT is on par with I-BERT, and its INT32 tables track FP32.
        assert abs(averages["NN-LUT FP32"] - averages["I-BERT"]) < 10.0
        assert abs(averages["NN-LUT INT32"] - averages["NN-LUT FP32"]) < 10.0
        assert "Averages" in result.report()


@pytest.mark.slow
class TestTable3:
    def test_nn_lut_close_to_baseline(self, fast_registry):
        result = run_table3(scale=TINY, registry=fast_registry)
        baseline = result.results["Baseline"].f1
        nn = result.results["NN-LUT FP32"].f1
        assert baseline > 60.0
        assert abs(baseline - nn) < 15.0
        assert abs(nn - result.results["NN-LUT FP16"].f1) < 5.0
        assert "Table 3" in result.report()


class TestTable4:
    def test_ratios_and_report(self):
        result = run_table4()
        ratios = result.ratios()
        assert 2.0 < ratios["area_ratio"] < 3.5  # paper: 2.63x
        assert 20.0 < ratios["power_ratio"] < 60.0  # paper: 36.4x
        assert 3.0 < ratios["delay_ratio"] < 5.0  # paper: 3.93x
        for unit in result.units:
            paper_area = PAPER_TABLE4[f"{unit.name} {unit.precision}"]["area_um2"]
            assert abs(unit.area_um2 - paper_area) / paper_area < 0.25
        assert "Table 4" in result.report()


class TestTable5:
    def test_speedups_and_report(self):
        result = run_table5(sequence_lengths=(16, 256, 1024))
        speedups = result.speedups()
        assert speedups[1024] > speedups[16] > 1.0
        assert speedups[1024] == pytest.approx(1.26, abs=0.05)
        assert "Table 5" in result.report()

    def test_default_sweep_reproduces_the_paper_speedups(self):
        speedups = run_table5().speedups()
        for sequence_length, paper_value in PAPER_SPEEDUPS.items():
            assert speedups[sequence_length] == pytest.approx(paper_value, abs=0.05)

    def test_run_experiment_honours_the_scale_sweep(self):
        from repro.experiments import run_experiment

        scale = ExperimentScale(table5_sequence_lengths=(32, 512))
        result = run_experiment("table5", scale=scale)
        assert sorted(result.speedups()) == [32, 512]


class TestRunExperimentScaleThreading:
    def test_figure2_honours_num_lut_entries(self, fast_registry):
        from repro.experiments import run_experiment

        scale = ExperimentScale(num_lut_entries=8)
        result = run_experiment("figure2", scale=scale, registry=fast_registry)
        assert result.num_entries == 8

    def test_unknown_experiment_rejected(self):
        from repro.experiments import run_experiment

        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("table9")
