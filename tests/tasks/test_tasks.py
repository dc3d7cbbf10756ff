"""Tests for the synthetic task generators, metrics and evaluation loops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BackendSpec, InferenceSession, SessionConfig
from repro.tasks import (
    GLUE_TASKS,
    GlueBenchmark,
    accuracy,
    compute_metric,
    evaluate_squad,
    f1_binary,
    generate_squad_task,
    generate_task,
    list_glue_tasks,
    matthews_correlation,
    pearson_correlation,
    span_exact_match,
    span_f1,
    spearman_correlation,
)
from repro.tasks.squad import SquadTaskSpec

SMALL_OVERRIDES = {"num_train": 48, "num_test": 32, "sequence_length": 24}


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(200 / 3)

    def test_accuracy_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_f1_perfect_and_zero(self):
        assert f1_binary(np.array([1, 1, 0]), np.array([1, 1, 0])) == 100.0
        assert f1_binary(np.zeros(4, int), np.ones(4, int)) == 0.0

    def test_matthews_perfect(self):
        labels = np.array([0, 1, 0, 1, 1])
        assert matthews_correlation(labels, labels) == pytest.approx(100.0)
        assert matthews_correlation(1 - labels, labels) == pytest.approx(-100.0)

    def test_pearson_and_spearman(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson_correlation(x, 2 * x + 1) == pytest.approx(100.0)
        assert spearman_correlation(x, x**3) == pytest.approx(100.0)
        assert pearson_correlation(x, np.zeros(4)) == 0.0

    def test_span_metrics(self):
        prediction = (np.array([2, 5]), np.array([4, 6]))
        reference = (np.array([2, 0]), np.array([4, 1]))
        assert span_exact_match(prediction, reference) == 50.0
        assert span_f1(prediction, reference) == pytest.approx(50.0)

    def test_metric_dispatch(self):
        assert compute_metric("accuracy", np.array([1]), np.array([1])) == 100.0
        with pytest.raises(KeyError):
            compute_metric("bleu", np.array([1]), np.array([1]))

    @given(st.integers(2, 6), st.integers(10, 40))
    @settings(max_examples=20, deadline=None)
    def test_accuracy_bounds_property(self, num_classes, n):
        rng = np.random.default_rng(n)
        predictions = rng.integers(0, num_classes, size=n)
        labels = rng.integers(0, num_classes, size=n)
        assert 0.0 <= accuracy(predictions, labels) <= 100.0


class TestGlueGeneration:
    def test_all_eight_tasks_defined(self):
        assert set(list_glue_tasks()) == {
            "MRPC", "RTE", "CoLA", "SST-2", "STS-B", "QQP", "MNLI", "QNLI",
        }

    def test_split_sizes_and_vocab(self):
        task = generate_task("SST-2", vocab_size=500, seed=0, spec_overrides=SMALL_OVERRIDES)
        assert task.train_tokens.shape == (48, 24)
        assert task.test_tokens.shape == (32, 24)
        assert task.train_tokens.max() < 500
        assert task.train_tokens.min() >= 0

    def test_classification_labels_in_range(self):
        task = generate_task("MNLI", seed=1, spec_overrides=SMALL_OVERRIDES)
        assert set(np.unique(task.train_labels)) <= {0, 1, 2}

    def test_regression_targets_in_range(self):
        task = generate_task("STS-B", seed=2, spec_overrides=SMALL_OVERRIDES)
        assert task.train_labels.min() >= 0.0 and task.train_labels.max() <= 5.0

    def test_deterministic_given_seed(self):
        a = generate_task("QNLI", seed=5, spec_overrides=SMALL_OVERRIDES)
        b = generate_task("QNLI", seed=5, spec_overrides=SMALL_OVERRIDES)
        np.testing.assert_array_equal(a.train_tokens, b.train_tokens)
        np.testing.assert_array_equal(a.test_labels, b.test_labels)

    def test_different_seeds_differ(self):
        a = generate_task("QNLI", seed=5, spec_overrides=SMALL_OVERRIDES)
        b = generate_task("QNLI", seed=6, spec_overrides=SMALL_OVERRIDES)
        assert not np.array_equal(a.train_tokens, b.train_tokens)

    def test_unknown_task_rejected(self):
        with pytest.raises(KeyError, match="Unknown GLUE task"):
            generate_task("WNLI")

    def test_spec_validation(self):
        spec = GLUE_TASKS["SST-2"]
        with pytest.raises(ValueError):
            type(spec)(**{**spec.__dict__, "topic_strength": 0.0})
        with pytest.raises(ValueError):
            type(spec)(**{**spec.__dict__, "label_noise": 0.7})


class TestSquadGeneration:
    def test_spans_inside_context(self):
        spec = SquadTaskSpec(sequence_length=32, num_train=20, num_test=10)
        data = generate_squad_task(vocab_size=500, seed=0, spec=spec)
        starts, ends = data.train_spans
        assert np.all(starts >= spec.question_length)
        assert np.all(ends < spec.sequence_length)
        assert np.all(ends >= starts)
        assert np.all(ends - starts + 1 <= spec.max_span_length)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SquadTaskSpec(sequence_length=10, question_length=8, max_span_length=8)


TINY_OVERRIDES = dict(
    num_layers=2, hidden_size=32, num_heads=2, intermediate_size=64,
    vocab_size=500, max_sequence_length=64,
)


def _tiny_model(seed):
    config = SessionConfig(model_family="roberta", seed=seed, model_overrides=TINY_OVERRIDES)
    return config.build_model()


@pytest.fixture(scope="module")
def tiny_model():
    return _tiny_model(seed=1)


@pytest.fixture(scope="module")
def sst2_benchmark(tiny_model):
    return GlueBenchmark.build(
        tiny_model, task_names=["SST-2"], seed=0, spec_overrides=SMALL_OVERRIDES
    )


class TestEvaluationLoop:
    def test_benchmark_baseline_beats_chance(self, tiny_model, sst2_benchmark):
        score = sst2_benchmark.score("SST-2", InferenceSession.from_model(tiny_model))
        assert score > 70.0

    def test_nn_lut_backend_close_to_baseline(self, tiny_model, sst2_benchmark, fast_registry):
        baseline = sst2_benchmark.score("SST-2", InferenceSession.from_model(tiny_model))
        approx = sst2_benchmark.score(
            "SST-2",
            InferenceSession.from_model(tiny_model, BackendSpec.nn_lut(), fast_registry),
        )
        assert abs(baseline - approx) < 15.0

    def test_score_unknown_task_raises(self, tiny_model, sst2_benchmark):
        with pytest.raises(KeyError):
            sst2_benchmark.score("MNLI", InferenceSession.from_model(tiny_model))

    def test_session_over_another_model_raises(self, tiny_model, sst2_benchmark):
        # Same recipe and seed, so the same weights, but another model object:
        # a head is scored only on features of the model it was fitted on.
        twin = InferenceSession.from_model(_tiny_model(seed=1))
        with pytest.raises(ValueError, match="another model"):
            sst2_benchmark.score("SST-2", twin)
        with pytest.raises(ValueError, match="another model"):
            sst2_benchmark.score_all(twin)
        spec = SquadTaskSpec(sequence_length=24, num_train=32, num_test=16)
        data = generate_squad_task(vocab_size=tiny_model.config.vocab_size, seed=0, spec=spec)
        with pytest.raises(ValueError, match="another model"):
            evaluate_squad(tiny_model, {"twin": twin}, data=data)

    def test_evaluate_squad_returns_baseline_and_backends(self, tiny_model, fast_registry):
        spec = SquadTaskSpec(sequence_length=24, num_train=32, num_test=16)
        data = generate_squad_task(vocab_size=tiny_model.config.vocab_size, seed=0, spec=spec)
        session = InferenceSession.from_model(
            tiny_model, BackendSpec.nn_lut(replace=["softmax"]), fast_registry
        )
        results = evaluate_squad(tiny_model, {"NN-LUT": session}, data=data)
        assert set(results) == {"Baseline", "NN-LUT"}
        for result in results.values():
            assert 0.0 <= result.f1 <= 100.0
            assert 0.0 <= result.exact_match <= 100.0
