"""Tests for dataset sampling, Adam, initialisation and the fitting pipeline."""

import struct
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core import calibration, functions, training
from repro.core.initialization import INIT_SPECS, InitSpec, get_init_spec, initialize_network
from repro.core.registry import DEFAULT_TRAINING_CONFIG, FUNCTION_CONFIG_OVERRIDES
from repro.core.training import (
    AdamOptimizer,
    TrainingConfig,
    curvature_anchors,
    fit_network,
    sample_training_data,
)

FAST = TrainingConfig(
    hidden_size=15, num_samples=4000, batch_size=2048, epochs=10, learning_rate=1e-3,
    seed=0, num_restarts=1,
)


class TestConfigValidation:
    def test_rejects_bad_sampling(self):
        with pytest.raises(ValueError, match="sampling"):
            TrainingConfig(sampling="weird")

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            TrainingConfig(hidden_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)


class TestSampling:
    def test_uniform_range(self, rng):
        x, y = sample_training_data(functions.gelu, (-5, 5), 1000, rng)
        assert x.min() >= -5 and x.max() <= 5
        np.testing.assert_allclose(y, functions.gelu(x))

    def test_log_sampling_positive_only(self, rng):
        x, _ = sample_training_data(functions.rsqrt, (0.1, 1024), 1000, rng, sampling="log")
        assert np.all(x >= 0.1) and np.all(x <= 1024)
        # Log sampling concentrates mass at small values.
        assert np.median(x) < 100

    def test_log_sampling_rejects_nonpositive_range(self, rng):
        with pytest.raises(ValueError, match="positive"):
            sample_training_data(functions.rsqrt, (-1, 10), 100, rng, sampling="log")

    def test_neg_log_sampling(self, rng):
        x, _ = sample_training_data(functions.exp, (-256, 0), 1000, rng, sampling="neg_log")
        assert np.all(x <= 0) and np.all(x >= -256)
        assert np.median(x) > -30  # concentrated near zero

    def test_neg_log_rejects_positive_range(self, rng):
        with pytest.raises(ValueError, match="non-positive"):
            sample_training_data(functions.exp, (-1, 2), 100, rng, sampling="neg_log")


class TestAdam:
    def test_minimises_quadratic(self):
        opt = AdamOptimizer(2, learning_rate=0.1)
        w = np.array([5.0, -3.0])
        for _ in range(500):
            opt.step(w, 2 * w)
        np.testing.assert_allclose(w, 0.0, atol=1e-3)

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            AdamOptimizer(1, learning_rate=0.0)


class TestInitialization:
    def test_table1_specs(self):
        assert INIT_SPECS["exp"].weight_sign == "positive"
        assert INIT_SPECS["reciprocal"].weight_sign == "negative"
        assert INIT_SPECS["rsqrt"].bias_sign == "positive"
        assert get_init_spec("unknown-function") == InitSpec()

    def test_sign_constraints_applied(self):
        rng = np.random.default_rng(0)
        net = initialize_network("exp", 8, (-256, 0), rng=rng)
        assert np.all(net.params.first_weight > 0)
        assert np.all(net.params.first_bias > 0)
        net = initialize_network("reciprocal", 8, (1, 1024), rng=rng)
        assert np.all(net.params.first_weight < 0)

    def test_breakpoints_cover_range(self):
        rng = np.random.default_rng(1)
        net = initialize_network("gelu", 15, (-5, 5), rng=rng)
        bps = net.breakpoints()
        assert bps.min() > -5.5 and bps.max() < 5.5

    def test_explicit_anchors(self):
        anchors = np.array([-1.0, 0.0, 1.0])
        net = initialize_network("gelu", 3, (-5, 5), rng=np.random.default_rng(0), anchors=anchors)
        np.testing.assert_allclose(np.sort(net.breakpoints()), anchors, atol=1e-9)

    def test_anchor_length_mismatch(self):
        with pytest.raises(ValueError, match="anchors"):
            initialize_network("gelu", 3, (-5, 5), anchors=np.array([0.0]))

    def test_invalid_spec_value(self):
        with pytest.raises(ValueError, match="weight_sign"):
            InitSpec(weight_sign="sometimes")


class TestCurvatureAnchors:
    def test_quadratic_gives_uniform_anchors(self):
        anchors = curvature_anchors(lambda x: x**2, (-1, 1), 9, grid_points=20_000)
        # Constant curvature -> approximately uniform spacing.
        spacing = np.diff(anchors)
        assert spacing.max() / spacing.min() < 1.5

    def test_reciprocal_concentrates_at_low_end(self):
        anchors = curvature_anchors(lambda x: 1.0 / x, (1, 1024), 15, grid_points=50_000)
        assert np.sum(anchors < 100) >= 8

    def test_sorted_output(self):
        anchors = curvature_anchors(np.exp, (-10, 0), 7)
        assert np.all(np.diff(anchors) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            curvature_anchors(np.exp, (1, 0), 3)
        with pytest.raises(ValueError):
            curvature_anchors(np.exp, (0, 1), 0)


class TestFitNetwork:
    def test_gelu_fit_quality(self):
        result = fit_network("gelu", config=FAST)
        grid = np.linspace(-5, 5, 500)
        error = np.mean(np.abs(result.network(grid) - functions.gelu(grid)))
        assert error < 0.02
        assert result.function_name == "gelu"
        assert len(result.loss_history) == FAST.epochs

    def test_custom_function_and_range(self):
        result = fit_network(
            "sigmoid",
            config=FAST,
            function=lambda x: 1.0 / (1.0 + np.exp(-x)),
            input_range=(-8.0, 8.0),
        )
        grid = np.linspace(-8, 8, 200)
        error = np.mean(np.abs(result.network(grid) - 1.0 / (1.0 + np.exp(-grid))))
        assert error < 0.03

    def test_deterministic_given_seed(self):
        a = fit_network("gelu", config=FAST)
        b = fit_network("gelu", config=FAST)
        np.testing.assert_allclose(a.network.params.first_weight, b.network.params.first_weight)
        np.testing.assert_allclose(a.network.params.second_weight, b.network.params.second_weight)


# --------------------------------------------------------------------------- #
# Twin of train_adam: the per-batch loop it replaced, kept verbatim as oracle
# --------------------------------------------------------------------------- #
class ReferenceAdam:
    """The dict-of-arrays Adam the per-batch loop stepped."""

    def __init__(self, learning_rate=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._step = 0
        self._m = {}
        self._v = {}

    def step(self, params, grads, lr_scale=1.0):
        self._step += 1
        lr = self.learning_rate * lr_scale
        updated = {}
        for name, value in params.items():
            grad = np.asarray(grads[name], dtype=np.float64)
            if name not in self._m:
                self._m[name] = np.zeros_like(value, dtype=np.float64)
                self._v[name] = np.zeros_like(value, dtype=np.float64)
            self._m[name] = self.beta1 * self._m[name] + (1 - self.beta1) * grad
            self._v[name] = self.beta2 * self._v[name] + (1 - self.beta2) * grad**2
            m_hat = self._m[name] / (1 - self.beta1**self._step)
            v_hat = self._v[name] / (1 - self.beta2**self._step)
            updated[name] = value - lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return updated


def reference_l1_loss(prediction, target):
    diff = prediction - target
    loss = float(np.mean(np.abs(diff)))
    grad = np.sign(diff) / diff.size
    return loss, grad


def reference_train_adam(
    network, x_norm, y_norm, rng, lr_scales, batch_size, learning_rate, weights=None
):
    """``forward`` -> L1 -> ``gradients`` -> dict Adam, one batch at a time.

    The fit's loop; calibration's copy of it was the same without weights.
    """
    optimizer = ReferenceAdam(learning_rate=learning_rate)
    num_batches = max(1, x_norm.size // batch_size)
    history = []

    for scale in lr_scales:
        order = rng.permutation(x_norm.size)
        epoch_loss = 0.0
        for batch_index in range(num_batches):
            idx = order[batch_index * batch_size : (batch_index + 1) * batch_size]
            if idx.size == 0:
                continue
            xb, yb = x_norm[idx], y_norm[idx]
            pred = network.forward(xb)
            loss, grad_pred = reference_l1_loss(pred, yb)
            if weights is not None:
                grad_pred = grad_pred * weights[idx]
            grads = network.gradients(xb, grad_pred)
            params = network.params.as_dict()
            updated = optimizer.step(params, grads, lr_scale=scale)
            network.params.first_weight = updated["first_weight"]
            network.params.first_bias = updated["first_bias"]
            network.params.second_weight = updated["second_weight"]
            if network.trainable_output_bias:
                network.params.output_bias = float(updated["output_bias"][0])
            epoch_loss += loss
        history.append(epoch_loss / num_batches)
    return history


def network_bytes(network):
    p = network.params
    return b"".join(
        np.asarray(a, dtype=np.float64).tobytes()
        for a in (p.first_weight, p.first_bias, p.second_weight, [p.output_bias])
    )


def run_both(monkeypatch, module, call):
    """``call()`` with ``module.train_adam`` as shipped, then as the oracle."""
    fast = call()
    monkeypatch.setattr(module, "train_adam", reference_train_adam)
    return fast, call()


def fit_cases():
    reduced = replace(DEFAULT_TRAINING_CONFIG, epochs=6)
    assert reduced.num_restarts == 2
    for name in ("gelu", "exp", "reciprocal", "rsqrt"):
        config = replace(reduced, **FUNCTION_CONFIG_OVERRIDES.get(name, {}))
        for restart in range(config.num_restarts):
            yield pytest.param(name, config, restart, id=f"{name}-restart{restart}")
    yield pytest.param("gelu", replace(FAST, output_bias=False), 0, id="no-output-bias")
    # 1500 rows: unlike a power-of-two batch, dividing by it rounds
    short = replace(FAST, num_samples=1500, **FUNCTION_CONFIG_OVERRIDES["reciprocal"])
    yield pytest.param("reciprocal", short, 0, id="one-short-batch")


class TestTrainAdamTwin:
    """``train_adam`` gives the per-batch loop's networks and losses byte for byte."""

    @pytest.mark.parametrize("name, config, restart", fit_cases())
    def test_fit_is_byte_identical(self, monkeypatch, name, config, restart):
        def fit():
            return training._run_single_fit(
                functions.get_target_function(name), name,
                functions.get_training_range(name), config, seed=config.seed + restart,
            )

        fast, reference = run_both(monkeypatch, training, fit)
        assert network_bytes(fast.network) == network_bytes(reference.network)
        assert len(fast.loss_history) == config.epochs
        assert (np.array(fast.loss_history).tobytes()
                == np.array(reference.loss_history).tobytes())
        assert struct.pack("d", fast.final_loss) == struct.pack("d", reference.final_loss)

    def test_calibration_is_byte_identical(self, monkeypatch, fitted_gelu):
        samples = np.random.default_rng(7).normal(0.0, 1.0, size=9000)
        fast, reference = run_both(
            monkeypatch, calibration,
            lambda: calibration.calibrate_network(
                fitted_gelu.network, functions.gelu, samples
            ),
        )
        assert network_bytes(fast) == network_bytes(reference)
        # the Adam result is what calibration keeps, so the twin compares it
        monkeypatch.setattr(calibration, "train_adam", lambda *args, **kwargs: [])
        untrained = calibration.calibrate_network(
            fitted_gelu.network, functions.gelu, samples
        )
        assert network_bytes(fast) != network_bytes(untrained)


# --------------------------------------------------------------------------- #
# Twin of fit_network's concurrent restarts: the sequential loop, as oracle
# --------------------------------------------------------------------------- #
def reference_fit_network(name, config):
    """The restart loop ``fit_network`` ran before its restarts ran at once."""
    function = functions.get_target_function(name)
    input_range = functions.get_training_range(name)
    best = None
    for restart in range(config.num_restarts):
        result = training._run_single_fit(
            function, name, input_range, config, seed=config.seed + restart
        )
        if best is None or result.final_loss < best.final_loss:
            best = result
    return best


def fake_restart(seed, loss=1.0):
    """A restart's result that names its seed in the loss history."""
    return training.TrainingResult(network=None, final_loss=loss, loss_history=[seed])


class TestConcurrentRestarts:
    """``fit_network``'s threads pick what the sequential loop picked, byte for byte."""

    @pytest.mark.parametrize("num_restarts", [1, 2, 3])
    def test_equals_the_sequential_loop(self, monkeypatch, num_restarts):
        config = replace(
            FAST, num_restarts=num_restarts, **FUNCTION_CONFIG_OVERRIDES["rsqrt"]
        )
        reference = reference_fit_network("rsqrt", config)
        # a thread per restart whatever this machine has
        monkeypatch.setattr(training, "_usable_cores", lambda: 8)
        result = fit_network("rsqrt", config=config)
        assert network_bytes(result.network) == network_bytes(reference.network)
        assert (np.array(result.loss_history).tobytes()
                == np.array(reference.loss_history).tobytes())
        assert struct.pack("d", result.final_loss) == struct.pack("d", reference.final_loss)
        assert (result.input_range, result.function_name) == (
            reference.input_range, reference.function_name
        )

    def test_restarts_run_at_once(self, monkeypatch):
        """Each restart waits for the other at a barrier: run one after the
        other, the first would time out there."""
        barrier = threading.Barrier(2, timeout=10)
        ran_on = {}

        def single_fit(function, name, input_range, config, seed):
            ran_on[seed] = threading.get_ident()
            barrier.wait()
            return fake_restart(seed)

        monkeypatch.setattr(training, "_usable_cores", lambda: 2)
        monkeypatch.setattr(training, "_run_single_fit", single_fit)
        fit_network("gelu", config=replace(FAST, num_restarts=2))
        assert ran_on[0] == threading.get_ident() != ran_on[1]

    def test_a_tie_goes_to_the_earliest_restart(self, monkeypatch):
        def single_fit(function, name, input_range, config, seed):
            if seed == config.seed:
                time.sleep(0.05)  # restart 0 finishes last
            return fake_restart(seed)

        monkeypatch.setattr(training, "_usable_cores", lambda: 8)
        monkeypatch.setattr(training, "_run_single_fit", single_fit)
        config = replace(FAST, seed=4, num_restarts=3)
        assert fit_network("gelu", config=config).loss_history == [4]

    def test_a_failed_restart_reaches_the_caller(self, monkeypatch):
        class Diverged(Exception):
            pass

        def single_fit(function, name, input_range, config, seed):
            if seed == config.seed + 1:
                raise Diverged("restart 1 diverged")
            return fake_restart(seed)

        monkeypatch.setattr(training, "_usable_cores", lambda: 8)
        monkeypatch.setattr(training, "_run_single_fit", single_fit)
        with pytest.raises(Diverged, match="^restart 1 diverged$"):
            fit_network("gelu", config=replace(FAST, num_restarts=3))

    @pytest.mark.parametrize("num_restarts, cores", [(1, 8), (3, 1)])
    def test_one_restart_or_one_core_starts_no_thread(
        self, monkeypatch, num_restarts, cores
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("started a thread pool")

        ran_on = []

        def single_fit(function, name, input_range, config, seed):
            ran_on.append(threading.get_ident())
            return fake_restart(seed, loss=float(-seed))

        monkeypatch.setattr(training, "_usable_cores", lambda: cores)
        monkeypatch.setattr(training, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(training, "_run_single_fit", single_fit)
        threads = threading.active_count()
        result = fit_network("gelu", config=replace(FAST, num_restarts=num_restarts))
        assert ran_on == [threading.get_ident()] * num_restarts
        assert threading.active_count() == threads
        assert result.loss_history == [num_restarts - 1]  # the lowest loss
