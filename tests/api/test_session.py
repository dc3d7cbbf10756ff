"""InferenceSession: batching correctness, bitwise parity, calibration."""

import inspect

import numpy as np
import pytest

from repro.api import (
    BackendSpec,
    InferenceSession,
    RequestBatcher,
    SessionConfig,
    build_backend,
)
from repro.core.kernels import ComputeKernel, native_available


@pytest.fixture(scope="module")
def tiny64_config():
    return SessionConfig(model_family="tiny", compute_dtype="float64", max_batch_size=3)


@pytest.fixture(scope="module")
def tiny64_model(tiny64_config):
    return tiny64_config.build_model()


@pytest.fixture(scope="module")
def ragged_requests():
    rng = np.random.default_rng(7)
    lengths = (5, 12, 5, 9, 30, 12, 7, 5)
    return [rng.integers(0, 100, size=length) for length in lengths]


class TestRequestBatcher:
    def test_groups_by_length_and_respects_batch_size(self):
        batcher = RequestBatcher(max_batch_size=2, bucket_size=1)
        plan = batcher.plan([5, 9, 5, 5, 9, 3])
        assert plan == [(3, (5,)), (5, (0, 2)), (5, (3,)), (9, (1, 4))]

    def test_bucketing_pads_to_multiple(self):
        batcher = RequestBatcher(max_batch_size=8, bucket_size=8)
        plan = batcher.plan([5, 7, 9, 16])
        assert plan == [(8, (0, 1)), (16, (2, 3))]

    def test_bucketing_never_pads_past_max_length(self, fast_registry):
        # bucket_size 7 does not divide max_sequence_length 32: a length-29
        # request must be capped at 32, not bucketed to 35.
        batcher = RequestBatcher(max_batch_size=4, bucket_size=7)
        assert batcher.plan([29, 3], max_length=32) == [(7, (1,)), (32, (0,))]
        session = InferenceSession(
            SessionConfig(model_family="tiny", bucket_size=7), registry=fast_registry
        )
        (hidden,) = session.forward([np.arange(1, 30)])
        assert hidden.shape[0] == 29

    def test_no_mask_without_padding(self):
        batcher = RequestBatcher(max_batch_size=4)
        requests = [np.arange(1, 5), np.arange(2, 6)]
        (batch,) = list(batcher.iter_batches(requests))
        assert batch.mask is None
        assert np.array_equal(batch.tokens, np.stack(requests))

    def test_padding_and_mask(self):
        batcher = RequestBatcher(max_batch_size=4, bucket_size=4)
        requests = [np.array([1, 2]), np.array([3, 4, 5, 6])]
        (batch,) = list(batcher.iter_batches(requests))
        assert batch.tokens.shape == (2, 4)
        assert np.array_equal(batch.tokens[0], [1, 2, 0, 0])
        assert np.array_equal(batch.mask, [[1, 1, 0, 0], [1, 1, 1, 1]])

    def test_buffers_are_reused_across_batches(self):
        batcher = RequestBatcher(max_batch_size=4)
        requests = [np.arange(6), np.arange(6), np.arange(4)]
        # Warm-up pass grows the buffer; copy=False is the zero-allocation
        # hot path the session uses.
        list(batcher.iter_batches(requests, copy=False))
        first = [b.tokens.base for b in batcher.iter_batches(requests, copy=False)]
        second = [b.tokens.base for b in batcher.iter_batches(requests, copy=False)]
        assert first[0] is not None and all(base is first[0] for base in first + second)

    def test_default_batches_own_their_arrays(self):
        batcher = RequestBatcher(max_batch_size=1)
        requests = [np.full(5, 1), np.full(5, 2)]
        batches = list(batcher.iter_batches(requests))
        assert np.array_equal(batches[0].tokens[0], np.full(5, 1))
        assert np.array_equal(batches[1].tokens[0], np.full(5, 2))

    @pytest.mark.parametrize(
        "bad_request, match",
        [
            (np.array([]), "empty"),
            (np.zeros((2, 3), dtype=np.int64), "1-D"),
            (np.array([0.5, 1.5]), "integer"),
        ],
    )
    def test_rejects_malformed_requests(self, bad_request, match):
        batcher = RequestBatcher()
        with pytest.raises(ValueError, match=match):
            list(batcher.iter_batches([bad_request]))

    def test_rejects_over_length_requests(self):
        batcher = RequestBatcher()
        with pytest.raises(ValueError, match="maximum sequence length"):
            list(batcher.iter_batches([np.arange(10)], max_length=8))

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            RequestBatcher(max_batch_size=0)
        with pytest.raises(ValueError, match="bucket_size"):
            RequestBatcher(bucket_size=0)


#: Every BackendSpec scenario of the acceptance criterion.
PARITY_SPECS = {
    "exact": BackendSpec.exact(),
    "nn_lut_fp32": BackendSpec.nn_lut(precision="fp32"),
    "nn_lut_fp16": BackendSpec.nn_lut(precision="fp16"),
    "nn_lut_int32": BackendSpec.nn_lut(precision="int32"),
    "linear_lut": BackendSpec.linear_lut(),
    "ibert": BackendSpec.ibert(),
}


class TestBitwiseParity:
    """Micro-batched ragged serving == legacy per-call, bit for bit (fp64)."""

    @pytest.mark.parametrize("key", sorted(PARITY_SPECS))
    def test_forward_matches_per_call(
        self, key, tiny64_model, ragged_requests, fast_registry
    ):
        spec = PARITY_SPECS[key]
        session = InferenceSession.from_model(
            tiny64_model, spec=spec, registry=fast_registry, max_batch_size=3
        )
        batched = session.forward(ragged_requests)
        for i, request in enumerate(ragged_requests):
            per_call = tiny64_model.forward(request[None, :], backend=session.backend)
            assert np.array_equal(per_call[0], batched[i]), f"{key}: request {i}"

    @pytest.mark.parametrize("key", sorted(PARITY_SPECS))
    def test_pooled_matches_per_call(
        self, key, tiny64_model, ragged_requests, fast_registry
    ):
        spec = PARITY_SPECS[key]
        session = InferenceSession.from_model(
            tiny64_model, spec=spec, registry=fast_registry, max_batch_size=3
        )
        pooled = session.pooled(ragged_requests)
        for i, request in enumerate(ragged_requests):
            per_call = tiny64_model.pooled(request[None, :], backend=session.backend)
            assert np.array_equal(per_call[0], pooled[i]), f"{key}: request {i}"


class TestServing:
    def test_outputs_come_back_in_request_order(self, tiny64_model, fast_registry):
        session = InferenceSession.from_model(
            tiny64_model, registry=fast_registry, max_batch_size=2
        )
        requests = [np.full(length, length, dtype=np.int64) for length in (4, 9, 4, 6)]
        outputs = session.forward(requests)
        assert [o.shape[0] for o in outputs] == [4, 9, 4, 6]

    def test_empty_request_list(self, tiny64_model, fast_registry):
        session = InferenceSession.from_model(tiny64_model, registry=fast_registry)
        assert session.forward([]) == []
        assert session.pooled([]).shape == (0, tiny64_model.config.hidden_size)

    def test_spent_budget_is_answered_with_a_zero_row_block(
        self, tiny64_model, fast_registry
    ):
        # The replica-handle contract a shard worker also keeps: an expired
        # request is skipped (zero rows), its neighbours serve unchanged.
        session = InferenceSession.from_model(tiny64_model, registry=fast_registry)
        requests = [np.full(length, length, dtype=np.int64) for length in (4, 9, 6)]
        plain = session.forward(requests)
        budgeted = session.forward(requests, [None, 0.0, 2.5])
        assert np.array_equal(budgeted[0], plain[0])
        assert np.array_equal(budgeted[2], plain[2])
        assert budgeted[1].shape == (0, tiny64_model.config.hidden_size)
        assert budgeted[1].dtype == plain[1].dtype
        for a, b in zip(session.forward(requests, [None, 1.0, None]), plain):
            assert np.array_equal(a, b)

    def test_padded_buckets_stay_close_to_per_call(self, tiny64_model, fast_registry):
        session = InferenceSession.from_model(
            tiny64_model, registry=fast_registry, max_batch_size=4, bucket_size=8
        )
        rng = np.random.default_rng(3)
        requests = [rng.integers(0, 100, size=length) for length in (5, 8, 6, 3)]
        batched = session.forward(requests)
        for i, request in enumerate(requests):
            per_call = tiny64_model.forward(request[None, :], backend=session.backend)
            # Padded keys receive a large-negative score, not -inf, so parity
            # is approximate here (exact softmax underflows them to zero).
            assert np.allclose(per_call[0], batched[i], atol=1e-8), f"request {i}"

    def test_empty_registry_passed_in_is_the_one_used(self):
        # Regression: an empty registry (once falsy) was swapped for the
        # process-wide default by ``registry or default_registry()``.
        from repro.core.registry import LutRegistry

        fresh = LutRegistry()
        session = InferenceSession(
            SessionConfig(model_family="tiny"),
            spec=BackendSpec.nn_lut(replace=("gelu",)),
            registry=fresh,
        )
        assert session.registry is fresh
        assert session.backend.gelu.gelu_approx is fresh.lut("gelu")

    def test_session_builds_model_from_config(self, fast_registry):
        config = SessionConfig(model_family="tiny", seed=5)
        session = InferenceSession(config, registry=fast_registry)
        assert session.model.config.name == "tiny-test"
        twin = config.build_model()
        request = np.arange(1, 9)
        assert np.array_equal(
            session.forward([request])[0],
            twin.forward(request[None, :], backend=session.backend)[0],
        )


class TestSessionConfig:
    def test_round_trip(self):
        config = SessionConfig(
            model_family="mobilebert",
            seed=4,
            matmul_precision="int8",
            bucket_size=4,
            model_overrides={"num_layers": 2},
        )
        assert SessionConfig.from_dict(config.to_dict()) == config

    def test_rejects_unknown_family_and_size(self):
        with pytest.raises(ValueError, match="model_family"):
            SessionConfig(model_family="gpt")
        with pytest.raises(ValueError, match="model_size"):
            SessionConfig(model_size="xxl")

    def test_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="sharding"):
            SessionConfig.from_dict({"sharding": 2})

    def test_configs_are_hashable_values(self):
        a = SessionConfig(model_overrides={"num_layers": 2})
        b = SessionConfig(model_overrides={"num_layers": 2})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, SessionConfig()}) == 2

    def test_container_overrides_stay_hashable(self):
        # Regression: a list-valued override constructed fine and then
        # hash() raised TypeError (unhashable 'list') — breaking the
        # "hashable like its sibling BackendSpec" contract.
        a = SessionConfig(model_overrides={"x": [1, 2], "y": {"k": [3]}})
        b = SessionConfig(model_overrides={"x": (1, 2), "y": {"k": (3,)}})
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_container_overrides_round_trip(self):
        config = SessionConfig(
            model_family="tiny", model_overrides={"x": [1, 2], "y": {"k": [3]}}
        )
        payload = config.to_dict()
        assert payload["model_overrides"] == {"x": [1, 2], "y": [["k", [3]]]}
        assert SessionConfig.from_dict(payload) == config

    def test_unhashable_override_rejected_with_clear_error(self):
        class Opaque:
            __hash__ = None  # type: ignore[assignment]

        with pytest.raises(TypeError, match=r"model_overrides\['x'\]"):
            SessionConfig(model_overrides={"x": Opaque()})

    def test_engine_settings_reach_the_model(self):
        config = SessionConfig(
            model_family="tiny", compute_dtype="float64", matmul_precision="int8"
        )
        model = config.build_model()
        assert model.config.compute_dtype == "float64"
        assert model.config.matmul_precision == "int8"

    def test_adopted_model_rejects_named_family_configs(self, tiny64_model, fast_registry):
        with pytest.raises(ValueError, match="custom"):
            InferenceSession(
                SessionConfig(model_family="roberta"),
                registry=fast_registry,
                model=tiny64_model,
            )
        # With no config at all, an honest custom config is synthesized.
        session = InferenceSession(registry=fast_registry, model=tiny64_model)
        assert session.config.model_family == "custom"
        assert session.config.compute_dtype == tiny64_model.config.compute_dtype

    def test_custom_config_engine_fields_must_match_model(
        self, tiny64_model, fast_registry
    ):
        # tiny64_model runs float64; a custom config claiming float32 would
        # log engine settings the session does not actually use.
        with pytest.raises(ValueError, match="compute_dtype"):
            InferenceSession(
                SessionConfig(model_family="custom", compute_dtype="float32"),
                registry=fast_registry,
                model=tiny64_model,
            )
        session = InferenceSession(
            SessionConfig(model_family="custom", compute_dtype="float64", max_batch_size=4),
            registry=fast_registry,
            model=tiny64_model,
        )
        assert session.config.max_batch_size == 4

    def test_from_model_config_is_marked_custom(self, tiny64_model, fast_registry):
        session = InferenceSession.from_model(tiny64_model, registry=fast_registry)
        assert session.config.model_family == "custom"
        # A custom config round-trips but refuses to rebuild a model — it
        # never described the adopted architecture.
        replayed = SessionConfig.from_dict(session.config.to_dict())
        with pytest.raises(ValueError, match="custom"):
            replayed.build_model()


class TestCalibration:
    def test_calibrate_swaps_tables_in(self, fast_registry):
        spec = BackendSpec.nn_lut().with_calibration("layernorm")
        session = InferenceSession(
            SessionConfig(model_family="tiny", compute_dtype="float64"),
            spec=spec,
            registry=fast_registry,
        )
        rng = np.random.default_rng(0)
        samples = [rng.integers(0, 100, size=length) for length in (8, 12, 8, 16)]
        calibrated = session.calibrate(samples)
        assert set(calibrated) == {"rsqrt"}
        assert calibrated["rsqrt"].metadata["calibrated"] is True
        assert session.lut_overrides["rsqrt"] is calibrated["rsqrt"]
        assert session.backend.name == "nn-lut-fp32+cal"
        # The recording pass must not leak into the serving backend.
        assert not session.backend.recorder.enabled
        # The calibrated session still serves.
        assert session.pooled(samples).shape == (4, session.model.config.hidden_size)

    def test_calibrate_is_invariant_to_bucketed_padding(self, fast_registry):
        # Recording always runs with exact-length batching: a padded-bucket
        # session must produce the same calibrated table as an unpadded one
        # (pad-token activations must never reach the recorder).
        rng = np.random.default_rng(2)
        samples = [rng.integers(0, 100, size=length) for length in (5, 11, 7, 13)]
        tables = []
        for bucket_size in (1, 8):
            session = InferenceSession(
                SessionConfig(model_family="tiny", bucket_size=bucket_size),
                spec=BackendSpec.nn_lut().with_calibration("layernorm"),
                registry=fast_registry,
            )
            tables.append(session.calibrate(samples)["rsqrt"])
        assert np.array_equal(tables[0].breakpoints, tables[1].breakpoints)
        assert np.array_equal(tables[0].slopes, tables[1].slopes)

    def test_calibration_queries_respect_input_scaling(self, fast_registry):
        # input_scaling=False serves raw variances; the calibrated table must
        # be fitted on that same distribution, not the S*var mapping.
        from repro.api import calibrate_primitive_luts
        from repro.transformer.nonlinear_backend import OperatorRecorder

        rng = np.random.default_rng(0)
        recorder = OperatorRecorder(enabled=True)
        recorder.record("layernorm", rng.normal(0.0, 0.01, size=(4, 16, 32)))
        scaled = calibrate_primitive_luts(
            recorder, fast_registry, ("layernorm",), input_scaling=True
        )
        raw = calibrate_primitive_luts(
            recorder, fast_registry, ("layernorm",), input_scaling=False
        )
        assert not np.array_equal(
            scaled["rsqrt"].breakpoints, raw["rsqrt"].breakpoints
        )

    def test_calibrate_defaults_to_all_nn_lut_operators(self, fast_registry):
        session = InferenceSession(
            SessionConfig(model_family="tiny"),
            spec=BackendSpec.nn_lut(replace=("gelu",)),
            registry=fast_registry,
        )
        rng = np.random.default_rng(1)
        calibrated = session.calibrate([rng.integers(0, 100, size=10)])
        assert set(calibrated) == {"gelu"}

    def test_calibrate_rejects_exact_spec(self, fast_registry):
        session = InferenceSession(
            SessionConfig(model_family="tiny"), registry=fast_registry
        )
        with pytest.raises(ValueError, match="nothing to calibrate"):
            session.calibrate([np.arange(1, 9)])

    def test_calibrate_rejects_non_nn_lut_operator(self, fast_registry):
        session = InferenceSession(
            SessionConfig(model_family="tiny"),
            spec=BackendSpec.linear_lut(),
            registry=fast_registry,
        )
        with pytest.raises(ValueError, match="NN-LUT"):
            session.calibrate([np.arange(1, 9)], operators=("gelu",))


class TestRecordingContextManager:
    def test_restores_state_on_exception(self):
        backend = build_backend(BackendSpec.exact())
        with pytest.raises(RuntimeError):
            with backend.recording():
                assert backend.recorder.enabled
                raise RuntimeError("calibration failed midway")
        assert not backend.recorder.enabled

    def test_restores_prior_enabled_state(self):
        backend = build_backend(BackendSpec.exact())
        backend.recorder.enabled = True
        with backend.recording(enabled=False):
            assert not backend.recorder.enabled
        assert backend.recorder.enabled

    def test_records_inside_scope_only(self, rng):
        backend = build_backend(BackendSpec.exact())
        backend.apply_gelu(rng.normal(size=(2, 3)))
        assert backend.recorder.gelu_inputs == []
        with backend.recording() as recorder:
            backend.apply_gelu(rng.normal(size=(2, 3)))
        assert len(recorder.gelu_inputs) == 1
        backend.apply_gelu(rng.normal(size=(2, 3)))
        assert len(recorder.gelu_inputs) == 1


#: Every operation of the kernel seam, i.e. everything an encoder layer
#: hands a tensor to.
KERNEL_METHODS = sorted(
    name
    for name, member in vars(ComputeKernel).items()
    if inspect.isfunction(member) and not name.startswith("_")
)


def _float_arrays(value):
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _float_arrays(item)


class TestComputeDtypeIsKept:
    """The engine computes in its compute dtype: float32 never silently
    becomes float64 (nor float64 float32).

    A spy wraps every :class:`ComputeKernel` method on every concrete kernel
    and records the dtype of each floating array going in or coming out,
    while a ``tiny`` session serves ragged, padded batches through
    ``forward``.  This checks what actually flows —
    wherever the array was allocated — rather than which allocator was
    called — at every table precision: the FP16 / INT32 tables compute in
    their own formats inside ``evaluate`` and must hand back the compute
    dtype all the same.
    """

    @pytest.mark.parametrize("precision", ["fp32", "fp16", "int32"])
    @pytest.mark.parametrize("compute_dtype", ["float32", "float64"])
    @pytest.mark.parametrize("kernel", ["numpy", "native"])
    def test_every_kernel_operand_and_result_is_in_the_compute_dtype(
        self, kernel, compute_dtype, precision, ragged_requests, fast_registry, monkeypatch
    ):
        if kernel == "native" and not native_available():
            pytest.skip("native kernel unavailable on this machine")
        session = InferenceSession(
            SessionConfig(
                model_family="tiny", compute_dtype=compute_dtype, kernel=kernel,
                max_batch_size=3, bucket_size=4,
            ),
            spec=BackendSpec.nn_lut(precision=precision),
            registry=fast_registry,
        )
        seen = []
        for cls in ComputeKernel.__subclasses__():
            for name in KERNEL_METHODS:
                original = getattr(cls, name)

                def spy(self, *args, _name=name, _original=original, **kwargs):
                    result = _original(self, *args, **kwargs)
                    for role, value in (
                        ("argument", (args, tuple(kwargs.values()))),
                        ("result", result),
                    ):
                        seen.extend(
                            (_name, role, array.dtype)
                            for array in _float_arrays(value)
                        )
                    return result

                monkeypatch.setattr(cls, name, spy)

        hidden = session.forward(ragged_requests)

        called = {name for name, _, _ in seen}
        assert {"matmul_fp32", "lut_softmax", "lut_layernorm", "lut_gelu_bias",
                "bias_residual"} <= called, sorted(called)
        dtype = np.dtype(compute_dtype)
        strays = sorted({(n, role, str(d)) for n, role, d in seen if d != dtype})
        assert strays == [], strays
        assert [a.dtype for a in hidden] == [dtype] * len(hidden)
        assert [len(a) for a in hidden] == [r.size for r in ragged_requests]
