"""Public-surface snapshot: removals and additions must be deliberate.

A failure here is not a bug by itself — update the snapshot in the same
change that alters the surface, so the diff shows it.
"""

import dataclasses
import inspect

import repro.api
import repro.baselines
import repro.core
import repro.core.kernels
import repro.quant
import repro.tasks
import repro.transformer
from repro.api import (
    BackendSpec,
    CircuitBreakerConfig,
    FaultPlan,
    RetryPolicy,
    ServingQueue,
    SessionConfig,
    ShardedPool,
    calibrate_primitive_luts,
)
from repro.core.approximators import LutGelu, LutLayerNorm, LutSoftmax
from repro.transformer import Linear, NonlinearBackend, TransformerConfig

API = """
BackendSpec CircuitBreakerConfig
DeadlineExceededError FaultInjector FaultPlan InferenceSession
InjectedFaultError METHODS MODEL_FAMILIES MicroBatch OPERATOR_PRIMITIVES
OperatorSpec PRECISIONS QueueFullError ReplicaPool ReplicaStats RequestBatcher
RetryPolicy SPEC_SCHEMA_VERSION ServerClosedError ServingFuture ServingQueue
ServingStats SessionConfig SessionPool ShardedPool SharedWeightStore
TransportError TransportIntegrityError WorkerDiedError WorkerTransport
as_backend attach_weight_state build_backend calibrate_primitive_luts
export_weight_state inject
"""

TRANSFORMER = """
ALL_OPS ClassificationHead Embedding EncoderModel Linear MobileBertLikeModel
MultiHeadSelfAttention NonlinearBackend NormParameters OperatorRecorder
RegressionHead RobertaLikeModel SpanHead TransformerConfig
TransformerEncoder TransformerEncoderLayer
mobilebert_config mobilebert_like_small_config
roberta_base_config roberta_like_small_config tiny_test_config
"""

KERNELS = """
ComputeKernel KERNEL_NAMES NUMPY_KERNEL NativeKernel NumpyKernel get_kernel
kernel_info native_available native_unavailable_reason
reset_kernel_fallback_warning resolve_kernel
"""

QUANT = "QuantizedTensor quantize"

CORE = """
ExactGelu ExactLayerNorm ExactSoftmax
FittedPrimitive Fp16LookupTable INIT_SPECS InitSpec InputScaler
Int32LookupTable LookupTable LutGelu LutLayerNorm LutRegistry LutSoftmax
NetworkParameters OneHiddenReluNet TARGET_FUNCTIONS TRAINING_RANGES
TrainingResult calibrate_lut calibrate_network
default_registry erf exp fit_lut fit_network gelu get_init_spec
get_target_function get_training_range initialize_network layer_norm
lut_matches_network network_to_lut network_to_lut_eq7 reciprocal rsqrt
softmax
"""

BASELINES = """
ERF_COEFFICIENTS EXP_COEFFICIENTS IBertGelu IBertLayerNorm IBertSoftmax
build_lut_from_breakpoints exponential_breakpoints exponential_lut_for
fit_exponential_lut fit_linear_lut fit_segments_interpolation
fit_segments_least_squares i_erf i_exp i_gelu i_layernorm i_softmax i_sqrt
int_exp int_poly integer_sqrt linear_breakpoints linear_lut_for
"""

TASKS = """
FinetunedClassifier FinetunedRegressor FinetunedSpanModel GLUE_TASKS
GlueBenchmark GlueTaskSpec METRIC_FUNCTIONS SquadData SquadResult
SquadTaskSpec TaskData accuracy compute_metric evaluate_squad
extract_pooled_features extract_token_features f1_binary
finetune_classification_task finetune_regression_task finetune_span_task
generate_squad_task generate_task list_glue_tasks matthews_correlation
pearson_correlation span_exact_match span_f1 spearman_correlation
"""

FIELDS = {
    BackendSpec: "gelu softmax layernorm input_scaling name",
    SessionConfig: (
        "model_family model_size seed compute_dtype matmul_precision kernel "
        "max_batch_size bucket_size model_overrides"
    ),
    TransformerConfig: (
        "hidden_size num_layers num_heads intermediate_size max_sequence_length "
        "vocab_size activation normalization matmul_precision compute_dtype "
        "kernel name"
    ),
    Linear: "weight bias precision compute_dtype kernel",
    # The option surface (ROADMAP item 7): a field stays only while some
    # test, example or benchmark sets it to a non-default value.
    RetryPolicy: "max_attempts backoff_base_s backoff_max_s retry_budget seed",
    CircuitBreakerConfig: "failure_threshold cooldown_s",
    FaultPlan: (
        "seed worker_crash_at crash_worker_index worker_stall_at "
        "stall_worker_index worker_stall_s session_error_at session_error_count "
        "corrupt_response_at spawn_fail_at"
    ),
}

SIGNATURES = {
    ShardedPool.__init__: (
        "self config spec registry num_replicas model request_timeout_s "
        "transport"
    ),
    ServingQueue.__init__: (
        "self pool max_wait_ms max_batch_size max_queue_depth start "
        "replace_dead_replicas retry breaker"
    ),
    calibrate_primitive_luts: (
        "recorder registry operators num_entries input_scaling"
    ),
}


def test_exported_names():
    for module, names in (
        (repro.api, API),
        (repro.transformer, TRANSFORMER),
        (repro.core.kernels, KERNELS),
        (repro.quant, QUANT),
        (repro.core, CORE),
        (repro.baselines, BASELINES),
        (repro.tasks, TASKS),
    ):
        assert sorted(module.__all__) == sorted(names.split()), module.__name__


def test_config_fields():
    for cls, names in FIELDS.items():
        assert [f.name for f in dataclasses.fields(cls)] == names.split(), cls.__name__


def test_signatures():
    for function, names in SIGNATURES.items():
        assert list(inspect.signature(function).parameters) == names.split(), (
            function.__qualname__
        )


def test_operator_descriptions_carry_no_kernel():
    # The compute kernel is an engine setting (TransformerConfig.kernel,
    # Linear.kernel); operators and backends only describe what is computed.
    for cls in (BackendSpec, NonlinearBackend, LutGelu, LutSoftmax, LutLayerNorm):
        assert "kernel" not in {f.name for f in dataclasses.fields(cls)}, cls.__name__
