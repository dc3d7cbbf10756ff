"""Prepared inference sessions: one serving-grade entry point per scenario.

I-BERT's deployment discipline is *prepare once, run many*: quantise the
weights, fix the tables, then serve.  :class:`InferenceSession` packages that
for this repo — a :class:`SessionConfig` (model family x size x seed x
engine precision) plus a :class:`~repro.api.spec.BackendSpec` fully determine
a session, and constructing it does all the one-time work:

* the encoder model is built from the config — or, through
  :meth:`InferenceSession.from_model`, the one way to serve a model the
  caller built, adopted with a config derived from it — and every linear
  layer's weight operand is prepared up front, so the first request pays no
  quantisation cost;
* the non-linear backend is realised from the spec exactly once;
* a :class:`~repro.api.batching.RequestBatcher` is armed for dynamic
  micro-batching of ragged request lists.

``forward`` / ``pooled`` then serve arbitrary mixes of sequence lengths (a
fitted classification head scores ``head.predict(session.pooled(requests))``);
``calibrate`` runs the paper's dataset-free calibration (Sec. 3.3.3) end to
end — record operator-site inputs on unlabelled traffic, re-fit the flagged
NN-LUT primitives, swap the refreshed tables in.  ``clone_for_serving`` is
the one way to make a replica of a session: the threaded pool builds its
replicas, and the queue its pool of one, from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

import numpy as np

from ..core import functions
from ..core.calibration import calibrate_network
from ..core.conversion import network_to_lut
from ..core.functions import get_training_range
from ..core.kernels import KERNEL_NAMES
from ..core.lut import LookupTable
from ..core.registry import LutRegistry, default_registry
from ..transformer.config import (
    TransformerConfig,
    mobilebert_config,
    mobilebert_like_small_config,
    roberta_base_config,
    roberta_like_small_config,
    tiny_test_config,
)
from ..transformer.models import EncoderModel
from ..transformer.nonlinear_backend import (
    ALL_OPS,
    NonlinearBackend,
    OperatorRecorder,
    _validate_replace,
)
from . import faults as _faults
from .batching import RequestBatcher
from .spec import BackendSpec, build_backend

__all__ = [
    "MODEL_FAMILIES",
    "SessionConfig",
    "InferenceSession",
    "calibrate_primitive_luts",
    "export_weight_state",
    "attach_weight_state",
]


def _pooled_rows(model: EncoderModel, rows: Sequence[np.ndarray]) -> np.ndarray:
    """First-token representations of per-request hidden rows, ``(n, hidden)``.

    The one pooling composition of the serving surfaces: the (cheap) tanh
    pooler runs per sequence, because a batched ``(n, hidden)`` pooler matmul
    takes a different BLAS path than the per-call ``(1, hidden)`` one and
    would break bit-exact parity with per-request inference.
    """
    if not rows:
        config = model.config
        return np.empty((0, config.hidden_size), dtype=np.dtype(config.compute_dtype))
    return np.stack([model.pool_hidden(hidden[None])[0] for hidden in rows], axis=0)


def _check_budgets(requests: Sequence, budgets_s: Sequence | None) -> None:
    """One budget per request (shared by session and shard client): a short
    row would otherwise drop the requests past its end."""
    if budgets_s is not None and len(budgets_s) != len(requests):
        raise ValueError(
            f"budgets_s has {len(budgets_s)} entries for "
            f"{len(requests)} requests"
        )


# --------------------------------------------------------------------------- #
# Weight export/attach: one flat view of a frozen encoder's master arrays
# --------------------------------------------------------------------------- #
def _weight_slots(model: EncoderModel):
    """Yield ``(name, owner, attribute)`` for every float64 master array.

    The names are stable across processes for a given architecture, which is
    what lets :mod:`repro.api.sharding` ship a model's weights through
    ``multiprocessing.shared_memory`` by name and re-attach them on the
    worker side.  A ``Linear`` weight slot reads the master through the
    layer's ``weight`` property: one that was dropped after prepare is
    re-derived from its recorded draw (and pinned) by the read.
    """
    yield "embedding.token_table", model.embedding, "token_table"
    yield "embedding.position_table", model.embedding, "position_table"
    yield "embedding_norm.gamma", model.embedding_norm, "gamma"
    yield "embedding_norm.beta", model.embedding_norm, "beta"
    for index, layer in enumerate(model.encoder.layers):
        attention = layer.attention
        linears = (
            (f"layers.{index}.attention.query", attention.query),
            (f"layers.{index}.attention.key", attention.key),
            (f"layers.{index}.attention.value", attention.value),
            (f"layers.{index}.attention.output", attention.output),
            (f"layers.{index}.ffn_in", layer.ffn_in),
            (f"layers.{index}.ffn_out", layer.ffn_out),
        )
        for name, linear in linears:
            yield f"{name}.weight", linear, "weight"
            yield f"{name}.bias", linear, "bias"
        norms = (
            (f"layers.{index}.attention_norm", layer.attention_norm),
            (f"layers.{index}.output_norm", layer.output_norm),
        )
        for name, norm in norms:
            yield f"{name}.gamma", norm, "gamma"
            yield f"{name}.beta", norm, "beta"
    yield "pooler.weight", model.pooler, "weight"
    yield "pooler.bias", model.pooler, "bias"


def export_weight_state(model: EncoderModel) -> Dict[str, np.ndarray]:
    """Every master weight array of ``model``, keyed by a stable flat name.

    The returned arrays are the model's own (no copies); pair with
    :func:`attach_weight_state` to move a frozen encoder's parameters into
    externally-managed storage (e.g. shared memory) or into a freshly-built
    model of the same architecture.  Projection masters a prepared model
    dropped are re-derived on export, bit for bit, and stay resident from
    then on (the export pins them).
    """
    return {name: getattr(owner, attr) for name, owner, attr in _weight_slots(model)}


def attach_weight_state(
    model: EncoderModel, arrays: Mapping[str, np.ndarray]
) -> None:
    """Rebind ``model``'s master arrays to ``arrays`` (same names/shapes).

    ``arrays`` must cover exactly the names :func:`export_weight_state`
    produces for this architecture, with matching shapes and dtypes — a
    partial or mismatched set raises before anything is rebound.  Read-only
    arrays (shared-memory mappings) are fine: the engine never writes master
    arrays in place.  Rebinding invalidates the derived caches automatically
    (``Linear`` prepared operands key on a token each rebinding renews,
    norm-parameter casts on array identity), so callers that want the
    prepare-once discipline should call ``prepare()`` on the linears
    afterwards.  Attached arrays count as passed in: a ``Linear`` never
    drops them.
    """
    slots = list(_weight_slots(model))
    expected = {name for name, _, _ in slots}
    missing = sorted(expected - set(arrays))
    extra = sorted(set(arrays) - expected)
    if missing or extra:
        raise ValueError(
            f"weight state does not match the model's architecture "
            f"(missing: {missing}, unexpected: {extra})"
        )
    for name, owner, attr in slots:
        current = getattr(owner, attr)
        replacement = np.asarray(arrays[name])
        if replacement.shape != current.shape or replacement.dtype != current.dtype:
            raise ValueError(
                f"weight {name!r} must have shape {current.shape} and dtype "
                f"{current.dtype}, got {replacement.shape} / {replacement.dtype}"
            )
    for name, owner, attr in slots:
        setattr(owner, attr, np.asarray(arrays[name]))


#: (family, size) -> TransformerConfig factory.
MODEL_FAMILIES: Dict[str, Dict[str, object]] = {
    "roberta": {"small": roberta_like_small_config, "full": roberta_base_config},
    "mobilebert": {"small": mobilebert_like_small_config, "full": mobilebert_config},
    "tiny": {"small": tiny_test_config, "full": tiny_test_config},
}


def _canonical_override(value: object) -> object:
    """Recursively rewrite an override value into a hashable canonical form.

    Mappings become sorted ``(key, value)`` pair tuples, sequences and sets
    become tuples — so ``{"x": [1, 2]}`` and ``{"x": (1, 2)}`` canonicalise
    (and hash) identically, and a JSON round-trip through ``to_dict`` (which
    emits lists) compares equal to the original.
    """
    if isinstance(value, Mapping):
        return tuple(sorted((k, _canonical_override(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_override(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((_canonical_override(v) for v in value), key=repr))
    return value


def _jsonable_override(value: object) -> object:
    """Canonical form back to a JSON-friendly shape (tuples -> lists)."""
    if isinstance(value, tuple):
        return [_jsonable_override(v) for v in value]
    return value


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to prepare an :class:`InferenceSession`.

    ``model_family`` / ``model_size`` select the encoder architecture,
    ``seed`` its frozen weights (the stand-in for a checkpoint identity),
    ``matmul_precision`` the quantised-linear engine (``fp32``/``fp16``/
    ``int8``) and ``compute_dtype`` the engine float width (``float64``
    reproduces per-call outputs bit for bit on every engine: ``int8``
    quantises each token row at its own scale, so batch composition never
    reaches its quantisation).  ``max_batch_size`` and
    ``bucket_size`` shape the dynamic micro-batching; ``model_overrides``
    are forwarded to the architecture's config factory.
    """

    model_family: str = "roberta"
    model_size: str = "small"
    seed: int = 0
    compute_dtype: str = "float32"
    matmul_precision: str = "fp32"
    kernel: str = "numpy"
    max_batch_size: int = 32
    bucket_size: int = 1
    #: Accepts any mapping; stored canonically as sorted (key, value) pairs
    #: with nested lists/dicts/sets rewritten to tuples, so the frozen config
    #: stays hashable like its sibling BackendSpec even for container-valued
    #: overrides (a factory receiving such an override gets the tuple form).
    model_overrides: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        items = []
        for key, value in sorted(dict(self.model_overrides).items()):
            value = _canonical_override(value)
            try:
                hash(value)
            except TypeError:
                raise TypeError(
                    f"model_overrides[{key!r}] is not hashable even after "
                    f"canonicalising containers to tuples (got "
                    f"{type(value).__name__}); SessionConfig values must stay "
                    "usable as dict keys"
                ) from None
            items.append((key, value))
        object.__setattr__(self, "model_overrides", tuple(items))
        if self.model_family != "custom":
            if self.model_family not in MODEL_FAMILIES:
                raise ValueError(
                    f"model_family must be one of {sorted(MODEL_FAMILIES) + ['custom']}, "
                    f"got {self.model_family!r}"
                )
            if self.model_size not in MODEL_FAMILIES[self.model_family]:
                raise ValueError(
                    f"model_size must be one of "
                    f"{sorted(MODEL_FAMILIES[self.model_family])}, got {self.model_size!r}"
                )
        if self.kernel not in KERNEL_NAMES:
            raise ValueError(
                f"kernel must be one of {KERNEL_NAMES}, got {self.kernel!r}"
            )
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.bucket_size < 1:
            raise ValueError(f"bucket_size must be >= 1, got {self.bucket_size}")

    def transformer_config(self) -> TransformerConfig:
        """The resolved encoder configuration (validates engine settings)."""
        if self.model_family == "custom":
            # `custom` marks a session built over an adopted model
            # (InferenceSession.from_model); the architecture was never
            # described by this config, so replaying it would silently
            # rebuild the wrong model.
            raise ValueError(
                "a 'custom' SessionConfig adopts an existing model and cannot "
                "rebuild one; construct the model yourself and use "
                "InferenceSession.from_model"
            )
        factory = MODEL_FAMILIES[self.model_family][self.model_size]
        return factory(
            matmul_precision=self.matmul_precision,
            compute_dtype=self.compute_dtype,
            kernel=self.kernel,
            **dict(self.model_overrides),
        )

    def build_model(self) -> EncoderModel:
        """A freshly initialised frozen encoder for this configuration."""
        return EncoderModel.initialize(self.transformer_config(), seed=self.seed)

    def to_dict(self) -> Dict[str, object]:
        return {
            "model_family": self.model_family,
            "model_size": self.model_size,
            "seed": self.seed,
            "compute_dtype": self.compute_dtype,
            "matmul_precision": self.matmul_precision,
            "kernel": self.kernel,
            "max_batch_size": self.max_batch_size,
            "bucket_size": self.bucket_size,
            "model_overrides": {
                key: _jsonable_override(value) for key, value in self.model_overrides
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SessionConfig":
        known = {
            "model_family", "model_size", "seed", "compute_dtype",
            "matmul_precision", "kernel", "max_batch_size", "bucket_size",
            "model_overrides",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown SessionConfig field(s): {sorted(unknown)}")
        values = {key: payload[key] for key in known if key in payload}
        if "model_overrides" in values:
            values["model_overrides"] = dict(values["model_overrides"])
        return cls(**values)


def _adopted_config(
    model: EncoderModel, max_batch_size: int, bucket_size: int
) -> SessionConfig:
    """The ``"custom"`` :class:`SessionConfig` of a session over an adopted model.

    Engine settings come from the model, batching knobs from the caller; the
    config deliberately cannot rebuild the model itself.
    """
    return SessionConfig(
        model_family="custom",
        compute_dtype=model.config.compute_dtype,
        matmul_precision=model.config.matmul_precision,
        kernel=model.config.kernel,
        max_batch_size=max_batch_size,
        bucket_size=bucket_size,
    )


class InferenceSession:
    """A prepared (model, backend) pair serving ragged request lists.

    Parameters
    ----------
    config:
        Session configuration; defaults to the small RoBERTa-like scenario.
    spec:
        Backend specification; defaults to the exact reference backend.
    registry:
        Fitted-primitive source for the NN-LUT methods (process-wide
        registry by default).
    """

    def __init__(
        self,
        config: SessionConfig | None = None,
        spec: BackendSpec | None = None,
        registry: LutRegistry | None = None,
    ) -> None:
        config = config or SessionConfig()
        self._open(config.build_model(), config, spec, registry)

    @classmethod
    def from_model(
        cls,
        model: EncoderModel,
        spec: BackendSpec | None = None,
        registry: LutRegistry | None = None,
        max_batch_size: int = 32,
        bucket_size: int = 1,
    ) -> "InferenceSession":
        """Session over an already-built encoder (its engine settings win).

        The one way to serve a model the caller built.  The resulting
        ``config`` carries ``model_family="custom"``: it records the
        engine/batching knobs but deliberately cannot rebuild the adopted
        model (replaying it would reconstruct the wrong one).
        """
        session = cls.__new__(cls)
        session._open(
            model, _adopted_config(model, max_batch_size, bucket_size), spec, registry
        )
        return session

    def _open(
        self,
        model: EncoderModel,
        config: SessionConfig,
        spec: BackendSpec | None,
        registry: LutRegistry | None,
    ) -> None:
        """Serve ``model`` as ``config`` describes it: prepare, arm, batch."""
        self.config = config
        self.spec = spec or BackendSpec.exact()
        self.registry = default_registry() if registry is None else registry
        self.model = model
        self.lut_overrides: Dict[str, LookupTable] = {}
        self.backend: NonlinearBackend = build_backend(self.spec, registry=self.registry)
        self._batcher = RequestBatcher(
            max_batch_size=self.config.max_batch_size,
            bucket_size=self.config.bucket_size,
        )
        for linear in self.model.iter_linears():
            linear.prepare()

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    @property
    def max_sequence_length(self) -> int:
        return self.model.config.max_sequence_length

    def _serve(self, requests: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Micro-batched forward: each request's rows, trimmed to its true
        length, in request order."""
        outputs: List[np.ndarray | None] = [None] * len(requests)
        for batch in self._batcher.iter_batches(
            requests, self.max_sequence_length, copy=False
        ):
            hidden = self.model.forward(
                batch.tokens, backend=self.backend, attention_mask=batch.mask
            )
            for row, index in enumerate(batch.indices):
                outputs[index] = hidden[row, : batch.lengths[row]].copy()
        return outputs  # type: ignore[return-value]

    def forward(
        self,
        requests: Sequence[np.ndarray],
        budgets_s: Sequence[float | None] | None = None,
    ) -> List[np.ndarray]:
        """Hidden states per request, shape ``(len_i, hidden)`` each.

        Requests are served in dynamically formed micro-batches; results come
        back in request order, trimmed to each request's true length.
        ``budgets_s[i]`` is request ``i``'s remaining deadline budget in
        seconds (``None`` = no deadline): a request whose budget is already
        spent is skipped and answered with a zero-row block, the same
        expired mark a shard worker returns.
        """
        _check_budgets(requests, budgets_s)
        if _faults._ACTIVE is not None:
            _faults._ACTIVE.on_session_forward()
        expired = [
            budget is not None and budget <= 0 for budget in budgets_s or ()
        ]
        if not any(expired):
            return self._serve(requests)
        served = iter(
            self._serve([r for r, gone in zip(requests, expired) if not gone])
        )
        config = self.model.config
        empty = np.empty(
            (0, config.hidden_size), dtype=np.dtype(config.compute_dtype)
        )
        return [empty if gone else next(served) for gone in expired]

    def pooled(self, requests: Sequence[np.ndarray]) -> np.ndarray:
        """First-token (``[CLS]``) representations, shape ``(n, hidden)``.

        The encoder runs micro-batched; the tanh pooler then runs per
        sequence over the rows :meth:`forward` returned — the composition
        every pool shares, so the same bits.
        """
        return _pooled_rows(self.model, self.forward(requests))

    # ------------------------------------------------------------------ #
    # Dataset-free calibration (paper Sec. 3.3.3)
    # ------------------------------------------------------------------ #
    def calibrate(
        self,
        samples: Sequence[np.ndarray],
        operators: Sequence[str] | None = None,
    ) -> Dict[str, LookupTable]:
        """Re-fit NN-LUT tables on what this model actually computes.

        Runs the *exact* reference backend over the unlabelled ``samples``
        (ragged token sequences, micro-batched like normal traffic) while
        recording the operator-site inputs, re-fits the scalar primitives of
        the selected operators against their reference functions on that
        distribution, and swaps the calibrated tables into this session's
        backend.  Returns the calibrated tables by primitive name.

        ``operators`` defaults to the spec's calibration-flagged operators,
        or to every NN-LUT operator when none is flagged.
        """
        spec_ops = self.spec.operators()
        if operators is None:
            operators = self.spec.calibrated() or tuple(
                op for op in ALL_OPS if spec_ops[op].method == "nn_lut"
            )
        operators = tuple(operators)
        if not operators:
            raise ValueError(
                "this spec routes no operator through NN-LUT tables; "
                "there is nothing to calibrate"
            )
        _validate_replace(operators)
        for op in operators:
            if spec_ops[op].method != "nn_lut":
                raise ValueError(
                    f"operator {op!r} uses method {spec_ops[op].method!r}; "
                    "calibration re-fits NN-LUT tables only"
                )

        reference = build_backend(BackendSpec.exact(), registry=self.registry)
        # Record through an exact-length batcher regardless of the session's
        # bucket_size: padded rows would otherwise leak pad-token activations
        # (and -1e4 masked scores) into the recorded distribution and skew
        # the re-fitted tables.
        recording_batcher = RequestBatcher(
            max_batch_size=self.config.max_batch_size, bucket_size=1
        )
        with reference.recording() as recorder:
            # Size the recorder to hold every operator site of every batch —
            # the default 256-array cap would silently truncate the recorded
            # distribution while the remaining samples still paid full
            # forward cost.  (One batch per sample is the upper bound; each
            # forward touches at most 2*layers+1 sites per operator.)
            sites_per_forward = 2 * self.model.encoder.num_layers + 1
            recorder.max_arrays_per_op = max(
                recorder.max_arrays_per_op, len(samples) * sites_per_forward
            )
            for batch in recording_batcher.iter_batches(
                samples, self.max_sequence_length, copy=False
            ):
                self.model.forward(batch.tokens, backend=reference)

        num_entries = {op: spec_ops[op].num_entries for op in operators}
        calibrated = calibrate_primitive_luts(
            recorder,
            self.registry,
            operators,
            num_entries,
            input_scaling=self.spec.input_scaling,
        )
        self.apply_lut_overrides(calibrated)
        return calibrated

    def apply_lut_overrides(self, overrides: Mapping[str, LookupTable]) -> None:
        """Swap replacement primitive tables into this session's backend.

        The tail of the :meth:`calibrate` flow, exposed so other holders of
        calibrated tables — a pool's replicas, a session being cloned — can
        install them without re-running calibration.
        """
        self.lut_overrides.update(overrides)
        self.backend = build_backend(
            self.spec, registry=self.registry, lut_overrides=self.lut_overrides
        )

    def clone_for_serving(self) -> "InferenceSession":
        """A sibling session over the *same* frozen encoder.

        The one way to make a replica of a session.  The clone adopts this
        session's model object (no weight copy), spec, registry and batching
        knobs, and inherits any calibrated LUT overrides, so a replica pool
        (or a queue's pool of one) gets a serving handle without rebuilding
        or re-calibrating anything.  Mutable serving state — the batcher and
        the backend with its recorder — is fresh per clone, which is what
        makes the siblings safe to drive from separate threads.
        """
        clone = InferenceSession.from_model(
            self.model,
            spec=self.spec,
            registry=self.registry,
            max_batch_size=self.config.max_batch_size,
            bucket_size=self.config.bucket_size,
        )
        if self.lut_overrides:
            clone.apply_lut_overrides(self.lut_overrides)
        return clone


# --------------------------------------------------------------------------- #
# Recorded activations -> calibrated primitive tables
# --------------------------------------------------------------------------- #
def _operator_queries(
    recorder: OperatorRecorder, operator: str, registry: LutRegistry, input_scaling: bool
) -> Dict[str, np.ndarray]:
    """Scalar-primitive query points implied by one operator's recordings.

    LayerNorm's are the row variances mapped to where the LayerNorm
    :func:`build_backend` serves reads its table
    (:meth:`~repro.core.approximators.LutLayerNorm.rsqrt_queries`: clipped,
    and scaled when ``input_scaling`` is on) — a table calibrated anywhere
    else would never be hit at serving time.
    """
    if operator == "gelu":
        if not recorder.gelu_inputs:
            raise RuntimeError("no GELU activations were recorded for calibration")
        return {"gelu": np.concatenate([a.ravel() for a in recorder.gelu_inputs])}
    if operator == "softmax":
        if not recorder.softmax_inputs:
            raise RuntimeError("no Softmax activations were recorded for calibration")
        exp_queries: List[np.ndarray] = []
        reciprocal_queries: List[np.ndarray] = []
        exp_low, exp_high = get_training_range("exp")
        for recorded in recorder.softmax_inputs:
            shifted = recorded - np.max(recorded, axis=-1, keepdims=True)
            shifted = np.clip(shifted, exp_low, exp_high)
            exp_queries.append(shifted.ravel())
            reciprocal_queries.append(np.sum(np.exp(shifted), axis=-1).ravel())
        return {
            "exp": np.concatenate(exp_queries),
            "reciprocal": np.concatenate(reciprocal_queries),
        }
    if operator == "layernorm":
        if not recorder.layernorm_inputs:
            raise RuntimeError("no LayerNorm activations were recorded for calibration")
        variances: List[np.ndarray] = []
        for recorded in recorder.layernorm_inputs:
            mean = np.mean(recorded, axis=-1, keepdims=True)
            variance = np.mean((recorded - mean) ** 2, axis=-1) + 1e-5
            variances.append(variance.ravel())
        spec = BackendSpec.nn_lut(replace=("layernorm",), input_scaling=input_scaling)
        served = build_backend(spec, registry=registry).layernorm
        return {"rsqrt": served.rsqrt_queries(np.concatenate(variances))}
    raise ValueError(f"Unknown operator {operator!r}; valid operators: {ALL_OPS}")


#: Share of broad-distribution samples mixed into each primitive's recorded
#: queries by :func:`calibrate_primitive_luts`.
_GENERIC_SHARE = 0.2


def _generic_samples(primitive: str, count: int, rng: np.random.Generator) -> np.ndarray:
    """Broad-distribution samples keeping a calibrated table's global shape."""
    low, high = get_training_range(primitive)
    if primitive == "gelu":
        return rng.uniform(low, high, size=count)
    if primitive == "exp":
        # Log-spaced magnitudes so the curvature near 0 stays represented.
        return -np.exp(rng.uniform(np.log(1e-4), np.log(-low), size=count))
    # reciprocal / rsqrt: log-uniform over (1, high), as the Table-2(b)
    # calibration recipe uses.
    return np.exp(rng.uniform(np.log(1.0), np.log(high), size=count))


def calibrate_primitive_luts(
    recorder: OperatorRecorder,
    registry: LutRegistry,
    operators: Sequence[str],
    num_entries: Mapping[str, int] | int = 16,
    input_scaling: bool = True,
) -> Dict[str, LookupTable]:
    """Re-fit the scalar primitives behind ``operators`` on recorded traffic.

    For each operator the recorded site inputs are converted into the query
    points its scalar primitives actually see, mixed with a
    ``_GENERIC_SHARE`` of broad log/uniform samples over the training range
    (guarding against extrapolation damage outside the recorded
    distribution; drawn from a fixed seed, so equal recordings give equal
    tables), and the registry's fitted network is re-fitted against the
    exact reference on them (:func:`repro.core.calibration.calibrate_network`).
    Returns calibrated tables keyed by primitive name — ready for
    ``build_backend(..., lut_overrides=...)``.
    """
    rng = np.random.default_rng(0)
    calibrated: Dict[str, LookupTable] = {}
    for operator in operators:
        primitive_queries = _operator_queries(recorder, operator, registry, input_scaling)
        for primitive, queries in primitive_queries.items():
            entries = (
                num_entries if isinstance(num_entries, int) else num_entries[operator]
            )
            num_generic = max(1, int(queries.size * _GENERIC_SHARE))
            queries = np.concatenate(
                [queries, _generic_samples(primitive, num_generic, rng)]
            )
            fitted = registry.get(primitive, num_entries=entries)
            network = calibrate_network(
                fitted.network,
                functions.get_target_function(primitive),
                queries,
            )
            lut = network_to_lut(network, name=primitive)
            calibrated[primitive] = lut.with_metadata(
                calibrated=True, num_calibration_samples=int(queries.size)
            )
    return calibrated
