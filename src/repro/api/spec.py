"""Declarative backend specification and the factory that realises it.

The paper's central claim is that a single plug-in approximation substrate
(NN-LUT) covers *every* Transformer non-linearity across precisions.  The
serving layer mirrors that: a :class:`BackendSpec` declares, per operator
(GELU / Softmax / LayerNorm), which approximation method runs it —

* ``"exact"`` — the FP32/FP64 reference implementation,
* ``"nn_lut"`` — the paper's fitted NN-LUT tables,
* ``"linear_lut"`` — the equally-spaced-breakpoint LUT baseline,
* ``"ibert"`` — I-BERT's integer polynomial approximations,

at which table precision (``fp32`` / ``fp16`` / ``int32``), with how many
table entries, and whether the operator participates in dataset-free
calibration (paper Sec. 3.3.3).  Specs are plain values: they serialise with
:meth:`BackendSpec.to_dict`, round-trip through :meth:`BackendSpec.from_dict`,
compare by value, and are hashable — so a serving deployment can log, diff
and replay the exact backend configuration of any request.

:func:`build_backend` turns a spec into a ready
:class:`~repro.transformer.nonlinear_backend.NonlinearBackend`.  A spec says
*which operators* run, not where: the compute kernel is an engine setting
(``TransformerConfig.kernel`` / ``SessionConfig.kernel``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Callable, Dict, Mapping, Sequence, Tuple

from ..baselines.ibert import IBertGelu, IBertLayerNorm, IBertSoftmax
from ..baselines.linear_lut import linear_lut_for
from ..core.approximators import (
    ExactGelu,
    ExactLayerNorm,
    ExactSoftmax,
    LutGelu,
    LutLayerNorm,
    LutSoftmax,
    ScalarApproximator,
)
from ..core.functions import get_training_range
from ..core.lut import LookupTable
from ..core.quantization import Fp16LookupTable, Int32LookupTable
from ..core.registry import LutRegistry, default_registry
from ..core.scaling import InputScaler
from ..transformer.nonlinear_backend import ALL_OPS, NonlinearBackend, _validate_replace

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "METHODS",
    "PRECISIONS",
    "OPERATOR_PRIMITIVES",
    "OperatorSpec",
    "BackendSpec",
    "build_backend",
]

SPEC_SCHEMA_VERSION = 1

#: Approximation methods an operator can be routed through.
METHODS: Tuple[str, ...] = ("exact", "nn_lut", "linear_lut", "ibert")

#: Table/datapath precisions of the LUT methods.
PRECISIONS: Tuple[str, ...] = ("fp32", "fp16", "int32")

#: Scalar primitives each Transformer operator consumes from a LUT registry.
OPERATOR_PRIMITIVES: Dict[str, Tuple[str, ...]] = {
    "gelu": ("gelu",),
    "softmax": ("exp", "reciprocal"),
    "layernorm": ("rsqrt",),
}

_METHOD_LABELS = {"nn_lut": "nn-lut", "linear_lut": "linear-lut", "ibert": "i-bert"}


def _typed_field(payload: Mapping[str, object], name: str, kind: type, default):
    """Fetch a payload field requiring an exact type (bool is not an int)."""
    value = payload.get(name, default)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(
            f"field {name!r} must be a {kind.__name__}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class OperatorSpec:
    """How one Transformer operator site is implemented.

    ``precision`` and ``num_entries`` only matter for the LUT methods;
    ``calibration`` marks the operator as a target of the dataset-free
    calibration workflow (:meth:`repro.api.InferenceSession.calibrate`).
    """

    method: str = "exact"
    precision: str = "fp32"
    num_entries: int = 16
    calibration: bool = False

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {PRECISIONS}, got {self.precision!r}"
            )
        if self.num_entries < 2:
            raise ValueError(f"num_entries must be >= 2, got {self.num_entries}")
        if self.calibration and self.method not in ("nn_lut",):
            raise ValueError(
                "calibration re-fits NN-LUT tables; it requires method 'nn_lut', "
                f"got {self.method!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "precision": self.precision,
            "num_entries": self.num_entries,
            "calibration": self.calibration,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "OperatorSpec":
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"operator spec must be a mapping, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"method", "precision", "num_entries", "calibration"}
        if unknown:
            raise ValueError(f"unknown OperatorSpec field(s): {sorted(unknown)}")
        # Strict types, no coercion: a YAML/env-sourced string like "false"
        # must not silently become calibration=True.
        method = _typed_field(payload, "method", str, "exact")
        precision = _typed_field(payload, "precision", str, "fp32")
        num_entries = _typed_field(payload, "num_entries", int, 16)
        calibration = _typed_field(payload, "calibration", bool, False)
        return cls(
            method=method,
            precision=precision,
            num_entries=num_entries,
            calibration=calibration,
        )


def _operator_specs_for(
    method: str,
    replace: Sequence[str],
    precision: str,
    num_entries: int,
    calibration: bool,
) -> Dict[str, OperatorSpec]:
    ops = _validate_replace(replace)
    replaced = OperatorSpec(
        method=method,
        precision=precision,
        num_entries=num_entries,
        calibration=calibration,
    )
    return {op: (replaced if op in ops else OperatorSpec()) for op in ALL_OPS}


@dataclass(frozen=True)
class BackendSpec:
    """Declarative description of a complete non-linear operator backend.

    One :class:`OperatorSpec` per encoder operator site plus the global
    input-scaling switch (paper Sec. 3.3.2, LayerNorm's ``1/sqrt``).  Build
    the runnable backend with :func:`build_backend`; serialise with
    :meth:`to_dict` / :meth:`from_dict`.
    """

    gelu: OperatorSpec = field(default_factory=OperatorSpec)
    softmax: OperatorSpec = field(default_factory=OperatorSpec)
    layernorm: OperatorSpec = field(default_factory=OperatorSpec)
    input_scaling: bool = True
    name: str | None = None

    # ------------------------------------------------------------------ #
    # Constructors mirroring the paper's scenario matrix
    # ------------------------------------------------------------------ #
    @classmethod
    def exact(cls) -> "BackendSpec":
        """The exact reference backend (the tables' "Baseline" rows)."""
        return cls()

    @classmethod
    def nn_lut(
        cls,
        precision: str = "fp32",
        num_entries: int = 16,
        replace: Sequence[str] = ALL_OPS,
        input_scaling: bool = True,
        calibration: bool = False,
        name: str | None = None,
    ) -> "BackendSpec":
        """NN-LUT on ``replace`` (the rest exact), at the given precision."""
        specs = _operator_specs_for("nn_lut", replace, precision, num_entries, calibration)
        return cls(input_scaling=input_scaling, name=name, **specs)

    @classmethod
    def linear_lut(
        cls,
        precision: str = "fp32",
        num_entries: int = 16,
        replace: Sequence[str] = ALL_OPS,
        input_scaling: bool = True,
        name: str | None = None,
    ) -> "BackendSpec":
        """Linear-mode LUT baseline on ``replace`` (the rest exact)."""
        specs = _operator_specs_for("linear_lut", replace, precision, num_entries, False)
        return cls(input_scaling=input_scaling, name=name, **specs)

    @classmethod
    def ibert(cls, replace: Sequence[str] = ALL_OPS, name: str | None = None) -> "BackendSpec":
        """I-BERT integer approximations on ``replace`` (the rest exact)."""
        specs = _operator_specs_for("ibert", replace, "int32", 16, False)
        return cls(name=name, **specs)

    @classmethod
    def from_method(cls, method: str, **kwargs: object) -> "BackendSpec":
        """Dispatch to the constructor for ``method`` (sweep helpers use this).

        Strict: arguments the method's constructor does not take (e.g. a
        ``precision`` for ``ibert``, anything for ``exact``) raise instead of
        being silently dropped — a sweep must not fabricate distinct-looking
        rows that are actually the same backend.
        """
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {method!r}")
        constructor = {
            "exact": cls.exact,
            "nn_lut": cls.nn_lut,
            "linear_lut": cls.linear_lut,
            "ibert": cls.ibert,
        }[method]
        accepted = inspect.signature(constructor).parameters
        unexpected = sorted(set(kwargs) - set(accepted))
        if unexpected:
            raise ValueError(
                f"method {method!r} does not accept {unexpected}; "
                f"allowed arguments: {sorted(accepted)}"
            )
        # Value/type errors from the constructor's own validation propagate
        # unchanged — they point at the real problem, not the kwarg names.
        return constructor(**kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def operators(self) -> Dict[str, OperatorSpec]:
        """Operator name -> its :class:`OperatorSpec` (keys = ``ALL_OPS``)."""
        return {"gelu": self.gelu, "softmax": self.softmax, "layernorm": self.layernorm}

    def replaced(self) -> Tuple[str, ...]:
        """Operators not running the exact reference implementation."""
        return tuple(op for op, spec in self.operators().items() if spec.method != "exact")

    def calibrated(self) -> Tuple[str, ...]:
        """Operators flagged for the dataset-free calibration workflow."""
        return tuple(op for op, spec in self.operators().items() if spec.calibration)

    def with_calibration(self, *operators: str) -> "BackendSpec":
        """Copy of this spec with ``calibration=True`` on the given operators."""
        ops = _validate_replace(operators or self.replaced())
        if not ops:
            raise ValueError(
                "with_calibration() on a spec with no replaced operators: "
                "there is nothing to flag for calibration"
            )
        updates = {
            op: dataclass_replace(self.operators()[op], calibration=True) for op in ops
        }
        return dataclass_replace(self, **updates)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible payload; ``from_dict`` round-trips it exactly."""
        return {
            "version": SPEC_SCHEMA_VERSION,
            "operators": {op: spec.to_dict() for op, spec in self.operators().items()},
            "input_scaling": self.input_scaling,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "BackendSpec":
        unknown = set(payload) - {"version", "operators", "input_scaling", "name"}
        if unknown:
            raise ValueError(f"unknown BackendSpec field(s): {sorted(unknown)}")
        version = payload.get("version", SPEC_SCHEMA_VERSION)
        if version != SPEC_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported BackendSpec version {version!r} "
                f"(this build reads version {SPEC_SCHEMA_VERSION})"
            )
        if "operators" not in payload:
            # An absent section must not silently deserialise as the exact
            # baseline — even BackendSpec.exact().to_dict() spells it out.
            raise ValueError(
                "'operators' section is required; a truncated payload would "
                "otherwise silently serve the exact baseline"
            )
        operators = payload["operators"]
        if not isinstance(operators, Mapping):
            raise ValueError("'operators' must be a mapping of operator name -> spec")
        _validate_replace(operators)
        parsed = {
            op: OperatorSpec.from_dict(op_payload) for op, op_payload in operators.items()
        }
        missing = [op for op in ALL_OPS if op not in parsed]
        if missing:
            # Same rationale as requiring the section itself: a partially
            # stripped payload must not silently downgrade operators to the
            # exact baseline.
            raise ValueError(
                f"'operators' must describe every operator; missing {missing} "
                f"(to_dict() always writes all of {ALL_OPS})"
            )
        specs = {op: parsed[op] for op in ALL_OPS}
        name = payload.get("name")
        if name is not None and not isinstance(name, str):
            raise ValueError(f"field 'name' must be a str or None, got {name!r}")
        return cls(
            input_scaling=_typed_field(payload, "input_scaling", bool, True),
            name=name,
            **specs,
        )


# --------------------------------------------------------------------------- #
# Spec -> backend factory
# --------------------------------------------------------------------------- #
def _table_in_precision(
    lut: LookupTable, precision: str, primitive: str
) -> ScalarApproximator:
    """Wrap a float LUT in the requested table/datapath precision."""
    if precision == "fp32":
        return lut
    if precision == "fp16":
        return Fp16LookupTable(lut)
    if precision == "int32":
        return Int32LookupTable(lut, input_range=get_training_range(primitive))
    raise ValueError(f"precision must be one of {PRECISIONS}, got {precision!r}")


def _primitive_table(
    primitive: str,
    operator_spec: OperatorSpec,
    registry: LutRegistry,
    lut_overrides: Mapping[str, LookupTable],
) -> ScalarApproximator:
    """The (precision-wrapped) scalar table one operator needs."""
    lut = lut_overrides.get(primitive)
    if lut is None:
        if operator_spec.method == "linear_lut":
            lut = linear_lut_for(primitive, num_entries=operator_spec.num_entries)
        else:
            lut = registry.lut(primitive, num_entries=operator_spec.num_entries)
    return _table_in_precision(lut, operator_spec.precision, primitive)


def _default_name(spec: BackendSpec, has_overrides: bool) -> str:
    methods = {s.method for s in spec.operators().values() if s.method != "exact"}
    if not methods:
        return "exact"
    if len(methods) > 1:
        return "mixed"
    method = methods.pop()
    if method == "ibert":
        return "i-bert"
    precisions = {
        s.precision for s in spec.operators().values() if s.method == method
    }
    precision = precisions.pop() if len(precisions) == 1 else "mixed"
    suffix = "+cal" if has_overrides else ""
    return f"{_METHOD_LABELS[method]}-{precision}{suffix}"


def build_backend(
    spec: BackendSpec,
    registry: LutRegistry | None = None,
    lut_overrides: Mapping[str, LookupTable] | None = None,
) -> NonlinearBackend:
    """Realise a :class:`BackendSpec` as a runnable backend.

    Parameters
    ----------
    spec:
        The declarative backend description.
    registry:
        Source of fitted NN-LUT primitives; defaults to the process-wide
        registry.  Ignored by operators whose method needs no fitted tables.
    lut_overrides:
        Replacement tables per scalar primitive (``"gelu"``, ``"exp"``,
        ``"reciprocal"``, ``"rsqrt"``) — e.g. calibrated variants produced by
        :meth:`repro.api.InferenceSession.calibrate`.  Overrides apply to the
        LUT methods only.
    """
    if not isinstance(spec, BackendSpec):
        raise TypeError(f"spec must be a BackendSpec, got {type(spec).__name__}")
    if registry is None:
        registry = default_registry()
    overrides = dict(lut_overrides or {})
    known_primitives = {p for prims in OPERATOR_PRIMITIVES.values() for p in prims}
    unknown = set(overrides) - known_primitives
    if unknown:
        raise ValueError(
            f"unknown lut_overrides primitive(s) {sorted(unknown)}; "
            f"known: {sorted(known_primitives)}"
        )

    gelu_spec, softmax_spec, layernorm_spec = spec.gelu, spec.softmax, spec.layernorm

    gelu_op: Callable = ExactGelu()
    if gelu_spec.method == "ibert":
        gelu_op = IBertGelu()
    elif gelu_spec.method != "exact":
        gelu_op = LutGelu(_primitive_table("gelu", gelu_spec, registry, overrides))

    softmax_op: Callable = ExactSoftmax()
    if softmax_spec.method == "ibert":
        softmax_op = IBertSoftmax()
    elif softmax_spec.method != "exact":
        softmax_op = LutSoftmax(
            _primitive_table("exp", softmax_spec, registry, overrides),
            _primitive_table("reciprocal", softmax_spec, registry, overrides),
        )

    layernorm_op: Callable = ExactLayerNorm()
    if layernorm_spec.method == "ibert":
        layernorm_op = IBertLayerNorm()
    elif layernorm_spec.method != "exact":
        layernorm_op = LutLayerNorm(
            _primitive_table("rsqrt", layernorm_spec, registry, overrides),
            scaler=InputScaler() if spec.input_scaling else None,
        )

    name = spec.name or _default_name(spec, bool(overrides))
    return NonlinearBackend(
        name=name,
        gelu=gelu_op,
        softmax=softmax_op,
        layernorm=layernorm_op,
        metadata={
            "method": name,
            "replaced": spec.replaced(),
            "input_scaling": spec.input_scaling,
            "calibrated_primitives": tuple(sorted(overrides)),
            "spec": spec.to_dict(),
        },
    )
