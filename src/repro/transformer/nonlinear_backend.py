"""Pluggable non-linear operator backends for the Transformer substrate.

A :class:`NonlinearBackend` bundles the three operator implementations the
encoder needs — GELU, Softmax, LayerNorm — so a single encoder instance can be
evaluated with:

* the exact FP32 reference ("Baseline" rows of Tables 2/3),
* NN-LUT approximations in FP32 / FP16 / INT32, per-operator or altogether,
* the Linear-LUT baseline,
* the I-BERT integer approximations,
* calibrated NN-LUT variants (Table 2(b) "+C" rows).

A backend can also *record* the tensors flowing into each operator site,
which is what the dataset-free calibration pass consumes — use the
:meth:`NonlinearBackend.recording` context manager.

Backends are declared with :class:`repro.api.BackendSpec` and realised by
:func:`repro.api.build_backend`; a caller that brings its own operator
objects constructs :class:`NonlinearBackend` directly.

A backend describes *operators*, not where they run: the encoder hands the
compute kernel of its ``TransformerConfig`` to the ``apply_*`` methods, which
are the one place that decides "table-driven op -> ``kernel.lut_*``, anything
else -> the op's own ``__call__``" and the one place the recorder hooks in.
"""

from __future__ import annotations

# staticcheck: hot-path -- float64 minted silently here breaks the compute_dtype contract

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

import numpy as np

from ..core.approximators import (
    ExactGelu,
    ExactLayerNorm,
    ExactSoftmax,
    LutGelu,
    LutLayerNorm,
    LutSoftmax,
)
from ..core.kernels import NUMPY_KERNEL, ComputeKernel

__all__ = [
    "ALL_OPS",
    "OperatorRecorder",
    "NonlinearBackend",
]

#: Operator names accepted by the ``replace=`` argument of the factories.
ALL_OPS: Tuple[str, ...] = ("gelu", "softmax", "layernorm")


@dataclass
class OperatorRecorder:
    """Accumulates the tensors that reached each non-linear operator site."""

    enabled: bool = False
    max_arrays_per_op: int = 256
    gelu_inputs: List[np.ndarray] = field(default_factory=list)
    softmax_inputs: List[np.ndarray] = field(default_factory=list)
    layernorm_inputs: List[np.ndarray] = field(default_factory=list)

    def record(self, op: str, value: np.ndarray) -> None:
        if not self.enabled:
            return
        store = getattr(self, f"{op}_inputs")
        if len(store) < self.max_arrays_per_op:
            store.append(np.asarray(value, dtype=np.float64).copy())

    def clear(self) -> None:
        self.gelu_inputs.clear()
        self.softmax_inputs.clear()
        self.layernorm_inputs.clear()


@dataclass
class NonlinearBackend:
    """The three operator implementations used by an encoder."""

    name: str
    gelu: Callable[[np.ndarray], np.ndarray]
    softmax: Callable[..., np.ndarray]
    layernorm: Callable[..., np.ndarray]
    recorder: OperatorRecorder = field(default_factory=OperatorRecorder)
    metadata: Dict[str, object] = field(default_factory=dict)

    # Recording is guarded at the call sites so the disabled (inference) case
    # costs a single attribute check — no call, no np.asarray(...).copy().

    def apply_gelu(
        self,
        x: np.ndarray,
        bias: np.ndarray | None = None,
        kernel: ComputeKernel = NUMPY_KERNEL,
    ) -> np.ndarray:
        """GELU of ``x + bias``.

        With a ``bias``, ``x`` is the caller's fresh projection output: the
        add lands in it, fused into the kernel's LUT pass when nothing needs
        to see the biased tensor in between (the recorder does).
        """
        table_driven = isinstance(self.gelu, LutGelu)
        if bias is not None:
            if table_driven and not self.recorder.enabled:
                return kernel.lut_gelu_bias(self.gelu, x, bias)
            x += bias
        if self.recorder.enabled:
            self.recorder.record("gelu", x)
        return kernel.lut_gelu(self.gelu, x) if table_driven else self.gelu(x)

    def apply_softmax(
        self, x: np.ndarray, axis: int = -1, kernel: ComputeKernel = NUMPY_KERNEL
    ) -> np.ndarray:
        if self.recorder.enabled:
            self.recorder.record("softmax", x)
        if isinstance(self.softmax, LutSoftmax):
            return kernel.lut_softmax(self.softmax, x, axis)
        return self.softmax(x, axis=axis)

    def apply_layernorm(
        self,
        x: np.ndarray,
        gamma: np.ndarray | None = None,
        beta: np.ndarray | None = None,
        axis: int = -1,
        kernel: ComputeKernel = NUMPY_KERNEL,
    ) -> np.ndarray:
        if self.recorder.enabled:
            self.recorder.record("layernorm", x)
        if isinstance(self.layernorm, LutLayerNorm):
            return kernel.lut_layernorm(self.layernorm, x, gamma, beta, axis)
        return self.layernorm(x, gamma=gamma, beta=beta, axis=axis)

    @contextmanager
    def recording(self, enabled: bool = True) -> Iterator[OperatorRecorder]:
        """Scoped operator-input recording.

        The previous recorder state is restored on exit *even if the body
        raises* — the manual ``backend.recorder.enabled = True/False`` pattern
        this replaces leaked an enabled recorder (and its per-call tensor
        copies) into subsequent inference whenever the calibration pass
        failed midway.
        """
        previous = self.recorder.enabled
        self.recorder.enabled = enabled
        try:
            yield self.recorder
        finally:
            self.recorder.enabled = previous


def _validate_replace(replace: Iterable[str]) -> Tuple[str, ...]:
    ops = tuple(replace)
    unknown = [op for op in ops if op not in ALL_OPS]
    if unknown:
        raise ValueError(f"Unknown operator(s) {unknown}; valid operators: {ALL_OPS}")
    return ops


def _exact_backend() -> NonlinearBackend:
    """Internal exact backend — the ``backend=None`` default of the substrate.

    Kept import-cycle-free (``repro.api`` builds *on* this package); public
    callers should use ``repro.api.BackendSpec.exact()``.
    """
    return NonlinearBackend(
        name="exact",
        gelu=ExactGelu(),
        softmax=ExactSoftmax(),
        layernorm=ExactLayerNorm(),
        metadata={"method": "exact"},
    )
