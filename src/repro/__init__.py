"""NN-LUT reproduction: neural approximation of Transformer non-linearities.

Reproduction of Yu et al., "NN-LUT: Neural Approximation of Non-Linear
Operations for Efficient Transformer Inference" (DAC 2022).

Serving API (start here)
------------------------
``repro.api`` is the one entry point every model x backend x precision
scenario goes through:

* :class:`~repro.api.BackendSpec` — a serializable, declarative description
  of how each Transformer operator (GELU / Softmax / LayerNorm) is
  approximated: method (exact, NN-LUT, Linear-LUT, I-BERT) x precision
  (fp32 / fp16 / int32) x table entries x calibration flag.
  :func:`~repro.api.build_backend` realises a spec into a runnable backend.
* :class:`~repro.api.SessionConfig` + :class:`~repro.api.InferenceSession`
  — model family / size / seed / quantised-linear engine, prepared once
  (weights cached, backend built) into a session that serves ragged request
  lists with dynamic micro-batching (``forward`` / ``pooled``) and offers
  the paper's dataset-free calibration as a single
  :meth:`~repro.api.InferenceSession.calibrate` call.

Sub-packages
------------
``repro.api``
    Declarative backend specs, the spec -> backend factory and the batched
    inference sessions described above.
``repro.core``
    The NN-LUT framework itself: ReLU-network fitting, the exact NN->LUT
    transform, precision variants, input scaling and calibration.
``repro.baselines``
    Linear-mode / Exponential-mode LUT baselines and the I-BERT integer
    approximation algorithms the paper compares against.
``repro.quant``
    The reference symmetric INT8 quantiser the compute kernels' one-pass
    quantiser is checked against.
``repro.transformer``
    Pure-numpy Transformer encoder substrate (RoBERTa-like, MobileBERT-like)
    with pluggable non-linear backends.
``repro.tasks``
    Synthetic GLUE / SQuAD style task generators, metrics and head training
    used for the software accuracy experiments.
``repro.hardware``
    7-nm-calibrated arithmetic-unit cost models and the accelerator cycle
    simulator used for the hardware experiments.
``repro.experiments``
    One driver per table / figure of the paper (with Figure 2's operator
    error curves and the text-table formatting), also runnable as
    ``python -m repro.experiments <name>``.
"""

from . import api, core
from .api import (
    BackendSpec,
    InferenceSession,
    OperatorSpec,
    SessionConfig,
    as_backend,
    build_backend,
)
from .core import (
    LookupTable,
    LutGelu,
    LutLayerNorm,
    LutSoftmax,
    OneHiddenReluNet,
    default_registry,
    fit_lut,
    fit_network,
    network_to_lut,
)

__version__ = "1.1.0"

__all__ = [
    "api",
    "core",
    "BackendSpec",
    "OperatorSpec",
    "build_backend",
    "as_backend",
    "SessionConfig",
    "InferenceSession",
    "LookupTable",
    "OneHiddenReluNet",
    "fit_network",
    "fit_lut",
    "network_to_lut",
    "default_registry",
    "LutGelu",
    "LutSoftmax",
    "LutLayerNorm",
    "__version__",
]
