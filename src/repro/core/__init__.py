"""Core NN-LUT framework: the paper's primary contribution.

Workflow (mirrors Figure 1 of the paper):

1. :func:`repro.core.training.fit_network` fits a one-hidden-layer ReLU
   network to a scalar primitive (GELU, exp, 1/x, 1/sqrt) in one closed-form
   solve, with the Table-1 weight signs; :func:`repro.core.registry.fit_lut`
   also converts it, and a default :class:`LutRegistry` loads the four
   served tables from the tracked artifact instead of fitting them.
2. :func:`repro.core.conversion.network_to_lut` transforms the trained network
   into an exactly-equivalent first-order look-up table (Eq. 7).
3. :mod:`repro.core.approximators` assembles the tables into drop-in
   replacements for GELU, Softmax and LayerNorm, with the input-scaling and
   calibration refinements of Sec. 3.3; the calibration
   (:func:`repro.core.calibration.calibrate_network`) re-runs the fit's
   solve on recorded samples.
"""

from .approximators import (
    ExactGelu,
    ExactLayerNorm,
    ExactSoftmax,
    LutGelu,
    LutLayerNorm,
    LutSoftmax,
)
from .calibration import calibrate_lut, calibrate_network
from .conversion import lut_matches_network, network_to_lut, network_to_lut_eq7
from .functions import (
    TARGET_FUNCTIONS,
    TRAINING_RANGES,
    erf,
    exp,
    gelu,
    get_target_function,
    get_training_range,
    layer_norm,
    reciprocal,
    rsqrt,
    softmax,
)
from .lut import LookupTable
from .network import OneHiddenReluNet
from .quantization import Fp16LookupTable, Int32LookupTable
from .registry import FittedPrimitive, LutRegistry, default_registry, fit_lut
from .scaling import InputScaler
from .training import fit_network

__all__ = [
    # functions
    "erf",
    "gelu",
    "exp",
    "reciprocal",
    "rsqrt",
    "softmax",
    "layer_norm",
    "TARGET_FUNCTIONS",
    "TRAINING_RANGES",
    "get_target_function",
    "get_training_range",
    # network + training
    "OneHiddenReluNet",
    "fit_network",
    # LUT
    "LookupTable",
    "network_to_lut",
    "network_to_lut_eq7",
    "lut_matches_network",
    "Fp16LookupTable",
    "Int32LookupTable",
    # composites & refinements
    "InputScaler",
    "LutGelu",
    "LutSoftmax",
    "LutLayerNorm",
    "ExactGelu",
    "ExactSoftmax",
    "ExactLayerNorm",
    "calibrate_network",
    "calibrate_lut",
    # registry
    "FittedPrimitive",
    "LutRegistry",
    "default_registry",
    "fit_lut",
]
