"""Core NN-LUT framework: the paper's primary contribution.

Workflow (mirrors Figure 1 of the paper):

1. :func:`repro.core.training.fit_network` fits a one-hidden-layer ReLU
   network to a scalar primitive (GELU, exp, 1/x, 1/sqrt) in closed form,
   with the Table-1 weight signs.
2. :func:`repro.core.conversion.network_to_lut` transforms the trained network
   into an exactly-equivalent first-order look-up table (Eq. 7).
3. :mod:`repro.core.approximators` assembles the tables into drop-in
   replacements for GELU, Softmax and LayerNorm, with the input-scaling and
   calibration refinements of Sec. 3.3.
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
from .initialization import INIT_SPECS, InitSpec, get_init_spec, initialize_network
from .lut import LookupTable
from .network import NetworkParameters, OneHiddenReluNet
from .quantization import Fp16LookupTable, Int32LookupTable
from .registry import FittedPrimitive, LutRegistry, default_registry, fit_lut
from .scaling import InputScaler
from .training import TrainingResult, fit_network

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
    "NetworkParameters",
    "OneHiddenReluNet",
    "InitSpec",
    "INIT_SPECS",
    "get_init_spec",
    "initialize_network",
    "TrainingResult",
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
