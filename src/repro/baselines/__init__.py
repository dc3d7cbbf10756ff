"""Baseline approximation methods the paper compares NN-LUT against.

* ``linear_lut`` / ``exponential_lut`` — fixed-breakpoint LUTs built by
  first-order curve fitting (the paper's "Linear-LUT" baseline and the
  Exponential-mode variant found in NPU LUT hardware).
* ``ibert`` — I-BERT's integer-only polynomial / shift / Newton approximations
  of GELU, Softmax and LayerNorm (the state-of-the-art comparison in
  Tables 2(b), 4 and 5).
"""

from .exponential_lut import exponential_lut_for, fit_exponential_lut
from .ibert import (
    ERF_COEFFICIENTS,
    EXP_COEFFICIENTS,
    IBertGelu,
    IBertLayerNorm,
    IBertSoftmax,
    i_erf,
    i_exp,
    i_gelu,
    i_layernorm,
    i_softmax,
    i_sqrt,
    int_erf,
    int_exp,
    int_poly,
    integer_sqrt,
)
from .linear_lut import fit_linear_lut, linear_lut_for
from .polyfit import (
    build_lut_from_breakpoints,
    exponential_breakpoints,
    fit_segments_interpolation,
    fit_segments_least_squares,
    linear_breakpoints,
)

__all__ = [
    "fit_linear_lut",
    "linear_lut_for",
    "fit_exponential_lut",
    "exponential_lut_for",
    "linear_breakpoints",
    "exponential_breakpoints",
    "fit_segments_least_squares",
    "fit_segments_interpolation",
    "build_lut_from_breakpoints",
    "ERF_COEFFICIENTS",
    "EXP_COEFFICIENTS",
    "i_erf",
    "i_gelu",
    "i_exp",
    "i_softmax",
    "i_sqrt",
    "i_layernorm",
    "int_poly",
    "int_erf",
    "int_exp",
    "integer_sqrt",
    "IBertGelu",
    "IBertSoftmax",
    "IBertLayerNorm",
]
