"""Linear-mode LUT baseline (the paper's "Linear-LUT").

Breakpoints are pre-determined on an equally-spaced grid over the target
input range (the constraint imposed by simple LUT index hardware), and each
segment's first-order polynomial is obtained by curve fitting.  Because the
breakpoints cannot move, functions with a large dynamic range (1/x, 1/sqrt)
are approximated poorly — which is exactly the failure mode Table 2(a) of the
paper demonstrates for LayerNorm.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from ..core.functions import get_target_function, get_training_range
from ..core.lut import LookupTable
from .polyfit import build_lut_from_breakpoints, linear_breakpoints

__all__ = ["fit_linear_lut", "linear_lut_for"]


def fit_linear_lut(
    function: Callable[[np.ndarray], np.ndarray],
    input_range: Tuple[float, float],
    num_entries: int = 16,
    method: str = "least_squares",
    name: str = "",
) -> LookupTable:
    """Construct a Linear-mode LUT for an arbitrary scalar function.

    The returned table is a plain :class:`LookupTable` tagged
    ``mode="linear"``.  The equally-spaced grid that constrains the
    baseline's accuracy always admits the table's bucketed O(1) segment
    search, so its index never takes a binary search, and as a plain table
    it runs on the compiled kernels like any NN-LUT table.
    """
    breakpoints = linear_breakpoints(input_range, num_entries)
    lut = build_lut_from_breakpoints(
        function, breakpoints, input_range, method=method, name=name
    )
    return lut.with_metadata(mode="linear", num_entries=num_entries)


def linear_lut_for(
    function_name: str,
    num_entries: int = 16,
    input_range: Tuple[float, float] | None = None,
    method: str = "least_squares",
) -> LookupTable:
    """Linear-mode LUT for one of the registered scalar primitives.

    Uses the same Table-1 input ranges as NN-LUT so the two methods are
    compared on equal footing (Figure 2 of the paper).
    """
    function = get_target_function(function_name)
    if input_range is None:
        input_range = get_training_range(function_name)
    return fit_linear_lut(
        function, input_range, num_entries=num_entries, method=method, name=function_name
    )
