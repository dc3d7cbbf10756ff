"""Hidden-layer recipes for NN-LUT fitting (paper Table 1).

The paper reports that the hidden-layer weight (``n_i``) and bias (``b_i``)
signs must be chosen per target function for the network to find good LUT
parameters:

==============  ==================  =====================
Function        Weight init (n_i)   Bias init (b_i)
==============  ==================  =====================
GELU            random              random
Exp             positive random     positive random
Divide (1/x)    negative random     positive random
1/SQRT          negative random     positive random
==============  ==================  =====================

The closed-form fit (``repro.core.training``) takes the weight sign as one
fixed direction per primitive: every hinge ``relu(n_i x + b_i)`` opens the
same way, positive for "random" (GELU) and "positive" (exp), negative for 1/x
and 1/sqrt.  Together with the output bias that spans every piecewise-linear
function on the knots that is flat beyond one end of the range — flat
towards -inf for GELU and exp, towards +inf for 1/x and 1/sqrt.  Randomly
signed hinges span less, and cost GELU 2-10x in error.  The bias sign then
follows from the knots (``b_i = -n_i * anchor_i``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .network import NetworkParameters, OneHiddenReluNet

__all__ = [
    "InitSpec",
    "INIT_SPECS",
    "get_init_spec",
    "initialize_network",
]


@dataclass(frozen=True)
class InitSpec:
    """Sign constraints on the hidden-layer parameters of the approximator.

    ``weight_sign`` / ``bias_sign`` take values ``"random"``, ``"positive"``
    or ``"negative"`` following paper Table 1.
    """

    weight_sign: str = "random"
    bias_sign: str = "random"

    _ALLOWED = ("random", "positive", "negative")

    def __post_init__(self) -> None:
        for field_name, value in (("weight_sign", self.weight_sign), ("bias_sign", self.bias_sign)):
            if value not in self._ALLOWED:
                raise ValueError(
                    f"{field_name} must be one of {self._ALLOWED}, got {value!r}"
                )


#: Table 1 of the paper, keyed by scalar primitive name.
INIT_SPECS: Dict[str, InitSpec] = {
    "gelu": InitSpec(weight_sign="random", bias_sign="random"),
    "erf": InitSpec(weight_sign="random", bias_sign="random"),
    "exp": InitSpec(weight_sign="positive", bias_sign="positive"),
    "reciprocal": InitSpec(weight_sign="negative", bias_sign="positive"),
    "rsqrt": InitSpec(weight_sign="negative", bias_sign="positive"),
}


def get_init_spec(function_name: str) -> InitSpec:
    """Return the Table-1 initialisation spec for ``function_name``.

    Unknown functions fall back to fully random initialisation, which is the
    generic recipe for monotonic-but-unknown targets.
    """
    return INIT_SPECS.get(function_name, InitSpec())


def initialize_network(function_name: str, anchors: np.ndarray) -> OneHiddenReluNet:
    """The hidden layer of ``function_name``'s network, with knots at ``anchors``.

    Each neuron ``i`` is ``relu(n (x - anchors[i]))`` with ``n`` the Table-1
    weight sign as ``+1`` or ``-1`` (``+1`` for "random"); the output layer is
    zero and the output bias trainable, for the fit to solve.  Unknown
    functions take the generic recipe, ``n = +1``.
    """
    anchors = np.asarray(anchors, dtype=np.float64).ravel()
    if anchors.size < 1:
        raise ValueError("anchors must hold at least one knot")
    direction = -1.0 if get_init_spec(function_name).weight_sign == "negative" else 1.0
    weights = np.full(anchors.size, direction)
    params = NetworkParameters(
        first_weight=weights,
        first_bias=-weights * anchors,
        second_weight=np.zeros(anchors.size),
        output_bias=0.0,
    )
    return OneHiddenReluNet(params=params)
