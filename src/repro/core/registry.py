"""Deterministic cache of fitted NN-LUT tables.

Fitting a 16-entry table with the default recipe below takes about 0.2 s
on a 2-vCPU x86 machine, its two restarts running at once (0.7-0.9 s for
all four primitives; 0.9-1.3 s with the restarts one after the other), and
the software experiments (Tables 2, 3) need the same four primitives over
and over.  The registry memoises ``(function, entries,
config-signature)`` so every experiment, test and benchmark sees identical,
reproducible tables without refitting.  Pre-fitted tables can also be
registered directly (e.g. calibrated variants or hand-built fixtures for
tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from .conversion import network_to_lut
from .functions import get_training_range
from .lut import LookupTable
from .network import OneHiddenReluNet
from .training import TrainingConfig, TrainingResult, fit_network

__all__ = ["LutRegistry", "FittedPrimitive", "default_registry", "fit_lut"]


#: Fast-but-accurate default used across experiments; fitting all four paper
#: primitives with these settings takes 0.7-0.9 s total on a 2-vCPU x86
#: machine, where the two restarts of each fit run on one core each.
DEFAULT_TRAINING_CONFIG = TrainingConfig(
    hidden_size=15,
    num_samples=20_000,
    batch_size=2048,
    epochs=40,
    learning_rate=1e-3,
    seed=0,
    num_restarts=2,
)

#: Per-function tweaks on top of the default: wide ranges benefit from
#: log-space sampling so the curvature near the interesting end of the range
#: (0 for exp, 1 for 1/x and 1/sqrt) is represented in the training set.
FUNCTION_CONFIG_OVERRIDES: Dict[str, Dict[str, object]] = {
    "exp": {"sampling": "neg_log"},
    "rsqrt": {"sampling": "log", "target_weighting": "relative"},
    "reciprocal": {"sampling": "log", "target_weighting": "relative"},
}


@dataclass
class FittedPrimitive:
    """A fitted approximator: the network, its LUT form and fit metadata."""

    name: str
    network: OneHiddenReluNet
    lut: LookupTable
    training_result: TrainingResult
    input_range: Tuple[float, float]


def _config_for(function_name: str, base: TrainingConfig) -> TrainingConfig:
    overrides = FUNCTION_CONFIG_OVERRIDES.get(function_name, {})
    return replace(base, **overrides) if overrides else base


def fit_lut(
    function_name: str,
    num_entries: int = 16,
    config: TrainingConfig | None = None,
    input_range: Tuple[float, float] | None = None,
) -> FittedPrimitive:
    """Fit a network for ``function_name`` and convert it to an N-entry LUT.

    ``num_entries`` is the LUT size ``N``; the network uses ``N - 1`` hidden
    neurons as in the paper.
    """
    if num_entries < 2:
        raise ValueError("num_entries must be >= 2")
    base = config or DEFAULT_TRAINING_CONFIG
    base = replace(base, hidden_size=num_entries - 1)
    base = _config_for(function_name, base)
    if input_range is None:
        input_range = get_training_range(function_name)
    result = fit_network(function_name, config=base, input_range=input_range)
    lut = network_to_lut(result.network, name=function_name)
    lut = lut.with_metadata(
        input_range=tuple(input_range),
        final_l1_loss=result.final_loss,
        num_entries_requested=num_entries,
    )
    return FittedPrimitive(
        name=function_name,
        network=result.network,
        lut=lut,
        training_result=result,
        input_range=tuple(input_range),
    )


@dataclass
class LutRegistry:
    """Memoising store of fitted primitives keyed by (name, entries, seed)."""

    training_config: TrainingConfig = field(default_factory=lambda: DEFAULT_TRAINING_CONFIG)
    _cache: Dict[Tuple[str, int, int], FittedPrimitive] = field(default_factory=dict)

    def get(self, function_name: str, num_entries: int = 16) -> FittedPrimitive:
        """Return the fitted primitive, fitting and caching it on first use."""
        key = (function_name, int(num_entries), int(self.training_config.seed))
        if key not in self._cache:
            self._cache[key] = fit_lut(
                function_name, num_entries=num_entries, config=self.training_config
            )
        return self._cache[key]

    def lut(self, function_name: str, num_entries: int = 16) -> LookupTable:
        """Shorthand for ``get(...).lut``."""
        return self.get(function_name, num_entries).lut

    def register(self, key_name: str, primitive: FittedPrimitive, num_entries: int = 16) -> None:
        """Insert a pre-fitted primitive (e.g. a calibrated variant)."""
        self._cache[(key_name, int(num_entries), int(self.training_config.seed))] = primitive

    def clear(self) -> None:
        self._cache.clear()

    def __contains__(self, function_name: str) -> bool:
        return any(key[0] == function_name for key in self._cache)

    def __len__(self) -> int:
        return len(self._cache)


_DEFAULT_REGISTRY: LutRegistry | None = None


def default_registry() -> LutRegistry:
    """Process-wide shared registry used by experiments and benchmarks."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = LutRegistry()
    return _DEFAULT_REGISTRY
