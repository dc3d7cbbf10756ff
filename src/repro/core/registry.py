"""Deterministic cache of NN-LUT tables, the default ones loaded, not fitted.

As in the paper (Sec. 3.3.1), the network behind each of the four served
primitives (GELU, exp, 1/x, 1/sqrt) is fitted and converted offline: the
16-entry tables are a tracked artifact, ``tables/nn_lut16.json``, which
``python -m repro.experiments fit-tables`` writes and nothing else does.  Per
primitive it holds the fitted network (float hex strings, so loading is
bitwise), its final loss, the signature of the fit that produced it (the
entry count, the input range and the primitive's :data:`FIT_RECIPES` row)
and a sha256 over the converted table.

:meth:`LutRegistry.get` serves a request whose signature matches a row by
rebuilding that network and converting it with :func:`network_to_lut`,
and raises if the table's sha256 differs from the row's.  Any other request
(another entry count or primitive) is fitted: one closed-form solve, 5-25 ms
per table on a 2-vCPU x86 machine.  The registry memoises
``(function, entries)`` so every experiment, test and benchmark sees
identical, reproducible tables without refitting.  Pre-fitted tables can
also be registered directly (e.g. calibrated variants or hand-built
fixtures for tests).
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Tuple

import numpy as np

from .conversion import network_to_lut
from .functions import get_training_range
from .lut import LookupTable
from .network import OneHiddenReluNet
from .training import fit_network

__all__ = ["LutRegistry", "FittedPrimitive", "default_registry", "fit_lut"]


#: The primitives the NN-LUT backend serves (GELU, softmax's exp and 1/x,
#: LayerNorm's 1/sqrt): the rows of the table artifact.
SERVED_PRIMITIVES: Tuple[str, ...] = ("gelu", "exp", "reciprocal", "rsqrt")

#: How each primitive is fitted (:func:`repro.core.training.fit_network`):
#: the grid its output layer is solved on, and whether the fit balances
#: relative error.  Wide ranges put their grid where the curvature is (near 0
#: for exp, near the low end for 1/x and 1/sqrt); 1/x normalising a softmax
#: row and 1/sqrt scaling a LayerNorm row act multiplicatively, over outputs
#: spanning orders of magnitude, so they balance relative error.  Any other
#: primitive takes GELU's recipe.
FIT_RECIPES: Dict[str, Dict[str, object]] = {
    "gelu": {"sampling": "uniform", "relative": False},
    "exp": {"sampling": "neg_log", "relative": False},
    "reciprocal": {"sampling": "log", "relative": True},
    "rsqrt": {"sampling": "log", "relative": True},
}

#: The default 16-entry tables, fitted offline (see the module docstring).
TABLES_PATH = Path(__file__).with_name("tables") / "nn_lut16.json"

_NETWORK_FIELDS = ("first_weight", "first_bias", "second_weight")


@dataclass
class FittedPrimitive:
    """A fitted approximator: the network, its LUT form and fit metadata."""

    name: str
    network: OneHiddenReluNet
    lut: LookupTable
    final_loss: float
    input_range: Tuple[float, float]


def fit_signature(function_name: str, num_entries: int = 16) -> dict:
    """What determines a registry fit bit for bit, in the artifact's JSON form."""
    return {
        "num_entries": int(num_entries),
        "input_range": [float(bound) for bound in get_training_range(function_name)],
        "recipe": dict(FIT_RECIPES.get(function_name, FIT_RECIPES["gelu"])),
    }


def table_sha256(tables: Iterable[LookupTable]) -> str:
    """sha256 over each table's float64 breakpoints, slopes and intercepts, in order."""
    digest = hashlib.sha256()
    for table in tables:
        for values in (table.breakpoints, table.slopes, table.intercepts):
            digest.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _primitive(
    function_name: str, num_entries: int, network: OneHiddenReluNet, final_loss: float
) -> FittedPrimitive:
    input_range = tuple(get_training_range(function_name))
    lut = network_to_lut(network, name=function_name)
    lut = lut.with_metadata(
        input_range=input_range,
        final_l1_loss=final_loss,
        num_entries_requested=num_entries,
    )
    return FittedPrimitive(
        name=function_name,
        network=network,
        lut=lut,
        final_loss=final_loss,
        input_range=input_range,
    )


def fit_lut(function_name: str, num_entries: int = 16) -> FittedPrimitive:
    """Fit a network for ``function_name`` and convert it to an N-entry LUT.

    ``num_entries`` is the LUT size ``N``; the network uses ``N - 1`` hidden
    neurons as in the paper.
    """
    if num_entries < 2:
        raise ValueError("num_entries must be >= 2")
    network, final_loss = fit_network(
        function_name, hidden_size=num_entries - 1, **fit_signature(function_name)["recipe"]
    )
    return _primitive(function_name, num_entries, network, final_loss)


def write_tables() -> str:
    """Fit the served primitives with their recipes and write the artifact.

    Returns the sha256 over the four tables.  ``python -m repro.experiments
    fit-tables`` runs this; it is the one way to regenerate the file.
    """
    fitted = [fit_lut(name) for name in SERVED_PRIMITIVES]
    rows = {}
    for primitive in fitted:
        network = {name: [v.hex() for v in getattr(primitive.network, name).tolist()]
                   for name in _NETWORK_FIELDS}
        network["output_bias"] = primitive.network.output_bias.hex()
        rows[primitive.name] = {
            "signature": fit_signature(primitive.name),
            "network": network,
            "final_loss": primitive.final_loss.hex(),
            "sha256": table_sha256([primitive.lut]),
        }
    document = {"regenerate": "python -m repro.experiments fit-tables", "tables": rows}
    TABLES_PATH.write_text(json.dumps(document, indent=1) + "\n")
    return table_sha256(primitive.lut for primitive in fitted)


@functools.cache
def _table_rows() -> Dict[str, dict]:
    return json.loads(TABLES_PATH.read_text())["tables"]


def _load_row(function_name: str, num_entries: int) -> FittedPrimitive | None:
    """The artifact's primitive when its signature is this request's, else ``None``.

    Raises ``ValueError`` when the row's network converts to a table whose
    sha256 is not the stored one.
    """
    row = _table_rows().get(function_name)
    if row is None or row["signature"] != fit_signature(function_name, num_entries):
        return None
    stored = row["network"]
    network = OneHiddenReluNet(
        *(np.array([float.fromhex(v) for v in stored[name]]) for name in _NETWORK_FIELDS),
        output_bias=float.fromhex(stored["output_bias"]),
    )
    fitted = _primitive(function_name, num_entries, network, float.fromhex(row["final_loss"]))
    if table_sha256([fitted.lut]) != row["sha256"]:
        raise ValueError(
            f"{TABLES_PATH.name}: the {function_name!r} network converts to a table whose "
            "sha256 is not the stored one; regenerate the file with "
            "`python -m repro.experiments fit-tables`"
        )
    return fitted


@dataclass
class LutRegistry:
    """Memoising store of fitted primitives keyed by (name, entries)."""

    _cache: Dict[Tuple[str, int], FittedPrimitive] = field(default_factory=dict)

    def get(self, function_name: str, num_entries: int = 16) -> FittedPrimitive:
        """Return the primitive, loading or fitting and caching it on first use.

        A request the table artifact holds a row for (same primitive, entry
        count and fit signature) is loaded from it; any other is fitted.
        """
        key = (function_name, int(num_entries))
        if key not in self._cache:
            self._cache[key] = _load_row(function_name, int(num_entries)) or fit_lut(
                function_name, num_entries=num_entries
            )
        return self._cache[key]

    def lut(self, function_name: str, num_entries: int = 16) -> LookupTable:
        """Shorthand for ``get(...).lut``."""
        return self.get(function_name, num_entries).lut

    def register(self, key_name: str, primitive: FittedPrimitive, num_entries: int = 16) -> None:
        """Insert a pre-fitted primitive (e.g. a calibrated variant)."""
        self._cache[(key_name, int(num_entries))] = primitive


_DEFAULT_REGISTRY: LutRegistry | None = None


def default_registry() -> LutRegistry:
    """Process-wide shared registry used by experiments and benchmarks."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = LutRegistry()
    return _DEFAULT_REGISTRY
