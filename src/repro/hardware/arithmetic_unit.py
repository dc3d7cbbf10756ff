"""Arithmetic-unit cost models for NN-LUT and I-BERT (paper Table 4).

Each unit is assembled from the :mod:`repro.hardware.components` library
following the datapaths of Figure 3:

* **NN-LUT unit** (Fig. 3a): a breakpoint comparator bank, the 16-entry
  parameter table, one multiplier, one adder and the pipeline registers of a
  two-stage pipeline (stage 1: compare + look-up, stage 2: multiply-add).
  The same unit evaluates GELU, EXP, DIV and 1/SQRT — only the table contents
  change — so its latency is 2 cycles for every operation.
* **I-BERT unit** (Fig. 3b): the union of the datapaths needed by I-BERT's
  integer GELU / EXP / SQRT algorithms — two multipliers, several adders, an
  integer divider, shifters, the mux/demux steering network and roughly a
  dozen pipeline registers.  Operations take 3 (GELU), 4 (EXP) and 5 (SQRT)
  cycles because they iterate through the shared datapath.

The returned figures are produced by the calibrated component library: the
unit structure follows the paper, and the component coefficients are tuned
so the totals land near Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .components import ComponentCost, ComponentLibrary, default_library

__all__ = [
    "UnitCost",
    "NnLutUnit",
    "IBertUnit",
    "build_table4_units",
]


@dataclass
class UnitCost:
    """Aggregated cost of an arithmetic unit plus its per-op latency."""

    name: str
    precision: str
    area_um2: float
    power_mw: float
    delay_ns: float
    latency_cycles: Dict[str, int]
    inventory: Dict[str, Tuple[int, ComponentCost]] = field(default_factory=dict)

    def as_row(self) -> Dict[str, object]:
        """Row for the Table 4 report."""
        return {
            "unit": self.name,
            "precision": self.precision,
            "area_um2": round(self.area_um2, 2),
            "power_mw": round(self.power_mw, 4),
            "delay_ns": round(self.delay_ns, 2),
            "latency_cycles": dict(self.latency_cycles),
        }


def _accumulate(
    inventory: Dict[str, Tuple[int, ComponentCost]]
) -> Tuple[float, float]:
    """Sum area and power over an inventory of (count, unit cost) entries."""
    area = sum(count * cost.area_um2 for count, cost in inventory.values())
    power = sum(count * cost.power_mw for count, cost in inventory.values())
    return area, power


@dataclass
class NnLutUnit:
    """NN-LUT arithmetic unit (Fig. 3a of the paper)."""

    precision: str = "int32"
    num_entries: int = 16
    library: ComponentLibrary = field(default_factory=default_library)

    _PRECISION_BITS = {"int32": 32, "fp32": 32, "fp16": 16}

    def __post_init__(self) -> None:
        if self.precision not in self._PRECISION_BITS:
            raise ValueError(
                f"precision must be one of {tuple(self._PRECISION_BITS)}, got {self.precision!r}"
            )
        if self.num_entries < 2:
            raise ValueError("num_entries must be >= 2")

    @property
    def bits(self) -> int:
        return self._PRECISION_BITS[self.precision]

    @property
    def is_floating_point(self) -> bool:
        return self.precision.startswith("fp")

    def _multiplier(self) -> ComponentCost:
        return (
            self.library.fp_multiplier(self.bits)
            if self.is_floating_point
            else self.library.multiplier(self.bits)
        )

    def _adder(self) -> ComponentCost:
        return (
            self.library.fp_adder(self.bits)
            if self.is_floating_point
            else self.library.adder(self.bits)
        )

    @property
    def comparator_bits(self) -> int:
        """Breakpoint comparator width.

        Figure 3(a) labels the comparator bank "16 bit": breakpoints are stored
        at 16-bit precision regardless of the datapath width, which is enough
        to index 16 segments.
        """
        return min(self.bits, 16)

    def inventory(self) -> Dict[str, Tuple[int, ComponentCost]]:
        """Component inventory of the two-stage LUT pipeline."""
        lib = self.library
        bits = self.bits
        return {
            # Stage 1: breakpoint comparison, priority encoding, parameter look-up.
            "breakpoint_comparator": (self.num_entries - 1, lib.comparator(self.comparator_bits)),
            "index_encoder": (1, lib.comparator(8)),
            "parameter_table": (1, lib.table(self.num_entries, 2 * bits)),
            # Stage 2: first-order evaluation s*x + t.
            "multiplier": (1, self._multiplier()),
            "adder": (1, self._adder()),
            # Pipeline registers (x, s, t, result), Fig. 3a reg0-reg3.
            "pipeline_register": (4, lib.register(bits)),
        }

    def cost(self) -> UnitCost:
        inventory = self.inventory()
        area, power = _accumulate(inventory)
        # Critical path: the longer of the two pipeline stages.
        lib = self.library
        stage1 = (
            lib.comparator(self.comparator_bits).delay_ns
            + lib.table(self.num_entries, 2 * self.bits).delay_ns
            + lib.register(self.bits).delay_ns
        )
        stage2 = (
            self._multiplier().delay_ns + self._adder().delay_ns + lib.register(self.bits).delay_ns
        )
        delay = max(stage1, stage2)
        latency = {"gelu": 2, "exp": 2, "div": 2, "rsqrt": 2}
        return UnitCost(
            name="NN-LUT",
            precision=self.precision.upper(),
            area_um2=area,
            power_mw=power,
            delay_ns=delay,
            latency_cycles=latency,
            inventory=inventory,
        )


@dataclass
class IBertUnit:
    """I-BERT integer approximation unit (Fig. 3b of the paper)."""

    precision: str = "int32"
    library: ComponentLibrary = field(default_factory=default_library)

    def __post_init__(self) -> None:
        if self.precision != "int32":
            raise ValueError("the I-BERT unit is defined for INT32 arithmetic only")

    @property
    def bits(self) -> int:
        return 32

    def inventory(self) -> Dict[str, Tuple[int, ComponentCost]]:
        """Component inventory of the shared I-BERT datapath (Fig. 3b)."""
        lib = self.library
        bits = self.bits
        return {
            # Polynomial evaluation datapath: (x + b)^2 * a + c needs two
            # multipliers and several adders (add0-add4 in the figure).
            "multiplier": (2, lib.multiplier(bits)),
            "adder": (5, lib.adder(bits)),
            # Exp range reduction and sqrt iteration shifting (shft0-shft3).
            "shifter": (4, lib.shifter(bits)),
            # Newton-iteration / softmax normalisation divider (div0).
            "divider": (1, lib.divider(bits)),
            # Operand steering: mux0-mux7 plus the demux.
            "mux": (8, lib.mux(bits, ways=2)),
            "demux": (1, lib.mux(bits, ways=2)),
            # Pipeline / loop state registers reg0-reg10.
            "pipeline_register": (11, lib.register(bits)),
        }

    def cost(self) -> UnitCost:
        inventory = self.inventory()
        area, power = _accumulate(inventory)
        lib = self.library
        bits = self.bits
        # Critical path runs through the divider stage: steering mux, divider,
        # accumulation adder and the loop register.
        delay = (
            lib.mux(bits, ways=2).delay_ns
            + lib.divider(bits).delay_ns
            + lib.adder(bits).delay_ns
            + lib.register(bits).delay_ns
        )
        latency = {"gelu": 3, "exp": 4, "rsqrt": 5, "div": 5}
        return UnitCost(
            name="I-BERT",
            precision="INT32",
            area_um2=area,
            power_mw=power,
            delay_ns=delay,
            latency_cycles=latency,
            inventory=inventory,
        )


def build_table4_units(
    library: ComponentLibrary | None = None, num_entries: int = 16
) -> List[UnitCost]:
    """The four columns of Table 4: I-BERT INT32 and NN-LUT INT32/FP16/FP32."""
    library = library or default_library()
    return [
        IBertUnit(library=library).cost(),
        NnLutUnit(precision="int32", num_entries=num_entries, library=library).cost(),
        NnLutUnit(precision="fp16", num_entries=num_entries, library=library).cost(),
        NnLutUnit(precision="fp32", num_entries=num_entries, library=library).cost(),
    ]
