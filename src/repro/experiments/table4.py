"""Table 4: arithmetic-unit hardware cost, I-BERT vs NN-LUT."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..hardware.arithmetic_unit import UnitCost, build_table4_units
from ..hardware.components import ComponentLibrary
from .common import format_table

__all__ = ["Table4Result", "run_table4", "PAPER_TABLE4"]

#: The paper's reported numbers, for side-by-side comparison in the report.
PAPER_TABLE4: Dict[str, Dict[str, float]] = {
    "I-BERT INT32": {"area_um2": 2654.32, "power_mw": 2.1421, "delay_ns": 2.67},
    "NN-LUT INT32": {"area_um2": 1008.92, "power_mw": 0.0591, "delay_ns": 0.68},
    "NN-LUT FP16": {"area_um2": 498.38, "power_mw": 0.0250, "delay_ns": 1.36},
    "NN-LUT FP32": {"area_um2": 1133.60, "power_mw": 0.0437, "delay_ns": 1.60},
}


@dataclass
class Table4Result:
    """Modelled unit costs plus the headline ratios."""

    units: List[UnitCost]

    def _unit(self, name: str, precision: str) -> UnitCost:
        for unit in self.units:
            if unit.name == name and unit.precision == precision:
                return unit
        raise KeyError(f"no unit {name} {precision} in the result")

    def ratios(self) -> Dict[str, float]:
        """I-BERT / NN-LUT(INT32) ratios (paper: 2.63x area, 36.4x power, 3.93x delay)."""
        ibert = self._unit("I-BERT", "INT32")
        nn_lut = self._unit("NN-LUT", "INT32")
        return {
            "area_ratio": ibert.area_um2 / nn_lut.area_um2,
            "power_ratio": ibert.power_mw / nn_lut.power_mw,
            "delay_ratio": ibert.delay_ns / nn_lut.delay_ns,
        }

    def report(self) -> str:
        rows = []
        for unit in self.units:
            key = f"{unit.name} {unit.precision}"
            paper = PAPER_TABLE4.get(key, {})
            rows.append(
                [
                    key,
                    unit.area_um2,
                    paper.get("area_um2", float("nan")),
                    unit.power_mw,
                    paper.get("power_mw", float("nan")),
                    unit.delay_ns,
                    paper.get("delay_ns", float("nan")),
                    max(unit.latency_cycles.values()),
                ]
            )
        table = format_table(
            [
                "unit",
                "area um2",
                "paper area",
                "power mW",
                "paper power",
                "delay ns",
                "paper delay",
                "max latency",
            ],
            rows,
            float_format="{:.3f}",
        )
        ratios = self.ratios()
        footer = (
            f"\nI-BERT vs NN-LUT(INT32): area {ratios['area_ratio']:.2f}x, "
            f"power {ratios['power_ratio']:.1f}x, delay {ratios['delay_ratio']:.2f}x "
            "(paper: 2.63x / 36.4x / 3.93x)"
        )
        return "Table 4 reproduction — arithmetic-unit comparison\n" + table + footer


def run_table4(
    library: ComponentLibrary | None = None, num_entries: int = 16
) -> Table4Result:
    """Assemble both arithmetic units and collect their modelled costs."""
    return Table4Result(units=build_table4_units(library=library, num_entries=num_entries))


def main() -> None:  # pragma: no cover - convenience entry point
    from . import run_experiment

    print(run_experiment("table4").report())


if __name__ == "__main__":  # pragma: no cover
    main()
