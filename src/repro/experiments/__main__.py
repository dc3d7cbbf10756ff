"""CLI for the experiment drivers.

Run any table / figure of the paper by name::

    PYTHONPATH=src python -m repro.experiments table2a
    PYTHONPATH=src python -m repro.experiments all --smoke

``--smoke`` switches the software experiments to the CI-sized scale
(``SMOKE_SCALE``) so a full sweep finishes in minutes.

``fit-tables`` is not an experiment: it refits the four served NN-LUT
primitives with the default recipe and rewrites the tracked table artifact
(``src/repro/core/tables/nn_lut16.json``) the registry loads them from —
the one way to regenerate that file::

    PYTHONPATH=src python -m repro.experiments fit-tables
"""

from __future__ import annotations

import argparse

from ..core import registry
from . import DEFAULT_SCALE, EXPERIMENT_NAMES, SMOKE_SCALE, run_experiment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENT_NAMES + ("all", "fit-tables"),
        help="which experiment to run ('all' runs every one; 'fit-tables' "
        "regenerates the NN-LUT table artifact)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the software experiments at the CI smoke scale",
    )
    args = parser.parse_args(argv)
    if args.experiment == "fit-tables":
        digest = registry.write_tables()
        print(
            f"wrote {', '.join(registry.SERVED_PRIMITIVES)} to {registry.TABLES_PATH}, "
            f"sha256 {digest}"
        )
        return 0
    scale = SMOKE_SCALE if args.smoke else DEFAULT_SCALE
    names = EXPERIMENT_NAMES if args.experiment == "all" else (args.experiment,)
    for name in names:
        print(run_experiment(name, scale=scale).report())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
