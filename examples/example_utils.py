"""Shared helpers for the example scripts.

Every example honours ``EXAMPLES_SMOKE=1`` (set by ``scripts/run_examples.sh``
and the tier-1 pytest shim): smoke mode shrinks the models and the
synthetic-task sizes so the whole example suite runs in CI time while still
exercising every code path.
"""

from __future__ import annotations

import os
from typing import Dict

#: True when the caller asked for the CI-sized run.
SMOKE = os.environ.get("EXAMPLES_SMOKE", "") == "1"


def glue_sizes() -> Dict[str, int]:
    """Synthetic GLUE task sizes for this run."""
    if SMOKE:
        return {"num_train": 64, "num_test": 32, "sequence_length": 24}
    return {"num_train": 192, "num_test": 96, "sequence_length": 48}
