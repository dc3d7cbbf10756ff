"""Dataset-free calibration demo (paper Sec. 3.3.3).

The generic 1/sqrt table is trained on (0.1, 1024), but a specific model site
only ever sees variances in a narrow band.  Calibrating the table on a few
unlabelled activations recovers most of the approximation error.

Part one shows the operator-level effect; part two runs the same workflow
end to end through ``InferenceSession.calibrate`` — record what the deployed
model actually computes, re-fit the flagged tables, swap them in.

Run with:  python examples/calibration_demo.py
"""

import numpy as np

from repro.api import BackendSpec, InferenceSession, SessionConfig
from repro.core import InputScaler, LutLayerNorm, LutRegistry, calibrate_lut, functions


def main() -> None:
    registry = LutRegistry()
    primitive = registry.get("rsqrt", num_entries=16)

    # The "deployed model": LayerNorm inputs whose variance sits in (1, 20).
    rng = np.random.default_rng(0)
    activations = rng.normal(0.0, 2.0, size=(256, 128))
    reference = functions.layer_norm(activations)

    direct = LutLayerNorm(primitive.lut, scaler=InputScaler())
    direct_error = np.mean(np.abs(direct(activations) - reference))

    # Dataset-free calibration: re-fit the table on the variances the model
    # actually produces (no labels involved).
    variances = np.var(activations, axis=-1) + 1e-5
    calibrated_lut = calibrate_lut(
        primitive.network, functions.rsqrt, variances, name="rsqrt"
    )
    calibrated = LutLayerNorm(calibrated_lut, scaler=InputScaler())
    calibrated_error = np.mean(np.abs(calibrated(activations) - reference))

    print(f"LayerNorm mean L1 error, direct approximation : {direct_error:.4f}")
    print(f"LayerNorm mean L1 error, after calibration    : {calibrated_error:.4f}")
    print(f"Error reduced by {100 * (1 - calibrated_error / max(direct_error, 1e-12)):.0f}%")

    # End-to-end: the same workflow as a one-call session method.  The spec
    # flags LayerNorm for calibration; `calibrate` records unlabelled traffic,
    # re-fits the 1/sqrt table and swaps it into the serving backend.
    spec = BackendSpec.nn_lut().with_calibration("layernorm")
    config = SessionConfig(model_family="tiny", compute_dtype="float64")
    session = InferenceSession(config, spec=spec, registry=registry)
    exact = InferenceSession(config, spec=BackendSpec.exact(), registry=registry)

    samples = [rng.integers(0, 100, size=length) for length in (10, 16, 10, 24, 16, 12)]
    pooled_reference = exact.pooled(samples)
    before = np.mean(np.abs(session.pooled(samples) - pooled_reference))
    calibrated_tables = session.calibrate(samples)
    after = np.mean(np.abs(session.pooled(samples) - pooled_reference))
    print(
        f"\nInferenceSession.calibrate re-fitted {sorted(calibrated_tables)} "
        f"on {len(samples)} unlabelled sequences"
    )
    print(f"pooled-output L1 error vs exact backend: {before:.5f} -> {after:.5f} "
          f"(backend now: {session.backend.name})")


if __name__ == "__main__":
    main()
