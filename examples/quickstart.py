"""Quickstart: fit an NN-LUT, use it as a drop-in GELU, then serve with it.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro.api import BackendSpec, InferenceSession, SessionConfig
from repro.core import LutGelu, LutRegistry, fit_lut, functions, lut_matches_network


def main() -> None:
    # 1. Fit a one-hidden-layer ReLU network to GELU and convert it to a
    #    16-entry look-up table (paper Sec. 3.2, Table 1 recipe).
    primitive = fit_lut("gelu", num_entries=16)
    lut = primitive.lut
    print(f"Fitted GELU NN-LUT: {lut.num_entries} entries, "
          f"final L1 loss {primitive.final_loss:.4f}")

    # 2. The conversion is exact: the network and the table agree everywhere.
    exact_equivalence = lut_matches_network(primitive.network, lut, primitive.input_range)
    print(f"NN(x) == LUT(x) on the training range: {exact_equivalence}")

    # 3. Use the table as a drop-in replacement of GELU.
    gelu_op = LutGelu(lut)
    x = np.linspace(-6, 6, 13)
    approx = gelu_op(x)
    exact = functions.gelu(x)
    print(f"{'x':>6} {'GELU':>9} {'NN-LUT':>9} {'error':>9}")
    for xi, e, a in zip(x, exact, approx):
        print(f"{xi:6.1f} {e:9.4f} {a:9.4f} {abs(e - a):9.5f}")

    # 4. Inspect the learned table (breakpoints concentrate where GELU bends).
    print("\nBreakpoints:", np.round(lut.breakpoints, 3))
    print("Slopes     :", np.round(lut.slopes, 3))

    # 5. Serve with it: declare the scenario as a BackendSpec and prepare an
    #    InferenceSession once — it batches ragged requests dynamically.
    session = InferenceSession(
        SessionConfig(model_family="tiny"),
        spec=BackendSpec.nn_lut(),
        registry=LutRegistry(),
    )
    rng = np.random.default_rng(0)
    requests = [rng.integers(0, 100, size=length) for length in (6, 14, 6, 10)]
    hidden = session.forward(requests)
    print(
        f"\nInferenceSession ({session.backend.name}) served "
        f"{len(requests)} ragged requests -> shapes {[h.shape for h in hidden]}"
    )


if __name__ == "__main__":
    main()
