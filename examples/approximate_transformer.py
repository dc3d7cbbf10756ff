"""Replace every non-linear operation of a Transformer and measure the impact.

This mirrors the Table-2 protocol on synthetic GLUE tasks, entirely through
the serving API: each scenario is a declarative ``BackendSpec`` served by an
``InferenceSession`` over the same frozen model, the scores come from the
same fitted heads, and the final section serves a ragged request mix through
one of those sessions.

Run with:  python examples/approximate_transformer.py
"""

import numpy as np

import example_utils
from repro.api import BackendSpec, InferenceSession, SessionConfig
from repro.core import LutRegistry
from repro.tasks import GlueBenchmark


def main() -> None:
    registry = LutRegistry()
    config = SessionConfig(model_family="roberta", model_size="small", seed=3)
    model = config.build_model()
    benchmark = GlueBenchmark.build(
        model,
        task_names=["SST-2", "MRPC"],
        seed=0,
        spec_overrides=example_utils.glue_sizes(),
    )

    specs = {
        "Baseline (exact FP32)": BackendSpec.exact(),
        "NN-LUT (all ops)": BackendSpec.nn_lut(),
        "NN-LUT (LayerNorm only)": BackendSpec.nn_lut(replace=["layernorm"]),
        "Linear-LUT (all ops)": BackendSpec.linear_lut(),
        "I-BERT": BackendSpec.ibert(),
    }
    print(f"Model: {model.config.name}, {model.num_parameters():,} parameters")
    print(f"{'backend':28s} " + " ".join(f"{task:>8s}" for task in benchmark.tasks))
    sessions = {
        name: InferenceSession.from_model(model, spec, registry)
        for name, spec in specs.items()
    }
    for name, session in sessions.items():
        scores = benchmark.score_all(session)
        print(f"{name:28s} " + " ".join(f"{scores[task]:8.1f}" for task in benchmark.tasks))

    # The same sessions serve any traffic: a ragged mix of request lengths,
    # dynamically micro-batched.
    session = sessions["NN-LUT (all ops)"]
    rng = np.random.default_rng(0)
    requests = [
        rng.integers(0, model.config.vocab_size, size=length)
        for length in (12, 31, 12, 24, 7, 31, 31, 12)
    ]
    pooled = session.pooled(requests)
    print(
        f"\nInferenceSession served {len(requests)} ragged requests "
        f"(lengths {sorted({r.size for r in requests})}) -> pooled {pooled.shape}"
    )


if __name__ == "__main__":
    main()
