"""One resident copy per served weight.

A prepared ``Linear`` whose operand is not its float64 master drops the
master and re-derives it from its recorded draw when read.  These tests pin
what that must not change: the re-derived bytes, which layers keep their
masters, the in-place-edit discipline, the weight-state round trip, the
build's memory peak and the skeleton's prepare-free path.
"""

import tracemalloc

import numpy as np
import pytest

from repro.api import attach_weight_state, export_weight_state
from repro.core.kernels import native_available, resolve_kernel
from repro.transformer import Linear, TransformerConfig, tiny_test_config
from repro.transformer.models import EncoderModel

PRECISIONS = ("fp32", "fp16", "int8")
COMPUTE_DTYPES = ("float32", "float64")
KERNELS = (
    "numpy",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(), reason="compiled native kernel unavailable"
        ),
    ),
)


def serves_master(precision: str, compute_dtype: str) -> bool:
    """Whether the prepared operand *is* the float64 master."""
    return precision == "fp32" and compute_dtype == "float64"


def twin(seed: int = 7) -> EncoderModel:
    """The float64 fp32 engine: every operand is its master, none dropped."""
    return EncoderModel.initialize(tiny_test_config(), seed=seed)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("compute_dtype", COMPUTE_DTYPES)
@pytest.mark.parametrize("precision", PRECISIONS)
class TestReleasedMasters:
    def build(self, precision, compute_dtype, kernel, seed=7):
        config = tiny_test_config(
            matmul_precision=precision, compute_dtype=compute_dtype, kernel=kernel
        )
        return EncoderModel.initialize(config, seed=seed)

    def test_rederived_masters_equal_the_float64_twin_bitwise(
        self, precision, compute_dtype, kernel
    ):
        model = self.build(precision, compute_dtype, kernel)
        reference = twin()
        for linear, expected in zip(model.iter_linears(), reference.iter_linears()):
            weight = linear.weight
            assert weight.dtype == np.float64
            assert weight.tobytes() == expected.weight.tobytes()

    def test_masters_stay_resident_only_where_the_operand_is_the_master(
        self, precision, compute_dtype, kernel
    ):
        model = self.build(precision, compute_dtype, kernel)
        keep = serves_master(precision, compute_dtype)
        for linear in model.iter_linears():
            assert (linear._weight is not None) == keep
            # Reading never changes what is served: the same prepared entry.
            entry = linear._prepared_operands()
            linear.weight
            assert linear._prepared_operands() is entry

    def test_shape_queries_never_rederive(self, precision, compute_dtype, kernel):
        model = self.build(precision, compute_dtype, kernel)
        linear = model.encoder.layers[0].ffn_in
        resident = linear._weight is not None
        config = model.config
        assert (linear.in_features, linear.out_features) == (
            config.hidden_size, config.intermediate_size
        )
        assert linear.num_parameters() == config.intermediate_size * (
            config.hidden_size + 1
        )
        assert f"{(config.hidden_size, config.intermediate_size)}" in repr(linear)
        assert linear == linear and linear != model.encoder.layers[0].ffn_out
        assert (linear._weight is not None) == resident

    def test_pinned_master_edited_in_place_is_served_after_invalidate(
        self, precision, compute_dtype, kernel
    ):
        model = self.build(precision, compute_dtype, kernel)
        linear = model.encoder.layers[1].attention.value
        x = np.random.default_rng(0).normal(size=(3, 5, linear.in_features))
        x = x.astype(compute_dtype)
        weight = linear.weight  # handing the master out pins it
        weight *= 2.0
        linear.invalidate()
        edited = Linear(
            weight=weight.copy(),
            bias=linear.bias,
            precision=precision,
            compute_dtype=compute_dtype,
            kernel=kernel,
        )
        assert np.array_equal(linear(x), edited(x))
        assert linear.weight is weight  # still pinned after the re-prepare

    def test_weight_state_round_trip_is_bitwise(self, precision, compute_dtype, kernel):
        model = self.build(precision, compute_dtype, kernel)
        tokens = np.random.default_rng(1).integers(0, 100, size=(2, 9))
        before = model.forward(tokens)
        state = export_weight_state(model)
        reference = export_weight_state(twin())
        assert state.keys() == reference.keys()
        for name, array in state.items():
            assert array.tobytes() == reference[name].tobytes(), name
        copy = EncoderModel.skeleton(model.config)
        attach_weight_state(copy, {name: array.copy() for name, array in state.items()})
        for name, array in export_weight_state(copy).items():
            assert array.tobytes() == state[name].tobytes(), name
        assert np.array_equal(copy.forward(tokens), before)
        # Attached arrays count as passed in: preparing never drops them.
        for linear in copy.iter_linears():
            linear.prepare()
            assert linear._weight is not None


def test_explicit_weights_are_never_dropped(rng):
    weight = rng.normal(size=(8, 4))
    linear = Linear(weight=weight, bias=np.zeros(4), precision="int8")
    linear.prepare()
    assert linear._weight is weight
    drawn = Linear.initialize(8, 4, rng, precision="int8")
    drawn.prepare()
    assert drawn._weight is None
    drawn.weight = weight  # rebinding replaces the draw with the array
    drawn.prepare()
    assert drawn._weight is weight


def test_rebinding_renews_the_prepared_entry(rng):
    linear = Linear.initialize(8, 4, rng, precision="int8")
    x = rng.normal(size=(2, 8))
    before = linear(x)
    linear.weight = linear.weight * 0.5
    assert not np.array_equal(linear(x), before)
    assert np.array_equal(
        linear(x), Linear(weight=linear.weight, bias=linear.bias, precision="int8")(x)
    )


def test_float32_build_peak_is_operands_plus_one_layer_of_masters():
    config = TransformerConfig(
        hidden_size=128,
        num_layers=4,
        num_heads=4,
        intermediate_size=512,
        max_sequence_length=64,
        vocab_size=500,
        compute_dtype="float32",
        name="release-peak",
    )
    hidden, inter = config.hidden_size, config.intermediate_size
    layer_weights = 4 * hidden * hidden + 2 * hidden * inter
    all_weights = config.num_layers * layer_weights + hidden * hidden
    embeddings = (config.vocab_size + config.max_sequence_length) * hidden
    # Biases and norm parameters, float64 masters and float32 casts.
    vectors = config.num_layers * (4 * hidden + inter + hidden + 4 * hidden) + 3 * hidden
    bound = 4 * all_weights + 8 * layer_weights + 8 * embeddings + 12 * vectors + 64 * 1024
    tracemalloc.start()
    try:
        model = EncoderModel.initialize(config, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)
    # The bound has teeth: every master and embedding at once would not fit.
    assert 8 * (all_weights + embeddings) > bound
    assert all(linear._weight is None for linear in model.iter_linears())


@pytest.mark.parametrize("kernel", KERNELS)
def test_skeleton_runs_no_quantize_pack(kernel, monkeypatch):
    calls = []
    kernel_obj = resolve_kernel(kernel)  # one instance per kernel name
    original = kernel_obj.quantize_pack

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(kernel_obj, "quantize_pack", counting)
    config = tiny_test_config(matmul_precision="int8", kernel=kernel)
    skeleton = EncoderModel.skeleton(config)
    assert calls == []
    assert all(linear._weight is not None for linear in skeleton.iter_linears())
    model = EncoderModel.initialize(config)
    assert len(calls) == len(list(model.iter_linears()))
