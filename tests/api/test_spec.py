"""BackendSpec serialization, validation and the spec -> backend factory."""

import json

import numpy as np
import pytest

from repro.api import BackendSpec, OperatorSpec, build_backend


class TestOperatorSpecValidation:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            OperatorSpec(method="polynomial")

    def test_rejects_unknown_precision(self):
        with pytest.raises(ValueError, match="precision"):
            OperatorSpec(precision="int4")

    def test_rejects_tiny_tables(self):
        with pytest.raises(ValueError, match="num_entries"):
            OperatorSpec(num_entries=1)

    def test_rejects_calibration_on_non_nn_lut(self):
        with pytest.raises(ValueError, match="calibration"):
            OperatorSpec(method="linear_lut", calibration=True)


SPECS = {
    "exact": BackendSpec.exact(),
    "nn_lut_fp32": BackendSpec.nn_lut(),
    "nn_lut_fp16": BackendSpec.nn_lut(precision="fp16"),
    "nn_lut_int32_cal": BackendSpec.nn_lut(precision="int32").with_calibration("layernorm"),
    "nn_lut_partial": BackendSpec.nn_lut(replace=("layernorm",), input_scaling=False),
    "linear_lut_8": BackendSpec.linear_lut(num_entries=8),
    "ibert": BackendSpec.ibert(replace=("gelu", "softmax")),
    "named": BackendSpec.nn_lut(name="prod-serving-v1"),
    "mixed": BackendSpec(
        gelu=OperatorSpec(method="nn_lut"),
        softmax=OperatorSpec(method="ibert"),
        layernorm=OperatorSpec(),
    ),
}


class TestSerialization:
    @pytest.mark.parametrize("key", sorted(SPECS))
    def test_round_trip_equality(self, key):
        spec = SPECS[key]
        payload = spec.to_dict()
        assert BackendSpec.from_dict(payload) == spec

    @pytest.mark.parametrize("key", sorted(SPECS))
    def test_payload_is_json_compatible(self, key):
        spec = SPECS[key]
        assert BackendSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_rejects_partial_operators_section(self):
        # A stripped payload must not silently downgrade the missing
        # operators to the exact baseline.
        with pytest.raises(ValueError, match="missing"):
            BackendSpec.from_dict({"operators": {"gelu": {"method": "nn_lut"}}})
        with pytest.raises(ValueError, match="missing"):
            BackendSpec.from_dict({"operators": {}})

    def test_rejects_unknown_operator(self):
        with pytest.raises(ValueError, match="attention"):
            BackendSpec.from_dict({"operators": {"attention": {"method": "nn_lut"}}})

    def test_rejects_unknown_operator_field(self):
        with pytest.raises(ValueError, match="bitwidth"):
            BackendSpec.from_dict({"operators": {"gelu": {"bitwidth": 8}}})

    def test_rejects_non_mapping_operator_payload(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            BackendSpec.from_dict({"operators": {"gelu": "nn_lut"}})

    def test_rejects_unknown_top_level_field(self):
        with pytest.raises(ValueError, match="model"):
            BackendSpec.from_dict({"model": "roberta"})

    def test_rejects_unknown_precision(self):
        with pytest.raises(ValueError, match="precision"):
            BackendSpec.from_dict({"operators": {"gelu": {"precision": "int4"}}})

    def test_rejects_future_version(self):
        with pytest.raises(ValueError, match="version"):
            BackendSpec.from_dict({"version": 99})

    def test_rejects_mistyped_field_values(self):
        # Strings from YAML/env config sources must not be coerced — "false"
        # would otherwise become calibration=True.
        with pytest.raises(ValueError, match="calibration"):
            BackendSpec.from_dict({"operators": {"gelu": {"calibration": "false"}}})
        with pytest.raises(ValueError, match="num_entries"):
            BackendSpec.from_dict({"operators": {"gelu": {"num_entries": 16.5}}})
        mangled = BackendSpec.exact().to_dict()
        mangled["input_scaling"] = "yes"
        with pytest.raises(ValueError, match="input_scaling"):
            BackendSpec.from_dict(mangled)

    def test_rejects_payload_without_operators_section(self):
        # A truncated config must not silently deserialise as the baseline.
        with pytest.raises(ValueError, match="operators"):
            BackendSpec.from_dict({"version": 1, "input_scaling": True})

    def test_constructor_rejects_unknown_replace(self):
        with pytest.raises(ValueError, match="attention"):
            BackendSpec.nn_lut(replace=("gelu", "attention"))


class TestIntrospection:
    def test_replaced_and_calibrated(self):
        spec = BackendSpec.nn_lut(replace=("gelu", "layernorm")).with_calibration("layernorm")
        assert spec.replaced() == ("gelu", "layernorm")
        assert spec.calibrated() == ("layernorm",)

    def test_with_calibration_defaults_to_replaced(self):
        spec = BackendSpec.nn_lut(replace=("layernorm",)).with_calibration()
        assert spec.calibrated() == ("layernorm",)

    def test_with_calibration_rejects_specs_with_nothing_to_flag(self):
        with pytest.raises(ValueError, match="nothing to flag"):
            BackendSpec.exact().with_calibration()

    def test_specs_are_hashable(self):
        assert len({BackendSpec.exact(), BackendSpec.exact(), BackendSpec.nn_lut()}) == 2


class TestFromMethod:
    def test_dispatches_to_each_constructor(self):
        assert BackendSpec.from_method("exact") == BackendSpec.exact()
        assert BackendSpec.from_method("nn_lut", precision="fp16") == BackendSpec.nn_lut(
            precision="fp16"
        )
        assert BackendSpec.from_method("ibert", replace=("gelu",)) == BackendSpec.ibert(
            replace=("gelu",)
        )

    def test_rejects_arguments_the_method_does_not_take(self):
        # Silently dropping these would let a sweep fabricate distinct-looking
        # rows that are actually the same backend.
        with pytest.raises(ValueError, match="does not accept"):
            BackendSpec.from_method("ibert", precision="fp16")
        with pytest.raises(ValueError, match="does not accept"):
            BackendSpec.from_method("exact", replace=("gelu",))

    def test_validation_errors_from_accepted_arguments_propagate(self):
        # A bad *value* for a valid kwarg must surface as itself, not be
        # misreported as an unknown-argument error.
        with pytest.raises(TypeError):
            BackendSpec.from_method("nn_lut", num_entries="16")
        with pytest.raises(ValueError, match="precision"):
            BackendSpec.from_method("nn_lut", precision="int4")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            BackendSpec.from_method("polynomial")


def _op_inputs(rng):
    return (
        rng.normal(size=(3, 17)),
        rng.normal(size=(2, 4, 9)),
        rng.normal(size=(3, 16)),
    )


class TestBuildBackend:
    def test_mixed_methods(self, fast_registry, rng):
        backend = build_backend(SPECS["mixed"], registry=fast_registry)
        assert backend.name == "mixed"
        x_gelu, x_softmax, x_layernorm = _op_inputs(rng)
        assert backend.apply_gelu(x_gelu).shape == x_gelu.shape
        probabilities = backend.apply_softmax(x_softmax)
        assert np.allclose(np.sum(probabilities, axis=-1), 1.0, atol=0.05)
        assert backend.apply_layernorm(x_layernorm).shape == x_layernorm.shape

    def test_spec_embedded_in_metadata(self, fast_registry):
        spec = BackendSpec.nn_lut(precision="int32")
        backend = build_backend(spec, registry=fast_registry)
        assert BackendSpec.from_dict(backend.metadata["spec"]) == spec
        assert backend.metadata["replaced"] == ("gelu", "softmax", "layernorm")

    def test_empty_registry_passed_in_is_the_one_populated(self):
        # Regression: an empty LutRegistry was once falsy, so
        # ``registry or default_registry()`` swapped the caller's fresh
        # registry for the process-wide one.
        from repro.core.registry import LutRegistry

        fresh = LutRegistry()
        backend = build_backend(BackendSpec.nn_lut(replace=("gelu",)), registry=fresh)
        assert backend.gelu.gelu_approx is fresh.lut("gelu")

    def test_explicit_name_wins(self, fast_registry):
        backend = build_backend(SPECS["named"], registry=fast_registry)
        assert backend.name == "prod-serving-v1"

    def test_rejects_unknown_override_primitive(self, fast_registry):
        with pytest.raises(ValueError, match="tanh"):
            build_backend(
                BackendSpec.nn_lut(),
                registry=fast_registry,
                lut_overrides={"tanh": fast_registry.lut("gelu")},
            )

    def test_rejects_non_spec(self):
        with pytest.raises(TypeError, match="BackendSpec"):
            build_backend({"method": "exact"})


