"""Every payload class that crosses the worker boundary round-trips exactly.

``SessionConfig``, ``BackendSpec``, ``OperatorSpec`` and ``LookupTable``
travel as ``to_dict()`` payloads and are rebuilt with ``from_dict()`` on
the other side.  One property per class, at runtime:

* **field coverage** — an instance with *every* dataclass field off its
  default survives ``to_dict`` -> JSON -> ``from_dict`` unchanged, so no
  field silently resets across the boundary;
* **key symmetry** — ``from_dict`` accepts exactly what ``to_dict`` writes
  (an unknown key would raise, a dropped one would fail the equality);
* **default consistency** — a payload missing an optional key rebuilds
  what the constructor builds with that field at its dataclass default.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.api import BackendSpec, OperatorSpec, SessionConfig
from repro.core.lut import LookupTable

#: class -> (an instance with every field off its default, payload keys
#: ``from_dict`` requires).
CASES = {
    "SessionConfig": (
        SessionConfig(
            model_family="tiny",
            model_size="full",
            seed=7,
            compute_dtype="float64",
            matmul_precision="int8",
            kernel="native",
            max_batch_size=8,
            bucket_size=4,
            model_overrides={"num_layers": 1},
        ),
        (),
    ),
    "BackendSpec": (
        BackendSpec(
            gelu=OperatorSpec(method="nn_lut", precision="fp16", num_entries=8),
            softmax=OperatorSpec(method="ibert", precision="int32", num_entries=32),
            layernorm=OperatorSpec(method="nn_lut", num_entries=4, calibration=True),
            input_scaling=False,
            name="every-field-set",
        ),
        ("operators",),
    ),
    "OperatorSpec": (
        OperatorSpec(method="nn_lut", precision="int32", num_entries=8, calibration=True),
        (),
    ),
    "LookupTable": (
        LookupTable(
            breakpoints=[-1.0, 0.5],
            slopes=[0.25, 1.0, -2.0],
            intercepts=[0.0, 0.125, 3.0],
            name="gelu",
            metadata={"calibrated": True, "num_calibration_samples": 12},
        ),
        ("breakpoints", "slopes", "intercepts"),
    ),
}


def _default(fld):
    if fld.default is not dataclasses.MISSING:
        return fld.default
    if fld.default_factory is not dataclasses.MISSING:
        return fld.default_factory()
    return dataclasses.MISSING


def _canonical(cls, name, value):
    # A default the way the class stores it (SessionConfig keeps its
    # overrides as sorted tuples).
    if cls is SessionConfig and name == "model_overrides":
        return SessionConfig(model_overrides=value).model_overrides
    return value


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _json_round_trip(payload):
    return json.loads(json.dumps(payload))


@pytest.mark.parametrize("name", sorted(CASES))
def test_payload_round_trip_covers_every_field(name):
    original, required = CASES[name]
    cls = type(original)
    fields = dataclasses.fields(cls)

    # The instance really sets every field that has a default.
    for fld in fields:
        default = _default(fld)
        if default is not dataclasses.MISSING:
            assert not _same(
                getattr(original, fld.name), _canonical(cls, fld.name, default)
            ), f"{name}.{fld.name} is at its default"

    payload = _json_round_trip(original.to_dict())
    rebuilt = cls.from_dict(payload)
    for fld in fields:
        assert _same(getattr(rebuilt, fld.name), getattr(original, fld.name)), (
            f"{name}.{fld.name} did not survive to_dict -> from_dict"
        )

    defaults = {fld.name: _default(fld) for fld in fields}
    for key in payload:
        partial = {k: v for k, v in payload.items() if k != key}
        if key in required:
            with pytest.raises((KeyError, ValueError)):
                cls.from_dict(partial)
            continue
        try:
            expected = (
                dataclasses.replace(original, **{key: defaults[key]})
                if key in defaults
                else original
            )
        except ValueError:
            # The default is invalid beside the other fields (OperatorSpec's
            # calibration needs method "nn_lut"): from_dict must refuse too.
            with pytest.raises(ValueError):
                cls.from_dict(partial)
            continue
        rebuilt = cls.from_dict(partial)
        for fld in fields:
            assert _same(getattr(rebuilt, fld.name), getattr(expected, fld.name)), (
                f"{name}.from_dict without {key!r}: {fld.name} is "
                f"{getattr(rebuilt, fld.name)!r}, expected "
                f"{getattr(expected, fld.name)!r}"
            )


def test_dropping_a_field_from_to_dict_fails_the_round_trip(monkeypatch):
    # The mutation the property exists for: a to_dict() that stops writing
    # one field ("seed", here) must turn it red.
    to_dict = SessionConfig.to_dict

    def to_dict_without_seed(self):
        payload = to_dict(self)
        del payload["seed"]
        return payload

    monkeypatch.setattr(SessionConfig, "to_dict", to_dict_without_seed)
    with pytest.raises(AssertionError, match="SessionConfig.seed did not survive"):
        test_payload_round_trip_covers_every_field("SessionConfig")
