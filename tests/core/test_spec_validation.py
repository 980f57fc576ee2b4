"""Adversarial-input coverage for ``spec_from_dict``.

A repro document is hand-editable JSON; the fuzzer mutates them on
purpose.  Whatever arrives, rebuilding a spec must either succeed or
raise :class:`SpecValidationError` *naming the offending key* — never a
bare ``KeyError``/``TypeError``/``AttributeError`` from the dataclass
machinery.
"""

import json

import pytest

from repro.core.fuzz import SpecGenerator
from repro.core.persistence import (
    SpecValidationError,
    spec_from_dict,
    spec_to_dict,
)


@pytest.fixture()
def base():
    return spec_to_dict(SpecGenerator(3).draw(0))


def _rejects(document, key):
    with pytest.raises(SpecValidationError) as caught:
        spec_from_dict(document)
    assert caught.value.key == key
    assert repr(key) in str(caught.value)
    return caught.value


def test_round_trip_is_exact(base):
    spec = spec_from_dict(base)
    assert spec_to_dict(spec) == base


def test_non_dict_documents_are_rejected():
    for document in (None, 7, "spec", ["deployment"], True):
        with pytest.raises(SpecValidationError):
            spec_from_dict(document)


def test_unknown_key_is_named(base):
    base["deploymnet"] = "AWS-Lambda"   # the classic typo
    _rejects(base, "deploymnet")


def test_wrong_typed_scalar_is_named(base):
    base["iterations"] = "three"
    _rejects(base, "iterations")


def test_bool_is_not_an_int(base):
    base["warmup"] = True
    _rejects(base, "warmup")


def test_bad_audit_value_is_named(base):
    base["audit"] = "yes"
    _rejects(base, "audit")


def test_truncated_fault_plan_entry_is_named(base):
    base["fault_plan"] = [["crash_probability"]]   # lost its value
    _rejects(base, "fault_plan")


def test_non_list_fault_plan_is_named(base):
    base["fault_plan"] = {"crash_probability": 0.1}
    _rejects(base, "fault_plan")


def test_unknown_fault_field_is_reported(base):
    base["fault_plan"] = [["crash_probabilty", 0.1]]
    error = pytest.raises(SpecValidationError,
                          spec_from_dict, base).value
    assert "crash_probabilty" in str(error) or \
           error.key == "fault_plan"


@pytest.mark.parametrize("field, name", [
    ("mitigation", "max_hedges"),
    ("fault_plan", "retry_max_attempts"),
])
def test_nan_in_an_integer_pair_is_rejected(base, field, name):
    """Pair values are not type-checked, so a document's NaN reaches the
    constructor's range check even for an integer field."""
    base[field] = [[name, float("nan")]]
    with pytest.raises(SpecValidationError, match=name):
        spec_from_dict(json.loads(json.dumps(base)))


def test_unknown_deployment_is_a_validation_error(base):
    base["deployment"] = "IBM-Cloud"
    error = pytest.raises(SpecValidationError,
                          spec_from_dict, base).value
    assert "deployment" in str(error)


MUTATIONS = [
    lambda doc: doc.update(unexpected_key=1) or "unexpected_key",
    lambda doc: doc.update(iterations=None) or "iterations",
    lambda doc: doc.update(think_time_s="fast") or "think_time_s",
    lambda doc: doc.update(audit=3) or "audit",
    lambda doc: doc.update(fault_plan=[["straggler_factor"]])
    or "fault_plan",
    lambda doc: doc.update(mitigation=[["hedge_after_s", 1.0, 2.0]])
    or "mitigation",
    lambda doc: doc.update(calibration_overrides="aws.keep_alive_s=60")
    or "calibration_overrides",
    lambda doc: doc.update(invoke_kwargs=[[1, 2]]) or "invoke_kwargs",
]


@pytest.mark.parametrize("index", range(6))
@pytest.mark.parametrize("mutate", MUTATIONS)
def test_mutated_generator_documents_fail_typed(index, mutate):
    """Property check: fuzzer-drawn specs, serialized then mutated,
    always fail with a typed error naming the key."""
    document = spec_to_dict(SpecGenerator(11).draw(index))
    key = mutate(document)
    with pytest.raises(SpecValidationError) as caught:
        spec_from_dict(json.loads(json.dumps(document, default=repr)))
    assert caught.value.key == key


@pytest.mark.parametrize("index", range(6))
def test_unmutated_generator_documents_rebuild(index):
    spec = SpecGenerator(11).draw(index)
    document = json.loads(json.dumps(spec_to_dict(spec), default=repr))
    assert spec_from_dict(document) == spec
