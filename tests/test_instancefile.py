"""Instance JSON schema, canonical files, and seeded generators."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from gapcircuits.builders import (
    InstanceError,
    NwtInstance,
    OVInstance,
    ThreeSumInstance,
)
from gapcircuits.instancefile import (
    BUDGETS,
    SCHEMA,
    generate_nwt,
    generate_ov,
    generate_threesum,
    instance_from_dict,
    instance_from_text,
    instance_to_dict,
    instance_to_text,
    read_instance,
    stable_seed,
    write_instance,
)
from gapcircuits.ir import BitString

EXAMPLES = [
    OVInstance(u=(BitString((1, 0)), BitString((0, 1))),
               v=(BitString((0, 0)), BitString((1, 1)))),
    ThreeSumInstance(values=(-2, 0, 1), bound=4),
    NwtInstance(n=3, weight_bound=2, edges=((1, 2, -2), (2, 3, 1))),
]


@pytest.mark.parametrize("instance", EXAMPLES)
def test_dict_round_trip(instance):
    assert instance_from_dict(instance_to_dict(instance)) == instance
    assert instance_to_dict(instance)["problem"] == instance.PROBLEM


@pytest.mark.parametrize("instance", EXAMPLES)
def test_text_round_trip_is_canonical(instance):
    text = instance_to_text(instance, seed=3)
    assert instance_from_text(text) == instance
    assert instance_to_text(instance_from_text(text), seed=3) == text
    payload = json.loads(text)
    assert payload["schema"] == SCHEMA
    assert payload["seed"] == 3


def test_file_round_trip(tmp_path):
    path = tmp_path / "inst.json"
    write_instance(path, EXAMPLES[0], seed=1)
    first = path.read_bytes()
    assert read_instance(path) == EXAMPLES[0]
    write_instance(path, EXAMPLES[0], seed=1)
    assert path.read_bytes() == first  # rewriting is byte-identical


@pytest.mark.parametrize("mangle,complaint", [
    (lambda p: p.pop("schema"), "schema"),
    (lambda p: p.update(schema="gap-instance-v0"), "schema"),
    (lambda p: p.update(problem="sat"), "problem"),
    (lambda p: p.update(u=[[0, 2]]), "0/1 bits"),
    (lambda p: p.pop("v"), "missing"),
])
def test_schema_violations(mangle, complaint):
    payload = instance_to_dict(EXAMPLES[0])
    mangle(payload)
    with pytest.raises(InstanceError) as err:
        instance_from_dict(payload)
    assert complaint in str(err.value)


def test_wrong_types_rejected():
    payload = instance_to_dict(EXAMPLES[1])
    payload["values"] = [1, True, 3]  # bools are not value integers
    with pytest.raises(InstanceError):
        instance_from_dict(payload)
    payload = instance_to_dict(EXAMPLES[2])
    payload["edges"] = [[1, 2]]
    with pytest.raises(InstanceError):
        instance_from_dict(payload)
    payload = instance_to_dict(EXAMPLES[0])
    payload["u"] = [[True, 0], [0, 1]]  # bools are not bits: the file would not be canonical
    with pytest.raises(InstanceError):
        instance_from_dict(payload)
    with pytest.raises(InstanceError):
        instance_from_text("[1, 2]")
    with pytest.raises(InstanceError):
        instance_from_text("not json")


def test_generators_are_deterministic():
    assert generate_ov(5, 3, seed=11) == generate_ov(5, 3, seed=11)
    assert generate_threesum(4, 8, seed=11) == generate_threesum(4, 8, seed=11)
    assert generate_nwt(5, 2, seed=11) == generate_nwt(5, 2, seed=11)
    assert generate_ov(5, 3, seed=11) != generate_ov(5, 3, seed=12)


def test_generator_budgets():
    with pytest.raises(InstanceError):
        generate_ov(BUDGETS["ov"]["n"] + 1, 1, seed=0)
    with pytest.raises(InstanceError):
        generate_ov(1, BUDGETS["ov"]["d"] + 1, seed=0)
    with pytest.raises(InstanceError):
        generate_threesum(1, BUDGETS["3sum"]["bound"] * 2, seed=0)
    with pytest.raises(InstanceError):
        generate_nwt(BUDGETS["nwt"]["n"] + 1, 1, seed=0)
    with pytest.raises(InstanceError):
        generate_ov(0, 1, seed=0)


def test_threesum_pigeonhole():
    # only 2*bound+1 distinct values exist
    with pytest.raises(InstanceError):
        generate_threesum(4, 1, seed=0)
    inst = generate_threesum(3, 1, seed=0)
    assert sorted(inst.values) == [-1, 0, 1]


def test_generated_instances_are_valid():
    for seed in range(20):
        generate_ov(8, 4, seed=seed)
        generate_threesum(6, 4, seed=seed)
        inst = generate_nwt(6, 3, seed=seed)
        assert all(1 <= i < j <= 6 for i, j, _ in inst.edges)


def test_stable_seed():
    assert stable_seed("a", 1) == stable_seed("a", 1)
    assert stable_seed("a", 1) != stable_seed("a", 2)
    assert 0 <= stable_seed("x") < 1 << 63


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**32))
def test_ov_serialization_round_trip_property(n, d, seed):
    inst = generate_ov(n, d, seed=seed)
    assert instance_from_text(instance_to_text(inst)) == inst
