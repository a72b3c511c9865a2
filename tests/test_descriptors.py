import json

import pytest

import qgraded.descriptors as descriptors
from qgraded.algebras import build_truncated_poly, build_twisted_group_algebra
from qgraded.commutation import standard_factor
from qgraded.descriptors import (Descriptor, descriptor_from_dict,
                                 descriptor_to_dict, dump_descriptor,
                                 group_from_dict, group_to_dict,
                                 load_descriptor)
from qgraded.errors import DescriptorError
from qgraded.groups import GradingGroup
from qgraded.scalars import parse_scalar


def sample_descriptor():
    G = GradingGroup(0, (2, 2))
    b = standard_factor(G, [[0, 1], [1, 0]], [[0, 0], [0, 0]],
                        parse_scalar("1"))
    return Descriptor(G, b, build_twisted_group_algebra(G, b))


def test_group_round_trip():
    for g in (GradingGroup(0, (2, 4)), GradingGroup(0, ())):
        assert group_from_dict(group_to_dict(g)) == g


def test_full_round_trip_preserves_everything():
    desc = sample_descriptor()
    again = descriptor_from_dict(descriptor_to_dict(desc))
    assert again.group == desc.group
    assert again.factor.sigma == desc.factor.sigma
    assert again.factor.omega == desc.factor.omega
    assert again.factor.q == desc.factor.q
    a, b = desc.algebra, again.algebra
    assert [lbl for lbl, _ in a.basis] == [lbl for lbl, _ in b.basis]
    assert a.products.keys() == b.products.keys()
    for key in a.products:
        assert a.products[key] == b.products[key]
    assert a.unit == b.unit


def test_dump_is_canonical_bytes():
    desc = sample_descriptor()
    text1 = dump_descriptor(desc)
    text2 = dump_descriptor(descriptor_from_dict(json.loads(text1)))
    assert text1 == text2
    assert text1.endswith("\n")


def test_save_and_load(tmp_path):
    path = tmp_path / "sample.json"
    path.write_text(dump_descriptor(sample_descriptor()), encoding="utf-8")
    desc = load_descriptor(str(path))
    assert desc.algebra.dim == 4


def test_algebra_without_factor():
    desc = Descriptor(GradingGroup(0, (3,)), None, build_truncated_poly(3))
    again = descriptor_from_dict(descriptor_to_dict(desc))
    assert again.factor is None
    assert again.algebra.dim == 3


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.pop("group"), "missing 'group'"),
    (lambda d: d.update(extra=1), "unknown keys"),
    (lambda d: d["group"].update(free_rank=-1), "free_rank"),
    (lambda d: d["group"].update(free_rank=1),
     "^free_rank must be 0: grading groups are finite$"),
    # a JSON false, string or float equals 0 in Python but is no integer
    (lambda d: d["group"].update(free_rank=False),
     "^free_rank must be 0: grading groups are finite$"),
    (lambda d: d["group"].update(free_rank="0"),
     "^free_rank must be 0: grading groups are finite$"),
    (lambda d: d["group"].update(free_rank=0.0),
     "^free_rank must be 0: grading groups are finite$"),
    (lambda d: d["factor"].update(q="zeta(0)"), "zeta order"),
    (lambda d: d["factor"].update(sigma=[[0, 1], [0, 0]]), "symmetric"),
    (lambda d: d["algebra"]["basis"][0].update(grade=[1]), "coordinates"),
    (lambda d: d["algebra"]["products"][0].update(left=99), "out of range"),
    (lambda d: d["algebra"].update(unit={"0": "1/0"}), "denominator"),
])
def test_malformed_descriptors_are_rejected(mutate, message):
    data = descriptor_to_dict(sample_descriptor())
    data = json.loads(json.dumps(data))
    mutate(data)
    with pytest.raises(DescriptorError, match=message):
        descriptor_from_dict(data)


def test_duplicate_product_pair_rejected():
    data = descriptor_to_dict(sample_descriptor())
    data["algebra"]["products"].append(dict(data["algebra"]["products"][0]))
    with pytest.raises(DescriptorError, match="duplicate pair"):
        descriptor_from_dict(data)


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DescriptorError, match="invalid JSON"):
        load_descriptor(str(path))


def test_structurally_invalid_algebra_rejected_when_validating():
    data = descriptor_to_dict(sample_descriptor())
    # break homogeneity: u(0,1)*u(0,1) now lands in grade (0,1)
    data["algebra"]["products"][5]["result"] = [{"basis": 1, "coeff": "1"}]
    entry = data["algebra"]["products"][5]
    assert (entry["left"], entry["right"]) == (1, 1)
    with pytest.raises(DescriptorError, match="homogeneity"):
        descriptor_from_dict(data)
    # but loading without validation defers the verdict to the checker
    desc = descriptor_from_dict(data, validate_algebra=False)
    report = desc.algebra.validation_report()
    assert not report.passed


def test_each_distinct_coefficient_text_is_parsed_once(monkeypatch):
    data = descriptor_to_dict(sample_descriptor())
    texts = list(data["algebra"]["unit"].values()) + [
        term["coeff"] for entry in data["algebra"]["products"]
        for term in entry["result"]]
    assert len(texts) > len(set(texts))  # the sample repeats its coefficients
    calls = []

    def counting(text):
        calls.append(text)
        return parse_scalar(text)

    monkeypatch.setattr(descriptors, "parse_scalar", counting)
    again = descriptor_from_dict(data)
    # the factor's q first, then each distinct algebra text at its first field
    assert calls == [data["factor"]["q"]] + list(dict.fromkeys(texts))
    assert again.algebra.products == sample_descriptor().algebra.products


def test_a_repeated_invalid_coefficient_names_its_first_field():
    data = descriptor_to_dict(sample_descriptor())
    products = data["algebra"]["products"]
    for pos in (2, 5):
        products[pos]["result"][0]["coeff"] = "1/0"
    with pytest.raises(DescriptorError,
                       match=r"^algebra\.products\[2\]\.result\[0\]\.coeff: .*denominator"):
        descriptor_from_dict(data)
