"""JSON descriptors for groups, commutation factors and graded algebras.

One descriptor file bundles a group, optionally a factor over it, and
optionally an algebra graded by it:

    {"group":   {"free_rank": 0, "torsion": [n1, ...]},
     "factor":  {"sigma": [[...]], "omega": [[...]], "q": "<scalar>"},
     "algebra": {"basis": [{"label": "x", "grade": [1, 0]}, ...],
                 "unit": {"0": "1"},
                 "products": [{"left": i, "right": j,
                               "result": [{"basis": k, "coeff": "<scalar>"}]}]}}

Scalars use the canonical text grammar.  `dump_descriptor` emits a
canonical byte form (sorted keys, two-space indent, trailing newline), so
identical inputs serialize identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebras import GradedAlgebra
from .commutation import CommutationFactor
from .errors import CapExceededError, DescriptorError, ScalarParseError
from .groups import GradingGroup
from .linalg import Vec
from .scalars import Scalar, format_scalar, parse_scalar

# the command line's default group-order cap, so that a twisted group
# algebra at that cap stays admissible
MAX_ALGEBRA_DIM = 256


@dataclass
class Descriptor:
    group: GradingGroup
    factor: CommutationFactor | None = None
    algebra: GradedAlgebra | None = None


def _require(condition: bool, message: str):
    if not condition:
        raise DescriptorError(message)


def _is_int(x) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_scalar_field(text, where: str) -> Scalar:
    _require(isinstance(text, str), f"{where}: scalar must be a string")
    try:
        return parse_scalar(text)
    except ScalarParseError as exc:
        raise DescriptorError(f"{where}: {exc}") from exc
    except CapExceededError as exc:
        raise CapExceededError(f"{where}: {exc}") from exc


def group_from_dict(d: dict) -> GradingGroup:
    _require(isinstance(d, dict), "group descriptor must be an object")
    unknown = set(d) - {"free_rank", "torsion"}
    _require(not unknown, f"group descriptor has unknown keys {sorted(unknown)}")
    free_rank = d.get("free_rank", 0)
    torsion = d.get("torsion", [])
    _require(_is_int(free_rank) and free_rank == 0,
             "free_rank must be 0: grading groups are finite")
    _require(isinstance(torsion, list) and all(_is_int(n) for n in torsion),
             "torsion must be a list of integers")
    try:
        return GradingGroup(free_rank, tuple(torsion))
    except ValueError as exc:
        raise DescriptorError(f"group descriptor: {exc}") from exc


def group_to_dict(group: GradingGroup) -> dict:
    return {"free_rank": group.free_rank, "torsion": list(group.torsion)}


def factor_from_dict(group: GradingGroup, d: dict) -> CommutationFactor:
    _require(isinstance(d, dict), "factor descriptor must be an object")
    unknown = set(d) - {"sigma", "omega", "q"}
    _require(not unknown, f"factor descriptor has unknown keys {sorted(unknown)}")
    for key in ("sigma", "omega", "q"):
        _require(key in d, f"factor descriptor is missing {key!r}")
    q = _parse_scalar_field(d["q"], "factor.q")
    for key in ("sigma", "omega"):
        m = d[key]
        _require(isinstance(m, list) and all(
            isinstance(row, list) and all(_is_int(x) for x in row)
            for row in m), f"factor.{key} must be a matrix of integers")
    try:
        return CommutationFactor(group, d["sigma"], d["omega"], q)
    except ValueError as exc:
        raise DescriptorError(f"factor descriptor: {exc}") from exc


def factor_to_dict(b: CommutationFactor) -> dict:
    return {"sigma": [list(r) for r in b.sigma],
            "omega": [list(r) for r in b.omega],
            "q": format_scalar(b.q)}


def algebra_from_dict(group: GradingGroup, d: dict,
                      validate: bool = True) -> GradedAlgebra:
    _require(isinstance(d, dict), "algebra descriptor must be an object")
    unknown = set(d) - {"basis", "unit", "products", "name"}
    _require(not unknown, f"algebra descriptor has unknown keys {sorted(unknown)}")
    for key in ("basis", "unit", "products"):
        _require(key in d, f"algebra descriptor is missing {key!r}")

    basis = []
    _require(isinstance(d["basis"], list) and d["basis"],
             "algebra.basis must be a nonempty list")
    # refused before any entry is parsed: the products can be dim^2 long
    if len(d["basis"]) > MAX_ALGEBRA_DIM:
        raise CapExceededError(f"algebra dimension {len(d['basis'])} "
                               f"exceeds the cap {MAX_ALGEBRA_DIM}")
    for pos, entry in enumerate(d["basis"]):
        _require(isinstance(entry, dict) and set(entry) == {"label", "grade"},
                 f"algebra.basis[{pos}] must have exactly 'label' and 'grade'")
        _require(isinstance(entry["label"], str), f"algebra.basis[{pos}].label must be a string")
        grade = entry["grade"]
        _require(isinstance(grade, list) and all(_is_int(x) for x in grade),
                 f"algebra.basis[{pos}].grade must be a list of integers")
        try:
            basis.append((entry["label"], group.element(tuple(grade))))
        except ValueError as exc:
            raise DescriptorError(f"algebra.basis[{pos}]: {exc}") from exc
    dim = len(basis)

    def check_index(i, where) -> int:
        _require(_is_int(i) and 0 <= i < dim,
                 f"{where}: basis index {i!r} out of range 0..{dim - 1}")
        return i

    parsed: dict[str, Scalar] = {}

    def scalar(text, where: str) -> Scalar:
        # each distinct text is parsed once; a bad one raises at its first field
        if not (isinstance(text, str) and text in parsed):
            parsed[text] = _parse_scalar_field(text, where)
        return parsed[text]

    unit: Vec = {}
    _require(isinstance(d["unit"], dict), "algebra.unit must be an object")
    for key, text in d["unit"].items():
        try:
            idx = int(key)
        except ValueError:
            idx = None
        # one spelling per index: "00", "+0" or " 0" would alias key "0"
        _require(idx is not None and key == str(idx),
                 f"algebra.unit: key {key!r} is not a canonical index")
        check_index(idx, "algebra.unit")
        unit[idx] = scalar(text, f"algebra.unit[{key}]")

    products: dict[tuple[int, int], Vec] = {}
    _require(isinstance(d["products"], list), "algebra.products must be a list")
    for pos, entry in enumerate(d["products"]):
        where = f"algebra.products[{pos}]"
        _require(isinstance(entry, dict) and set(entry) == {"left", "right", "result"},
                 f"{where} must have exactly 'left', 'right' and 'result'")
        i = check_index(entry["left"], f"{where}.left")
        j = check_index(entry["right"], f"{where}.right")
        _require((i, j) not in products, f"{where}: duplicate pair ({i}, {j})")
        _require(isinstance(entry["result"], list), f"{where}.result must be a list")
        vec: Vec = {}
        for rpos, term in enumerate(entry["result"]):
            _require(isinstance(term, dict) and set(term) == {"basis", "coeff"},
                     f"{where}.result[{rpos}] must have exactly 'basis' and 'coeff'")
            k = check_index(term["basis"], f"{where}.result[{rpos}].basis")
            # a repeated index would let the last term silently win
            _require(k not in vec, f"{where}.result[{rpos}].basis: basis index {k} repeats")
            vec[k] = scalar(term["coeff"], f"{where}.result[{rpos}].coeff")
        products[(i, j)] = vec
    name = d.get("name")
    _require(name is None or isinstance(name, str), "algebra.name must be a string")
    try:
        return GradedAlgebra(group, basis, products, unit,
                             validate=validate, name=name)
    except ValueError as exc:
        raise DescriptorError(f"algebra descriptor: {exc}") from exc


def algebra_to_dict(a: GradedAlgebra) -> dict:
    out: dict = {
        "basis": [{"label": label, "grade": list(grade.coords)}
                  for label, grade in a.basis],
        "unit": {str(i): format_scalar(c) for i, c in sorted(a.unit.items())},
        "products": [
            {"left": i, "right": j,
             "result": [{"basis": k, "coeff": format_scalar(c)}
                        for k, c in sorted(a.products[(i, j)].items())]}
            for (i, j) in sorted(a.products)
        ],
    }
    if a.name:
        out["name"] = a.name
    return out


def descriptor_from_dict(d: dict, validate_algebra: bool = True) -> Descriptor:
    _require(isinstance(d, dict), "descriptor must be a JSON object")
    unknown = set(d) - {"group", "factor", "algebra"}
    _require(not unknown, f"descriptor has unknown keys {sorted(unknown)}")
    _require("group" in d, "descriptor is missing 'group'")
    group = group_from_dict(d["group"])
    factor = factor_from_dict(group, d["factor"]) if "factor" in d else None
    algebra = (algebra_from_dict(group, d["algebra"], validate=validate_algebra)
               if "algebra" in d else None)
    return Descriptor(group, factor, algebra)


def descriptor_to_dict(desc: Descriptor) -> dict:
    out: dict = {"group": group_to_dict(desc.group)}
    if desc.factor is not None:
        out["factor"] = factor_to_dict(desc.factor)
    if desc.algebra is not None:
        out["algebra"] = algebra_to_dict(desc.algebra)
    return out


def canonical_json(data) -> str:
    """The one text form of descriptors and reports: sorted keys, indent 2, final newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def dump_descriptor(desc: Descriptor) -> str:
    """Canonical byte form; identical inputs produce identical text."""
    return canonical_json(descriptor_to_dict(desc))


def load_descriptor(path: str, validate_algebra: bool = True) -> Descriptor:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DescriptorError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer too long to convert, or nesting too deep
        raise DescriptorError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return descriptor_from_dict(data, validate_algebra=validate_algebra)
    except DescriptorError as exc:
        raise DescriptorError(f"{path}: {exc}") from exc
