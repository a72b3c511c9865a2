"""The group algebra kG as a Hopf algebra.

Basis elements are the group elements (group-likes); the coproduct,
counit and antipode are g -> g (x) g, g -> 1 and g -> g^{-1}, extended
linearly.  Axioms are verified by evaluation on finite samples, which
determines them on all of kG by linearity.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import GroupMismatchError
from .groups import GradingGroup, GroupElement
from .linalg import vec_add_at
from .reports import CheckReport
from .scalars import Scalar


def _clean(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if not v.is_zero()}


class TensorElement:
    """Finitely supported tensor with tuple keys and exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple, Scalar] | None = None):
        self.terms = _clean(terms or {})

    def __add__(self, other: "TensorElement") -> "TensorElement":
        out = dict(self.terms)
        for k, v in other.terms.items():
            vec_add_at(out, k, v)
        return TensorElement(out)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + other.scale(Scalar.from_rational(-1))

    def scale(self, c: Scalar) -> "TensorElement":
        return TensorElement({k: c * v for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [f"{v}*{'(x)'.join(str(p) for p in k)}"
                for k, v in sorted(self.terms.items(), key=lambda kv: str(kv[0]))]
        return " + ".join(bits)


class GroupAlgebraElement:
    """Finitely supported k-linear combination of group elements."""

    __slots__ = ("group", "terms")

    def __init__(self, group: GradingGroup,
                 terms: dict[GroupElement, Scalar] | None = None):
        self.group = group
        self.terms = _clean(terms or {})

    @classmethod
    def group_like(cls, g: GroupElement) -> "GroupAlgebraElement":
        return cls(g.group, {g: Scalar.one()})

    @classmethod
    def unit(cls, group: GradingGroup) -> "GroupAlgebraElement":
        return cls(group, {group.identity(): Scalar.one()})

    def _check(self, other: "GroupAlgebraElement"):
        if self.group != other.group:
            raise GroupMismatchError("group algebra elements over different groups")

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        out = dict(self.terms)
        for g, c in other.terms.items():
            vec_add_at(out, g, c)
        return GroupAlgebraElement(self.group, out)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + other.scale(Scalar.from_rational(-1))

    def scale(self, c) -> "GroupAlgebraElement":
        c = c if isinstance(c, Scalar) else Scalar.from_rational(c)
        return GroupAlgebraElement(
            self.group, {g: c * v for g, v in self.terms.items()})

    def __mul__(self, other):
        # convolution product extending the group law
        if isinstance(other, GroupAlgebraElement):
            self._check(other)
            out: dict[GroupElement, Scalar] = {}
            for g, a in self.terms.items():
                for h, b in other.terms.items():
                    vec_add_at(out, g + h, a * b)
            return GroupAlgebraElement(self.group, out)
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    def coproduct(self) -> TensorElement:
        """Linear extension of g -> g (x) g."""
        return TensorElement({(g, g): c for g, c in self.terms.items()})

    def counit(self) -> Scalar:
        """Linear extension of g -> 1."""
        total = Scalar.zero()
        for c in self.terms.values():
            total = total + c
        return total

    def antipode(self) -> "GroupAlgebraElement":
        """Linear extension of g -> g^{-1}."""
        return GroupAlgebraElement(self.group, {-g: c for g, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.group == other.group and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for g in sorted(self.terms, key=lambda g: g.coords):
            bits.append(f"{self.terms[g]}*[{g}]")
        return " + ".join(bits)

    __repr__ = __str__


# -- sample-based axiom verification -------------------------------------


def _apply_slot(t: TensorElement, slot: int,
                fn: Callable[[GroupElement], dict]) -> TensorElement:
    """Substitute each key's slot entry by fn(entry), a label->Scalar map."""
    out: dict[tuple, Scalar] = {}
    for key, c in t.terms.items():
        for piece, d in fn(key[slot]).items():
            vec_add_at(out, key[:slot] + piece + key[slot + 1:], c * d)
    return TensorElement(out)


def _coproduct_slot(t: TensorElement, slot: int) -> TensorElement:
    return _apply_slot(t, slot, lambda g: {(g, g): Scalar.one()})


def _counit_slot(t: TensorElement, slot: int) -> TensorElement:
    return _apply_slot(t, slot, lambda g: {(): Scalar.one()})


def _map_slot(t: TensorElement, slot: int,
              fn: Callable[[GroupElement], GroupElement]) -> TensorElement:
    return _apply_slot(t, slot, lambda g: {(fn(g),): Scalar.one()})


def _multiply_slots(t: TensorElement, group: GradingGroup) -> GroupAlgebraElement:
    """Collapse a 2-tensor over kG (x) kG by the group law."""
    out: dict[GroupElement, Scalar] = {}
    for (g, h), c in t.terms.items():
        vec_add_at(out, g + h, c)
    return GroupAlgebraElement(group, out)


def _tensor_product(a: TensorElement, b: TensorElement) -> TensorElement:
    out: dict[tuple, Scalar] = {}
    for (g1, g2), c in a.terms.items():
        for (h1, h2), d in b.terms.items():
            vec_add_at(out, (g1 + h1, g2 + h2), c * d)
    return TensorElement(out)


def default_sample(group: GradingGroup) -> list[GroupAlgebraElement]:
    """Group-likes (all of them when finite, generators otherwise) plus one mix."""
    if group.is_finite:
        likes = [GroupAlgebraElement.group_like(g) for g in group.elements()]
    else:
        likes = [GroupAlgebraElement.unit(group)]
        likes += [GroupAlgebraElement.group_like(g) for g in group.generators()]
        likes += [GroupAlgebraElement.group_like(-g) for g in group.generators()]
    mix = likes[0]
    for i, u in enumerate(likes[1:3]):
        mix = mix + u.scale(i + 2)
    return likes + [mix]


def check_hopf_axioms(group: GradingGroup,
                      sample: Iterable[GroupAlgebraElement] | None = None,
                      antipode: Callable[[GroupElement], GroupElement] | None = None,
                      ) -> CheckReport:
    """Verify the Hopf algebra laws of kG on a sample of elements.

    `antipode` overrides the inversion map; test fixtures use this to
    confirm that a wrong antipode is caught.
    """
    sample = list(sample) if sample is not None else default_sample(group)
    if not sample:
        raise ValueError("sample must be nonempty")
    S = antipode or (lambda g: -g)
    unit = GroupAlgebraElement.unit(group)
    report = CheckReport()

    report.check("hopf.coassociativity",
                 (str(u) for u in sample
                  if _coproduct_slot(u.coproduct(), 0)
                  != _coproduct_slot(u.coproduct(), 1)))
    for slot, side in enumerate(("left", "right")):
        report.check(f"hopf.counit-{side}",
                     (str(u) for u in sample
                      if _counit_slot(u.coproduct(), slot)
                      != TensorElement({(g,): c for g, c in u.terms.items()})))
    for slot, side in enumerate(("left", "right")):
        report.check(f"hopf.antipode-{side}",
                     (str(u) for u in sample
                      if _multiply_slots(_map_slot(u.coproduct(), slot, S), group)
                      != unit.scale(u.counit())))
    report.check("hopf.coproduct-multiplicative",
                 (f"{u}, {v}" for u in sample for v in sample
                  if (u * v).coproduct()
                  != _tensor_product(u.coproduct(), v.coproduct())))
    report.check("hopf.counit-multiplicative",
                 (f"{u}, {v}" for u in sample for v in sample
                  if (u * v).counit() != u.counit() * v.counit()))
    unit_tensor = TensorElement({(group.identity(), group.identity()): Scalar.one()})
    report.check("hopf.unit-counit",
                 ("1" for lhs, rhs in [(unit.counit(), Scalar.one()),
                                       (unit.coproduct(), unit_tensor)]
                  if lhs != rhs))
    return report
