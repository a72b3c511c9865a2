"""The group algebra kG as a Hopf algebra.

A `TensorElement` is a sparse combination of tuples of group elements,
and kG is its rank-1 case, keyed by (g,); the product adds keys slot by
slot, so it is the convolution in kG and the product in kG (x) kG.  The
coproduct, counit and antipode are g -> g (x) g, g -> 1 and g -> g^{-1},
extended linearly.  Axioms are verified by evaluation on the group-likes
of `GradingGroup.sample`: when that is the whole group, linearity extends
the verdict to all of kG; above order 64 and on Z^N it is sample evidence.
"""

from __future__ import annotations

from operator import add
from typing import Callable

from .errors import GroupMismatchError
from .groups import GradingGroup, GroupElement
from .linalg import vec_add_at
from .reports import CheckReport, combination_text
from .scalars import Scalar


class TensorElement:
    """Finitely supported tensor with exact coefficients.  Construction,
    `+`, `-`, `scale`, scalar `*`, `is_zero` and `==` work for any hashable
    key; `*` of two tensors adds tuple keys slot by slot, and a subclass
    keyed otherwise overrides it with its own product."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple, Scalar] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if not v.is_zero()}

    def _check(self, other: "TensorElement"):
        """Raise unless `other` can be combined with self; any tensor can."""

    def _like(self, terms: dict[tuple, Scalar]) -> "TensorElement":
        """An element of the same space as self with the given terms."""
        return TensorElement(terms)

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            vec_add_at(out, k, v)
        return self._like(out)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + other.scale(Scalar.from_rational(-1))

    def scale(self, c) -> "TensorElement":
        c = c if isinstance(c, Scalar) else Scalar.from_rational(c)
        return self._like({k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        # keys add slot by slot: the group law extended to each tensor factor
        if isinstance(other, TensorElement):
            self._check(other)
            out: dict[tuple, Scalar] = {}
            for k1, a in self.terms.items():
                for k2, b in other.terms.items():
                    vec_add_at(out, tuple(map(add, k1, k2)), a, b)
            return self._like(out)
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    # scalars and the (abelian) group law commute
    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return combination_text(
            (v, "(x)".join(map(str, k)))
            for k, v in sorted(self.terms.items(), key=lambda kv: str(kv[0])))


class GroupAlgebraElement(TensorElement):
    """Finitely supported k-linear combination of group elements: a rank-1
    tensor keyed by 1-tuples (g,) over one grading group."""

    __slots__ = ("group",)

    def __init__(self, group: GradingGroup,
                 terms: dict[tuple[GroupElement], Scalar] | None = None):
        self.group = group
        super().__init__(terms)

    @classmethod
    def group_like(cls, g: GroupElement) -> "GroupAlgebraElement":
        return cls(g.group, {(g,): Scalar.one()})

    @classmethod
    def unit(cls, group: GradingGroup) -> "GroupAlgebraElement":
        return cls(group, {(group.identity(),): Scalar.one()})

    def _check(self, other: TensorElement):
        if getattr(other, "group", None) != self.group:
            raise GroupMismatchError("group algebra elements over different groups")

    def _like(self, terms: dict[tuple, Scalar]) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.group, terms)

    def coproduct(self) -> TensorElement:
        """Linear extension of g -> g (x) g."""
        return TensorElement({(g, g): c for (g,), c in self.terms.items()})

    def counit(self) -> Scalar:
        """Linear extension of g -> 1."""
        total = Scalar.zero()
        for c in self.terms.values():
            total = total + c
        return total

    def antipode(self) -> "GroupAlgebraElement":
        """Linear extension of g -> g^{-1}."""
        return self._like({(-g,): c for (g,), c in self.terms.items()})

    def __eq__(self, other):
        # elements over different groups differ, even when both are zero
        if isinstance(other, GroupAlgebraElement) and self.group != other.group:
            return False
        return super().__eq__(other)

    def __str__(self):
        return combination_text(
            (c, f"[{g}]")
            for (g,), c in sorted(self.terms.items(), key=lambda kv: kv[0][0].coords))

    __repr__ = __str__


# -- sample-based axiom verification -------------------------------------


def _apply_slot(t: TensorElement, slot: int,
                fn: Callable[[GroupAlgebraElement], TensorElement | Scalar]
                ) -> TensorElement:
    """Apply a linear map of kG, given on elements, to one slot of each key;
    a Scalar value fn(group-like g) is the rank-0 tensor {(): value}."""
    out: dict[tuple, Scalar] = {}
    for key, c in t.terms.items():
        image = fn(GroupAlgebraElement.group_like(key[slot]))
        pieces = {(): image} if isinstance(image, Scalar) else image.terms
        for piece, d in pieces.items():
            vec_add_at(out, key[:slot] + piece + key[slot + 1:], c, d)
    return TensorElement(out)


def _multiply_slots(t: TensorElement, group: GradingGroup) -> GroupAlgebraElement:
    """Collapse a 2-tensor over kG (x) kG by the group law."""
    out: dict[tuple, Scalar] = {}
    for (g, h), c in t.terms.items():
        vec_add_at(out, (g + h,), c)
    return GroupAlgebraElement(group, out)


def default_sample(group: GradingGroup) -> list[GroupAlgebraElement]:
    """The group-likes of `GradingGroup.sample` plus one mix."""
    likes = [GroupAlgebraElement.group_like(g) for g in group.sample()]
    mix = likes[0]
    for i, u in enumerate(likes[1:3]):
        mix = mix + u.scale(i + 2)
    return likes + [mix]


def check_hopf_axioms(group: GradingGroup) -> CheckReport:
    """Verify the Hopf algebra laws of kG, on its element maps `coproduct`,
    `counit` and `antipode`, on the `default_sample` of the group."""
    sample = default_sample(group)
    coproduct, counit = GroupAlgebraElement.coproduct, GroupAlgebraElement.counit
    S = GroupAlgebraElement.antipode
    one = Scalar.one()
    unit = GroupAlgebraElement.unit(group)
    report = CheckReport()
    # each map once per sample element and each product once per pair;
    # every law still reads the element maps' own values
    deltas = [u.coproduct() for u in sample]
    epsilons = [u.counit() for u in sample]
    products = [[u * v for v in sample] for u in sample]

    report.check("hopf.coassociativity",
                 (str(u) for u, d in zip(sample, deltas)
                  if _apply_slot(d, 0, coproduct) != _apply_slot(d, 1, coproduct)))
    for slot, side in enumerate(("left", "right")):
        report.check(f"hopf.counit-{side}",
                     (str(u) for u, d in zip(sample, deltas)
                      if _apply_slot(d, slot, counit) != u))
    for slot, side in enumerate(("left", "right")):
        report.check(f"hopf.antipode-{side}",
                     (str(u) for u, d, e in zip(sample, deltas, epsilons)
                      if _multiply_slots(_apply_slot(d, slot, S), group)
                      != unit.scale(e)))
    report.check("hopf.coproduct-multiplicative",
                 (f"{u}, {v}" for i, u in enumerate(sample)
                  for j, v in enumerate(sample)
                  if products[i][j].coproduct() != deltas[i] * deltas[j]))
    report.check("hopf.counit-multiplicative",
                 (f"{u}, {v}" for i, u in enumerate(sample)
                  for j, v in enumerate(sample)
                  if products[i][j].counit() != epsilons[i] * epsilons[j]))
    unit_tensor = TensorElement({(group.identity(), group.identity()): one})
    report.check("hopf.unit-counit",
                 ("1" for lhs, rhs in [(unit.counit(), one),
                                       (unit.coproduct(), unit_tensor)]
                  if lhs != rhs))
    return report
