"""The group algebra kG as a Hopf algebra.

A `GroupAlgebraElement` is a sparse combination of r-tuples of group
elements, an element of kG^(x)r, and kG is its rank-1 case, keyed by
(g,); the product adds keys slot by slot, so it is the convolution in kG
and the product in kG (x) kG.  The coproduct, counit and antipode are
g -> g (x) g, g -> 1 and g -> g^{-1}, extended linearly.  Axioms are
verified by evaluation on the group-likes of `GradingGroup.sample`: when
that is the whole group, linearity extends the verdict to all of kG;
otherwise it is sample evidence.
"""

from __future__ import annotations

import functools
import itertools
from operator import add
from typing import Callable

from .errors import GroupMismatchError
from .groups import GradingGroup, GroupElement
from .linalg import vec_add_at
from .reports import CheckReport, combination_text
from .scalars import Scalar


class GroupAlgebraElement:
    """Finitely supported element of kG^(x)r over one grading group, with
    exact coefficients keyed by r-tuples of group elements."""

    __slots__ = ("group", "terms")

    def __init__(self, group: GradingGroup,
                 terms: dict[tuple[GroupElement, ...], Scalar] | None = None,
                 nonzero: bool = False):  # nonzero: terms hold no zero, kept as given
        self.group = group
        self.terms = terms if nonzero else {
            k: v for k, v in (terms or {}).items() if not v.is_zero()}

    @classmethod
    def group_like(cls, g: GroupElement) -> "GroupAlgebraElement":
        return cls(g.group, {(g,): Scalar.one()}, nonzero=True)

    @classmethod
    def unit(cls, group: GradingGroup) -> "GroupAlgebraElement":
        return cls.group_like(group.identity())

    def _terms_of(self, other: "GroupAlgebraElement") -> dict:
        if other.group is not self.group and other.group != self.group:
            raise GroupMismatchError("group algebra elements over different groups")
        return other.terms

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        out = dict(self.terms)
        for k, v in self._terms_of(other).items():
            vec_add_at(out, k, v)
        return GroupAlgebraElement(self.group, out, nonzero=True)

    def scale(self, c) -> "GroupAlgebraElement":
        c = c if isinstance(c, Scalar) else Scalar.from_rational(c)
        if c.is_zero():
            return GroupAlgebraElement(self.group)
        return GroupAlgebraElement(self.group, {k: c * v for k, v in self.terms.items()},
                                   nonzero=True)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        # keys add slot by slot: the group law extended to each tensor factor
        out: dict[tuple, Scalar] = {}
        theirs = self._terms_of(other)
        for k1, a in self.terms.items():
            for k2, b in theirs.items():
                vec_add_at(out, tuple(map(add, k1, k2)), a, b)
        return GroupAlgebraElement(self.group, out, nonzero=True)

    def coproduct(self) -> "GroupAlgebraElement":
        """Linear extension of g -> g (x) g."""
        return GroupAlgebraElement(self.group, {(g, g): c for (g,), c in self.terms.items()},
                                   nonzero=True)

    def counit(self) -> Scalar:
        """Linear extension of g -> 1."""
        return sum(self.terms.values(), Scalar.zero())

    def antipode(self) -> "GroupAlgebraElement":
        """Linear extension of g -> g^{-1}."""
        return GroupAlgebraElement(self.group, {(-g,): c for (g,), c in self.terms.items()},
                                   nonzero=True)

    def __eq__(self, other):
        # elements over different groups differ, even when both are zero
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return ((self.group is other.group or self.group == other.group)
                and self.terms == other.terms)

    def __str__(self):
        return combination_text(
            (c, "(x)".join(f"[{g}]" for g in key))
            for key, c in sorted(self.terms.items(),
                                 key=lambda kv: [g.coords for g in kv[0]]))

    __repr__ = __str__


# -- sample-based axiom verification -------------------------------------


def _apply_slot(t: GroupAlgebraElement, slot: int,
                fn: Callable[[GroupAlgebraElement], GroupAlgebraElement | Scalar]
                ) -> GroupAlgebraElement:
    """Apply a linear map of kG, given on elements, to one slot of each key;
    a Scalar value fn(group-like g) is the rank-0 tensor {(): value}."""
    out: dict[tuple, Scalar] = {}
    for key, c in t.terms.items():
        image = fn(GroupAlgebraElement.group_like(key[slot]))
        pieces = {(): image} if isinstance(image, Scalar) else image.terms
        for piece, d in pieces.items():
            vec_add_at(out, key[:slot] + piece + key[slot + 1:], c, d)
    return GroupAlgebraElement(t.group, out, nonzero=True)


def _multiply_slots(t: GroupAlgebraElement) -> GroupAlgebraElement:
    """Collapse a 2-tensor over kG (x) kG by the group law."""
    out: dict[tuple, Scalar] = {}
    for (g, h), c in t.terms.items():
        vec_add_at(out, (g + h,), c)
    return GroupAlgebraElement(t.group, out, nonzero=True)


def default_sample(group: GradingGroup) -> list[GroupAlgebraElement]:
    """The group-likes of `GradingGroup.sample` plus one mix."""
    likes = [GroupAlgebraElement.group_like(g) for g in group.sample()]
    mix = likes[0]
    for i, u in enumerate(likes[1:3]):
        mix = mix + u.scale(i + 2)
    return likes + [mix]


def check_hopf_axioms(group: GradingGroup) -> CheckReport:
    """Verify the Hopf algebra laws of kG, on its element maps `coproduct`,
    `counit` and `antipode`, on the `default_sample` of the group.

    When the sample's group-likes are the whole group, the multiplicative
    laws are proved (`CheckReport.check`) on the pairs (g, s) of group-likes
    with s the unit or a generator and on every pair with another element:
    the h with D(gh) = D(g)D(h) for all g are closed under products, as
    D(ghh') = D(gh)D(h') = D(g)D(h)D(h') = D(g)D(hh').  This trusts kG's
    product `__mul__`, which is not a map under test.  Each map runs once
    per sample element and each product once per pair used.
    """
    sample = default_sample(group)
    coproduct, counit = GroupAlgebraElement.coproduct, GroupAlgebraElement.counit
    S = GroupAlgebraElement.antipode
    one = Scalar.one()
    unit = GroupAlgebraElement.unit(group)
    report = CheckReport()
    # every law reads the element maps' own values
    deltas = [u.coproduct() for u in sample]
    epsilons = [u.counit() for u in sample]
    product = functools.cache(lambda i, j: sample[i] * sample[j])
    pairs = list(itertools.product(range(len(sample)), repeat=2))
    # the group-likes 1*[g] of the sample by position, keyed (g,)
    likes = {i: key for i, u in enumerate(sample) for key, c in u.terms.items()
             if len(u.terms) == 1 and c.is_one()}
    ends = {(g,) for g in [group.identity()] + group.generators()}
    proved = group.is_whole(key[0] for key in likes.values())
    proof_set = [(i, j) for i, j in pairs if i not in likes or j not in likes or likes[j] in ends]

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
                      if _multiply_slots(_apply_slot(d, slot, S))
                      != unit.scale(e)))

    def not_multiplicative(fn, values, checked):
        return (f"{sample[i]}, {sample[j]}" for i, j in checked
                if fn(product(i, j)) != values[i] * values[j])

    for name, fn, values in (("coproduct", coproduct, deltas), ("counit", counit, epsilons)):
        report.check(f"hopf.{name}-multiplicative", not_multiplicative(fn, values, pairs),
                     proof=not_multiplicative(fn, values, proof_set) if proved else None)
    unit_tensor = GroupAlgebraElement(group, {(group.identity(), group.identity()): one})
    report.check("hopf.unit-counit",
                 ("1" for lhs, rhs in [(unit.counit(), one),
                                       (unit.coproduct(), unit_tensor)]
                  if lhs != rhs))
    return report
