"""The group algebra kG as a Hopf algebra.

An element of kG^(x)r is a dict from r-tuples of group elements to
nonzero scalars, and kG is its rank-1 case, keyed by (g,); `product` adds
keys slot by slot, so it is the convolution in kG and the product in
kG (x) kG.  The coproduct, counit and antipode are g -> g (x) g, g -> 1
and g -> g^{-1}, extended linearly.  Axioms are verified by evaluation on
the group-likes of `GradingGroup.sample`: when that is the whole group,
linearity extends the verdict to all of kG; otherwise it is sample
evidence.
"""

from __future__ import annotations

import functools
import itertools
from operator import add, mul
from typing import Callable

from .groups import GradingGroup, GroupElement
from .linalg import vec_add_at
from .reports import CheckReport, combination_text
from .scalars import Scalar

Tensor = dict[tuple[GroupElement, ...], Scalar]


def group_like(g: GroupElement) -> Tensor:
    return {(g,): Scalar.one()}


def product(s: Tensor, t: Tensor) -> Tensor:
    """s * t: keys add slot by slot, the group law extended to each
    tensor factor; keys over different groups raise GroupMismatchError."""
    out: Tensor = {}
    for k1, a in s.items():
        for k2, b in t.items():
            vec_add_at(out, tuple(map(add, k1, k2)), a, b)
    return out


def coproduct(u: Tensor) -> Tensor:
    """Linear extension of g -> g (x) g."""
    return {(g, g): c for (g,), c in u.items()}


def counit(u: Tensor) -> Scalar:
    """Linear extension of g -> 1."""
    return sum(u.values(), Scalar.zero())


def antipode(u: Tensor) -> Tensor:
    """Linear extension of g -> g^{-1}."""
    return {(-g,): c for (g,), c in u.items()}


def tensor_text(t: Tensor) -> str:
    """"c*[g1](x)[g2]..." by key coordinates, or "0"."""
    return combination_text(
        (c, "(x)".join(f"[{g}]" for g in key))
        for key, c in sorted(t.items(), key=lambda kv: [g.coords for g in kv[0]]))


# -- sample-based axiom verification -------------------------------------


def _apply_slot(t: Tensor, slot: int, fn: Callable[[Tensor], Tensor | Scalar]) -> Tensor:
    """Apply a linear map of kG, given on elements, to one slot of each key;
    a Scalar value fn(group-like g) is the rank-0 tensor {(): value}."""
    out: Tensor = {}
    for key, c in t.items():
        image = fn(group_like(key[slot]))
        pieces = {(): image} if isinstance(image, Scalar) else image
        for piece, d in pieces.items():
            vec_add_at(out, key[:slot] + piece + key[slot + 1:], c, d)
    return out


def _multiply_slots(t: Tensor) -> Tensor:
    """Collapse a 2-tensor over kG (x) kG by the group law."""
    out: Tensor = {}
    for (g, h), c in t.items():
        vec_add_at(out, (g + h,), c)
    return out


def default_sample(group: GradingGroup) -> list[Tensor]:
    """The group-likes of `GradingGroup.sample` plus the mix 1*[g1] + 2*[g2]
    + 3*[g3] of its first three elements."""
    elements = group.sample()
    return [group_like(g) for g in elements] + [
        {(g,): Scalar.from_rational(i + 1) for i, g in enumerate(elements[:3])}]


def check_hopf_axioms(group: GradingGroup) -> CheckReport:
    """Verify the Hopf algebra laws of kG, on the maps `coproduct`,
    `counit` and `antipode` of this module as they are at call time, on
    the `default_sample` of the group.

    When the sample's group-likes are the whole group, the multiplicative
    laws are proved (`CheckReport.check`) on the pairs (g, s) of group-likes
    with s the unit or a generator and on every pair with another element:
    the h with D(gh) = D(g)D(h) for all g are closed under products, as
    D(ghh') = D(gh)D(h') = D(g)D(h)D(h') = D(g)D(hh').  This trusts kG's
    `product`, which is not a map under test.  Each map runs once per
    sample element and each product once per pair used.
    """
    sample = default_sample(group)
    e = group.identity()
    one = Scalar.one()
    report = CheckReport()
    # every law reads the maps' own values
    deltas = [coproduct(u) for u in sample]
    epsilons = [counit(u) for u in sample]
    sample_product = functools.cache(lambda i, j: product(sample[i], sample[j]))
    pairs = list(itertools.product(range(len(sample)), repeat=2))
    # the group-likes 1*[g] of the sample by position, keyed (g,)
    likes = {i: key for i, u in enumerate(sample) for key, c in u.items()
             if len(u) == 1 and c.is_one()}
    ends = {(g,) for g in [e] + group.generators()}
    proved = group.is_whole(key[0] for key in likes.values())
    proof_set = [(i, j) for i, j in pairs if i not in likes or j not in likes or likes[j] in ends]

    report.check("hopf.coassociativity",
                 (tensor_text(u) for u, d in zip(sample, deltas)
                  if _apply_slot(d, 0, coproduct) != _apply_slot(d, 1, coproduct)))
    for slot, side in enumerate(("left", "right")):
        report.check(f"hopf.counit-{side}",
                     (tensor_text(u) for u, d in zip(sample, deltas)
                      if _apply_slot(d, slot, counit) != u))
    for slot, side in enumerate(("left", "right")):
        report.check(f"hopf.antipode-{side}",
                     (tensor_text(u) for u, d, eps in zip(sample, deltas, epsilons)
                      if _multiply_slots(_apply_slot(d, slot, antipode))
                      != ({} if eps.is_zero() else {(e,): eps})))

    # each map's values multiply in its own codomain: kG (x) kG for D, k for eps
    def not_multiplicative(fn, values, times, checked):
        return (f"{tensor_text(sample[i])}, {tensor_text(sample[j])}" for i, j in checked
                if fn(sample_product(i, j)) != times(values[i], values[j]))

    for name, fn, values, times in (("coproduct", coproduct, deltas, product),
                                    ("counit", counit, epsilons, mul)):
        report.check(f"hopf.{name}-multiplicative",
                     not_multiplicative(fn, values, times, pairs),
                     proof=not_multiplicative(fn, values, times, proof_set) if proved else None)
    unit = group_like(e)
    report.check("hopf.unit-counit",
                 ("1" for lhs, rhs in [(counit(unit), one), (coproduct(unit), {(e, e): one})]
                  if lhs != rhs))
    return report
