"""Finite abelian grading groups Z_{n1} x ... x Z_{nk}."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .errors import GroupMismatchError


@dataclass(frozen=True)
class GradingGroup:
    """Z_{torsion[0]} x Z_{torsion[1]} x ... ; generators are the unit
    vectors.  `free_rank` is kept in the signature and the descriptor
    format, and must be 0."""

    free_rank: int
    torsion: tuple[int, ...] = ()
    # (coords, coords) -> their sum and coords -> their negation, filled by
    # GroupElement.__add__ and __neg__ on a miss: they hold the results asked
    # for, never an up-front |G|^2 table
    _sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _negs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.free_rank != 0:
            raise ValueError("free_rank must be 0: grading groups are finite")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        if any(n < 2 for n in self.torsion):
            raise ValueError("torsion moduli must be >= 2")

    @property
    def ngens(self) -> int:
        return len(self.torsion)

    @property
    def is_finite(self) -> bool:
        """Always True: every grading group is finite."""
        return True

    @property
    def order(self) -> int:
        return math.prod(self.torsion)

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, coords)

    @functools.cached_property
    def _units(self) -> tuple["GroupElement", ...]:  # identity, generators; built once
        return tuple(GroupElement(self, tuple(int(j == i) for j in range(self.ngens)))
                     for i in range(-1, self.ngens))

    def identity(self) -> "GroupElement":
        return self._units[0]

    def generators(self) -> list["GroupElement"]:
        return list(self._units[1:])

    def elements(self) -> list["GroupElement"]:
        """All elements in lexicographic coordinate order."""
        return [GroupElement(self, coords)
                for coords in itertools.product(*(range(n) for n in self.torsion))]

    def sample(self) -> list["GroupElement"]:
        """The elements the law checks run on: the whole group, in `elements()`
        order, up to order 64; otherwise the identity, the generators, their
        inverses and their doubles, each kept once, in that order."""
        if self.order <= 64:
            return self.elements()
        gens = self.generators()
        return list(dict.fromkeys(
            [self.identity()] + gens + [-g for g in gens] + [g + g for g in gens]))

    def is_whole(self, elements) -> bool:
        """Whether these elements of the group are all of it."""
        return len(set(elements)) == self.order

    def index(self, coords) -> int:
        """Position in `elements()` of the reduced element with these coordinates."""
        pos = 0
        for c, n in zip(coords, self.torsion, strict=True):
            pos = pos * n + c % n
        return pos

    def __str__(self) -> str:
        return " x ".join(f"Z_{n}" for n in self.torsion) or "trivial"


@dataclass(frozen=True)
class GroupElement:
    """Element of a GradingGroup; coordinates stored reduced.
    Immutable, so its hash is computed once."""

    group: GradingGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        group, coords = self.group, tuple(self.coords)
        if len(coords) != group.ngens:
            raise ValueError(
                f"expected {group.ngens} coordinates, got {len(coords)}")
        object.__setattr__(self, "coords", tuple(
            c % n for c, n in zip(coords, group.torsion)))
        object.__setattr__(self, "_hash", hash((group, self.coords)))

    def __hash__(self) -> int:
        return self._hash

    def __add__(self, other: "GroupElement") -> "GroupElement":
        group = self.group
        if other.group is not group and other.group != group:
            raise GroupMismatchError(
                f"elements of {group} and {other.group} cannot be combined")
        key = (self.coords, other.coords)
        out = group._sums.get(key)
        if out is None:
            out = group._sums[key] = GroupElement(
                group, tuple(a + b for a, b in zip(*key)))
        return out

    def __neg__(self) -> "GroupElement":
        negs, coords = self.group._negs, self.coords
        if coords not in negs:
            negs[coords] = GroupElement(self.group, tuple(-c for c in coords))
        return negs[coords]

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)  # __add__ refuses a foreign group

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"
