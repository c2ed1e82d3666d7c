"""Flags by higher-level Demazure characters and graded Weyl characters.

The decomposition engine is triangular leading-term subtraction.  A graded,
Weyl-invariant classical character is peeled one piece at a time: pick a
dominance-maximal classical weight of the residue, take its least grade and
coefficient, subtract that multiple of the matching Demazure character at
the target level shifted to that grade.  Triangularity of Demazure
characters (top weight with coefficient one, everything else strictly
below) makes the outcome independent of how ties between incomparable
maxima are broken.

The leading weight is the first support weight in ``tie_break`` order
(lexicographically largest or smallest) that no other support weight
dominates.  Height is positive on every simple root, so ``mu < nu`` forces
``height(mu) < height(nu)``: testing a candidate only against weights of
greater height misses no weight above it, and the choice (hence the piece
order) is exactly that of testing every pair.  Pieces come from the
memo of ``demazure_character``, so a leading weight that recurs at a later
grade, or in a later decomposition, is not computed again.

The graded character of a local Weyl module is assembled as follows.  In
simply-laced type it is a single level-one Demazure character.  Otherwise
the short-root subsystem carries a level-one Demazure character of its own
simply-laced affinization, which decomposes at target level equal to the
lacing number; each piece lifts through the short subsystem back to the
parent, where it names a level-one Demazure character with the same grade
shift and multiplicity.  The sum is the graded Weyl character, and the list
of lifted pieces is its flag.  The last ``MEMO_SIZE`` graded Weyl
characters are kept with their flags, like Demazure characters.

Characters of local Weyl modules multiply: the module for a sum of
dominant weights attached to pairwise distinct labels is the tensor
product of the modules of the summands, so its ungraded character is the
product of theirs.  That is also the source of the dimension check against
the product over fundamental weights.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import errors
from .characters import (Character, check_w_invariance_per_grade,
                         forget_grading, shift_grade)
from .demazure import MEMO_SIZE, DemazureLabel, demazure_character
from .root_data import (AffineDatum, RootDatum, Weight, affinize,
                        eta_lambda, short_subdatum)


class FlagDecomposition(NamedTuple):
    """Pieces ``(classical weight, grade, multiplicity)`` at one level."""

    level: int
    pieces: tuple[tuple[Weight, int, int], ...]

    def multiset(self) -> list[tuple[tuple[int, ...], int]]:
        """Pairs (weight h-values, grade), one entry per multiplicity."""
        out = []
        for w, g, c in self.pieces:
            out.extend([(w.h, g)] * c)
        return sorted(out)


class DominantLWeight:
    """Dominant weight split as labelled summands; labels must differ."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[Weight, str], ...]) -> None:
        labels = [a for _, a in factors]
        if len(set(labels)) != len(labels):
            raise ValueError("summand labels must be pairwise distinct")
        self.factors = factors

    def weight(self, rd: RootDatum) -> Weight:
        total = rd.zero_weight
        for w, _ in self.factors:
            total = total + w
        return total


def _leading_weight(rd: RootDatum, support: set[tuple[int, ...]],
                    tie_break: str) -> tuple[int, ...]:
    """First weight in ``tie_break`` order that no other one dominates."""
    height = {h: rd.height(h) for h in support}

    def below(h, o):
        coords = rd.root_coordinates([b - a for a, b in zip(h, o)])
        return coords is not None and all(x >= 0 for x in coords)

    return next(h for h in sorted(support, reverse=tie_break == "max")
                if not any(height[o] > height[h] and below(h, o)
                           for o in support))


def greedy_decompose(ad: AffineDatum, g: Character,
                     level: int, tie_break: str = "max") -> FlagDecomposition:
    """Peel a graded invariant character into level-``level`` pieces.

    Requires per-grade Weyl invariance up front.  ``tie_break`` selects
    among incomparable dominance-maximal weights ("max" or "min" in
    lexicographic order); the resulting multiset of pieces does not depend
    on the choice.
    """
    if tie_break not in ("min", "max"):
        raise ValueError(f"tie_break must be min or max, not {tie_break!r}")
    if level < 1:
        raise errors.ZeroLevel(f"level must be positive, got {level}")
    rd = ad.finite
    if not check_w_invariance_per_grade(rd, g):
        raise errors.NonDominantLeading(
            "character is not Weyl invariant grade by grade")
    residue = g
    pieces: list[tuple[Weight, int, int]] = []
    while len(residue) > 0:
        lead_h = _leading_weight(rd, {k[:-1] for k in residue._terms},
                                 tie_break)
        lead = Weight(lead_h, 0)
        if not rd.is_dominant(lead):
            raise errors.NonDominantLeading(
                f"leading weight {lead_h} is not dominant")
        grade = min(k[-1] for k in residue._terms if k[:-1] == lead_h)
        coeff = residue.coefficient(Weight(lead_h, grade))
        if coeff < 0:
            raise errors.NegativeMultiplicity(
                f"piece ({lead_h}, {grade}) has coefficient {coeff}")
        piece = demazure_character(ad, DemazureLabel(level, lead, 0))
        residue = residue - shift_grade(piece, grade).scale(coeff)
        pieces.append((lead, grade, coeff))
    return FlagDecomposition(level=level, pieces=tuple(pieces))


def level_flag(ad: AffineDatum, level: int, to_level: int,
               lam: Weight) -> FlagDecomposition:
    """Flag of a level-``level`` character by level-``to_level`` pieces.

    Only available in simply-laced type, where such flags exist for every
    higher target level.
    """
    if ad.finite.short_nodes:
        raise errors.NotSimplyLaced(
            f"{ad.finite.label} is not simply laced")
    if to_level <= level:
        raise ValueError("target level must exceed the source level")
    g = demazure_character(ad, DemazureLabel(level, lam, 0))
    return greedy_decompose(ad, g, to_level)


def graded_weyl_character(
        rd: RootDatum,
        lam: Weight) -> tuple[Character, FlagDecomposition]:
    """Graded character of the local Weyl module and its level-one flag.

    Memoised like ``demazure_character``: a repeated weight returns the
    same pair.
    """
    if not rd.is_dominant(lam):
        raise errors.NotDominant(f"{lam.h} is not dominant for {rd.label}")
    return _graded_weyl(rd, lam.d, *lam.h)


@lru_cache(maxsize=MEMO_SIZE, typed=True)
def _graded_weyl(
        rd: RootDatum, d: int,
        *h: int) -> tuple[Character, FlagDecomposition]:
    lam = Weight(h, d)
    ad = affinize(rd)
    if not rd.short_nodes:
        char = demazure_character(ad, DemazureLabel(1, lam, 0))
        return char, FlagDecomposition(level=1, pieces=((lam, 0, 1),))

    se = short_subdatum(rd)
    sub_ad = affinize(se.subdatum)
    lam_short = se.restrict(lam)
    short_char = demazure_character(sub_ad, DemazureLabel(1, lam_short, 0))
    short_flag = greedy_decompose(sub_ad, short_char, rd.lacing)

    pieces = []
    total = Character.zero(rd)
    for mu, grade, mult in short_flag.pieces:
        lifted = eta_lambda(se, lam, mu)
        piece = demazure_character(ad, DemazureLabel(1, lifted, 0))
        total = total + shift_grade(piece, grade).scale(mult)
        pieces.append((lifted, grade, mult))
    return total, FlagDecomposition(level=1, pieces=tuple(pieces))


def weyl_dim_product_check(rd: RootDatum,
                           lam: Weight) -> tuple[bool, tuple[int, int]]:
    """Compare the Weyl-module dimension with the fundamental product."""
    mass = graded_weyl_character(rd, lam)[0].mass()
    product = 1
    for i in rd.indices:
        mult = rd.value(lam, i)
        if mult:
            omega = rd.fundamental_weight(i)
            product *= graded_weyl_character(rd, omega)[0].mass() ** mult
    return mass == product, (mass, product)


def local_weyl_character(rd: RootDatum,
                         varpi: DominantLWeight) -> Character:
    """Ungraded character of the tensor product over the labelled summands.

    Summands of equal weight share one factor character, computed once.
    """
    factors: dict[tuple[int, ...], Character] = {}
    out = Character.monomial(rd, rd.zero_weight)
    for w, _ in varpi.factors:
        if w.h not in factors:
            factors[w.h] = forget_grading(graded_weyl_character(rd, w)[0])
        out = out * factors[w.h]
    return out
