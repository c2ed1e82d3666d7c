"""Flags by higher-level Demazure characters and graded Weyl characters.

A graded, Weyl-invariant classical character is peeled as its irreducible
multiplicities ``{dominant top: {grade: m}}``, the map ``demazure._labels``
gives for a Demazure module.  The peel copies its input once, then works on
the copy in place: subtracting a piece deletes every entry that reaches zero
and every row left empty, so the tops still to peel are the copy's keys, and
no pass rebuilds or rescans the whole map.  The leading top is the
lexicographically largest top that no other top dominates; height is
positive on simple roots, so a candidate is tested only against tops of
greater height.  Each grade of its row, least first, and that grade's
multiplicity name a piece, and that multiple of the target-level Demazure
module of the top, shifted to the grade, is subtracted row by row.  A
Demazure module holds its top once, at grade 0, and every other top
strictly below, so a piece empties one entry of the lead's row and adds
nothing above the lead: the whole row is peeled before the next lead is
chosen, and the multiset of pieces does not depend on the order of the
leads.  The order is that of peeling the expanded weight character: the
maximal weights of ``sum m chi(top)`` are exactly its maximal tops with
``m != 0``, as a top with nothing above it cannot cancel.  Weights are
expanded once, for a character that is returned.

``greedy_decompose`` takes a weight character from outside.  It checks
per-grade invariance and straightens every term through ``D_w0``: an
invariant ``f`` has ``D_w0 f = f`` (Demazure 1974; Kumar 2002, chapter 8),
so this gives its multiplicities.  Straightening alone would accept a
character that is not invariant (on A1 it sends ``e^1`` to ``V(1)``), so the
check stays.

In simply-laced type the graded character of a local Weyl module is one
level-one Demazure character.  Otherwise the short-root subsystem carries a
level-one Demazure character of its own simply-laced affinization, peeled
at the lacing number as target level; each piece lifts back to the parent,
where it names a level-one Demazure module with the same grade shift and
multiplicity.  The lifted pieces are the flag, and their multiplicities,
summed and expanded, the character.

Characters of local Weyl modules multiply: the module for a sum of dominant
weights attached to pairwise distinct labels is the tensor product of the
modules of the summands, so its ungraded character is the product of
theirs, which the dimension check compares with the fundamental product:
``demazure._fundamental_product`` computes it, and alone bounds its size.

``level_flag``, ``graded_weyl_character``, ``weyl_dim_product_check`` and
``local_weyl_character`` are each one lookup in a ``characters.memo``,
keyed by every number of the request (both levels; every summand's
length, grade and values in order).  ``greedy_decompose`` takes a
character, which is no key, and peels it on every call.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice

from . import errors
from .characters import (MEMO_SIZE, Character, Labels, _expand,
                         _irreducibles, check_w_invariance_per_grade,
                         forget_grading, memo)
from .demazure import _fundamental_product, _label, _labels, _level
from .root_data import (AffineDatum, Frozen, RootDatum, Weight, affinize,
                        eta_lambda, integral, short_subdatum, shown)


class FlagDecomposition(namedtuple("FlagDecomposition", "level pieces")):
    """Pieces ``(classical weight, grade, multiplicity)`` at one level: the
    ``int`` field ``level``, and ``pieces``, a ``tuple[tuple[Weight, int,
    int], ...]``."""

    __slots__ = ()


class DominantLWeight(Frozen):
    """Dominant weight split as labelled summands; labels are strings and
    must differ.  Immutable, so the labels stay as checked."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[Weight, str], ...]) -> None:
        factors = tuple(factors)
        labels = [a for _, a in factors]
        for a in labels:
            if not isinstance(a, str):
                raise ValueError(f"summand label {shown(a)!r} is not a string")
        if len(set(labels)) != len(labels):
            raise ValueError("summand labels must be pairwise distinct")
        object.__setattr__(self, "factors", factors)


def _add(out: Labels, labels: Labels, grade: int, c: int) -> None:
    """Add ``c`` times ``labels``, shifted by ``grade``, into ``out``, in
    place: an entry that reaches zero is deleted, and so is a row left
    empty.  ``c`` is nonzero, and no row of ``labels`` is shared with
    ``out``."""
    for top, row in labels.items():
        if (into := out.get(top)) is None:
            out[top] = {g + grade: c * m for g, m in row.items()}
            continue
        for g, m in row.items():
            g += grade
            if m := into.get(g, 0) + c * m:
                into[g] = m
            else:
                del into[g]
        if not into:
            del out[top]


def _peel(ad: AffineDatum, labels: Labels, level: int) -> FlagDecomposition:
    """Level-``level`` pieces of ``labels``, peeled off a copy of it, so
    the caller's map is left as it is."""
    rd = ad.finite

    def below(h, o):
        coords = rd.root_coordinates([b - a for a, b in zip(h, o)])
        return coords is not None and all(x >= 0 for x in coords)

    pieces: list[tuple[Weight, int, int]] = []
    height: dict[tuple[int, ...], int] = {}     # every top seen, once each
    residue: Labels = {}
    _add(residue, labels, 0, 1)
    tops = residue.keys()
    while residue:
        height.update((t, rd.height(t)) for t in tops - height.keys())
        lead = next(h for h in sorted(tops, reverse=True)
                    if not any(height[o] > height[h] and below(h, o)
                               for o in tops))
        # A piece holds its lead once, at grade 0, and every other top
        # strictly below, so the lead stays the first undominated top until
        # its row is empty.
        row = residue[lead]
        piece = _labels(ad, level, 0, 0, *lead)
        for grade in sorted(row):
            coeff = row[grade]
            if coeff < 0:
                raise errors.NegativeMultiplicity(
                    f"piece ({shown(lead)}, {shown(grade)}) has coefficient "
                    f"{shown(coeff)}")
            _add(residue, piece, grade, -coeff)
            pieces.append((Weight(lead, 0), grade, coeff))
    return FlagDecomposition(level=level, pieces=tuple(pieces))


def greedy_decompose(ad: AffineDatum, g: Character,
                     level: int) -> FlagDecomposition:
    """Peel a graded invariant character into level-``level`` pieces.

    Requires per-grade Weyl invariance up front, then peels the
    multiplicities that straightening ``g`` through ``D_w0 g = g`` gives.
    """
    level = _level(level)
    rd = ad.finite
    if not check_w_invariance_per_grade(rd, g):
        raise errors.NonDominantLeading(
            "character is not Weyl invariant grade by grade")
    return _peel(ad, _irreducibles(rd, (), g._terms), level)


def level_flag(ad: AffineDatum, level: int, to_level: int,
               lam: Weight) -> FlagDecomposition:
    """Flag of a level-``level`` character by level-``to_level`` pieces.

    Only available in simply-laced type, where such flags exist for every
    higher target level.  Memoised.
    """
    return _level_flag(ad, level, to_level, lam.d, *lam.h)


@memo(MEMO_SIZE)
def _level_flag(ad: AffineDatum, level: int, to_level: int, d: int,
                *h: int) -> FlagDecomposition:
    if ad.finite.short_nodes:
        raise errors.NotSimplyLaced(f"{ad.finite.label} is not simply laced")
    level = integral(level, "level")
    to_level = integral(to_level, "target level")
    if to_level <= level:
        raise ValueError("target level must exceed the source level")
    return _peel(ad, _labels(ad, level, 0, d, *h), to_level)


def graded_weyl_character(
        rd: RootDatum,
        lam: Weight) -> tuple[Character, FlagDecomposition]:
    """Graded character of the local Weyl module and its level-one flag,
    memoised; the weight is checked as that of a level-one label."""
    return _graded_weyl(rd, lam.d, *lam.h)


@memo(MEMO_SIZE)
def _graded_weyl(rd: RootDatum, d: int,
                 *h: int) -> tuple[Character, FlagDecomposition]:
    lam = _label(rd, 1, 0, d, h).lam
    pieces: tuple[tuple[Weight, int, int], ...] = ((lam, 0, 1),)
    if rd.short_nodes:
        se = short_subdatum(rd)
        sub_ad = affinize(se.subdatum)
        flag = _peel(sub_ad, _labels(sub_ad, 1, 0, 0, *se.restrict(lam).h),
                     rd.lacing)
        pieces = tuple((eta_lambda(se, lam, mu), grade, mult)
                       for mu, grade, mult in flag.pieces)
    ad = affinize(rd)
    total: Labels = {}
    for mu, grade, mult in pieces:
        _add(total, _labels(ad, 1, 0, 0, *mu.h), grade, mult)
    return _expand(rd, total), FlagDecomposition(level=1, pieces=pieces)


def weyl_dim_product_check(rd: RootDatum,
                           lam: Weight) -> tuple[bool, tuple[int, int]]:
    """Compare the Weyl-module dimension with the fundamental product.

    Memoised.  The fundamental product comes first, by
    ``demazure._fundamental_product``, which refuses one too large with
    ``TooLarge`` before the label's own character is built.
    """
    return _dim_check(rd, lam.d, *lam.h)


@memo(MEMO_SIZE)
def _dim_check(rd: RootDatum, d: int,
               *h: int) -> tuple[bool, tuple[int, int]]:
    lam = _label(rd, 1, 0, d, h).lam
    product = _fundamental_product(lam.h, [
        (graded_weyl_character(rd, rd.fundamental_weight(i))[0].mass(), m)
        for i, m in zip(rd.indices, lam.h) if m])
    mass = graded_weyl_character(rd, lam)[0].mass()
    return mass == product, (mass, product)


def local_weyl_character(rd: RootDatum,
                         varpi: DominantLWeight) -> Character:
    """Ungraded character of the tensor product over the labelled summands.

    Memoised; the labels do not change the character.  A miss checks every
    summand as a level-one label, and summands of equal weight share one
    factor character, computed once.
    """
    return _local_weyl(rd, *[x for w, _ in varpi.factors
                             for x in (len(w.h), w.d, *w.h)])


@memo(MEMO_SIZE)
def _local_weyl(rd: RootDatum, *numbers: int) -> Character:
    factors: dict[Weight, Character] = {}
    out = Character.monomial(rd, rd.zero_weight)
    rest = iter(numbers)
    for n in rest:
        lam = _label(rd, 1, 0, next(rest), tuple(islice(rest, n))).lam
        if lam not in factors:
            factors[lam] = forget_grading(graded_weyl_character(rd, lam)[0])
        out = out * factors[lam]
    return out
