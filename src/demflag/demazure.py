"""Stable affine Demazure modules: extremal weights, characters, dimensions.

A module here is labelled by a positive level, a dominant classical weight,
and an integer grade offset.  Its extremal affine weight is

    level * Lambda_0  +  (longest-element image of the classical weight)
                      +  grade * delta,

embedded at level ``level``.  Reducing that weight to the dominant chamber
yields a dominant affine weight ``Lambda`` together with a reduced word
``sigma`` (``solve_extremal``); the composite Demazure operator along
``sigma``, applied to ``e^Lambda`` and projected to graded classical form,
is the module's character.  The classical highest weight sits at the grade
offset with coefficient one, and every grade of the support is at least
that offset.

The module is stable under the finite Lie algebra.  Let ``u`` be the
reduced word that ``make_dominant`` returns for
``level * Lambda_0 + lam + grade * delta``: the classical weight ``lam``
itself, not its ``w0`` image.  Then ``sigma = w0^lam * u`` with the lengths
adding, ``w0^lam`` the shortest element of ``w0`` modulo the stabilizer of
``lam``; the stabilizer's own operators fix ``D_u e^Lambda``, so

    ch D(level, lam, grade) = D_w0 (D_u e^Lambda).

The finite operators commute with the graded classical projection, and
``D_w0`` is the Weyl symmetrizer.  So the ladder runs along ``u`` only, and
``characters._irreducibles`` straightens its packed terms into a nested map
``{top: {grade: multiplicity}}`` (``Labels``; the ``characters`` docstring
has how).  The dimension is the sum over tops of the row's multiplicities
times Weyl's dimension formula, with nothing expanded; the weight character
is ``characters._expand`` of the map, which builds no irreducible character.

All of it is exact integer arithmetic, over no ground field, so a result
depends only on its datum and label: the last ``MEMO_SIZE`` characters and
dimensions are each kept for the life of the process, and a repeated label
returns the same object.  The multiplicity maps beneath them keep the last
``4 * MEMO_SIZE``, as the dominant multiplicities of the Weyl characters
do: every flag peel reads one map per lead, the same few maps over and
over, and a nested map stores each top once, so they are small.  Beneath
the dimensions, the Weyl dimensions of the last ``4 * MEMO_SIZE`` tops are
kept per datum, since many labels share their tops.
Labels are validated on every call, so a bad label raises every time and
no error is kept.  Integrality is checked on a miss: the memos key every
number by its type, so a float never shares an entry with an integer.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index, mul
from typing import NamedTuple

from . import errors
from .characters import (MEMO_SIZE, Character, Labels, _expand,
                         _irreducibles, _weyl_dim)
from .root_data import AffineDatum, Weight, apply_word, make_dominant


class DemazureLabel(NamedTuple):
    """Label (level, classical highest weight, grade offset).  The weight
    carries no grade of its own: its ``d`` is 0."""

    level: int
    lam: Weight
    grade: int = 0


def _validate(ad: AffineDatum, lab: DemazureLabel) -> None:
    if lab.level < 1:
        raise errors.ZeroLevel(f"level must be positive, got {lab.level}")
    if len(lab.lam.h) != ad.rank:
        raise ValueError(f"classical weight has rank {len(lab.lam.h)}, "
                         f"expected {ad.rank}")
    _check_ungraded(lab.lam)
    if not ad.finite.is_dominant(lab.lam):
        raise errors.NotDominant(f"{lab.lam.h} is not dominant")


def _check_ungraded(lam: Weight) -> None:
    """A classical highest weight carries no grade: ``ValueError`` unless
    its ``d`` is the integer 0.  A module's grade is its label's."""
    try:
        d = index(lam.d)
    except TypeError:
        d = None
    if d != 0:
        raise ValueError(f"classical weight {lam.h} has grade {lam.d!r}, "
                         f"not 0")


def _reduce(ad: AffineDatum, level: int, lam: Weight,
            grade: int) -> tuple[Weight, tuple[int, ...]]:
    """``make_dominant`` of ``level * Lambda_0 + lam + grade * delta``."""
    h0 = level - sum(map(mul, ad.finite.comarks, lam.h))
    dom, word = make_dominant(ad, Weight((h0, *lam.h), grade))
    if ad.level(dom) != level:
        raise AssertionError("chamber reduction changed the level")
    return dom, word


def solve_extremal(ad: AffineDatum,
                   lab: DemazureLabel) -> tuple[Weight, tuple[int, ...]]:
    """Dominant affine weight and reduced word realizing the label.

    Returns ``(Lam, sigma)`` with ``apply_word(sigma, Lam)`` equal to the
    extremal weight of the label.  Existence and uniqueness come from the
    simple transitivity of the affine Weyl group on alcoves at positive
    level.
    """
    _validate(ad, lab)
    rd = ad.finite
    return _reduce(ad, lab.level, apply_word(rd, rd.w0_word, lab.lam),
                   lab.grade)


@lru_cache(maxsize=4 * MEMO_SIZE, typed=True)
def _labels(ad: AffineDatum, level: int, grade: int, *h: int) -> Labels:
    """Irreducible multiplicities ``{top: {grade: m}}`` of a valid label,
    whose numbers are checked integral here, on the memo miss.  The map and
    its rows are shared by every caller, and none mutates them."""
    try:
        level, grade = index(level), index(grade)
    except TypeError:
        raise ValueError(f"level {level!r} and grade {grade!r} must be "
                         f"integers") from None
    dom, u = _reduce(ad, level, ad.finite.weight(h), grade)
    # Node ``i`` of an affine datum sits at position ``i``.
    return _irreducibles(ad, u[::-1], {(*dom.h, dom.d): 1})


def demazure_character(ad: AffineDatum,
                       lab: DemazureLabel) -> Character:
    """Graded classical character of the labelled module, memoised."""
    _validate(ad, lab)
    return _character(ad, lab.level, lab.grade, *lab.lam.h)


@lru_cache(maxsize=MEMO_SIZE, typed=True)
def _character(ad: AffineDatum, level: int, grade: int,
               *h: int) -> Character:
    return _expand(ad.finite, _labels(ad, level, grade, *h))


def demazure_dim(ad: AffineDatum, lab: DemazureLabel) -> int:
    """Dimension: multiplicities times Weyl dimensions, memoised."""
    _validate(ad, lab)
    return _dim(ad, lab.level, lab.grade, *lab.lam.h)


@lru_cache(maxsize=MEMO_SIZE, typed=True)
def _dim(ad: AffineDatum, level: int, grade: int, *h: int) -> int:
    rd = ad.finite
    return sum(sum(row.values()) * _weyl_dim(rd, top)
               for top, row in _labels(ad, level, grade, *h).items())
