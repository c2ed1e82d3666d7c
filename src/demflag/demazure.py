"""Stable affine Demazure modules: extremal weights, characters, dimensions.

A module here is labelled by a positive level, a dominant classical weight,
and an integer grade offset.  Its extremal affine weight is

    level * Lambda_0  +  (longest-element image of the classical weight)
                      +  grade * delta,

embedded at level ``level``.  Reducing that weight to the dominant chamber
yields a dominant affine weight together with a reduced word; the composite
Demazure operator along the word, applied to the dominant weight and
projected to graded classical form, is the module's character.  The
classical highest weight sits at the grade offset with coefficient one, and
every grade of the support is at least that offset.

Characters and dimensions computed this way depend only on the label, not
on any ground field; the construction is exact integer arithmetic
throughout.

Since a character depends only on its datum and label, the last
``MEMO_SIZE`` characters are kept for the life of the process; a repeated
label returns the same immutable object.  Labels are validated on every
call, so a bad label raises every time and no error is kept.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import errors
from .characters import (Character, demazure_word_char,
                         project_graded_classical)
from .root_data import AffineDatum, Weight, apply_word, make_dominant

# Entries in each module memo (this one and ``flags.graded_weyl_character``'s).
# Measured on the perfbench ``flags`` and ``ladder`` families: 48 entries
# give about 95% of the ``flags`` throughput of 64 and 128, and raise peak
# memory by about 4% instead of 5.5%; 32 give about 80%.
MEMO_SIZE = 48


class DemazureLabel(NamedTuple):
    """Label (level, classical highest weight, grade offset)."""

    level: int
    lam: Weight
    grade: int = 0


def _validate(ad: AffineDatum, lab: DemazureLabel) -> None:
    if lab.level < 1:
        raise errors.ZeroLevel(f"level must be positive, got {lab.level}")
    if len(lab.lam.h) != ad.rank:
        raise ValueError(f"classical weight has rank {len(lab.lam.h)}, "
                         f"expected {ad.rank}")
    if not ad.finite.is_dominant(lab.lam):
        raise errors.NotDominant(f"{lab.lam.h} is not dominant")


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
    w0lam = apply_word(rd, rd.w0_word, lab.lam)
    target = ad.embed_classical(w0lam, grade=lab.grade)
    target = Weight((target.h[0] + lab.level,) + target.h[1:], target.d)
    lam, word = make_dominant(ad, target)
    if ad.level(lam) != lab.level:
        raise AssertionError("chamber reduction changed the level")
    return lam, word


def demazure_character(ad: AffineDatum,
                       lab: DemazureLabel) -> Character:
    """Graded classical character of the labelled module, memoised."""
    _validate(ad, lab)
    return _character(ad, lab.level, lab.grade, lab.lam.d, *lab.lam.h)


# ``typed`` keys every number by its type too, so a float level or grade
# never shares an entry with the equal integer (its grades print as floats).
@lru_cache(maxsize=MEMO_SIZE, typed=True)
def _character(ad: AffineDatum, level: int, grade: int, d: int,
               *h: int) -> Character:
    lam, word = solve_extremal(ad, DemazureLabel(level, Weight(h, d), grade))
    return project_graded_classical(ad, demazure_word_char(ad, word, lam))


def demazure_dim(ad: AffineDatum, lab: DemazureLabel) -> int:
    """Dimension: total mass of the character."""
    return demazure_character(ad, lab).mass()
