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
has how).  The weight character is ``characters._expand`` of the map,
which builds no irreducible character.

The dimension runs the same ladder with the grade forgotten.  ``delta``
pairs to zero with every coroot, so each ``D_i`` commutes with
``e^(mu + k delta) -> e^mu``: the ladder starts from ``Lambda`` at grade 0,
``alpha_0`` steps without its ``delta``, and terms that differ only in grade
merge as they are made, so every top's row is ``{0: m}``.  The dimension is
the sum over tops of ``m`` times Weyl's dimension formula, with nothing
expanded.  It neither reads nor fills the multiplicity maps of the
characters, which keep their grades.

In simply-laced type (A, D, E) the dimension factors, and only small
labels run the ladder.  The source paper (arXiv:1307.4305) proves that
there the graded local Weyl module ``W(lam)`` is the level-one Demazure
module ``D(1, lam)``, and that its character is the product of those of
the ``W(omega_i)``, ``lam_i`` times each.  Fourier and Littelmann (Adv. Math.
211 (2007), 566-593) extend this to every level ``l``: with
``lam = sum_i m_i l omega_i + lam0`` and every ``lam0_i < l``, ``D(l, lam)``
is the fusion product of ``m_i`` copies of each ``D(l, l omega_i)`` and one
``D(l, lam0)``, so

    dim D(l, lam) = dim D(l, lam0) * prod_i dim D(l, l omega_i)^m_i.

Each piece ``D(l, l omega_i)`` runs the ladder once and is kept, per
datum, level and node, in a memo of its own; ``lam0`` runs it each time.
``_fundamental_product``, the one owner of the size bound, for ``flags``
too, refuses with ``TooLarge`` a product whose factors would pass
``MAX_DIM_BITS`` bits before it multiplies.  Types B, C, F and G keep the
ladder for every label: there the law needs the short nodes' factors at a
higher level, which no theorem cited here states.

All of it is exact integer arithmetic, over no ground field, so a result
depends only on its datum and label: the last ``MEMO_SIZE`` characters and
dimensions are each kept for the life of the process, and a repeated label
returns the same object.  The multiplicity maps beneath the characters
keep the last ``4 * MEMO_SIZE``, as the dominant multiplicities of the Weyl
characters do: every flag peel reads one map per lead, the same few maps
over and over, and a nested map stores each top once, so they are small.
Beneath the dimensions, the Weyl dimensions of the last ``4 * MEMO_SIZE``
tops are kept per datum, since many labels share their tops, and the
last ``MEMO_SIZE`` pieces of the factorization.
Each entry point is one lookup in a ``characters.memo``, and a miss checks
the label in ``_label``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import prod
from operator import mul

from . import errors
from .characters import (MEMO_SIZE, Character, Labels, _expand,
                         _irreducibles, _weyl_dim, memo)
from .root_data import (AffineDatum, RootDatum, Weight, _make_dominant,
                        apply_word, integral, shown)

# The bound on ``sum m * bit_length(f)`` over the factors ``f ** m`` of a
# fundamental product (``_fundamental_product``): 8192 bits, about 2,466
# decimal digits, well inside the 4,300 digits that CPython turns into a
# string by default.
MAX_DIM_BITS = 8192


class DemazureLabel(namedtuple("DemazureLabel", "level lam grade",
                               defaults=(0,))):
    """Label (level, classical highest weight, grade offset): the ``int``
    fields ``level`` and ``grade``, and ``lam``, a ``Weight``.  The weight
    carries no grade of its own: its ``d`` is 0."""

    __slots__ = ()


def _level(level: int) -> int:
    """The checked level: an integer, and at least 1 (else ``ZeroLevel``)."""
    level = integral(level, "level")
    if level < 1:
        raise errors.ZeroLevel(f"level must be positive, got {shown(level)}")
    return level


def _label(rd: RootDatum, level: int, grade: int, d: int,
           h: tuple[int, ...]) -> DemazureLabel:
    """The checked label: integral level >= 1 and grade, and an integral
    dominant weight of rank ``rd.rank`` whose ``d`` is 0."""
    grade = integral(grade, "grade")
    level = _level(level)
    lam = rd.weight(h, d)
    if lam.d:
        raise ValueError(f"classical weight {shown(lam.h)} has grade "
                         f"{shown(lam.d)}, not 0")
    return DemazureLabel(level, rd.dominant(lam), grade)


def _reduce(ad: AffineDatum, level: int, lam: Weight,
            grade: int) -> tuple[Weight, tuple[int, ...]]:
    """``make_dominant`` of ``level * Lambda_0 + lam + grade * delta``."""
    h0 = level - sum(map(mul, ad.finite.comarks, lam.h))
    return _make_dominant(ad, Weight((h0, *lam.h), grade))


def solve_extremal(ad: AffineDatum,
                   lab: DemazureLabel) -> tuple[Weight, tuple[int, ...]]:
    """Dominant affine weight and reduced word realizing the label.

    Returns ``(Lam, sigma)`` with ``apply_word(sigma, Lam)`` equal to the
    extremal weight of the label.  Existence and uniqueness come from the
    simple transitivity of the affine Weyl group on alcoves at positive
    level.
    """
    rd = ad.finite
    level, lam, grade = _label(rd, lab.level, lab.grade, lab.lam.d, lab.lam.h)
    return _reduce(ad, level, apply_word(rd, rd.w0_word, lam), grade)


def _ladder(ad: AffineDatum, level: int, lam: Weight, grade: int,
            graded: bool) -> Labels:
    """``_irreducibles`` of ``D_u e^Lambda`` for a checked label; unless
    ``graded``, from ``Lambda`` at grade 0 with the grade forgotten, so
    every row is ``{0: m}``."""
    dom, u = _reduce(ad, level, lam, grade)
    # Node ``i`` of an affine datum sits at position ``i``.
    return _irreducibles(ad, u[::-1], {(*dom.h, dom.d if graded else 0): 1},
                         graded)


@memo(4 * MEMO_SIZE)
def _labels(ad: AffineDatum, level: int, grade: int, d: int,
            *h: int) -> Labels:
    """Irreducible multiplicities ``{top: {grade: m}}`` of a label checked
    on the miss, shared by every caller; none mutates them."""
    level, lam, grade = _label(ad.finite, level, grade, d, h)
    return _ladder(ad, level, lam, grade, True)


def demazure_character(ad: AffineDatum,
                       lab: DemazureLabel) -> Character:
    """Graded classical character of the labelled module, memoised."""
    return _character(ad, lab.level, lab.grade, lab.lam.d, *lab.lam.h)


@memo(MEMO_SIZE)
def _character(ad: AffineDatum, level: int, grade: int, d: int,
               *h: int) -> Character:
    return _expand(ad.finite, _labels(ad, level, grade, d, *h))


def demazure_dim(ad: AffineDatum, lab: DemazureLabel) -> int:
    """Dimension, memoised: by the factorization in simply-laced type,
    else by the grade-free ladder (see the module docstring)."""
    return _dim(ad, lab.level, lab.grade, lab.lam.d, *lab.lam.h)


@memo(MEMO_SIZE)
def _dim(ad: AffineDatum, level: int, grade: int, d: int, *h: int) -> int:
    rd = ad.finite
    level, lam, _ = _label(rd, level, grade, d, h)
    if rd.short_nodes:
        return _ladder_dim(ad, level, lam)
    product = _fundamental_product(lam.h, [
        (_piece(ad, level, i), x // level)
        for i, x in zip(rd.indices, lam.h) if x >= level])
    rest = Weight(tuple(x % level for x in lam.h))
    # ``D(level, 0)`` is the trivial module.
    return product * (_ladder_dim(ad, level, rest) if any(rest.h) else 1)


def _fundamental_product(h: tuple[int, ...],
                         powers: list[tuple[int, int]]) -> int:
    """``prod f ** m`` over the pairs ``(f, m)`` of ``powers``, the factors
    of the weight with values ``h``; ``TooLarge`` before anything is
    multiplied if ``sum m * bit_length(f)`` passes ``MAX_DIM_BITS``."""
    if sum(m * f.bit_length() for f, m in powers) > MAX_DIM_BITS:
        raise errors.TooLarge(f"the fundamental product of {shown(h)} would "
                              f"pass {MAX_DIM_BITS} bits")
    return prod(f ** m for f, m in powers)


@lru_cache(maxsize=MEMO_SIZE)
def _piece(ad: AffineDatum, level: int, i: int) -> int:
    """``dim D(level, level omega_i)``, a factor of the factorization."""
    return _ladder_dim(ad, level, level * ad.finite.fundamental_weight(i))


def _ladder_dim(ad: AffineDatum, level: int, lam: Weight) -> int:
    """Dimension of a checked label by the grade-free ladder:
    multiplicities times Weyl dimensions."""
    rd = ad.finite
    return sum(row[0] * _weyl_dim(rd, top)
               for top, row in _ladder(ad, level, lam, 0, False).items())
