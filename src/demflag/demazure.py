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
``D_w0`` is the Weyl symmetrizer: it sends ``e^mu`` to
``sign(w) * chi(w(mu + rho) - rho)``, with ``w`` carrying ``mu + rho`` into
the dominant chamber, or to zero when ``mu + rho`` is singular (Demazure
1974; Humphreys, GTM 9, section 24; Kumar 2002, chapter 8).  So the ladder
runs along ``u`` only, on packed integer keys (``characters._ladder``), and
each term straightens in plain integers, its finite values and grade read
off the packed key with no character built in between: reflect ``mu + rho``
at a node of negative value until there is none, flipping the sign at each
step, and drop the term when a value is zero.  The loop carries ``mu``
itself, moved by the dot action ``s_p (mu + rho) - rho``.  What remains is
a map ``{(dominant weight, grade): multiplicity}``.  The dimension is the
sum of multiplicity times Weyl's dimension formula, with nothing expanded;
the weight character expands each irreducible through
``weyl_character_finite`` at its grade.

All of it is exact integer arithmetic, over no ground field, so a result
depends only on its datum and label: the last ``MEMO_SIZE`` multiplicity
maps, characters and dimensions are each kept for the life of the process,
and a repeated label returns the same object.
Labels are validated on every call, so a bad label raises every time and
no error is kept.  Integrality is checked on a miss: the memos key every
number by its type, so a float never shares an entry with an integer.
"""

from __future__ import annotations

from functools import cache, lru_cache
from operator import index
from typing import Iterable, NamedTuple, Sequence

from . import errors
from .characters import (MEMO_SIZE, Character, Flat, _ladder, _nonzero,
                         weyl_character_finite)
from .root_data import (AffineDatum, RootDatum, Weight, apply_word,
                        make_dominant)


Labels = dict[tuple[tuple[int, ...], int], int]     # {(top, grade): m}


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


def _reduce(ad: AffineDatum, level: int, lam: Weight,
            grade: int) -> tuple[Weight, tuple[int, ...]]:
    """``make_dominant`` of ``level * Lambda_0 + lam + grade * delta``."""
    target = ad.embed_classical(lam, grade=grade)
    target = Weight((target.h[0] + level,) + target.h[1:], target.d)
    dom, word = make_dominant(ad, target)
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


@lru_cache(maxsize=MEMO_SIZE, typed=True)
def _labels(ad: AffineDatum, level: int, grade: int, d: int,
            *h: int) -> Labels:
    """Irreducible multiplicities ``{(top, grade): m}`` of a valid label,
    whose numbers are checked integral here, on the memo miss.  The map is
    shared by every caller, and none mutates it."""
    rd = ad.finite
    try:
        level, grade = index(level), index(grade)
    except TypeError:
        raise ValueError(f"level {level!r} and grade {grade!r} must be "
                         f"integers") from None
    dom, u = _reduce(ad, level, rd.weight(h, d), grade)
    # Node ``i`` of an affine datum sits at position ``i``.
    packed, (shifts, _, mask, bias, _) = _ladder(ad, u[::-1],
                                                 {(*dom.h, dom.d): 1})
    # Each key holds ``h_0``, the finite values and the grade.
    fin, top = shifts[1:-1], shifts[-1]
    return _straighten(rd, (([((k >> s) & mask) - bias for s in fin],
                             (k >> top) - bias, c)
                            for k, c in packed.items()))


def _straighten(rd: RootDatum,
                terms: Iterable[tuple[Sequence[int], int, int]]) -> Labels:
    """``{(top, grade): m}`` with ``D_w0`` of the terms equal to
    ``sum m * chi(top)`` grade by grade.  A term is ``(mu, grade, c)``: the
    finite values of its weight, its grade and its coefficient.  The loop
    moves ``mu`` by the dot action, ``s_p (mu + rho) - rho``, which
    subtracts ``(mu_p + 1) alpha_p``."""
    roots = rd.flat_roots
    out: Labels = {}
    get = out.get
    for mu, g, c in terms:
        while True:
            for p, v in enumerate(mu):
                if v < 0:
                    break
            else:                       # dominant: ``chi(mu)``
                key = (tuple(mu), g)
                out[key] = get(key, 0) + c
                break
            if v == -1:                 # ``mu + rho`` singular: zero
                break
            v += 1
            mu = [a - v * b for a, b in zip(mu, roots[p])]
            c = -c
    return _nonzero(out)


def _expand(rd: RootDatum, labels: Labels) -> Character:
    """The weight character of ``{(top, grade): m}``: each irreducible
    through ``weyl_character_finite``, at its grade."""
    out: Flat = {}
    get = out.get
    for (top, g), m in labels.items():
        for k, c in weyl_character_finite(rd, Weight(top, 0))._terms.items():
            k = k[:-1] + (g,)
            out[k] = get(k, 0) + m * c
    return Character._wrap(rd, _nonzero(out))


@cache
def _positive_coroots(rd: RootDatum) -> tuple[tuple[int, ...], ...]:
    return tuple(rd.coroot(beta) for beta in rd.positive_roots)


def _weyl_dim(rd: RootDatum, h: tuple[int, ...]) -> int:
    """Weyl's dimension formula: the product over positive roots ``beta``
    of ``(h + rho)(h_beta) / rho(h_beta)``, with ``rho`` all ones."""
    num = den = 1
    for co in _positive_coroots(rd):
        num *= sum(c * (v + 1) for c, v in zip(co, h))
        den *= sum(co)
    return num // den


def demazure_character(ad: AffineDatum,
                       lab: DemazureLabel) -> Character:
    """Graded classical character of the labelled module, memoised."""
    _validate(ad, lab)
    return _character(ad, lab.level, lab.grade, lab.lam.d, *lab.lam.h)


@lru_cache(maxsize=MEMO_SIZE, typed=True)
def _character(ad: AffineDatum, level: int, grade: int, d: int,
               *h: int) -> Character:
    return _expand(ad.finite, _labels(ad, level, grade, d, *h))


def demazure_dim(ad: AffineDatum, lab: DemazureLabel) -> int:
    """Dimension: multiplicities times Weyl dimensions, memoised."""
    _validate(ad, lab)
    return _dim(ad, lab.level, lab.grade, lab.lam.d, *lab.lam.h)


@lru_cache(maxsize=MEMO_SIZE, typed=True)
def _dim(ad: AffineDatum, level: int, grade: int, d: int, *h: int) -> int:
    rd = ad.finite
    return sum(m * _weyl_dim(rd, top)
               for (top, _), m in _labels(ad, level, grade, d, *h).items())
