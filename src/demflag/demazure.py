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
each term straightens on its packed key, in plain integers, with no tuple
or character built in between: reflect ``mu + rho`` at a node of negative
value until there is none, flipping the sign at each step, and drop the
term when a value is zero.  The loop carries ``mu`` itself, moved by the
dot action ``s_p (mu + rho) - rho``, which subtracts ``(mu_p + 1) alpha_p``.

On a packed key that is a few integer operations.  The affine ``h_0`` is
the lowest field, so shifting it out leaves a key of the finite layout at
the same width, ``B`` bits a field with bias ``2^(B-1)``.  A field is
nonnegative exactly when its top bit is set, so with ``tops`` the top bits
of the finite fields, a key ``k`` is dominant iff ``tops & ~k == 0``, and
otherwise its first negative node is the field of the lowest set bit of
``x = tops & ~k``, ``((x & -x).bit_length() - 1) // B``.  At a value of
``-1`` the term drops; otherwise ``k -= (v + 1) a_p``, with ``a_p`` the
packed simple root, and the sign flips.  Each dominant survivor is unpacked
once, at the end.  The width covers every value straightening reaches (the
bound in the ``characters`` docstring), so no field borrows from the next.
What remains is a nested map ``{top: {grade: multiplicity}}`` (``Labels``):
one row per distinct dominant top, whose tuple is unpacked once, holding
no zero and no empty row.  The dimension is the sum over tops of the row's
multiplicities times Weyl's dimension formula, with nothing expanded.  The
weight character sums each top's dominant multiplicities
(``characters._dominant``) times the row's, per grade and dominant weight,
and writes each nonzero sum over its Weyl orbit once
(``characters._orbit_sum``); no irreducible character is built.

All of it is exact integer arithmetic, over no ground field, so a result
depends only on its datum and label: the last ``MEMO_SIZE`` characters and
dimensions are each kept for the life of the process, and a repeated label
returns the same object.  The multiplicity maps beneath them keep the last
``4 * MEMO_SIZE``, as the dominant multiplicities of the Weyl characters
do: every flag peel reads one map per piece, the same few maps over and
over, and a nested map stores each top once, so they are small.  Beneath
the dimensions, the Weyl dimensions of the last ``4 * MEMO_SIZE`` tops are
kept per datum, since many labels share their tops.
Labels are validated on every call, so a bad label raises every time and
no error is kept.  Integrality is checked on a miss: the memos key every
number by its type, so a float never shares an entry with an integer.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import repeat
from operator import index, mul, rshift
from typing import Iterable, NamedTuple

from . import errors
from .characters import (MEMO_SIZE, Character, _dominant, _ladder, _Layout,
                         _layout, _orbit_sum)
from .root_data import (AffineDatum, RootDatum, Weight, apply_word,
                        make_dominant)


Labels = dict[tuple[int, ...], dict[int, int]]      # {top: {grade: m}}


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
    rd = ad.finite
    try:
        level, grade = index(level), index(grade)
    except TypeError:
        raise ValueError(f"level {level!r} and grade {grade!r} must be "
                         f"integers") from None
    dom, u = _reduce(ad, level, rd.weight(h), grade)
    # Node ``i`` of an affine datum sits at position ``i``.
    packed, (shifts, *_) = _ladder(ad, u[::-1], {(*dom.h, dom.d): 1})
    # Shifting ``h_0``, the lowest field, out leaves finite keys.
    b = shifts[1]
    return _straighten(zip(map(rshift, packed, repeat(b)), packed.values()),
                       _layout(rd, b))


def _straighten(terms: Iterable[tuple[int, int]], lay: _Layout) -> Labels:
    """``{top: {grade: m}}`` with ``D_w0`` of the terms equal to
    ``sum m * chi(top)`` grade by grade.  A term is ``(k, c)``: a key
    packed in ``lay``, a layout of a finite datum, and its coefficient.
    The loop moves ``k`` by the dot action, ``s_p (mu + rho) - rho``, which
    subtracts ``(mu_p + 1) alpha_p``; the module docstring has the rest."""
    shifts, roots, mask, bias, offset = lay
    *fin, top = shifts
    b = shifts[1]
    tops = offset - (bias << top)       # the top bit of every finite field
    out: dict[int, int] = {}
    get = out.get
    for k, c in terms:
        while x := tops & ~k:
            at = (x & -x).bit_length() - b      # the first negative field
            v = ((k >> at) & mask) - bias
            if v == -1:                 # ``mu + rho`` singular: zero
                break
            k -= (v + 1) * roots[at // b]
            c = -c
        else:                           # dominant: ``chi(mu)``
            out[k] = get(k, 0) + c
    labels: Labels = {}
    rows: dict[int, dict[int, int]] = {}    # finite fields -> their row
    low = (1 << top) - 1
    for k, c in out.items():
        if c:
            if (row := rows.get(f := k & low)) is None:
                row = rows[f] = labels[
                    tuple([((f >> s) & mask) - bias for s in fin])] = {}
            row[(k >> top) - bias] = c
    return labels


def _expand(rd: RootDatum, labels: Labels) -> Character:
    """The weight character of ``{top: {grade: m}}``: every top's dominant
    multiplicities times ``m``, summed per dominant weight and grade, and
    each sum written over its Weyl orbit once."""
    sums: dict[tuple[int, ...], dict[int, int]] = {}
    for top, row in labels.items():
        for mu, c in _dominant(rd, top):
            if (into := sums.get(mu)) is None:
                into = sums[mu] = {}
            get = into.get
            for g, m in row.items():
                into[g] = get(g, 0) + m * c
    return _orbit_sum(rd, sums)


@cache
def _positive_coroots(rd: RootDatum) -> tuple[tuple[int, ...], ...]:
    return tuple(rd.coroot(beta) for beta in rd.positive_roots)


# Weyl dimensions of tops, four times ``MEMO_SIZE`` like the dominant
# multiplicities of ``characters``.  A perfbench ``ladder`` pass asks for
# 4,312 of them, 210 distinct; over three shuffled passes a memo of 48, 96,
# 192 and 256 entries missed 527-553, 333-390, 212-213 and 210 times.  A
# miss takes about 2 us on A2, 8 us on D4 and 0.1 ms on E8 (2-vCPU Xeon),
# so the three misses more at 192 cost well under a millisecond a pass.
@lru_cache(maxsize=4 * MEMO_SIZE)
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
