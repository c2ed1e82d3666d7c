"""Characters and the Demazure operator in its ladder form.

A character is a finite integer combination of exponentials of weights of
one fixed datum; mixing datums is refused.  There is one character type,
``Character``, stored as ``{h + (d,): nonzero int}``.  On an affine datum
``d`` is the coefficient of delta; on a finite datum it is the grade, and
an ungraded finite character has every term at ``d = 0``.

The Demazure operator for node ``i`` acts term by term on ``e^mu`` with
``n = mu(h_i)``:

* ``n >= 0``  gives the ladder ``e^mu + e^(mu - alpha_i) + .. + e^(s_i mu)``,
* ``n == -1`` gives zero,
* ``n <= -2`` gives minus the interior ladder
  ``e^(mu + alpha_i) + .. + e^(s_i mu - alpha_i)``.

Composites along a reduced word therefore stay exact in integers, and the
operator is idempotent node by node.

A graded classical character is the shadow of an affine one: restrict each
weight to the finite coroots and keep ``d`` as the grade.

Characters are immutable: arithmetic returns new ones, and assigning or
deleting an attribute raises ``AttributeError``.  The memos of
``weyl_character_finite`` and of ``demazure`` and ``flags`` hand the same
object to every caller.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub
from typing import Mapping, Sequence

from . import errors
from .root_data import AffineDatum, Datum, RootDatum, Weight

Flat = dict[tuple[int, ...], int]

# Entries in each module memo (``demazure_character``'s, ``demazure_dim``'s
# and ``flags.graded_weyl_character``'s).  Measured on the perfbench
# ``flags`` and ``ladder`` families: 48 entries give about 95% of the
# ``flags`` throughput of 64 and 128, and raise peak memory by about 4%
# instead of 5.5%; 32 give about 80%.
MEMO_SIZE = 48


class Character:
    """Finite map ``h + (d,) -> nonzero int`` over one datum.

    Built from ``(h, d)`` pairs, a ``Weight`` among them, whose ``h`` must
    have the datum's rank.
    """

    __slots__ = ("datum", "_terms")

    def __init__(self, datum: Datum,
                 terms: Mapping[tuple[Sequence[int], int], int]):
        rank = len(datum.indices)
        flat: Flat = {}
        for (h, d), c in terms.items():
            if len(h) != rank:
                raise ValueError(f"weight rank does not match {datum.label}")
            if c:
                flat[(*h, d)] = c
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "_terms", flat)

    @classmethod
    def _wrap(cls, datum: Datum, flat: Flat) -> "Character":
        """A character on ``flat``, which is kept, not copied: no zeros."""
        out = object.__new__(cls)
        object.__setattr__(out, "datum", datum)
        object.__setattr__(out, "_terms", flat)
        return out

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Character is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Character is immutable")

    @classmethod
    def zero(cls, datum: Datum) -> "Character":
        return cls._wrap(datum, {})

    @classmethod
    def monomial(cls, datum: Datum, w: Weight, c: int = 1) -> "Character":
        return cls(datum, {w: c})

    def _check(self, other: "Character") -> None:
        if self.datum.label != other.datum.label:
            raise ValueError(
                f"mixed datums {self.datum.label} and {other.datum.label}")

    def terms(self) -> list[tuple[tuple[tuple[int, ...], int], int]]:
        """``((h, d), c)`` pairs ordered by ``(d, h)``."""
        return [((k[:-1], k[-1]), c) for k, c in
                sorted(self._terms.items(), key=lambda t: (t[0][-1], t[0]))]

    def coefficient(self, w: Weight) -> int:
        h, d = w
        return self._terms.get((*h, d), 0)

    def support(self) -> list[Weight]:
        """The distinct ``h``, as weights at ``d = 0``."""
        return sorted({Weight(k[:-1], 0) for k in self._terms})

    def grades(self) -> list[int]:
        return sorted({k[-1] for k in self._terms})

    def grade_slice(self, grade: int) -> dict[tuple[int, ...], int]:
        return {k[:-1]: c for k, c in self._terms.items() if k[-1] == grade}

    def mass(self) -> int:
        return sum(self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Character)
                and self.datum.label == other.datum.label
                and self._terms == other._terms)

    def __add__(self, other: "Character") -> "Character":
        self._check(other)
        out = dict(self._terms)
        get = out.get
        for k, c in other._terms.items():
            out[k] = get(k, 0) + c
        return Character._wrap(self.datum, _nonzero(out))

    def __neg__(self) -> "Character":
        return self.scale(-1)

    def __sub__(self, other: "Character") -> "Character":
        return self + (-other)

    def scale(self, c: int) -> "Character":
        return Character._wrap(self.datum, _nonzero(
            {k: c * v for k, v in self._terms.items()}))

    def __mul__(self, other: "Character") -> "Character":
        self._check(other)
        out: Flat = {}
        get = out.get
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                k = tuple(map(add, k1, k2))
                out[k] = get(k, 0) + c1 * c2
        return Character._wrap(self.datum, _nonzero(out))

    def __repr__(self) -> str:
        inner = " + ".join(f"{c}*e[{h},{d}]" for (h, d), c in self.terms())
        return f"Character({self.datum.label}: {inner or '0'})"


def _nonzero(terms: Flat) -> Flat:
    return {k: c for k, c in terms.items() if c}


def _ladder(terms: Flat, p: int, alpha: tuple[int, ...]) -> Flat:
    """One Demazure operator on flat weights ``h + (d,)``.

    ``p`` is the node's position in ``h`` and ``alpha`` its simple root,
    flattened the same way.  Zero coefficients are dropped.
    """
    out: Flat = {}
    get = out.get
    for mu, c in terms.items():
        n = mu[p]
        if n >= 0:
            out[mu] = get(mu, 0) + c
            for _ in range(n):
                mu = tuple(map(sub, mu, alpha))
                out[mu] = get(mu, 0) + c
        elif n <= -2:
            for _ in range(-1 - n):
                mu = tuple(map(add, mu, alpha))
                out[mu] = get(mu, 0) - c
        # n == -1 contributes nothing.
    return _nonzero(out)


def demazure_step(datum: Datum, i: int, f: Character) -> Character:
    """One Demazure operator applied to a character, term by term."""
    if f.datum.label != datum.label:
        raise ValueError(f"character does not live on {datum.label}")
    p = datum.pos(i)
    return Character._wrap(datum, _ladder(f._terms, p, datum.flat_roots[p]))


def demazure_word_char(datum: Datum, word: Sequence[int],
                       seed: Weight) -> Character:
    """Composite Demazure operator along a word, applied to ``e^seed``.

    The last letter acts first, matching ``apply_word``.  For a reduced word
    this is the Demazure character of the corresponding extremal weight.
    """
    terms = Character(datum, {seed: 1})._terms
    for i in reversed(word):
        p = datum.pos(i)
        terms = _ladder(terms, p, datum.flat_roots[p])
    return Character._wrap(datum, terms)


def weyl_character_finite(rd: RootDatum, lam: Weight) -> Character:
    """Character of the simple finite-dimensional module of highest weight.

    Memoised: a repeated weight returns the same immutable object.
    """
    if not rd.is_dominant(lam):
        raise errors.NotDominant(f"{lam.h} is not dominant for {rd.label}")
    return _weyl_character(rd, lam.d, *lam.h)


# Four times ``MEMO_SIZE``, since each Demazure character expands into
# several irreducibles: 192 entries hold all 121 distinct ones of a
# perfbench ``flags`` pass, and a ``ladder`` pass (213) computes each once.
# ``ladder`` throughput at 48, 96 and 192 entries was 798, 833 and 881 rps
# and peak memory 25.0, 25.3 and 25.7 MB, against 24.6 MB for the whole
# extremal-word ladder before (one 8 s run each, 2-vCPU Xeon).
@lru_cache(maxsize=4 * MEMO_SIZE, typed=True)
def _weyl_character(rd: RootDatum, d: int, *h: int) -> Character:
    return demazure_word_char(rd, rd.w0_word, Weight(h, d))


def project_graded_classical(ad: AffineDatum, f: Character) -> Character:
    """Drop ``h_0``, keep the finite coroot values, read the grade off ``d``.

    Terms that collide after projection are summed, so coefficients are
    preserved.
    """
    if f.datum.label != ad.label:
        raise ValueError("character does not live on the given affine datum")
    out: Flat = {}
    get = out.get
    for k, c in f._terms.items():
        k = k[1:]
        out[k] = get(k, 0) + c
    return Character._wrap(ad.finite, _nonzero(out))


def forget_grading(g: Character) -> Character:
    """Sum out the grade, leaving every term at ``d = 0``."""
    out: Flat = {}
    get = out.get
    for k, c in g._terms.items():
        k = k[:-1] + (0,)
        out[k] = get(k, 0) + c
    return Character._wrap(g.datum, _nonzero(out))


def shift_grade(g: Character, m: int) -> Character:
    """Add ``m`` to every grade."""
    return Character._wrap(
        g.datum, {k[:-1] + (k[-1] + m,): c for k, c in g._terms.items()})


def check_w_invariance_per_grade(rd: RootDatum, g: Character) -> bool:
    """True iff every grade slice is invariant under all simple reflections.

    A finite flat root ends in ``d = 0``, so reflecting ``k`` to
    ``k - k[p] flat_roots[p]`` keeps its grade, and comparing all grades at
    once compares them one by one.
    """
    if g.datum.label != rd.label:
        raise ValueError(f"character does not live on {rd.label}")
    terms = g._terms
    for p, alpha in enumerate(rd.flat_roots):
        for k, c in terms.items():
            n = k[p]
            if n and terms.get(
                    tuple([a - n * b for a, b in zip(k, alpha, strict=True)]),
                    0) != c:
                return False
    return True
