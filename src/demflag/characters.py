"""Formal characters and the Demazure operator in its ladder form.

A formal character is a finite integer combination of exponentials of
weights of one fixed datum; mixing datums is refused.  The Demazure
operator for node ``i`` acts term by term on ``e^mu`` with ``n = mu(h_i)``:

* ``n >= 0``  gives the ladder ``e^mu + e^(mu - alpha_i) + .. + e^(s_i mu)``,
* ``n == -1`` gives zero,
* ``n <= -2`` gives minus the interior ladder
  ``e^(mu + alpha_i) + .. + e^(s_i mu - alpha_i)``.

Composites along a reduced word therefore stay exact in integers, and the
operator is idempotent node by node.

A graded classical character records a finite-type character together with
an integer grade on every term.  It is the shadow of an affine character:
restrict each weight to the finite coroots and read the grade off the
``d`` value.

Characters are immutable: arithmetic returns new ones, and assigning or
deleting an attribute raises ``AttributeError``.  The module memos in
``demazure`` and ``flags`` hand the same object to every caller.
"""

from __future__ import annotations

from operator import add, sub
from typing import Mapping, Sequence

from . import errors
from .root_data import AffineDatum, Datum, RootDatum, Weight, reflect_weight


class _Immutable:
    """Fields set once, by ``__init__``; the term dict is never mutated."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class FormalCharacter(_Immutable):
    """Finite map ``Weight -> nonzero int`` over one datum."""

    __slots__ = ("datum", "_terms")

    def __init__(self, datum: Datum, terms: Mapping[Weight, int]):
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "_terms",
                           {w: c for w, c in terms.items() if c != 0})

    @classmethod
    def zero(cls, datum: Datum) -> "FormalCharacter":
        return cls(datum, {})

    @classmethod
    def monomial(cls, datum: Datum, w: Weight, c: int = 1) -> "FormalCharacter":
        return cls(datum, {w: c})

    def _check(self, other: "FormalCharacter") -> None:
        if self.datum.label != other.datum.label:
            raise ValueError(
                f"mixed datums {self.datum.label} and {other.datum.label}")

    def terms(self) -> list[tuple[Weight, int]]:
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key())

    def coefficient(self, w: Weight) -> int:
        return self._terms.get(w, 0)

    def support(self) -> list[Weight]:
        return [w for w, _ in self.terms()]

    def mass(self) -> int:
        return sum(self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FormalCharacter)
                and self.datum.label == other.datum.label
                and self._terms == other._terms)

    def __add__(self, other: "FormalCharacter") -> "FormalCharacter":
        self._check(other)
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, 0) + c
        return FormalCharacter(self.datum, out)

    def __neg__(self) -> "FormalCharacter":
        return FormalCharacter(self.datum,
                               {w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "FormalCharacter") -> "FormalCharacter":
        return self + (-other)

    def scale(self, c: int) -> "FormalCharacter":
        return FormalCharacter(self.datum,
                               {w: c * v for w, v in self._terms.items()})

    def __mul__(self, other: "FormalCharacter") -> "FormalCharacter":
        self._check(other)
        out: dict[Weight, int] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return FormalCharacter(self.datum, out)

    def __repr__(self) -> str:
        inner = " + ".join(f"{c}*e[{w.h},{w.d}]" for w, c in self.terms())
        return f"FormalCharacter({self.datum.label}: {inner or '0'})"


def _flat_root(datum: Datum, i: int) -> tuple[int, ...]:
    alpha = datum.simple_root(i)
    return alpha.h + (alpha.d,)


def _ladder(terms: dict[tuple[int, ...], int], p: int,
            alpha: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """One Demazure operator on flat weights ``h + (d,)``.

    ``p`` is the node's position in ``h`` and ``alpha`` its simple root,
    flattened the same way.  Zero coefficients are dropped, so the result
    holds exactly the terms of the matching ``FormalCharacter``.
    """
    out: dict[tuple[int, ...], int] = {}
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
    return {w: c for w, c in out.items() if c}


def _flat_terms(datum: Datum,
                terms: Mapping[Weight, int]) -> dict[tuple[int, ...], int]:
    rank = len(datum.indices)
    if any(len(w.h) != rank for w in terms):
        raise ValueError(f"weight rank does not match {datum.label}")
    return {w.h + (w.d,): c for w, c in terms.items()}


def _from_flat(datum: Datum,
               terms: dict[tuple[int, ...], int]) -> FormalCharacter:
    return FormalCharacter(datum, {Weight(w[:-1], w[-1]): c
                                   for w, c in terms.items()})


def demazure_step(datum: Datum, i: int, f: FormalCharacter) -> FormalCharacter:
    """One Demazure operator applied to a character, term by term."""
    terms = _ladder(_flat_terms(datum, f._terms), datum.pos(i),
                    _flat_root(datum, i))
    return _from_flat(datum, terms)


def word_ladder(datum: Datum, word: Sequence[int],
                seed: Weight) -> dict[tuple[int, ...], int]:
    """``demazure_word_char`` on flat weights ``h + (d,)``."""
    terms = _flat_terms(datum, {seed: 1})
    for i in reversed(word):
        terms = _ladder(terms, datum.pos(i), _flat_root(datum, i))
    return terms


def demazure_word_char(datum: Datum, word: Sequence[int],
                       seed: Weight) -> FormalCharacter:
    """Composite Demazure operator along a word, applied to ``e^seed``.

    The last letter acts first, matching ``apply_word``.  For a reduced word
    this is the Demazure character of the corresponding extremal weight.
    """
    return _from_flat(datum, word_ladder(datum, word, seed))


def weyl_character_finite(rd: RootDatum, lam: Weight) -> FormalCharacter:
    """Character of the simple finite-dimensional module of highest weight."""
    if not rd.is_dominant(lam):
        raise errors.NotDominant(f"{lam.h} is not dominant for {rd.label}")
    return demazure_word_char(rd, rd.w0_word, lam)


class GradedClassicalCharacter(_Immutable):
    """Finite map ``(classical weight, grade) -> nonzero int``."""

    __slots__ = ("datum", "_terms")

    def __init__(self, datum: RootDatum,
                 terms: Mapping[tuple[tuple[int, ...], int], int]):
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "_terms",
                           {k: c for k, c in terms.items() if c != 0})

    @classmethod
    def zero(cls, datum: RootDatum) -> "GradedClassicalCharacter":
        return cls(datum, {})

    def _check(self, other: "GradedClassicalCharacter") -> None:
        if self.datum.label != other.datum.label:
            raise ValueError(
                f"mixed datums {self.datum.label} and {other.datum.label}")

    def terms(self) -> list[tuple[tuple[tuple[int, ...], int], int]]:
        return sorted(self._terms.items(), key=lambda t: (t[0][1], t[0][0]))

    def coefficient(self, lam: Weight, grade: int) -> int:
        return self._terms.get((lam.h, grade), 0)

    def grades(self) -> list[int]:
        return sorted({g for _, g in self._terms})

    def grade_slice(self, grade: int) -> dict[tuple[int, ...], int]:
        return {h: c for (h, g), c in self._terms.items() if g == grade}

    def classical_support(self) -> list[Weight]:
        return sorted({Weight(h, 0) for (h, _) in self._terms},
                      key=lambda w: w.sort_key())

    def mass(self) -> int:
        return sum(self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GradedClassicalCharacter)
                and self.datum.label == other.datum.label
                and self._terms == other._terms)

    def __add__(self, other) -> "GradedClassicalCharacter":
        self._check(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return GradedClassicalCharacter(self.datum, out)

    def __neg__(self) -> "GradedClassicalCharacter":
        return GradedClassicalCharacter(
            self.datum, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "GradedClassicalCharacter":
        return self + (-other)

    def scale(self, c: int) -> "GradedClassicalCharacter":
        return GradedClassicalCharacter(
            self.datum, {k: c * v for k, v in self._terms.items()})

    def to_records(self) -> list[dict]:
        return [{"weight": {"h": list(h)}, "grade": g, "coeff": c}
                for (h, g), c in self.terms()]

    def __repr__(self) -> str:
        inner = " + ".join(f"{c}*q^{g}e[{h}]" for (h, g), c in self.terms())
        return f"GradedClassicalCharacter({self.datum.label}: {inner or '0'})"


def project_graded_classical(ad: AffineDatum,
                             f: FormalCharacter) -> GradedClassicalCharacter:
    """Drop ``h_0``, keep the finite coroot values, read the grade off ``d``.

    Terms that collide after projection are summed, so coefficients are
    preserved.
    """
    if f.datum.label != ad.label:
        raise ValueError("character does not live on the given affine datum")
    return project_flat(ad, _flat_terms(ad, f._terms))


def project_flat(ad: AffineDatum,
                 terms: dict[tuple[int, ...], int]) -> GradedClassicalCharacter:
    """``project_graded_classical`` on flat affine weights ``h + (d,)``."""
    out: dict[tuple[tuple[int, ...], int], int] = {}
    get = out.get
    # One tuple per classical weight, shared by all its grades, so that
    # memoised characters stay small.
    classical: dict[tuple[int, ...], tuple[int, ...]] = {}
    share = classical.setdefault
    for w, c in terms.items():
        h = w[1:-1]
        key = (share(h, h), w[-1])
        out[key] = get(key, 0) + c
    return GradedClassicalCharacter(ad.finite, out)


def forget_grading(g: GradedClassicalCharacter) -> FormalCharacter:
    """Sum out the grade, leaving a plain finite-type character."""
    out: dict[Weight, int] = {}
    for (h, _), c in g._terms.items():
        w = Weight(h, 0)
        out[w] = out.get(w, 0) + c
    return FormalCharacter(g.datum, out)


def shift_grade(g: GradedClassicalCharacter, m: int) -> GradedClassicalCharacter:
    """Add ``m`` to every grade."""
    return GradedClassicalCharacter(
        g.datum, {(h, grade + m): c for (h, grade), c in g._terms.items()})


def check_w_invariance_per_grade(rd: RootDatum,
                                 g: GradedClassicalCharacter) -> bool:
    """True iff every grade slice is invariant under all simple reflections."""
    for grade in g.grades():
        sl = g.grade_slice(grade)
        for i in rd.indices:
            reflected: dict[tuple[int, ...], int] = {}
            for h, c in sl.items():
                rh = reflect_weight(rd, i, Weight(h, 0)).h
                reflected[rh] = reflected.get(rh, 0) + c
            if reflected != sl:
                return False
    return True
