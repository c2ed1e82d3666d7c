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

The one ladder, ``_ladder``, runs on packed keys.  At ``B`` bits a field, a
flat key ``k`` with ``L`` entries is the int ``sum_j (k_j + 2^(B-1)) 2^(B j)``;
``L`` is the rank plus one on a finite datum and plus two on an affine one.
While every coordinate lies strictly between ``-2^(B-1)`` and ``2^(B-1)``,
every field stays in ``[0, 2^B)``: packing is one-to-one, field ``j`` reads
``((key >> B j) & (2^B - 1)) - 2^(B-1)``, and adding the packed simple root
``a = sum_j alpha_j 2^(B j)`` adds ``alpha`` field by field with no carry
from one field into the next.  So a rung is ``mu -= a``.  Keys are packed
once before the first letter and unpacked once after the last;
``demazure._labels`` reads the finite values and the grade straight off the
packed keys instead.

The width holds every coordinate the word can produce, so the loop checks
nothing and there is no other path.  Let ``M`` bound the absolute
coordinates of every key before a letter, and let ``A`` be the largest
absolute entry of a flat simple root of the datum.  A term with
``n = mu(h_i)`` gives ``n`` rungs when ``n >= 0``, ``-1 - n`` when
``n <= -2`` and none when ``n = -1``: at most ``|n| <= M``.  Each rung moves
every coordinate by at most ``A``, so every key written for the letter,
each intermediate rung included, has coordinates of absolute value at most
``M + M A = M (1 + A)``.  By induction a word of ``len(word)`` letters keeps
them at most ``M0 (1 + A)^len(word)``, ``M0`` bounding the input, and
``B`` is that number's bit length plus two, rounded up to a multiple of 16
(``_width``): every coordinate is below ``2^(B-2)`` in absolute value,
inside its field.  ``B`` grows by about ``log2(1 + A)`` bits a letter; the
``w0`` ladder of E8, 120 letters, packs its 9 fields at 208 bits each.

The character of the simple module of dominant highest weight ``lam`` is
found without a ladder, in three steps, all in integers:

* The dominant weights below ``lam``: subtract positive roots while the
  result stays dominant.  Every dominant weight below ``lam`` is reached,
  since a cover between dominant weights is a positive root (Stembridge
  1998), and each comes with the simple-root coordinates ``c`` of
  ``lam - mu``.
* Their multiplicities, by Freudenthal's formula (Humphreys, GTM 9,
  section 22.3; Moody and Patera 1982), in decreasing height:

      m(mu) (lam - mu, lam + mu + 2 rho)
        = 2 sum_{alpha > 0} sum_{k >= 1} m(mu + k alpha) (mu + k alpha, alpha)

  The form is scaled so that ``(alpha_j, alpha_j) = 2 d_j`` with ``d`` the
  symmetrizer; then ``(mu, alpha_j) = d_j mu(h_j)``, and every pairing
  above has one side with known simple-root coordinates, so it is an
  integer dot product.  ``(alpha, alpha)`` is kept per datum and
  ``(mu, alpha)`` is taken once per string, whose every further step adds
  ``(alpha, alpha)``.  ``m(mu + k alpha)`` is the multiplicity of its
  dominant conjugate, which is higher and already known, since each orbit
  is written out as soon as its multiplicity is; it is looked up by the
  simple-root coordinates of ``lam - mu - k alpha``, packed into one int.
  A string stops at its first zero, since root strings through weights
  have no gaps.  Every division must be exact; one that is not raises
  ``AssertionError`` (a ``raise``, so ``python -O`` keeps it).
* Each dominant weight's Weyl orbit, reflecting at nodes of positive value.
  The orbit is a tree, each weight's parent being its reflection at its
  first negative node, so no weight is reached twice and nothing records
  what was seen.

The cost follows the number of dominant weights and the orbit sizes, not
the number of terms times the length of ``w0``.  The ladder along ``w0``
gives the same character, and the tests compare the two.

A graded classical character is the shadow of an affine one: restrict each
weight to the finite coroots and keep ``d`` as the grade.

Characters are immutable: arithmetic returns new ones, and assigning or
deleting an attribute raises ``AttributeError``.  The memos of
``weyl_character_finite`` and of ``demazure`` and ``flags`` hand the same
object to every caller.
"""

from __future__ import annotations

from functools import cache, lru_cache
from operator import add, index, lshift, mul, sub
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
    have the datum's rank and whose values must be integers; ``ValueError``
    otherwise.
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
                try:
                    flat[(*map(index, h), index(d))] = c
                except TypeError:
                    raise ValueError(f"weight {tuple(h)} at grade {d!r} is "
                                     f"not integral") from None
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


# Shifts, packed simple roots, mask, bias, and the sum of the biases.
_Layout = tuple[tuple[int, ...], tuple[int, ...], int, int, int]


@cache
def _growth(datum: Datum) -> int:
    """``1 + A``, with ``A`` the largest absolute entry of a flat root."""
    return 1 + max(abs(x) for alpha in datum.flat_roots for x in alpha)


def _width(datum: Datum, m0: int, length: int) -> int:
    """Bits a field needs along ``length`` letters from keys whose largest
    absolute coordinate is ``m0`` (the bound in the module docstring)."""
    return -(-((m0 * _growth(datum) ** length).bit_length() + 2) // 16) * 16


# Widths come in steps of 16 bits, so that few layouts serve every call: a
# layout takes about 6 us to build, and a perfbench ``ladder`` pass needs
# 20 of them (34 in steps of 8, 123 in steps of 1), ``flags`` 17.
@lru_cache(maxsize=4 * MEMO_SIZE)
def _layout(datum: Datum, width: int) -> _Layout:
    """Packed keys of ``datum`` at ``width`` bits a field: the shift of each
    field, each packed simple root, the field mask, the bias, and the sum of
    the biases, which packs the zero key."""
    shifts = tuple(range(0, width * (len(datum.indices) + 1), width))
    bias = 1 << (width - 1)
    return (shifts,
            tuple(sum(map(lshift, alpha, shifts))
                  for alpha in datum.flat_roots),
            (1 << width) - 1, bias, sum(bias << s for s in shifts))


def _ladder(datum: Datum, positions: Sequence[int],
            terms: Flat) -> tuple[dict[int, int], _Layout]:
    """The Demazure operators at ``positions``, first position first, on
    flat terms, as packed terms with their layout.  Zeros are dropped."""
    m0 = 0
    for k in terms:
        m0 = max(m0, max(k), -min(k))
    lay = _layout(datum, _width(datum, m0, len(positions)))
    shifts, roots, mask, bias, offset = lay
    packed: dict[int, int] = {}
    for k, c in terms.items():
        packed[sum(map(lshift, k, shifts)) + offset] = c
    for p in positions:
        s, a = shifts[p], roots[p]
        out: dict[int, int] = {}
        get = out.get
        for mu, c in packed.items():
            n = ((mu >> s) & mask) - bias
            if n >= 0:
                out[mu] = get(mu, 0) + c
                for _ in range(n):
                    mu -= a
                    out[mu] = get(mu, 0) + c
            elif n <= -2:
                for _ in range(-1 - n):
                    mu += a
                    out[mu] = get(mu, 0) - c
            # n == -1 contributes nothing.
        packed = {k: c for k, c in out.items() if c}
    return packed, lay


def _unpacked(datum: Datum, packed: dict[int, int],
              lay: _Layout) -> Character:
    shifts, _, mask, bias, _ = lay
    return Character._wrap(datum, {
        tuple([((k >> s) & mask) - bias for s in shifts]): c
        for k, c in packed.items()})


def demazure_step(datum: Datum, i: int, f: Character) -> Character:
    """One Demazure operator applied to a character, term by term."""
    if f.datum.label != datum.label:
        raise ValueError(f"character does not live on {datum.label}")
    return _unpacked(datum, *_ladder(datum, (datum.pos(i),), f._terms))


def demazure_word_char(datum: Datum, word: Sequence[int],
                       seed: Weight) -> Character:
    """Composite Demazure operator along a word, applied to ``e^seed``.

    The last letter acts first, matching ``apply_word``.  For a reduced word
    this is the Demazure character of the corresponding extremal weight.
    """
    terms = Character(datum, {seed: 1})._terms
    positions = [datum.pos(i) for i in reversed(word)]
    return _unpacked(datum, *_ladder(datum, positions, terms))


def weyl_character_finite(rd: RootDatum, lam: Weight) -> Character:
    """Character of the simple finite-dimensional module of highest weight.

    ``lam`` must be dominant, and it goes through ``rd.weight``, so a
    coordinate or grade that is not an integer raises ``ValueError``.
    Memoised: a repeated weight returns the same immutable object.  The
    memo is keyed by value and type and checks the weight on a miss; a hit
    repeats values, of the same types, that passed.
    """
    return _weyl_character(rd, lam.d, *lam.h)


@cache
def _roots(rd: RootDatum) -> tuple[tuple[tuple[int, ...], tuple[int, ...],
                                         tuple[int, ...], int], ...]:
    """Per positive root ``alpha``: its coroot values ``a``, its simple-root
    coordinates ``b``, the row ``(d_j b_j)`` whose dot product with a
    weight is the pairing with ``alpha``, and ``(alpha, alpha)``."""
    out = []
    for b in rd.positive_roots:
        a = tuple(sum(map(mul, row, b)) for row in rd.cartan)
        pair = tuple(map(mul, rd.symmetrizer, b))
        out.append((a, b, pair, sum(map(mul, pair, a))))
    return tuple(out)


# Four times ``MEMO_SIZE``, since each Demazure character expands into
# several irreducibles: a perfbench ``ladder`` pass expands 213 distinct
# ones and computes each once, and a ``flags`` pass 76.  With Freudenthal
# misses and packed ladders, ``ladder`` throughput at 48, 96 and 192
# entries was 1724-1807, 1806-1883 and 1994-2023 rps, with peak memory
# 24.6-24.8, 24.8-25.0 and 25.3-25.4 MB (two 20 s runs each, 2-vCPU Xeon).
@lru_cache(maxsize=4 * MEMO_SIZE, typed=True)
def _weyl_character(rd: RootDatum, d: int, *h: int) -> Character:
    lam = rd.weight(h, d)
    if not rd.is_dominant(lam):
        raise errors.NotDominant(f"{lam.h} is not dominant for {rd.label}")
    h, d = lam
    roots = _roots(rd)
    rank = rd.rank
    # The dominant weights below the top, each with the simple-root
    # coordinates of the top minus it.
    dom = {h: (0,) * rank}
    todo = [h]
    while todo:
        mu = todo.pop()
        c = dom[mu]
        for a, b, _, _ in roots:
            nu = tuple(map(sub, mu, a))
            if min(nu) >= 0 and nu not in dom:
                dom[nu] = tuple(map(add, c, b))
                todo.append(nu)
    # A weight's code reads those coordinates as digits in base ``base``.
    # On weights they lie in ``0 .. 2 * height(top)``, and one root step
    # past a weight lowers each by at most a coordinate of theta, so the
    # weights and the first non-weight of each string have distinct codes.
    base = 2 * rd.height(h) // rd._inverse[1] + max(rd.theta_coords) + 1
    powers = [base ** j for j in range(rank)]
    steps = [(sum(map(mul, powers, b)), pair, aa) for _, b, pair, aa in roots]
    top2 = [t + 2 for t in h]
    sym = rd.symmetrizer
    flat_roots = rd.flat_roots
    out: Flat = {}
    mult: dict[int, int] = {}
    get = mult.get
    for mu, c in sorted(dom.items(), key=lambda t: sum(t[1])):
        code = sum(map(mul, powers, c))
        if not code:                    # the top
            m = 1
        else:
            total = 0
            for step, pair, aa in steps:
                up = code - step
                k = get(up)
                if k:
                    x = sum(map(mul, pair, mu))
                    while k:
                        x += aa
                        total += k * x
                        up -= step
                        k = get(up)
            norm = sum(map(mul, map(mul, sym, c), map(add, top2, mu)))
            m, r = divmod(2 * total, norm)
            if r:
                raise AssertionError("Freudenthal division is not exact")
        # The orbit, as a tree: the parent of ``nu`` is its reflection at
        # its first negative node ``f``, so ``s_p nu`` (``nu_p > 0``) is a
        # child when it has no negative value before ``p``.  That holds
        # for ``p < f``; for ``p > f`` it needs node ``f`` next to ``p``.
        stack = [((*mu, d), code, rank)]
        while stack:
            nu, code, f = stack.pop()
            out[nu] = mult[code] = m
            for p in range(rank):
                v = nu[p]
                if v > 0 and (p < f or flat_roots[p][f]):
                    child = tuple([x - v * y
                                   for x, y in zip(nu, flat_roots[p])])
                    if p < f or min(child[:p]) >= 0:
                        stack.append((child, code + v * powers[p], p))
    return Character._wrap(rd, out)


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
    """Add ``m`` to every grade; ``ValueError`` if ``m`` is not an integer,
    as for the weights of a ``Character``."""
    try:
        m = index(m)
    except TypeError:
        raise ValueError(f"grade shift {m!r} is not integral") from None
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
