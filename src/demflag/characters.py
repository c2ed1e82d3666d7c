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
once before the first letter and unpacked once after the last, or
straightened packed (``_irreducibles``, below), unpacking only what
survives.

The width holds every coordinate the word can produce, and every one that
straightening the result through ``D_w0`` can (``_straighten``),
so the loops check nothing and there is no other path.

* The ladder.  Let ``M`` bound the absolute coordinates of every key
  before a letter, and let ``A`` be the largest absolute entry of a flat
  simple root of the datum.  A term with ``n = mu(h_i)`` gives ``n`` rungs
  when ``n >= 0``, ``-1 - n`` when ``n <= -2`` and none when ``n = -1``: at
  most ``|n| <= M``.  Each rung moves every coordinate by at most ``A``, so
  every key written for the letter, each intermediate rung included, has
  coordinates of absolute value at most ``M + M A = M (1 + A)``.  By
  induction a word of ``len(word)`` letters keeps them at most
  ``M = M0 (1 + A)^len(word)``, ``M0`` bounding the input.
* Straightening.  It moves the finite values of a key through
  ``w(mu + rho) - rho`` for Weyl group elements ``w`` and leaves the grade
  alone.  Take the invariant form with ``(alpha_j, alpha_j) = 2 d_j``, ``d``
  the symmetrizer, so that ``(omega_i, omega_j) = d_i (cartan^-1)_ij``.  A
  weight ``nu`` whose values are at most ``N`` in absolute value has
  ``(nu, nu) <= N^2 S`` with ``S = sum_ij |(omega_i, omega_j)|``, and ``w``
  keeps the form, so by Cauchy-Schwarz

      |w(nu)(h_j)| = 2 |(w nu, alpha_j)| / (alpha_j, alpha_j)
                   <= 2 |nu| / |alpha_j|  <=  C N,   C^2 = 2 S / min(d).

  With ``nu = mu + rho`` and ``N = M + 1``, every value straightening
  reaches is at most ``C (M + 1) + 1 <= (K + 1)(M + 1)``, where ``K`` is
  ``C`` rounded up to an integer.  ``C`` is 1 for A1, 2 for A2, about 3.2
  for A3, 4.5 for A4 and 35.2 for E8, so ``K`` is 1, 2, 4, 5 and 36; on
  A1, A2 and A3 the bound is reached or nearly.  On an affine datum
  ``K`` is that of its finite part; only the finite fields are
  straightened, and the affine ``h_0`` is shifted out first.

``B`` is the bit length of ``(K + 1)(M + 1)``, which exceeds every
coordinate of both loops, plus two, rounded up to a multiple of 16
(``_width``): every coordinate is below ``2^(B-2)`` in absolute value,
inside its field.  ``B`` grows by about ``log2(1 + A)`` bits a letter; the
``w0`` ladder of E8, 120 letters, packs its 9 fields at 208 bits each.

``_irreducibles`` runs the ladder and straightens its terms through
``D_w0``, the Weyl symmetrizer: it sends ``e^mu`` to
``sign(w) * chi(w(mu + rho) - rho)``, with ``w`` carrying ``mu + rho`` into
the dominant chamber, or to zero when ``mu + rho`` is singular (Demazure
1974; Humphreys, GTM 9, section 24; Kumar 2002, chapter 8).  On an affine
datum ``h_0`` is the lowest field, so shifting it out projects a key to
graded classical form, a key of the finite layout at the same width, ``B``
bits a field with bias ``2^(B-1)``.  ``_straighten`` then works on that key
in plain integers, with no tuple or character built in between.  It carries
``mu`` itself, moved by the dot action ``s_p (mu + rho) - rho``, which
subtracts ``(mu_p + 1) alpha_p``.  A field is nonnegative exactly when its
top bit is set, so with ``tops`` the top bits of the finite fields, a key
``k`` is dominant iff ``tops & ~k == 0``, and otherwise its first negative
node is the field of the lowest set bit of ``x = tops & ~k``,
``((x & -x).bit_length() - 1) // B``.  At a value of ``-1`` the term drops;
otherwise ``k -= (v + 1) a_p``, with ``a_p`` the packed simple root, and the
sign flips.  The survivors form a nested map ``{top: {grade: m}}``
(``Labels``): one row per distinct dominant top, whose tuple is unpacked
once, holding no zero and no empty row.

The character of the simple module of dominant highest weight ``lam`` is
found without a ladder, all in integers, from two memos kept per datum and
shared by every top:

* ``_orbit``: the Weyl orbit of one dominant weight, as flat keys
  ``(*h, 0)``, reflecting at nodes of positive value.  The orbit is a tree,
  each weight's parent being its reflection at its first negative node, so
  no weight is reached twice and nothing records what was seen.  An orbit
  depends on its weight alone, so it is walked once for every top above it.
* ``_dominant``: the multiplicities of the dominant weights below ``lam``
  alone, ``((mu, m), ...)``.  The dominant weights come from subtracting
  positive roots while the result stays dominant; every dominant weight
  below ``lam`` is reached, since a cover between dominant weights is a
  positive root (Stembridge 1998), and each comes with the simple-root
  coordinates ``c`` of ``lam - mu``.  Their multiplicities come from
  Freudenthal's formula (Humphreys, GTM 9, section 22.3), in decreasing
  height, in the form of Moody and Patera (1982), which stores dominant
  weights alone:

      m(mu) (lam - mu, lam + mu + 2 rho)
        = 2 sum_{alpha > 0} sum_{k >= 1} m(mu + k alpha) (mu + k alpha, alpha)

  The form is scaled so that ``(alpha_j, alpha_j) = 2 d_j`` with ``d`` the
  symmetrizer; then ``(mu, alpha_j) = d_j mu(h_j)``, and every pairing
  above has one side with known simple-root coordinates, so it is an
  integer dot product.  ``(alpha, alpha)`` is kept per datum and
  ``(mu, alpha)`` is taken once per string, whose every further step adds
  ``(alpha, alpha)``.  ``m(mu + k alpha)`` is the multiplicity of its
  dominant conjugate, which is higher and already known: as soon as a
  multiplicity is found, one ``dict.update`` enters it at every key of its
  weight's orbit in a lookup map, where ``mu + k alpha`` is looked up by
  its flat key.  A string stops at its first zero, since root strings
  through weights have no gaps.  Every division must be exact; one that is
  not raises ``AssertionError`` (a ``raise``, so ``python -O`` keeps it).

Every weight character is written from these tables by one function,
``_expand``, from a multiplicity map ``{top: {grade: m}}``;
``weyl_character_finite`` hands it the map of one top, ``{lam: {d: 1}}``.
It first sums ``m * mult_top(mu)`` over the tops, per grade and dominant
``mu``, so it builds no irreducible character, then writes each sum over
its orbit at that grade, each key once, since distinct dominant weights
have disjoint orbits.

The cost follows the number of dominant weights and the orbit sizes, not
the number of terms times the length of ``w0``.  The ladder along ``w0``
gives the same character, and the tests compare the two.

A graded classical character is the shadow of an affine one: restrict each
weight to the finite coroots and keep ``d`` as the grade.

Characters are immutable (``root_data.Frozen``): arithmetic returns new
ones, and assigning or deleting an attribute raises ``AttributeError``.
The memos of ``weyl_character_finite`` and of ``demazure`` and ``flags``
hand the same object to every caller.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import repeat
from math import isqrt
from operator import add, index, le, lshift, mul, rshift, sub
from typing import Iterable, Mapping, Sequence

from .root_data import AffineDatum, Datum, Frozen, RootDatum, Weight

Flat = dict[tuple[int, ...], int]
Labels = dict[tuple[int, ...], dict[int, int]]      # {top: {grade: m}}

# Entries in each module memo (``demazure_character``'s, ``demazure_dim``'s,
# ``flags.graded_weyl_character``'s and ``weyl_character_finite``'s); the
# multiplicity maps, dominant multiplicities and Weyl dimensions beneath
# them keep four times as many, the Weyl orbits eight times, the path sets
# a sixth.  Two 20 s perfbench runs at each size (seed 11, 2-vCPU Xeon): at
# 32, 48, 64 and 128, ``flags`` ran 4622-4677, 5303-5388, 5334-5410 and
# 5296-5355 rps, and ``ladder`` 2882-3053, 2935-2950, 3038-3050 and
# 3035-3079 rps with peak memory 24.7, 25.0-25.1, 25.3 and 25.8-25.9 MB.
# 48 gives ``flags`` the throughput of larger memos and ``ladder`` 96% of
# 128's, for about 0.8 MB less.
MEMO_SIZE = 48


class Character(Frozen):
    """Finite map ``h + (d,) -> nonzero int`` over one datum.

    Built from ``(h, d)`` pairs, a ``Weight`` among them, each checked by
    ``datum.weight``, and integer coefficients; ``ValueError`` otherwise.
    Zero coefficients are dropped.
    """

    __slots__ = ("datum", "_terms")

    def __init__(self, datum: Datum,
                 terms: Mapping[tuple[Sequence[int], int], int]):
        flat: Flat = {}
        for (h, d), c in terms.items():
            h, d = datum.weight(h, d)
            try:
                c = index(c)
            except TypeError:
                raise ValueError(f"coefficient {c!r} is not integral"
                                 ) from None
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
        """``c`` times the character; ``ValueError`` if ``c`` is not an
        integer."""
        try:
            c = index(c)
        except TypeError:
            raise ValueError(f"scale factor {c!r} is not integral") from None
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
def _factors(datum: Datum) -> tuple[int, int]:
    """``1 + A`` and ``K + 1`` of the bound in the module docstring: ``A``
    the largest absolute entry of a flat root, ``K`` the straightening
    constant ``C`` of the finite part, rounded up."""
    rd = datum.finite if isinstance(datum, AffineDatum) else datum
    adj, den = rd._inverse
    sym = rd.symmetrizer
    # ``den * S``, with ``(omega_i, omega_j) = d_i adj_ij / den``.
    s = sum(d * abs(x) for d, row in zip(sym, adj) for x in row)
    c2 = -(-2 * s // (den * min(sym)))          # ceil(C^2)
    # ``isqrt(c2 - 1) + 1`` is ``ceil(sqrt(c2))``, at least ``C``.
    return (1 + max(abs(x) for alpha in datum.flat_roots for x in alpha),
            isqrt(c2 - 1) + 2)


def _width(datum: Datum, m0: int, length: int) -> int:
    """Bits a field needs along ``length`` letters from keys whose largest
    absolute coordinate is ``m0``, and through straightening the result
    (the bound in the module docstring)."""
    growth, reach = _factors(datum)
    bits = ((m0 * growth ** length + 1) * reach).bit_length() + 2
    return -(-bits // 16) * 16


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


def _irreducibles(datum: Datum, positions: Sequence[int],
                  terms: Flat) -> Labels:
    """``{top: {grade: m}}`` with ``D_w0`` of the Demazure operators at
    ``positions`` on ``terms`` equal to ``sum m * chi(top)`` grade by grade,
    projected to graded classical form on an affine datum."""
    packed, lay = _ladder(datum, positions, terms)
    if isinstance(datum, AffineDatum):
        # Shifting ``h_0``, the lowest field, out leaves finite keys.
        b = lay[0][1]
        return _straighten(zip(map(rshift, packed, repeat(b)),
                               packed.values()), _layout(datum.finite, b))
    return _straighten(packed.items(), lay)


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
    The seed and every letter are checked on every call, since a key typed
    by value and type would not reach inside the word; the character is
    then looked up in a memo and the same object is handed out again.
    """
    h, d = datum.weight(*seed)
    return _word_char(datum, tuple([datum.pos(i) for i in reversed(word)]),
                      (*h, d))


# The ladders ``demazure_word_char`` hands out, keyed by checked positions
# and seed.  A ladder is asked for beside the path set of its word, as
# ``crystal-check`` does, and repeated at once like the set, so the memo is
# as small as the path-set memo.  Peak memory of one in-process perfbench
# ``paths`` pass (seed 1) was 20.9, 21.0 and 21.3 MB holding no ladder, 8
# and 48 (Python 3.11.7, x86-64), and 8 serve every repeat of the pass.
@lru_cache(maxsize=MEMO_SIZE // 6)
def _word_char(datum: Datum, positions: tuple[int, ...],
               key: tuple[int, ...]) -> Character:
    return _unpacked(datum, *_ladder(datum, positions, {key: 1}))


def weyl_character_finite(rd: RootDatum, lam: Weight) -> Character:
    """Character of the simple finite-dimensional module of highest weight.

    Memoised: one lookup keyed by every number of the weight, by value and
    type, returning the same immutable object.  Only a miss checks them:
    ``ValueError`` for a number that is not an integer, ``NotDominant``
    for a weight that is not dominant.
    """
    return _weyl_character(rd, lam.d, *lam.h)


@cache
def _roots(rd: RootDatum) -> tuple[tuple[tuple[int, ...], tuple[int, ...],
                                         tuple[int, ...], int], ...]:
    """Per positive root ``alpha``: its flat key ``a`` (coroot values and a
    zero grade), its simple-root coordinates ``b``, the row ``(d_j b_j)``
    whose dot product with a weight is the pairing with ``alpha``, and
    ``(alpha, alpha)``."""
    out = []
    for b in rd.positive_roots:
        a = (*(sum(map(mul, row, b)) for row in rd.cartan), 0)
        pair = tuple(map(mul, rd.symmetrizer, b))
        out.append((a, b, pair, sum(map(mul, pair, a))))
    return tuple(out)


# A perfbench ``ladder`` pass asks for 7,283-7,308 orbits of 239 distinct
# dominant weights, a ``flags`` pass for about 800 of 78.  At 8 and 4
# times ``MEMO_SIZE`` the ``ladder`` pass walks 239 and 250-265 of them
# (seeds 1, 7 and 11); the 239 hold about 6,200 keys.
@lru_cache(maxsize=8 * MEMO_SIZE)
def _orbit(rd: RootDatum, key: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The Weyl orbit of the dominant flat key ``(*h, 0)``, as flat keys.

    The orbit is a tree: the parent of ``nu`` is its reflection at its
    first negative node ``f``, so ``s_p nu`` (``nu_p > 0``) is a child when
    it has no negative value before ``p``.  That holds for ``p < f``; for
    ``p > f`` it needs node ``f`` next to ``p``.  No weight is reached
    twice, and nothing records what was seen."""
    rank = rd.rank
    flat_roots = rd.flat_roots
    # The nonzero entries of each simple root, the only ones a step moves.
    moves = [[(j, y) for j, y in enumerate(alpha) if y]
             for alpha in flat_roots]
    out = []
    stack = [(key, rank)]
    while stack:
        nu, f = stack.pop()
        out.append(nu)
        for p in range(rank):
            v = nu[p]
            if v > 0 and (p < f or flat_roots[p][f]):
                child = list(nu)
                for j, y in moves[p]:
                    child[j] -= v * y
                if p < f or min(child[:p]) >= 0:
                    stack.append((tuple(child), p))
    return tuple(out)


# A perfbench ``ladder`` pass expands 213 distinct tops, 760 times, and a
# ``flags`` pass 76; at 4 times ``MEMO_SIZE`` ``ladder`` computes 215-217
# of them, at 2 times 342-363 (seeds 1, 7 and 11).
@lru_cache(maxsize=4 * MEMO_SIZE)
def _dominant(rd: RootDatum,
              h: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """``((mu, m), ...)``: the dominant weights ``mu`` of the simple module
    of dominant highest weight ``h``, as flat keys, with their
    multiplicities, in decreasing height, by Freudenthal's formula (the
    module docstring)."""
    roots = _roots(rd)
    # The dominant weights below the top, each with the simple-root
    # coordinates of the top minus it.
    top = (*h, 0)
    dom = {top: (0,) * rd.rank}
    todo = [top]
    while todo:
        mu = todo.pop()
        c = dom[mu]
        for a, b, _, _ in roots:
            if all(map(le, a, mu)):             # ``mu - alpha`` is dominant
                nu = tuple(map(sub, mu, a))
                if nu not in dom:
                    dom[nu] = tuple(map(add, c, b))
                    todo.append(nu)
    top2 = [t + 2 for t in h]
    sym = rd.symmetrizer
    out = []
    mult: dict[tuple[int, ...], int] = {}
    get = mult.get
    for mu, c in sorted(dom.items(), key=lambda t: sum(t[1])):
        if mu is top:
            m = 1
        else:
            total = 0
            for a, _, pair, aa in roots:
                up = tuple(map(add, mu, a))
                k = get(up)
                if k:
                    x = sum(map(mul, pair, mu))
                    while k:
                        x += aa
                        total += k * x
                        up = tuple(map(add, up, a))
                        k = get(up)
            norm = sum(map(mul, map(mul, sym, c), map(add, top2, mu)))
            m, r = divmod(2 * total, norm)
            if r:
                raise AssertionError("Freudenthal division is not exact")
        out.append((mu, m))
        mult.update(dict.fromkeys(_orbit(rd, mu), m))
    return tuple(out)


# Weyl dimensions of tops, four times ``MEMO_SIZE`` like the dominant
# multiplicities.  A perfbench ``ladder`` pass asks for 4,312 of them, 210
# distinct; over three shuffled passes a memo of 48, 96, 192 and 256 entries
# missed 527-553, 333-390, 212-213 and 210 times.  A miss takes about 2 us
# on A2, 8 us on D4 and 0.1 ms on E8 (2-vCPU Xeon), so the three misses more
# at 192 cost well under a millisecond a pass.
@lru_cache(maxsize=4 * MEMO_SIZE)
def _weyl_dim(rd: RootDatum, h: tuple[int, ...]) -> int:
    """Weyl's dimension formula: the product over positive roots ``alpha``
    of ``(h + rho, alpha) / (rho, alpha)``, with ``rho`` all ones."""
    num = den = 1
    for _, _, pair, _ in _roots(rd):
        num *= sum(p * (v + 1) for p, v in zip(pair, h))
        den *= sum(pair)
    return num // den


def _expand(rd: RootDatum, labels: Labels) -> Character:
    """The weight character of ``{top: {grade: m}}``: every top's dominant
    multiplicities times ``m``, summed per dominant weight and grade, and
    each sum written over its Weyl orbit once.  Distinct dominant weights
    have disjoint orbits, so each key is written once, and a zero sum
    writes nothing."""
    sums: dict[tuple[int, ...], dict[int, int]] = {}
    for top, row in labels.items():
        for mu, c in _dominant(rd, top):
            if (into := sums.get(mu)) is None:
                into = sums[mu] = {}
            get = into.get
            for g, m in row.items():
                into[g] = get(g, 0) + m * c
    out: Flat = {}
    for mu, row in sums.items():
        orbit = _orbit(rd, mu)
        for g, c in row.items():
            if c:
                if g:
                    for k in orbit:
                        out[k[:-1] + (g,)] = c
                else:
                    for k in orbit:
                        out[k] = c
    return Character._wrap(rd, out)


# The characters ``weyl_character_finite`` hands out, ``MEMO_SIZE`` like the
# other module memos: expansions read ``_dominant`` and ``_orbit``, not these.
@lru_cache(maxsize=MEMO_SIZE, typed=True)
def _weyl_character(rd: RootDatum, d: int, *h: int) -> Character:
    h, d = rd.dominant(rd.weight(h, d))
    return _expand(rd, {h: {d: 1}})


def forget_grading(g: Character) -> Character:
    """Sum out the grade, leaving every term at ``d = 0``."""
    out: Flat = {}
    get = out.get
    for k, c in g._terms.items():
        k = k[:-1] + (0,)
        out[k] = get(k, 0) + c
    return Character._wrap(g.datum, _nonzero(out))


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
