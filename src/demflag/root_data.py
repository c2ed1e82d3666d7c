"""Finite and untwisted affine root data with exact integer weights.

Conventions, fixed once and used everywhere downstream:

* Nodes follow the Bourbaki tables.  A finite datum of rank ``n`` has node
  set ``{1, .., n}``; its untwisted affinization adds node ``0``, so it has
  ``{0, .., n}``.  Node ``i`` sits at position ``pos(i)``, that is ``i - 1``
  on a finite datum and ``i`` on an affine one.
* The Cartan matrix is stored as ``cartan[i][j] = alpha_j(h_i)``, so the
  column ``j`` is the coordinate vector of the simple root ``alpha_j`` on
  the basis of simple coroots ``h_i``.
* A weight is the tuple of its integer values on the coroots ``h_i`` (in
  node order) plus the value ``d`` on the scaling element.  Finite-type
  weights simply keep ``d = 0``.
* ``flat_roots[p]`` is the simple root at position ``p`` as the flat vector
  ``h + (d,)``: Cartan column ``p`` followed by ``d``, which is ``1`` for
  the affine ``alpha_0`` and ``0`` for every other simple root.  Every
  reflection, of weights, characters and paths, reads this one table.
* The affine simple root ``alpha_0`` equals ``delta - theta`` where
  ``theta`` is the highest root; equivalently ``h_0 = c - h_theta`` with
  ``c`` the canonical central element.  A classical weight ``lam`` embeds
  at level zero via ``lam(h_0) = -lam(h_theta)``.
* ``apply_word((i_1, .., i_k), mu)`` is ``s_{i_1}(s_{i_2}(.. s_{i_k}(mu)))``:
  the last letter acts first, matching the composition order of Demazure
  operators.

Arithmetic is integer throughout, with no floats and no fractions.  The
inverse of the Cartan matrix is kept as the integer matrix ``den * C^-1``
with ``den`` its least common denominator, computed once per datum by
fraction-free elimination; root coordinates and heights read off it.

Each datum is built once per type: ``build_finite_datum``, ``affinize`` and
``short_subdatum`` return the same object for the same type, so equal data
are identical and hash by identity.  The data are immutable; assigning to a
field raises ``AttributeError``, by ``Frozen``, the one base of every
immutable value type (``Character``, ``DominantLWeight``, ``PathSet``).
"""

from __future__ import annotations

import re
from functools import cache, cached_property
from math import gcd
from operator import index
from typing import Iterable, NamedTuple, Sequence

from . import errors

# Inclusive rank ranges of the finite series supported here.
_SERIES_RANKS = {
    "A": (1, 8),
    "B": (2, 8),
    "C": (2, 8),
    "D": (4, 8),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_EXPECTED_POSITIVE = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


class Weight(NamedTuple):
    """Integer weight: coroot values ``h`` in node order plus grade ``d``."""

    h: tuple[int, ...]
    d: int = 0

    def __add__(self, other: "Weight") -> "Weight":
        if len(self.h) != len(other.h):
            raise ValueError("weights live on different index sets")
        return Weight(tuple(a + b for a, b in zip(self.h, other.h)),
                      self.d + other.d)

    def __sub__(self, other: "Weight") -> "Weight":
        return self + (-other)

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.h), -self.d)

    def __rmul__(self, c: int) -> "Weight":
        return Weight(tuple(c * a for a in self.h), c * self.d)

    # Without these two, the tuple base would repeat a weight (``w * 2``)
    # and concatenate one onto a tuple (``(1,) + w``); scalars multiply
    # from the left only, and weights add only to weights.
    def __mul__(self, other):
        return NotImplemented

    def __radd__(self, other):
        raise TypeError(f"unsupported operand type(s) for +: "
                        f"'{type(other).__name__}' and 'Weight'")


def _build_cartan(series: str, rank: int) -> list[list[int]]:
    """Bourbaki Cartan matrix with entries ``alpha_j(h_i)``."""
    n = rank
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i: int, j: int, down: int = -1, up: int = -1) -> None:
        # 0-based pair; c[i][j] = alpha_j(h_i).
        c[i][j] = down
        c[j][i] = up

    if series == "A":
        for k in range(n - 1):
            link(k, k + 1)
    elif series == "B":
        # Final root short: alpha_n(h_{n-1}) = -1, alpha_{n-1}(h_n) = -2.
        for k in range(n - 2):
            link(k, k + 1)
        link(n - 2, n - 1, down=-1, up=-2)
    elif series == "C":
        # Final root long: alpha_n(h_{n-1}) = -2, alpha_{n-1}(h_n) = -1.
        for k in range(n - 2):
            link(k, k + 1)
        link(n - 2, n - 1, down=-2, up=-1)
    elif series == "D":
        for k in range(n - 3):
            link(k, k + 1)
        link(n - 3, n - 2)
        link(n - 3, n - 1)
    elif series == "E":
        # Chain 1-3-4-5-..-n with node 2 hanging off node 4.
        link(0, 2)
        for k in range(2, n - 1):
            link(k, k + 1)
        link(1, 3)
    elif series == "F":
        link(0, 1)
        link(1, 2, down=-1, up=-2)   # alpha_3 short
        link(2, 3)
    elif series == "G":
        link(0, 1, down=-3, up=-1)   # alpha_1 short
    return c


def _symmetrizer(cartan: Sequence[Sequence[int]]) -> list[int]:
    """Minimal positive integers d with ``d_i c_ij = d_j c_ji``."""
    n = len(cartan)
    d = [0] * n
    d[0] = 1
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if j != i and cartan[i][j] != 0 and not d[j]:
                # d_j = d_i c_ij / c_ji: first scale every value set so far
                # by the least factor that makes the division exact.
                num, den = d[i] * cartan[i][j], cartan[j][i]
                s = abs(den) // gcd(num, den)
                d = [x * s for x in d]
                d[j] = num * s // den
                todo.append(j)
    if not all(d):
        raise ValueError("Dynkin diagram is not connected")
    g = gcd(*d)
    ints = [x // g for x in d]
    for i in range(n):
        for j in range(n):
            if ints[i] * cartan[i][j] != ints[j] * cartan[j][i]:
                raise ValueError("symmetrizer check failed")
    return ints


def _positive_roots(cartan: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """All positive roots in simple-root coordinates, by reflection closure."""
    n = len(cartan)
    simple = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for i in range(n):
            pairing = sum(beta[j] * cartan[i][j] for j in range(n))
            cand = list(beta)
            cand[i] -= pairing
            cand_t = tuple(cand)
            if cand_t not in roots:
                roots.add(cand_t)
                frontier.append(cand_t)
    pos = [b for b in roots if all(x >= 0 for x in b)]
    pos.sort(key=lambda b: (sum(b), b))
    return pos


def _integer_inverse(cartan: Sequence[Sequence[int]]) -> tuple[tuple, int]:
    """``(den * C^-1, den)`` with ``den`` the least common denominator.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968) on ``[C | I]``:
    every division is exact, and it ends at ``[det C * I | adj C]``.  No
    row swaps are needed: a finite-type Cartan matrix has positive leading
    principal minors, so no pivot is ever zero.  Dividing ``det C`` and
    ``adj C`` by their joint gcd leaves the least common denominator.
    """
    n = len(cartan)
    aug = [list(row) + [int(i == k) for k in range(n)]
           for i, row in enumerate(cartan)]
    prev = 1
    for c in range(n):
        piv = aug[c]
        p = piv[c]
        for k in range(n):
            if k != c:
                f = aug[k][c]
                aug[k] = [(p * a - f * b) // prev
                          for a, b in zip(aug[k], piv)]
        prev = p
    det = prev
    g = gcd(det, *(x for row in aug for x in row[n:]))
    return tuple(tuple(x // g for x in row[n:]) for row in aug), det // g


class Frozen:
    """Base of the immutable value types: assigning or deleting an
    attribute raises ``AttributeError``.

    A subclass sets its fields once, when it is built, by writing its
    ``__dict__`` (``vars(self).update``) or, with ``__slots__``, through
    ``object.__setattr__``.  ``cached_property`` writes the instance
    ``__dict__`` directly, so a field computed on first use still works.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class Datum(Frozen):
    """Root-datum base: the fields annotated on the class, given by keyword
    and set once, by ``__init__``.  The node, weight and simple-root
    surface reads ``cartan`` and the first node ``_first`` of the subclass.
    """

    def __init__(self, **fields) -> None:
        if fields.keys() != self.__annotations__.keys():
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{', '.join(self.__annotations__)}")
        vars(self).update(fields)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label}>"

    # -- index bookkeeping -------------------------------------------------

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(range(self._first, self._first + len(self.cartan)))

    def pos(self, i: int) -> int:
        try:
            p = index(i) - self._first
        except TypeError:
            p = -1
        if not 0 <= p < len(self.cartan):
            raise errors.IndexOutOfRange(f"node {i!r} not in {self.label}")
        return p

    # -- weights -----------------------------------------------------------

    def weight(self, h: Iterable[int], d: int = 0) -> Weight:
        ht = tuple(h)
        try:
            ht, d = tuple(map(index, ht)), index(d)
        except TypeError:
            raise ValueError(f"weight {ht} at grade {d!r} is not integral") \
                from None
        if len(ht) != len(self.cartan):
            raise ValueError(f"expected {len(self.cartan)} coroot values")
        return Weight(ht, d)

    def fundamental_weight(self, i: int) -> Weight:
        p = self.pos(i)
        return Weight(tuple(int(k == p) for k in range(len(self.cartan))), 0)

    def value(self, mu: Weight, i: int) -> int:
        return mu.h[self.pos(i)]

    def simple_root(self, i: int) -> Weight:
        *h, d = self.flat_roots[self.pos(i)]
        return Weight(tuple(h), d)

    @cached_property
    def flat_roots(self) -> tuple[tuple[int, ...], ...]:
        """Each simple root as the flat vector ``h + (d,)``, in node order."""
        return tuple(col + (int(i == 0),)
                     for i, col in zip(self.indices, zip(*self.cartan)))

    def is_dominant(self, mu: Weight) -> bool:
        return all(x >= 0 for x in mu.h)

    def dominant(self, mu: Weight) -> Weight:
        """``mu`` itself, or ``NotDominant``: the one dominance refusal."""
        if not self.is_dominant(mu):
            raise errors.NotDominant(f"{mu.h} is not dominant for "
                                     f"{self.label}")
        return mu


class RootDatum(Datum):
    """Finite root datum over Bourbaki nodes ``1..rank``."""

    series: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]
    positive_roots: tuple[tuple[int, ...], ...]
    theta_coords: tuple[int, ...]            # highest root on simple roots
    theta_h: tuple[int, ...]                 # theta(h_i) in node order
    comarks: tuple[int, ...]                 # h_theta on the h_i basis
    w0_word: tuple[int, ...]
    short_nodes: tuple[int, ...]             # empty iff simply laced
    lacing: int                              # squared-length ratio r-dual

    _first = 1

    @property
    def label(self) -> str:
        return f"{self.series}{self.rank}"

    @property
    def zero_weight(self) -> Weight:
        return Weight((0,) * self.rank, 0)

    # -- simple-root coordinates -------------------------------------------

    @cached_property
    def _inverse(self) -> tuple[tuple, int]:
        # On first use, not at build time: building data is on the start-up
        # path, and most requests never ask for root coordinates.
        return _integer_inverse(self.cartan)

    @cached_property
    def _height_vector(self) -> tuple[int, ...]:
        # Column sums of den * C^-1, that is den * rho-check on the h basis.
        return tuple(sum(col) for col in zip(*self._inverse[0]))

    def root_coordinates(self, h: Sequence[int]) -> tuple[int, ...] | None:
        """Simple-root coordinates of the weight with coroot values ``h``,
        or None when they are not integers (``h`` is off the root lattice)."""
        adj, den = self._inverse
        out = []
        for row in adj:
            x, r = divmod(sum(a * v for a, v in zip(row, h)), den)
            if r:
                return None
            out.append(x)
        return tuple(out)

    def height(self, h: Sequence[int]) -> int:
        """Sum of the simple-root coordinates of ``h``, times ``den``.

        ``den`` is the common denominator of ``C^-1``, so the value is an
        integer.  It is linear and positive on simple roots: ``mu < nu`` in
        the dominance order implies ``height(mu) < height(nu)``."""
        return sum(a * v for a, v in zip(self._height_vector, h))


class AffineDatum(Datum):
    """Untwisted affinization of a finite root datum; node set ``0..rank``."""

    finite: RootDatum
    cartan: tuple[tuple[int, ...], ...]      # over nodes 0..rank
    dual_marks: tuple[int, ...]              # level functional, node order

    _first = 0

    @property
    def label(self) -> str:
        return f"{self.finite.label}~"

    @property
    def rank(self) -> int:
        return self.finite.rank

    @property
    def delta(self) -> Weight:
        return Weight((0,) * (self.rank + 1), 1)

    def level(self, mu: Weight) -> int:
        return sum(a * v for a, v in zip(self.dual_marks, mu.h))


def build_finite_datum(series: str, rank: int) -> RootDatum:
    """The finite root datum for a Cartan-Killing label, built once."""
    if series not in _SERIES_RANKS:
        raise errors.UnknownType(f"unknown series {series!r}")
    lo, hi = _SERIES_RANKS[series]
    if not (isinstance(rank, int) and lo <= rank <= hi):
        raise errors.UnknownType(f"rank {rank} invalid for series {series}")
    return _finite_datum(series, int(rank))


@cache
def _finite_datum(series: str, rank: int) -> RootDatum:
    # Keyed on validated positional arguments, the rank as a plain int, so
    # there is one object per type (``True`` gives A1, not "ATrue").
    cartan = _build_cartan(series, rank)
    sym = _symmetrizer(cartan)
    pos = _positive_roots(cartan)
    if len(pos) != _EXPECTED_POSITIVE[series](rank):
        raise AssertionError("positive root count mismatch")

    theta = max(pos, key=lambda b: (sum(b), b))
    theta_h = tuple(sum(theta[j] * cartan[i][j] for j in range(rank))
                    for i in range(rank))
    if any(v < 0 for v in theta_h):
        raise AssertionError("highest root is not dominant")
    dmax = max(sym)
    comarks = []
    for j in range(rank):
        num = theta[j] * sym[j]
        if num % dmax:
            raise AssertionError("comarks must be integral")
        comarks.append(num // dmax)

    # Longest-element word: greedily reduce -rho, recording letters in the
    # order they act; the word then satisfies apply_word(word, rho) = -rho.
    cur = [-1] * rank
    word: list[int] = []
    while True:
        neg = next((i for i in range(rank) if cur[i] < 0), None)
        if neg is None:
            break
        v = cur[neg]
        cur = [cur[k] - v * cartan[k][neg] for k in range(rank)]
        word.append(neg + 1)
    if len(word) != len(pos) or any(x != 1 for x in cur):
        raise AssertionError("longest-element word has wrong length")

    short = tuple(i + 1 for i in range(rank) if sym[i] < dmax)
    lacing = dmax // min(sym)

    return RootDatum(
        series=series,
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        symmetrizer=tuple(sym),
        positive_roots=tuple(pos),
        theta_coords=theta,
        theta_h=theta_h,
        comarks=tuple(comarks),
        w0_word=tuple(word),
        short_nodes=short,
        lacing=lacing,
    )


_LABEL_RE = re.compile(r"^([A-G])([0-9]+)$")


def datum_from_label(label: str) -> RootDatum:
    """Parse a label such as ``C2`` into a finite root datum."""
    m = _LABEL_RE.match(label.strip())
    if not m:
        raise errors.UnknownType(f"cannot parse type label {label!r}")
    return build_finite_datum(m.group(1), int(m.group(2)))


@cache
def affinize(rd: RootDatum) -> AffineDatum:
    """Untwisted affinization with ``alpha_0 = delta - theta``."""
    n = rd.rank
    cartan = [[0] * (n + 1) for _ in range(n + 1)]
    cartan[0][0] = 2
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cartan[i][j] = rd.cartan[i - 1][j - 1]
        cartan[i][0] = -rd.theta_h[i - 1]                 # alpha_0(h_i)
        cartan[0][i] = -sum(rd.comarks[k] * rd.cartan[k][i - 1]
                            for k in range(n))            # alpha_i(h_0)
    ad = AffineDatum(
        finite=rd,
        cartan=tuple(tuple(row) for row in cartan),
        dual_marks=(1,) + rd.comarks,
    )
    # Structural checks: generalized-Cartan shape, roots of level zero, and
    # alpha_0 + theta = delta in coroot values and grade.
    for i in range(n + 1):
        for j in range(n + 1):
            a, b = cartan[i][j], cartan[j][i]
            bad = a != 2 if i == j else a > 0 or (a == 0) != (b == 0)
            if bad:
                raise AssertionError("not a generalized Cartan matrix")
    if any(ad.level(ad.simple_root(i)) for i in ad.indices):
        raise AssertionError("simple roots must have level zero")
    total = ad.simple_root(0)
    for i in range(1, n + 1):
        total = total + rd.theta_coords[i - 1] * ad.simple_root(i)
    if total != ad.delta:
        raise AssertionError("alpha_0 + theta must equal delta")
    return ad


# -- Weyl group action -----------------------------------------------------


def reflect_weight(datum: Datum, i: int, mu: Weight) -> Weight:
    """Simple reflection ``s_i(mu) = mu - mu(h_i) alpha_i``."""
    p = datum.pos(i)
    if len(mu.h) != len(datum.cartan):
        raise ValueError(f"expected {len(datum.cartan)} coroot values")
    v = mu.h[p]
    if v == 0:
        return mu
    *h, d = (a - v * b for a, b in zip((*mu.h, mu.d), datum.flat_roots[p]))
    return Weight(tuple(h), d)


def apply_word(datum: Datum, word: Sequence[int], mu: Weight) -> Weight:
    """Act by a word, last letter first."""
    cur = mu
    for i in reversed(word):
        cur = reflect_weight(datum, i, cur)
    return cur


def make_dominant(datum: Datum,
                  mu: Weight) -> tuple[Weight, tuple[int, ...]]:
    """Reduce to the dominant chamber.

    Returns ``(lam, word)`` with ``lam`` dominant and
    ``apply_word(word, lam) == mu``; the word is reduced.  Each step reflects
    at the smallest node with negative value.  Affine weights must have
    positive level, otherwise the walk need not terminate.
    """
    if isinstance(datum, AffineDatum) and datum.level(mu) <= 0:
        raise errors.ZeroLevel(
            f"level {datum.level(mu)} weight cannot be reduced")
    roots = datum.flat_roots
    n = len(roots)
    if len(mu.h) != n:
        raise ValueError(f"expected {n} coroot values")
    first = datum._first
    # The walk runs on the flat values ``h + (d,)``, a plain list.
    cur = [*mu.h, mu.d]
    word: list[int] = []
    while True:
        for p in range(n):
            v = cur[p]
            if v < 0:
                break
        else:
            return Weight(tuple(cur[:-1]), cur[-1]), tuple(word)
        cur = [a - v * b for a, b in zip(cur, roots[p])]
        word.append(p + first)


# -- short-root subsystem ---------------------------------------------------


class ShortEmbedding(NamedTuple):
    """Short-root subsystem of a non-simply-laced datum.

    ``nodes[k]`` is the parent node carried by subdatum node ``k + 1``.  The
    subdatum is an honest type-A datum in its own simply-laced normalization;
    the change of squared length relative to the parent shows up downstream
    only as a rescaled level, never inside this embedding.
    """

    parent: RootDatum
    subdatum: RootDatum
    nodes: tuple[int, ...]

    def restrict(self, mu: Weight) -> Weight:
        """Restriction of a parent weight to the short coroots."""
        return Weight(tuple(mu.h[self.parent.pos(i)] for i in self.nodes), 0)


@cache
def short_subdatum(rd: RootDatum) -> ShortEmbedding:
    """Subsystem spanned by the short simple roots; type A by inspection."""
    if not rd.short_nodes:
        raise errors.SimplyLaced(f"{rd.label} has no short roots")
    nodes = rd.short_nodes
    k = len(nodes)
    sub = build_finite_datum("A", k)
    for a in range(k):
        for b in range(k):
            pa, pb = rd.pos(nodes[a]), rd.pos(nodes[b])
            if rd.cartan[pa][pb] != sub.cartan[a][b]:
                raise AssertionError("short subsystem is not a type-A chain")
    return ShortEmbedding(parent=rd, subdatum=sub, nodes=nodes)


def eta_lambda(se: ShortEmbedding, lam: Weight, mu: Weight) -> Weight:
    """Lift of a subdatum weight below ``restrict(lam)`` back to the parent.

    Writes ``restrict(lam) - mu`` as a nonnegative integer combination of
    subdatum simple roots and subtracts the matching parent simple roots
    from ``lam``.  The result is again an integral parent weight.
    """
    diff = se.restrict(lam) - mu
    coords = se.subdatum.root_coordinates(diff.h)
    if coords is None or any(x < 0 for x in coords):
        raise errors.NotBelow(
            "weight is not below the restriction in the subsystem")
    out = lam
    for c, node in zip(coords, se.nodes):
        out = out - c * se.parent.simple_root(node)
    return out
