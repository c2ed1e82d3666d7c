"""Finite and untwisted affine root data with exact integer weights.

Conventions, fixed once and used everywhere downstream:

* Nodes follow the Bourbaki tables.  A finite datum of rank ``n`` has node
  set ``{1, .., n}``; its untwisted affinization adds node ``0``, so it has
  ``{0, .., n}``.  Node ``i`` sits at position ``pos(i)``, that is ``i - 1``
  on a finite datum and ``i`` on an affine one.
* Each finite type is one entry of one table: its diagram's edges and the
  lengths of its simple roots (``_diagram``; Bourbaki, *Lie Groups and Lie
  Algebras* ch. VI, plates I-IX).  The Cartan matrix and the symmetrizer
  are read off them, and every other table is derived from the Cartan
  matrix: the positive roots, the highest root, the comarks, the
  affinization and the short subsystem.  They never vary at run time, so
  no build checks them; ``tests/test_root_data.py`` does, once on all 32
  types (``test_positive_root_counts``, ``test_highest_root_tables``,
  ``test_coroot_of_theta_is_comarks``, ``test_affine_cartan_tables``,
  ``test_simple_roots_have_level_zero``, ``test_longest_element_word``,
  ``test_short_subdatum_tables`` and ``test_catalogue_is_pinned``).
* The Cartan matrix is stored as ``cartan[i][j] = alpha_j(h_i)``, so the
  column ``j`` is the coordinate vector of the simple root ``alpha_j`` on
  the basis of simple coroots ``h_i``.
* The positive roots are made height by height from root strings:
  ``beta + alpha_i`` is a root exactly when ``alpha_i`` can be subtracted
  from ``beta`` more than ``beta(h_i)`` times (``_positive_roots``).
  ``positive_roots`` lists them by height and then by coordinates, so the
  highest root comes last.
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

Each input check has one owner: ``Datum.weight`` for weights, those of
the Weyl group action included; ``integral`` for integer scalars, such as
levels, grades, coefficients and the numbers of a path given to
``lspath.root_op_f``; ``characters.Character._on`` for datums.

Each datum is built once per type: ``build_finite_datum``, ``affinize`` and
``short_subdatum`` return the same object for the same type, so equal data
are identical and hash by identity.  What most requests never read is
computed on first use: ``den * C^-1``, and ``w0_word``, a reduced word of
the longest element, which is ``make_dominant``'s word for ``-rho``.  The
data are immutable; assigning to a field raises ``AttributeError``, by
``Frozen``, the one base of every immutable value type (``Character``,
``DominantLWeight``, ``PathSet``).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cache, cached_property
from math import gcd
from operator import index, mul

from . import errors

# CPython's default limit on the digits of an int read from a string or
# turned into one, on every Python version.
MAX_DIGITS = 4300
_PAST_DIGITS = 10 ** MAX_DIGITS

# Per series: the inclusive range of ranks supported here.
_SERIES = {"A": (1, 8), "B": (2, 8), "C": (2, 8), "D": (4, 8), "E": (6, 8),
           "F": (4, 4), "G": (2, 2)}


def _diagram(series: str, rank: int) -> tuple[list[list[int]], list[int]]:
    """Bourbaki Cartan matrix, entries ``alpha_j(h_i)``, and symmetrizer.

    The diagram's edges are 0-based: a chain ``0 - 1 - .. - (n-1)``, except
    that D moves its last link to ``(n-3, n-1)`` and E is the chain ``0 -
    2 - 3 - .. - (n-1)`` with node 1 on node 3.  The symmetrizer ``d_i`` is
    half the squared length of ``alpha_i``, short roots 1.  An edge ``i -
    j`` gives ``alpha_j(h_i) = -max(1, d_j / d_i)``, so ``d_i c_ij = d_j
    c_ji`` holds by construction.
    """
    n = rank
    chain = [(k, k + 1) for k in range(n - 1)]
    edges = {"D": chain[:-1] + [(n - 3, n - 1)],
             "E": [(0, 2), (1, 3)] + chain[2:]}.get(series, chain)
    sym = {"B": [2] * (n - 1) + [1], "C": [1] * (n - 1) + [2],
           "F": [2, 2, 1, 1], "G": [1, 3]}.get(series, [1] * n)
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for edge in edges:
        for i, j in (edge, edge[::-1]):
            c[i][j] = -max(1, sym[j] // sym[i])
    return c, sym


def printable(n: int) -> bool:
    """Whether the int ``n`` has at most ``MAX_DIGITS`` digits, so that
    CPython turns it into a string: the one digit test, of the results the
    command line prints and of the values refusals and reprs show
    (``shown``)."""
    return -_PAST_DIGITS < n < _PAST_DIGITS


class _Size(str):
    """The size ``shown`` gives for an int: text that ``repr`` leaves bare."""
    __repr__ = str.__str__


def shown(value):
    """``value`` for a refusal or a repr to format: the value itself, but
    with every int that is not ``printable``, alone or in a tuple or list,
    put as its sign and bit length, since formatting it would raise
    ``ValueError``."""
    if isinstance(value, int) and not printable(value):
        return _Size(f"{'-' * (value < 0)}<int of {value.bit_length()} bits>")
    if type(value) in (tuple, list):
        return type(value)(map(shown, value))
    return value


def integral(x: int, what: str) -> int:
    """``x`` as an int, or ``ValueError`` naming ``what`` it is."""
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"{what} {shown(x)!r} is not integral") from None


class Weight(namedtuple("Weight", "h d", defaults=(0,))):
    """Integer weight: coroot values ``h`` in node order, a ``tuple[int,
    ...]``, plus the grade ``d``, an ``int``."""

    __slots__ = ()

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


def _positive_roots(cartan: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """All positive roots in simple-root coordinates, ordered by height and
    then by coordinates, built one height at a time from root strings.

    The ``alpha_i``-string through a root ``beta`` runs from ``beta - q
    alpha_i`` to ``beta + p alpha_i`` with ``q - p = beta(h_i)`` (Humphreys,
    GTM 9, §9.4), so ``beta + alpha_i`` is a root exactly when ``q >
    beta(h_i)``.  Each root carries its coroot values ``h`` and its ``q``
    at every node.  A simple root has ``q = 0``; ``beta + alpha_i`` has
    ``q_i`` one more than ``beta`` has.  A root is reached from every root
    one simple root below it, all of one height, so one sweep over a
    height fills in every ``q`` of the next.
    """
    n = len(cartan)
    cols = list(zip(*cartan))               # cols[i] = alpha_i(h_j) over j
    level = {tuple(int(k == i) for k in range(n)): (cols[i], [0] * n)
             for i in range(n)}
    out = []
    while level:
        nxt: dict[tuple[int, ...], tuple] = {}
        for beta in sorted(level):
            h, q = level[beta]
            out.append(beta)
            for i in range(n):
                if q[i] > h[i]:
                    gamma = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    entry = nxt.get(gamma)
                    if entry is None:
                        entry = nxt[gamma] = (
                            tuple(a + b for a, b in zip(h, cols[i])), [0] * n)
                    entry[1][i] = q[i] + 1
        level = nxt
    return out


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
            raise errors.IndexOutOfRange(f"node {shown(i)!r} not in "
                                         f"{self.label}")
        return p

    # -- weights -----------------------------------------------------------

    def weight(self, h: Iterable[int], d: int = 0) -> Weight:
        ht = h
        try:
            ht = tuple(h)
            ht, d = tuple(map(index, ht)), index(d)
        except TypeError:
            raise ValueError(f"weight {shown(ht)} at grade {shown(d)!r} "
                             f"is not integral") from None
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
            raise errors.NotDominant(f"{shown(mu.h)} is not dominant for "
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
    short_nodes: tuple[int, ...]             # empty iff simply laced
    lacing: int                              # squared-length ratio r-dual

    _first = 1

    @property
    def label(self) -> str:
        return f"{self.series}{self.rank}"

    @property
    def zero_weight(self) -> Weight:
        return Weight((0,) * self.rank, 0)

    @cached_property
    def w0_word(self) -> tuple[int, ...]:
        """A reduced word of the longest element, from ``make_dominant`` of
        ``-rho``: ``apply_word(w0_word, rho) == -rho``."""
        return make_dominant(self, Weight((-1,) * self.rank))[1]

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
    if not (isinstance(series, str) and series in _SERIES):
        raise errors.UnknownType(f"unknown series {shown(series)!r}")
    lo, hi = _SERIES[series]
    if not (isinstance(rank, int) and lo <= rank <= hi):
        raise errors.UnknownType(f"rank {shown(rank)} invalid for series "
                                 f"{series}")
    return _finite_datum(series, int(rank))


@cache
def _finite_datum(series: str, rank: int) -> RootDatum:
    # Keyed on validated positional arguments, the rank as a plain int, so
    # there is one object per type (``True`` gives A1, not "ATrue").
    cartan, sym = _diagram(series, rank)
    pos = _positive_roots(cartan)
    theta = pos[-1]
    dmax = max(sym)
    return RootDatum(
        series=series,
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        symmetrizer=tuple(sym),
        positive_roots=tuple(pos),
        theta_coords=theta,
        theta_h=tuple(sum(map(mul, theta, row)) for row in cartan),
        # h_theta = sum_j theta_j (d_j / d_max) h_j.
        comarks=tuple(t * d // dmax for t, d in zip(theta, sym)),
        short_nodes=tuple(i + 1 for i in range(rank) if sym[i] < dmax),
        lacing=dmax // min(sym),
    )


def datum_from_label(label: str) -> RootDatum:
    """Parse a label such as ``C2``, a series letter ``A``-``G`` and ASCII
    digits, blanks around it ignored, into a finite root datum.  A rank of
    more than ``MAX_DIGITS`` digits, which ``int`` would not read, is
    refused like any other rank outside its series."""
    text = label.strip() if isinstance(label, str) else ""
    series, rank = text[:1], text[1:]
    if not (series in _SERIES and rank.isascii() and rank.isdigit()):
        raise errors.UnknownType(f"cannot parse type label {shown(label)!r}")
    if len(rank) > MAX_DIGITS:
        raise errors.UnknownType(f"rank {rank} invalid for series {series}")
    return build_finite_datum(series, int(rank))


@cache
def affinize(rd: RootDatum) -> AffineDatum:
    """Untwisted affinization with ``alpha_0 = delta - theta``: the finite
    Cartan matrix bordered by ``alpha_0(h_i) = -theta(h_i)`` and, with
    ``h_0 = c - h_theta``, by ``alpha_j(h_0) = -alpha_j(h_theta)``."""
    row0 = (2, *(-sum(map(mul, rd.comarks, col)) for col in zip(*rd.cartan)))
    rows = ((-t, *row) for t, row in zip(rd.theta_h, rd.cartan))
    return AffineDatum(finite=rd, cartan=(row0, *rows),
                       dual_marks=(1,) + rd.comarks)


# -- Weyl group action -----------------------------------------------------


def reflect_weight(datum: Datum, i: int, mu: Weight) -> Weight:
    """Simple reflection ``s_i(mu) = mu - mu(h_i) alpha_i``."""
    p = datum.pos(i)
    mu = datum.weight(mu.h, mu.d)
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
    mu = datum.weight(mu.h, mu.d)
    if isinstance(datum, AffineDatum) and datum.level(mu) <= 0:
        raise errors.ZeroLevel(
            f"level {shown(datum.level(mu))} weight cannot be reduced")
    return _make_dominant(datum, mu)


def _make_dominant(datum: Datum,
                   mu: Weight) -> tuple[Weight, tuple[int, ...]]:
    """``make_dominant`` of a weight its caller has checked: integral, of
    the datum's rank, and of positive level on an affine datum."""
    roots = datum.flat_roots
    n = len(roots)
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


class ShortEmbedding(namedtuple("ShortEmbedding", "parent subdatum nodes")):
    """Short-root subsystem of a non-simply-laced datum: the ``RootDatum``
    fields ``parent`` and ``subdatum``, and ``nodes``, a ``tuple[int, ...]``.

    ``nodes[k]`` is the parent node carried by subdatum node ``k + 1``.  The
    subdatum is an honest type-A datum in its own simply-laced normalization;
    the change of squared length relative to the parent shows up downstream
    only as a rescaled level, never inside this embedding.
    """

    __slots__ = ()

    def restrict(self, mu: Weight) -> Weight:
        """Restriction of a parent weight to the short coroots."""
        return Weight(tuple(mu.h[self.parent.pos(i)] for i in self.nodes), 0)


@cache
def short_subdatum(rd: RootDatum) -> ShortEmbedding:
    """Subsystem spanned by the short simple roots: a type-A chain."""
    nodes = rd.short_nodes
    if not nodes:
        raise errors.SimplyLaced(f"{rd.label} has no short roots")
    return ShortEmbedding(rd, build_finite_datum("A", len(nodes)), nodes)


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
