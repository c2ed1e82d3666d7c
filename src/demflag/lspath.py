"""Piecewise-linear path model for highest-weight crystals.

A path is a finite sequence of segments, each a rational direction vector
together with a positive rational duration; durations sum to one.  The
direction vector lists the values on the coroots in node order followed by
the value on the scaling element.

``LSPath`` stores a path over one common duration denominator ``n``: a
segment of duration ``t`` and direction ``v`` is the step ``(T, v)`` with
``T = n t``, so the integers ``T`` sum to ``n``, and ``v`` is an integral
tuple (every generated direction is integral, see below).  The form is
canonical: steps with ``T = 0`` are dropped, neighbours with equal
directions are merged by adding durations, and ``n`` and every ``T`` are
divided by their joint gcd, so equality of paths means equality of traced
polylines.  ``LSPath.segments`` gives the rational form back; the
operators stay in the integers.

Generation does not build ``LSPath``s.  The Demazure sets of one
classical top, a datum with the values ``h`` of a dominant weight, are
subsets of one path crystal, and all of them grow in one table per top,
keyed by the datum and ``h`` and kept for the last ``MEMO_SIZE`` tops.
The grade needs no table of its own: ``delta`` pairs to zero with every
coroot and every reflection fixes it, so the crystal of ``lam + g
delta`` is that of ``lam`` with every direction moved by ``g delta``,
with the same pairings, the same edges and the same order (adding one
amount to the last entry of every direction reorders none).  A table
holds directions at grade 0.  A set carries its grade, its weights start
from ``lam`` with that grade, and only ``_Table.paths`` adds the grade,
when it builds ``LSPath``s.

The table interns directions as small ints and holds for each node and
direction the pairing ``v(h_i)`` and, filled in when first asked, the id
of the reflected direction.  A path in generation is the flat tuple
``(n, T0, id0, T1, id1, ...)``: within one table equal flat tuples are
equal paths.  For each node the table also keeps the edges
``b -> f_i b`` (or None) walked so far, so a string that an earlier set
of the same top walked is read, not lowered again.  The end of a string
is recorded, not lowered: ``phi_i(f_i b) = phi_i(b) - 1`` (Littelmann,
Ann. Math. 1995), so where ``_lower`` finds ``phi_i(b) = 1`` it also
records ``f_i(f_i b) = None``.  An edge can thus add two entries, so a
node holding ``_DOWN_SIZE - 1`` edges drops them all before it adds any,
and no node holds more than ``_DOWN_SIZE``.  Ids are never reassigned, so
a set's members, weights and order do not depend on the sets grown
before it.  Tables are shared between threads: a set is grown, and edges
are added, while holding the table's lock.  One kernel, ``_lower``,
applies ``f_i`` to the flat form; ``f_edge_lines`` reads and fills the
table's edges, and ``root_op_f`` lowers a path given by hand in a table
of its own.

Root operators follow the usual recipe.  For node ``i`` let ``h(t)`` be the
pairing of the running point with ``h_i``; it is piecewise linear, so its
minimum ``m`` over ``[0, 1]`` is attained at a segment endpoint and all
searches below happen at endpoints.  Values at endpoints are kept scaled
by ``n``.  On a step ``(T, v)`` the scaled pairing moves by ``v(h_i)`` per
unit of ``T``, so it reaches a scaled value ``c`` after ``c / v(h_i)``
units; a cut there multiplies ``n`` and every ``T`` by the denominator of
that quotient and leaves every direction as it is.  ``_lower`` reads a
flat path once for ``h(1)``, ``m`` and the last endpoint at ``m``, then
walks on from there to the cut; the ``eps`` groups keep one running
minimum per path and node.  Neither builds a list of heights.  The
result is one list, a copy of the flat path with every ``T`` scaled when
the cut rescales, edited in place: the reflected stretch read through
the ``refl`` cache, the cut step split in two, the junctions merged.  The
gcd of ``n`` and every ``T`` is taken only after a merge: the input's is
1, and a split or a rescale alone adds no common factor, since the cut's
numerator is prime to its denominator.

``f_i`` is defined iff ``h(1) - m >= 1``.  It reflects the stretch between
the last time ``h = m`` and the first later time ``h = m + 1`` and leaves
the increments elsewhere unchanged; the endpoint drops by ``alpha_i``.  A
reflected step is ``(T, v - v(h_i) alpha_i)``.  The input is canonical and
a reflection keeps distinct directions distinct, so only the junctions at
the ends of the reflected stretch can merge.

Generating all ``f``-strings along a reduced word, last letter first,
starting from the straight dominant path, yields the path realization of a
Demazure crystal; summing exponentials of endpoints gives its character.
This provides a check of the operator-ladder characters by a construction
that shares no code with them.  Generation carries each path's endpoint
weight, the weight of the path it was lowered from minus ``alpha_i``, so
the character is summed when the set is built, from no path's steps.

Every direction of a generated path lies in the Weyl orbit of ``lam``, so
it is an integral weight: the straight path's direction is ``lam``; a
reflected direction ``v`` becomes ``s_i v = v - v(h_i) alpha_i``; cutting
keeps directions; and merging joins only equal neighbours.  In one orbit
positively proportional means equal, because the level is Weyl-invariant
and positive (a dominant weight of level zero is a multiple of ``delta``,
and no operator is defined on its path), so merging equal neighbours
merges every pair that a traced polyline would.  Sets are ordered on
directions, then durations, which is the order of the rational segments.

``straight_path``, ``generate_demazure_set`` and ``joseph_highest`` check
their weight the same way (integral values and grade, of the datum's
rank, dominant).  ``generate_demazure_set`` checks its weight and every
letter on every call, so a bad input raises every time and no error is
kept (a key typed by value and type would not reach inside the word's
tuple).  It then looks the set up in a per-process memo of the last
``MEMO_SIZE // 6`` sets, keyed by the datum, the checked values ``h``
and grade, and the letters' node positions; a repeated request returns
the same ``PathSet``.  A ``PathSet`` is immutable (``root_data.Frozen``).
It keeps its flat paths, their weights, its crystal's table, its grade
and its character; ``len`` and ``crystal_character`` build no ``LSPath``.
Two fields are ``cached_property``s, computed on first access and kept
in the instance ``__dict__``: ``paths``, the ``LSPath``s built and
sorted, and ``_by_eps``, the groups ``joseph_highest`` reads (below).
``root_op_f`` takes a path from outside, so it raises ``ValueError``
unless ``n >= 1``, the durations are positive integers that sum to ``n``,
every direction is integral with ``rank + 2`` entries (the nodes
``0 .. rank`` and the scaling element) and differs from its neighbours,
as ``_lower`` needs a canonical path.

``joseph_highest`` concatenates the straight path to a dominant ``mu``
with each member ``b``, first ``mu`` then ``b``.  The pairing with ``h_i``
rises from 0 to ``mu(h_i)`` and then follows ``b`` shifted by
``mu(h_i)``, so it stays nonnegative exactly when
``mu(h_i) + min h_i(b) >= 0``; the members passing for every node give the
highest-weight terms of the tensor decomposition, at the dominant weights
``mu + wt(b)``.  As ``mu(h_i)`` is an integer, the test is
``mu(h_i) >= eps_i(b)`` with ``eps_i(b) = -floor(min h_i(b))``.  A set
groups its flat paths by the vector of their ``eps_i`` when first asked,
from the pairing table, and keeps the groups, so a call compares one
vector per group; only the members that pass become ``LSPath``s.
Like ``generate_demazure_set``, ``joseph_highest`` checks ``mu``, the
weight and every letter on every call, then looks the terms up in a memo
of the last ``MEMO_SIZE // 6``, keyed by the datum, the checked values
and grade of ``mu`` and of the weight, and the letters' node positions.
The memo keeps a tuple, and each call returns a fresh list of it, so a
caller's edits reach neither the memo nor the next answer.
"""

from __future__ import annotations

from _thread import allocate_lock
from collections import Counter, namedtuple
from collections.abc import Sequence
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import le

from .characters import MEMO_SIZE, Character
from .root_data import AffineDatum, Frozen, Weight, integral, shown

Step = tuple[int, tuple[int, ...]]            # (n t, v)
Flat = tuple[int, ...]                        # (n, T0, id0, T1, id1, ...)


class LSPath(namedtuple("LSPath", "n steps")):
    """Canonical path: durations scaled by ``n``, integral directions.  The
    ``int`` field ``n``, and ``steps``, a ``tuple[Step, ...]``."""

    __slots__ = ()

    @property
    def segments(self) -> tuple:
        """The rational ``(direction, duration)`` segments, read-only: a
        ``tuple[tuple[Fraction, ...], Fraction]`` each."""
        from fractions import Fraction
        return tuple((tuple(map(Fraction, v)), Fraction(t, self.n))
                     for t, v in self.steps)

    def weight(self) -> Weight:
        """Integral endpoint of the path; ``ValueError`` for an empty path
        or an endpoint that is not integral."""
        if not self.steps:
            raise ValueError("an empty path has no endpoint")
        n = self.n
        steps = iter(self.steps)
        t, v = next(steps)
        total = [t * x for x in v]
        for t, v in steps:
            total = [y + t * x for y, x in zip(total, v)]
        if n > 1:
            if any(x % n for x in total):
                raise ValueError("path endpoint is not an integral weight")
            total = [x // n for x in total]
        return Weight(tuple(total[:-1]), total[-1])


class _Table:
    """The directions and lowering edges of one path crystal.

    ``pairs[p][d]`` is the value of direction ``d`` on the coroot at
    position ``p``; ``refl[p][d]`` is the id of its reflection at that
    node, or -1 until ``reflect`` is first asked for it.  ``down[p]`` maps
    a flat path to ``f_i`` of it at that node, or to None where ``f_i`` is
    undefined, filled in as edges are first walked and emptied when full.
    Ids are never reassigned, so a flat path means the same path for as
    long as the table lives.  Whoever interns a direction or adds an edge
    to a shared table holds ``lock``.
    """

    __slots__ = ("roots", "dirs", "ids", "pairs", "refl", "down", "lock")

    def __init__(self, ad: AffineDatum) -> None:
        self.roots = ad.flat_roots
        self.dirs: list[tuple[int, ...]] = []
        self.ids: dict[tuple[int, ...], int] = {}
        self.pairs: list[list[int]] = [[] for _ in self.roots]
        self.refl: list[list[int]] = [[] for _ in self.roots]
        self.down: list[dict[Flat, Flat | None]] = [{} for _ in self.roots]
        self.lock = allocate_lock()

    def intern(self, v: tuple[int, ...]) -> int:
        d = self.ids.get(v)
        if d is None:
            d = self.ids[v] = len(self.dirs)
            self.dirs.append(v)
            for x, col, refl in zip(v, self.pairs, self.refl):
                col.append(x)
                refl.append(-1)
        return d

    def reflect(self, p: int, d: int) -> int:
        r = self.refl[p][d]
        if r < 0:
            v = self.dirs[d]
            x = v[p]
            r = self.refl[p][d] = self.intern(tuple(
                [y - x * z for y, z in zip(v, self.roots[p])])) if x else d
        return r

    def paths(self, flats: Sequence[Flat], grade: int = 0) -> list[LSPath]:
        """The paths of ``flats`` with ``grade`` added to the last entry,
        the value on the scaling element, of every direction.  Paths share
        their direction tuples, so each moved direction is built once."""
        dirs = self.dirs
        if grade:
            used = {d for b in flats for d in b[2::2]}
            dirs = {d: (*dirs[d][:-1], dirs[d][-1] + grade) for d in used}
        get = dirs.__getitem__
        return [LSPath(b[0], tuple(zip(b[1::2], map(get, b[2::2]))))
                for b in flats]


def _lower(tab: _Table, p: int, b: Flat) -> tuple[Flat | None, bool]:
    """``f_i`` for the node in position ``p``, None when undefined, and
    whether ``phi_i(b) = 1``, so that ``f_i`` of the result is undefined."""
    n = b[0]
    pairs = tab.pairs[p]
    # h is n h_i at the end of the step whose id sits at b[j]; the minimum
    # m is last reached where the step whose duration sits at b[s] starts.
    h = m = 0
    s = 1
    for j in range(2, len(b), 2):
        h += b[j - 1] * pairs[b[j]]
        if h <= m:
            m, s = h, j + 1
    if h - m < n:
        return None, False
    last = h - m < 2 * n
    top = m + n
    j, h = s, m
    while (x := h + b[j] * pairs[b[j + 1]]) < top:
        h = x
        j += 2
    # The step at b[j] is cut where h reaches m + 1, after a / c of its
    # duration.  The output is a copy of b, its durations times c, edited
    # in place.
    num, den = top - h, pairs[b[j + 1]]
    g = gcd(num, den)
    a, c = num // g, den // g
    out = list(b)
    if c > 1:
        out[1::2] = [t * c for t in out[1::2]]
    # The steps from b[s] up to b[j], that last one cut to a, are reflected.
    refl = tab.refl[p]
    for q in range(s + 1, j + 2, 2):
        d = out[q]
        out[q] = r if (r := refl[d]) >= 0 else tab.reflect(p, d)
    # rest = 0 means a / c = T, an integer, so c = 1: only a cut that does
    # not rescale can end at a step end and merge with the next step.
    rest = out[j] - a
    out[j] = a
    merged = False
    if rest:
        out[j + 2:j + 2] = rest, b[j + 1]
    elif j + 2 < len(out) and out[j + 3] == out[j + 1]:
        out[j] += out[j + 2]
        del out[j + 2:j + 4]
        merged = True
    if s > 1 and out[s - 1] == out[s + 1]:
        out[s - 2] += out[s]
        del out[s:s + 2]
        merged = True
    # n and the input's durations share no prime, and without a merge no
    # prime divides the output's: a prime of c does not divide a, and any
    # other would divide n, every other duration and a + rest = c T.
    n *= c
    if merged and (g := gcd(n, *out[1::2])) > 1:
        n //= g
        out[1::2] = [t // g for t in out[1::2]]
    out[0] = n
    return tuple(out), last


def straight_path(ad: AffineDatum, lam: Weight) -> LSPath:
    """The straight path to a dominant weight; ``ValueError`` unless its
    values and grade are integers, one value per node of ``ad``."""
    h, d = ad.dominant(ad.weight(lam.h, lam.d))
    return LSPath(1, ((1, h + (d,)),))


def root_op_f(ad: AffineDatum, i: int, pi: LSPath) -> LSPath | None:
    """Lowering operator for node ``i``; None when undefined.

    ``ValueError`` unless ``n >= 1``, every duration is a positive integer,
    the durations sum to ``n``, and every direction is integral with one
    value per node of ``ad`` and one on the scaling element, and differs
    from its neighbours.
    """
    n = integral(pi.n, "path length")
    steps = tuple((integral(t, "path duration"),
                   tuple(integral(x, "path direction entry") for x in v))
                  for t, v in pi.steps)
    if n < 1 or any(t < 1 for t, _ in steps) or sum(t for t, _ in steps) != n:
        raise ValueError(f"path durations must be positive integers that "
                         f"sum to n >= 1, with n = {shown(n)}")
    width = ad.rank + 2
    if any(len(v) != width for _, v in steps):
        raise ValueError(f"path directions on {ad.label} must have "
                         f"{width} entries")
    if any(a[1] == b[1] for a, b in zip(steps, steps[1:])):
        raise ValueError("neighbouring path directions must differ")
    p = ad.pos(i)
    tab = _Table(ad)
    b, _ = _lower(tab, p, (n, *[x for t, v in steps
                                for x in (t, tab.intern(v))]))
    return None if b is None else tab.paths([b])[0]


def _sorted(tab: _Table, flats) -> list[Flat]:
    """Flat paths in the order of their segments: directions, then
    durations, which are compared at the lcm of every ``n``."""
    ln = lcm(*(b[0] for b in flats))
    dirs = tab.dirs
    return sorted(flats, key=lambda b: [
        (dirs[d], t * (ln // b[0])) for t, d in zip(b[1::2], b[2::2])])


class PathSet(Frozen):
    """Deduplicated, deterministically ordered, immutable set of generated
    paths.  Keeps the flat paths with their endpoint weights, the crystal
    table they were grown in, the grade its paths add to every direction
    of the table and the character; ``paths`` and the ``eps`` groups are
    cached properties, built on first use.  Neither is read under the
    table's lock: ``cached_property`` may hold a lock of its own while it
    computes."""

    def __init__(self, datum: AffineDatum, table: _Table, grade: int,
                 weights: dict[Flat, tuple[int, ...]]) -> None:
        # Endpoints are integral weights of the datum: no check is needed.
        vars(self).update(datum=datum, _table=table, _grade=grade,
                          _weights=weights, _character=Character._wrap(
                              datum, dict(Counter(weights.values()))))

    @cached_property
    def paths(self) -> tuple[LSPath, ...]:
        tab = self._table
        return tuple(tab.paths(_sorted(tab, self._weights), self._grade))

    @cached_property
    def _by_eps(self) -> dict[tuple[int, ...], list[Flat]]:
        """The flat paths grouped by ``-floor(min h_i / n)`` at each node,
        in node order."""
        groups: dict[tuple[int, ...], list[Flat]] = {}
        for b in self._weights:
            eps = []
            for pairs in self._table.pairs:
                h = m = 0
                for j in range(2, len(b), 2):
                    h += b[j - 1] * pairs[b[j]]
                    if h < m:
                        m = h
                eps.append(-(m // b[0]))
            groups.setdefault(tuple(eps), []).append(b)
        return groups

    def __len__(self) -> int:
        return len(self._weights)

    def __iter__(self):
        return iter(self.paths)


def generate_demazure_set(ad: AffineDatum, lam: Weight,
                          word: Sequence[int]) -> PathSet:
    """All ``f``-strings along the word, last letter first, from straight."""
    h, grade = ad.dominant(ad.weight(lam.h, lam.d))
    return _path_set(ad, h, grade, tuple(map(ad.pos, word)))


# One table per classical top, the datum and a dominant weight's values;
# every Demazure set of that crystal, at every grade, grows in it.  A table
# keeps every path its sets have visited, with the edges walked from it.
# The perfbench ``paths`` family has 119 requests over 26 classical tops (47
# with their grades), and 51% of the 21,964 lowering edges one pass walks
# were walked before by a set of the same top.
@lru_cache(maxsize=MEMO_SIZE)
def _crystal(ad: AffineDatum, h: tuple[int, ...]) -> _Table:
    """The table the path sets of the classical top ``h`` grow in."""
    return _Table(ad)


_UNSEEN = object()

# Edges kept per node of a table: the largest table of a perfbench ``paths``
# pass holds 798 in all, one length-12 word on A2~ fills a node with 38,880.
_DOWN_SIZE = 4096


def _edge(tab: _Table, p: int, b: Flat) -> Flat | None:
    """``f_i`` of ``b`` at position ``p``, an edge the caller did not find
    in the table: lowers it and adds it, and the undefined edge after it
    when ``phi_i(b) = 1``; the caller holds ``tab.lock``."""
    down = tab.down[p]
    # Up to two edges are added, so a node is cleared one short of full.
    if len(down) >= _DOWN_SIZE - 1:
        down.clear()
    c, last = _lower(tab, p, b)
    down[b] = c
    if last:
        down[c] = None
    return c


# The memo holds each set with every path in it, so its bound is the
# smallest of the module memos.  Peak memory of one in-process pass of the
# perfbench ``paths`` family, each request asked twice in a row, with the
# tables of up to 48 classical tops and the last 8 word ladders kept, is
# 20.2-20.3 MB with no set memo and 20.4, 20.4-20.5, 20.6-20.8 and
# 21.1-21.4 MB with 4, 8, 16 and 48 sets held (three runs each, Python
# 3.11.7, x86-64, modules loaded from bytecode).  Callers repeat a set at
# once (a repeated request, ``joseph_highest`` for several ``mu`` over one
# crystal), so eight serve them: no repeat of such a pass misses.
@lru_cache(maxsize=MEMO_SIZE // 6)
def _path_set(ad: AffineDatum, h: tuple[int, ...], grade: int,
              positions: tuple[int, ...]) -> PathSet:
    tab = _crystal(ad, h)
    with tab.lock:
        # Weights start at ``h`` with its grade; directions at grade 0.
        weights = {(1, 1, tab.intern((*h, 0))): (*h, grade)}
        for p in reversed(positions):
            alpha = ad.flat_roots[p]
            get = tab.down[p].get
            grown: dict[Flat, tuple[int, ...]] = {}
            for b, w in weights.items():
                # A string can stop at a member: grown is closed under f_i.
                while b not in grown:
                    grown[b] = w
                    if (c := get(b, _UNSEEN)) is _UNSEEN:
                        c = _edge(tab, p, b)
                    if c is None:
                        break
                    b = c
                    w = tuple([x - y for x, y in zip(w, alpha)])
            weights = grown
    return PathSet(ad, tab, grade, weights)


def crystal_character(ps: PathSet) -> Character:
    """Sum of exponentials of endpoint weights, taken when the set is
    built."""
    return ps._character


def joseph_highest(ad: AffineDatum, mu: Weight, lam: Weight,
                   word: Sequence[int]) -> list[tuple[LSPath, Weight]]:
    """Highest-weight terms of ``straight(mu)`` concatenated with a crystal.

    Generates the path crystal of ``(lam, word)`` and keeps the members
    ``b`` for which the straight path to ``mu`` followed by ``b`` pairs
    nonnegatively with every coroot, that is ``mu(h_i) + min h_i(b) >= 0``
    for every node.  Returns the surviving crystal members with the
    dominant weights ``mu + wt(b)``, in the path set's deterministic order,
    as a fresh list of the memoised terms.
    """
    mu = ad.dominant(ad.weight(mu.h, mu.d))
    h, grade = ad.dominant(ad.weight(lam.h, lam.d))
    return list(_joseph(ad, mu, h, grade, tuple(map(ad.pos, word))))


# Beside the path sets it is read from, so as small a bound as theirs.
@lru_cache(maxsize=MEMO_SIZE // 6)
def _joseph(ad: AffineDatum, mu: Weight, h: tuple[int, ...], grade: int,
            positions: tuple[int, ...]) -> tuple[tuple[LSPath, Weight], ...]:
    ps = _path_set(ad, h, grade, positions)
    tab, weights = ps._table, ps._weights
    # For an integer mu(h_i), mu(h_i) + min h_i(b) / n >= 0 is
    # mu(h_i) >= -floor(min h_i(b) / n).
    kept = _sorted(tab, [b for eps, group in ps._by_eps.items()
                         if all(map(le, eps, mu.h)) for b in group])
    nus: list[Weight] = []
    for b in kept:
        *h, d = weights[b]
        nu = mu + Weight(tuple(h), d)
        if not ad.is_dominant(nu):
            raise AssertionError("highest term must be dominant")
        nus.append(nu)
    return tuple(zip(tab.paths(kept, ps._grade), nus))


def f_edge_lines(ps: PathSet) -> str:
    """Lowering-edge list ``source node target``, one edge per line.

    Path ids are positions in the set's deterministic order; edges leaving
    the set are omitted.
    """
    tab = ps._table
    order = _sorted(tab, ps._weights)
    position = {b: k for k, b in enumerate(order)}
    lines = []
    with tab.lock:
        for k, b in enumerate(order):
            for p, i in enumerate(ps.datum.indices):
                if (c := tab.down[p].get(b, _UNSEEN)) is _UNSEEN:
                    c = _edge(tab, p, b)
                if (q := position.get(c)) is not None:
                    lines.append(f"{k} {i} {q}")
    return "\n".join(lines) + ("\n" if lines else "")
