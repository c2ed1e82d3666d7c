"""Piecewise-linear path model for highest-weight crystals.

A path is a finite sequence of segments, each a rational direction vector
together with a positive rational duration; durations sum to one.  The
direction vector lists the values on the coroots in node order followed by
the value on the scaling element.

Paths are stored over one common duration denominator ``n``: a segment of
duration ``t`` and direction ``v`` is the step ``(T, v)`` with ``T = n t``,
so the integers ``T`` sum to ``n``, and ``v`` is an integral tuple (every
generated direction is integral, see below).  The form is canonical: steps
with ``T = 0`` are dropped, neighbours with equal directions are merged by
adding durations, and ``n`` and every ``T`` are divided by their joint gcd,
so equality of paths means equality of traced polylines.  ``LSPath.make``
takes rational segments, merges neighbours whose directions are positively
proportional, and raises ``ValueError`` on a merged direction that is not
integral, which has no stored form; ``concat_paths`` goes through it.
``LSPath.segments`` gives the rational form back.  Only ``make`` and
``segments`` import ``fractions``; the operators stay in the integers.

Root operators follow the usual recipe.  For node ``i`` let ``h(t)`` be the
pairing of the running point with ``h_i``; it is piecewise linear, so its
minimum ``m`` over ``[0, 1]`` is attained at a segment endpoint and all
searches below happen at endpoints.  Values at endpoints are kept scaled
by ``n``.  On a step ``(T, v)`` the scaled pairing moves by ``v(h_i)`` per
unit of ``T``, so it reaches a scaled value ``c`` after ``c / v(h_i)``
units; a cut there multiplies ``n`` and every ``T`` by the denominator of
that quotient and leaves every direction as it is.

* ``f_i`` is defined iff ``h(1) - m >= 1``.  It reflects the stretch
  between the last time ``h = m`` and the first later time ``h = m + 1``
  and leaves the increments elsewhere unchanged; the endpoint drops by
  ``alpha_i``.
* ``e_i`` is defined iff ``m <= -1``.  It reflects the stretch between the
  last time ``h = m + 1`` before the first minimum and that first minimum;
  the endpoint rises by ``alpha_i``.

A reflected step is ``(T, v - v(h_i) alpha_i)``.  The input is canonical
and a reflection keeps distinct directions distinct, so only the junctions
at the ends of the reflected stretch can merge.  The string statistics are
``eps = -m`` and ``phi = h(1) - m``.

Generating all ``f``-strings along a reduced word, last letter first,
starting from the straight dominant path, yields the path realization of a
Demazure crystal; summing exponentials of endpoints gives its character.
This provides a check of the operator-ladder characters by a construction
that shares no code with them.

Every direction of a generated path lies in the Weyl orbit of ``lam``, so
it is an integral weight: the straight path's direction is ``lam``; a
reflected direction ``v`` becomes ``s_i v = v - v(h_i) alpha_i``; cutting
keeps directions; and merging joins only equal neighbours.  In one orbit
positively proportional means equal, because the level is Weyl-invariant
and positive (a dominant weight of level zero is a multiple of ``delta``,
and no operator is defined on its path), so ``make`` gives a generated
path the same form.  Sets are ordered on directions, then durations, which
is the order of the rational segments.

``generate_demazure_set`` checks its weight (integral, of the datum's rank,
dominant) and every letter on every call, so a bad input raises every time
and no error is kept.  It then looks the set up in a per-process memo of
the last ``MEMO_SIZE // 6`` sets, keyed by datum, straight path and
letter positions; a repeated request returns the same ``PathSet``.  A
``PathSet`` is immutable, and ``crystal_character`` sums its endpoint
weights once and keeps the character on the set.  A path carries no
datum, so ``root_op_f``, ``root_op_e`` and ``eps_phi`` raise ``ValueError``
for a path whose directions do not have ``rank + 2`` entries (the nodes
``0 .. rank`` and the scaling element); generation skips the check, as its
paths start from a weight of the datum.

Concatenation squeezes both factors to half duration at double speed,
first factor first, so endpoint weights add.  For a dominant ``mu`` and a
generated ``b``, the junction of ``straight(mu) * b`` merges only if ``b``
starts in a direction positively proportional to ``mu``, hence dominant,
hence ``lam``, which only the straight path does (an LS path's directions
fall in Bruhat order, ``lam`` least); so the merged direction ``mu + lam``
is integral.  The concatenations whose pairings with every coroot stay
nonnegative give the highest-weight terms of a tensor decomposition, at
the dominant weights ``mu + wt(b)``.  The pairing with ``h_i`` rises from
0 to ``mu(h_i)`` and then follows ``b`` shifted by ``mu(h_i)``, so it stays
nonnegative exactly when ``mu(h_i) + min h_i(b) >= 0``; the concatenation
itself is never built for the test.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm
from operator import add
from typing import NamedTuple, Optional, Sequence

from . import errors
from .characters import MEMO_SIZE, Character
from .root_data import AffineDatum, Weight

Step = tuple[int, tuple[int, ...]]            # (n t, v)
Segment = "tuple[tuple[Fraction, ...], Fraction]"     # (direction, duration)


def _positively_proportional(u: Sequence, v: Sequence) -> bool:
    """True iff ``v == c * u`` for some ``c > 0``; zero matches only zero."""
    for a, b in zip(u, v):
        if a:
            return a * b > 0 and all(x * b == y * a for x, y in zip(u, v))
        if b:
            return False
    return True


class LSPath(NamedTuple):
    """Canonical path: durations scaled by ``n``, integral directions."""

    n: int
    steps: tuple[Step, ...]

    @classmethod
    def make(cls, segments: Sequence[Segment]) -> "LSPath":
        """The path through rational ``(direction, duration)`` segments;
        ``ValueError`` on a negative duration or a non-integral direction."""
        from fractions import Fraction
        segs = [(tuple(Fraction(x) for x in v), Fraction(t))
                for v, t in segments]
        if any(t < 0 for _, t in segs):
            raise ValueError("durations must be nonnegative")
        if sum(t for _, t in segs) != 1:
            raise AssertionError("durations must sum to one")
        merged: list = []                     # [displacement, duration]
        for v, t in segs:
            e = [t * x for x in v]
            if merged and _positively_proportional(merged[-1][0], e):
                merged[-1] = [list(map(add, merged[-1][0], e)),
                              merged[-1][1] + t]
            elif t:
                merged.append([e, t])
        dirs = [[x / t for x in e] for e, t in merged]
        if any(x.denominator != 1 for v in dirs for x in v):
            raise ValueError("path direction is not integral")
        # At the lcm of the denominators the durations share no factor.
        n = lcm(*(t.denominator for _, t in merged))
        return cls(n, tuple((int(n * t), tuple(map(int, v)))
                            for (_, t), v in zip(merged, dirs)))

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The rational ``(direction, duration)`` segments, read-only."""
        from fractions import Fraction
        return tuple((tuple(map(Fraction, v)), Fraction(t, self.n))
                     for t, v in self.steps)

    def weight(self) -> Weight:
        """Integral endpoint of the path."""
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


def _heights(pi: LSPath, p: int) -> list[int]:
    """``n`` times the pairing at the step endpoints, start included."""
    return list(accumulate([t * v[p] for t, v in pi.steps], initial=0))


def _cut_reflect(ad: AffineDatum, p: int, pi: LSPath, k: int, num: int,
                 den: int, lo: int, hi: int) -> LSPath:
    """Cut step ``k`` after ``num / den`` of its scaled duration into two
    steps, reflect steps ``lo .. hi - 1`` of the result at the node in
    position ``p``, and put the result in canonical form."""
    g = gcd(num, den)
    a, c = num // g, den // g
    steps = list(pi.steps) if c == 1 else [(t * c, v) for t, v in pi.steps]
    t, v = steps[k]
    steps[k:k + 1] = [(a, v), (t - a, v)]
    alpha = ad.flat_roots[p]
    # Zero durations and equal neighbours can only sit one step around the
    # stretch, where the cut and the junctions are.
    j = max(lo - 1, 0)
    out = steps[:j]
    for q in range(j, min(hi + 2, len(steps))):
        t, v = steps[q]
        x = v[p]
        if lo <= q < hi and x:
            v = tuple([y - x * z for y, z in zip(v, alpha)])
        if out and out[-1][1] == v:
            out[-1] = (out[-1][0] + t, v)
        elif t:
            out.append((t, v))
    out += steps[hi + 2:]
    n = pi.n * c
    g = gcd(n, *[t for t, _ in out])
    if g > 1:
        n //= g
        out = [(t // g, v) for t, v in out]
    return LSPath(n, tuple(out))


def straight_path(ad: AffineDatum, lam: Weight) -> LSPath:
    """The straight path to a dominant weight."""
    if not ad.is_dominant(lam):
        raise errors.NotDominant(f"{lam.h} is not dominant for {ad.label}")
    return LSPath(1, ((1, lam.h + (lam.d,)),))


def _lower(ad: AffineDatum, p: int, pi: LSPath) -> Optional[LSPath]:
    """``f_i`` for the node in position ``p``."""
    n = pi.n
    hs = _heights(pi, p)
    m = min(hs)
    if hs[-1] - m < n:
        return None
    k0 = len(hs) - 1 - hs[::-1].index(m)
    k = k0
    while hs[k + 1] < m + n:
        k += 1
    # Step k is cut where h reaches m + 1; its first part is reflected.
    return _cut_reflect(ad, p, pi, k, m + n - hs[k], pi.steps[k][1][p],
                        k0, k + 1)


def _check_width(ad: AffineDatum, pi: LSPath) -> None:
    """``ValueError`` unless every direction has one value per node of
    ``ad`` and one on the scaling element."""
    width = ad.rank + 2
    if any(len(v) != width for _, v in pi.steps):
        raise ValueError(f"path directions on {ad.label} must have "
                         f"{width} entries")


def root_op_f(ad: AffineDatum, i: int, pi: LSPath) -> Optional[LSPath]:
    """Lowering operator for node ``i``; None when undefined."""
    _check_width(ad, pi)
    return _lower(ad, ad.pos(i), pi)


def root_op_e(ad: AffineDatum, i: int, pi: LSPath) -> Optional[LSPath]:
    """Raising operator for node ``i``; None when undefined."""
    _check_width(ad, pi)
    p = ad.pos(i)
    n = pi.n
    hs = _heights(pi, p)
    m = min(hs)
    if m > -n:
        return None
    k1 = hs.index(m)
    k = k1 - 1
    while hs[k] < m + n:
        k -= 1
    # Step k is cut where h falls to m + 1; its second part is reflected.
    return _cut_reflect(ad, p, pi, k, hs[k] - m - n, -pi.steps[k][1][p],
                        k + 1, k1 + 1)


def eps_phi(ad: AffineDatum, i: int, pi: LSPath) -> tuple[int, int]:
    """String statistics ``(eps, phi)``; both are nonnegative integers."""
    _check_width(ad, pi)
    hs = _heights(pi, ad.pos(i))
    m, n = min(hs), pi.n
    if m % n or hs[-1] % n:
        raise errors.NonIntegralMin(
            f"pairing with h_{i} attains non-integral extremum")
    return -m // n, (hs[-1] - m) // n


class PathSet:
    """Deduplicated, deterministically ordered, immutable set of generated
    paths; ``crystal_character`` keeps its result on the set."""

    __slots__ = ("datum", "paths", "_character")

    def __init__(self, datum: AffineDatum, paths: tuple[LSPath, ...]) -> None:
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "_character", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("PathSet is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("PathSet is immutable")

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


def _sorted(paths: set[LSPath]) -> tuple[LSPath, ...]:
    """Paths in the order of their segments: directions, then durations,
    which are compared at the lcm of every ``n``."""
    ln = lcm(*(pi.n for pi in paths))
    return tuple(sorted(paths, key=lambda pi: [
        (v, t * (ln // pi.n)) for t, v in pi.steps]))


def generate_demazure_set(ad: AffineDatum, lam: Weight,
                          word: Sequence[int]) -> PathSet:
    """All ``f``-strings along the word, last letter first, from straight."""
    top = straight_path(ad, ad.weight(lam.h, lam.d))
    return _path_set(ad, top, tuple(map(ad.pos, word)))


# The memo holds each set with every path in it, so its bound is the
# smallest of the module memos.  Peak memory of one in-process pass of the
# perfbench ``paths`` family, each re-issued request asked twice in a row,
# was 20.6 MB with no memo and 21.1, 21.5, 22.0 and 23.9 MB with 4, 8, 16
# and 48 sets held (Python 3.11.7, x86-64).  Callers repeat a set at once
# (a repeated request, ``joseph_highest`` for several ``mu`` over one
# crystal), so eight serve them.
@lru_cache(maxsize=MEMO_SIZE // 6, typed=True)
def _path_set(ad: AffineDatum, top: LSPath,
              positions: tuple[int, ...]) -> PathSet:
    paths = {top}
    for p in reversed(positions):
        grown: set[LSPath] = set()
        for pi in paths:
            # A string can stop at a member: grown is closed under f_i.
            cur: Optional[LSPath] = pi
            while cur is not None and cur not in grown:
                grown.add(cur)
                cur = _lower(ad, p, cur)
        paths = grown
    return PathSet(ad, _sorted(paths))


def crystal_character(ps: PathSet) -> Character:
    """Sum of exponentials of endpoint weights, computed once per set."""
    if ps._character is None:
        # Endpoints are integral weights of the datum: no check is needed.
        object.__setattr__(ps, "_character", Character._wrap(
            ps.datum, dict(Counter((*w.h, w.d) for w in map(
                LSPath.weight, ps.paths)))))
    return ps._character


def concat_paths(p1: LSPath, p2: LSPath) -> LSPath:
    """Concatenation, first factor first.

    Each factor is traversed at double speed over half the interval, so the
    traced polyline is the first path followed by the translated second one
    and endpoint weights add.  Like ``LSPath.make``, it raises
    ``ValueError`` on a non-integral junction direction.
    """
    return LSPath.make([(tuple(2 * x for x in v), t / 2)
                        for pi in (p1, p2) for v, t in pi.segments])


def tensor_highest_by_counts(ad: AffineDatum, mu: Weight, b: LSPath) -> bool:
    """String-count criterion: ``eps_i(b) <= mu(h_i)`` for every node."""
    return all(eps_phi(ad, i, b)[0] <= ad.value(mu, i) for i in ad.indices)


def joseph_highest(ad: AffineDatum, mu: Weight, lam: Weight,
                   word: Sequence[int]) -> list[tuple[LSPath, Weight]]:
    """Highest-weight terms of ``straight(mu)`` concatenated with a crystal.

    Generates the path crystal of ``(lam, word)`` and keeps the members
    ``b`` for which the straight path to ``mu`` followed by ``b`` pairs
    nonnegatively with every coroot, that is ``mu(h_i) + min h_i(b) >= 0``
    for every node.  Returns the surviving crystal members with the
    dominant weights ``mu + wt(b)``, in the path set's deterministic order.
    """
    mu = ad.weight(mu.h, mu.d)
    if not ad.is_dominant(mu):
        raise errors.NotDominant(f"{mu.h} is not dominant for {ad.label}")
    ps = generate_demazure_set(ad, lam, word)
    # Each node's position ``p`` with ``mu(h_i)``, which is ``mu.h[p]``.
    nodes = tuple(enumerate(mu.h))
    out: list[tuple[LSPath, Weight]] = []
    for b in ps.paths:
        if all(v * b.n + min(_heights(b, p)) >= 0 for p, v in nodes):
            nu = mu + b.weight()
            if not ad.is_dominant(nu):
                raise AssertionError("highest term must be dominant")
            out.append((b, nu))
    return out


def f_edge_lines(ps: PathSet) -> str:
    """Lowering-edge list ``source node target``, one edge per line.

    Path ids are positions in the set's deterministic order; edges leaving
    the set are omitted.
    """
    index = {p: k for k, p in enumerate(ps.paths)}
    lines = []
    for k, p in enumerate(ps.paths):
        for i in ps.datum.indices:
            q = root_op_f(ps.datum, i, p)
            if q is not None and q in index:
                lines.append(f"{k} {i} {index[q]}")
    return "\n".join(lines) + ("\n" if lines else "")
