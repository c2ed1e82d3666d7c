"""Piecewise-linear path model for highest-weight crystals.

A path is a finite sequence of segments, each a rational direction vector
together with a positive rational duration; durations sum to one.  The
direction vector lists the values on the coroots in node order followed by
the value on the scaling element.  Paths compare equal after canonical
form: zero-duration segments are dropped and consecutive segments with
positively proportional directions are merged, so equality means equality
of traced polylines.

Root operators follow the usual recipe.  For node ``i`` let ``h(t)`` be the
pairing of the running point with ``h_i``; it is piecewise linear, so its
minimum ``m`` over ``[0, 1]`` is attained at a segment endpoint and all
searches below happen at endpoints with exact rational splits.

* ``f_i`` is defined iff ``h(1) - m >= 1``.  It reflects the stretch
  between the last time ``h = m`` and the first later time ``h = m + 1``
  and leaves the increments elsewhere unchanged; the endpoint drops by
  ``alpha_i``.
* ``e_i`` is defined iff ``m <= -1``.  It reflects the stretch between the
  last time ``h = m + 1`` before the first minimum and that first minimum;
  the endpoint rises by ``alpha_i``.

The string statistics are ``eps = -m`` and ``phi = h(1) - m``.

Generating all ``f``-strings along a reduced word, last letter first,
starting from the straight dominant path, yields the path realization of a
Demazure crystal; summing exponentials of endpoints gives its character.
This provides a check of the operator-ladder characters by a construction
that shares no code with them.

Concatenation squeezes both factors to half duration at double speed,
first factor first, so endpoint weights add.  For a dominant weight ``mu``,
the concatenations ``straight(mu) * b`` whose pairings with every coroot
stay nonnegative single out the highest-weight terms of a tensor
decomposition; their endpoint weights are the dominant weights
``mu + wt(b)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import errors
from .characters import FormalCharacter
from .root_data import AffineDatum, Weight

Vec = tuple[Fraction, ...]
Segment = tuple[Vec, Fraction]


def _pos_ratio(u: Vec, v: Vec) -> Optional[Fraction]:
    """Return c > 0 with ``v == c * u``, or None."""
    base = next((k for k, x in enumerate(u) if x != 0), None)
    if base is None:
        return Fraction(1) if all(x == 0 for x in v) else None
    c = Fraction(v[base]) / u[base]
    if c <= 0:
        return None
    if all(x * c == y for x, y in zip(u, v)):
        return c
    return None


@dataclass(frozen=True)
class LSPath:
    """Canonical-form rational path on ``[0, 1]``."""

    segments: tuple[Segment, ...]

    @classmethod
    def make(cls, segments: Sequence[Segment]) -> "LSPath":
        merged: list[Segment] = []
        for v, t in segments:
            if t == 0:
                continue
            if merged and _pos_ratio(merged[-1][0], v) is not None:
                u, s = merged[-1]
                total = s + t
                disp = tuple(s * a + t * b for a, b in zip(u, v))
                merged[-1] = (tuple(x / total for x in disp), total)
            else:
                merged.append((tuple(Fraction(x) for x in v), Fraction(t)))
        if sum((t for _, t in merged), Fraction(0)) != 1:
            raise AssertionError("durations must sum to one")
        return cls(tuple(merged))

    def weight(self) -> Weight:
        """Integral endpoint of the path."""
        n = len(self.segments[0][0])
        acc = [Fraction(0)] * n
        for v, t in self.segments:
            acc = [a + t * x for a, x in zip(acc, v)]
        if any(x.denominator != 1 for x in acc):
            raise ValueError("path endpoint is not an integral weight")
        ints = [int(x) for x in acc]
        return Weight(tuple(ints[:-1]), ints[-1])

    def sort_key(self) -> tuple:
        return self.segments


def _weight_vec(mu: Weight) -> Vec:
    return tuple(Fraction(x) for x in mu.h) + (Fraction(mu.d),)


def _alpha_vec(ad: AffineDatum, i: int) -> Vec:
    return _weight_vec(ad.simple_root(i))


def _reflect_vec(ad: AffineDatum, i: int, v: Vec) -> Vec:
    value = v[ad.pos(i)]
    if value == 0:
        return v
    alpha = _alpha_vec(ad, i)
    return tuple(x - value * a for x, a in zip(v, alpha))


def _vertex_values(ad: AffineDatum, pi: LSPath, i: int) -> list[Fraction]:
    """Pairing with ``h_i`` at the segment endpoints, start included."""
    p = ad.pos(i)
    vals = [Fraction(0)]
    acc = Fraction(0)
    for v, t in pi.segments:
        acc += t * v[p]
        vals.append(acc)
    return vals


def straight_path(ad: AffineDatum, lam: Weight) -> LSPath:
    """The straight path to a dominant weight."""
    if not ad.is_dominant(lam):
        raise errors.NotDominant(f"{lam.h} is not dominant for {ad.label}")
    return LSPath.make([(_weight_vec(lam), Fraction(1))])


def root_op_f(ad: AffineDatum, i: int, pi: LSPath) -> Optional[LSPath]:
    """Lowering operator for node ``i``; None when undefined."""
    segs = pi.segments
    hs = _vertex_values(ad, pi, i)
    m = min(hs)
    if hs[-1] - m < 1:
        return None
    k0 = max(k for k, v in enumerate(hs) if v == m)
    k = k0
    while hs[k + 1] < m + 1:
        k += 1
    dir_k, dur_k = segs[k]
    x = (m + 1 - hs[k]) / (hs[k + 1] - hs[k])
    head = list(segs[:k0])
    middle = [(_reflect_vec(ad, i, v), t) for v, t in segs[k0:k]]
    middle.append((_reflect_vec(ad, i, dir_k), x * dur_k))
    tail: list[Segment] = []
    if x != 1:
        tail.append((dir_k, (1 - x) * dur_k))
    tail.extend(segs[k + 1:])
    return LSPath.make(head + middle + tail)


def root_op_e(ad: AffineDatum, i: int, pi: LSPath) -> Optional[LSPath]:
    """Raising operator for node ``i``; None when undefined."""
    segs = pi.segments
    hs = _vertex_values(ad, pi, i)
    m = min(hs)
    if m > -1:
        return None
    k1 = min(k for k, v in enumerate(hs) if v == m)
    k = k1 - 1
    while hs[k] < m + 1:
        k -= 1
    dir_k, dur_k = segs[k]
    x = (hs[k] - (m + 1)) / (hs[k] - hs[k + 1])
    head = list(segs[:k])
    if x != 0:
        head.append((dir_k, x * dur_k))
    middle = [(_reflect_vec(ad, i, dir_k), (1 - x) * dur_k)]
    middle.extend((_reflect_vec(ad, i, v), t) for v, t in segs[k + 1:k1])
    tail = list(segs[k1:])
    return LSPath.make(head + middle + tail)


def eps_phi(ad: AffineDatum, i: int, pi: LSPath) -> tuple[int, int]:
    """String statistics ``(eps, phi)``; both are nonnegative integers."""
    hs = _vertex_values(ad, pi, i)
    m = min(hs)
    if m.denominator != 1 or hs[-1].denominator != 1:
        raise errors.NonIntegralMin(
            f"pairing with h_{i} attains non-integral extremum")
    return -int(m), int(hs[-1] - m)


@dataclass(frozen=True)
class PathSet:
    """Deduplicated, deterministically ordered set of generated paths."""

    datum: AffineDatum
    highest: Weight
    word: tuple[int, ...]
    paths: tuple[LSPath, ...]

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def __contains__(self, pi: LSPath) -> bool:
        return pi in set(self.paths)


def generate_demazure_set(ad: AffineDatum, lam: Weight,
                          word: Sequence[int]) -> PathSet:
    """All ``f``-strings along the word, last letter first, from straight."""
    paths = {straight_path(ad, lam)}
    for i in reversed(tuple(word)):
        grown: set[LSPath] = set()
        for p in paths:
            cur: Optional[LSPath] = p
            while cur is not None:
                grown.add(cur)
                cur = root_op_f(ad, i, cur)
        paths = grown
    ordered = tuple(sorted(paths, key=LSPath.sort_key))
    return PathSet(ad, lam, tuple(word), ordered)


def crystal_character(ps: PathSet) -> FormalCharacter:
    """Sum of exponentials of endpoint weights."""
    out: dict[Weight, int] = {}
    for p in ps.paths:
        w = p.weight()
        out[w] = out.get(w, 0) + 1
    return FormalCharacter(ps.datum, out)


def concat_paths(p1: LSPath, p2: LSPath) -> LSPath:
    """Concatenation, first factor first.

    Each factor is traversed at double speed over half the interval, so the
    traced polyline is the first path followed by the translated second one
    and endpoint weights add.
    """
    half = Fraction(1, 2)
    segs = [(tuple(2 * x for x in v), t * half) for v, t in p1.segments]
    segs += [(tuple(2 * x for x in v), t * half) for v, t in p2.segments]
    return LSPath.make(segs)


def tensor_highest_by_counts(ad: AffineDatum, mu: Weight, b: LSPath) -> bool:
    """String-count criterion: ``eps_i(b) <= mu(h_i)`` for every node."""
    return all(eps_phi(ad, i, b)[0] <= ad.value(mu, i) for i in ad.indices)


def joseph_highest(ad: AffineDatum, mu: Weight, lam: Weight,
                   word: Sequence[int]) -> list[tuple[LSPath, Weight]]:
    """Highest-weight terms of ``straight(mu)`` concatenated with a crystal.

    Generates the path crystal of ``(lam, word)``, prepends the straight
    path to ``mu`` to every member, and keeps those concatenations whose
    pairing with every coroot never goes negative.  Returns the surviving
    crystal members with the dominant weights ``mu + wt(b)``, in the path
    set's deterministic order.
    """
    if not ad.is_dominant(mu):
        raise errors.NotDominant(f"{mu.h} is not dominant for {ad.label}")
    ps = generate_demazure_set(ad, lam, word)
    mu_path = straight_path(ad, mu)
    out: list[tuple[LSPath, Weight]] = []
    for b in ps.paths:
        pi = concat_paths(mu_path, b)
        if all(min(_vertex_values(ad, pi, i)) == 0 for i in ad.indices):
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
