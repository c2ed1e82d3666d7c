"""Path crystals: root operators, Demazure sets, concatenation, highest terms.

The package generates path sets on interned integer directions.  The
oracles below work on ``LSPath(n, steps)`` with tuple directions and share
no helper with the package: the canonical path through rational segments
(``make``), the generator the package used before, the raising operator,
the string statistics and concatenation.
"""

import itertools
import os
import random
import sys
import tempfile
import threading
import time
from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd, lcm

# Hypothesis caches the constants it reads from local source files in its
# storage directory, by default ``.hypothesis/`` in the working directory.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY",
    os.path.join(tempfile.gettempdir(), "demflag-hypothesis"))

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demflag import (
    Character,
    LSPath,
    Weight,
    affinize,
    crystal_character,
    datum_from_label,
    demazure_word_char,
    errors,
    f_edge_lines,
    generate_demazure_set,
    joseph_highest,
    lspath,
    reflect_weight,
    root_op_f,
    straight_path,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import workloads  # noqa: E402

A1_AFF = affinize(datum_from_label("A1"))
A2_AFF = affinize(datum_from_label("A2"))
C2_AFF = affinize(datum_from_label("C2"))
G2_AFF = affinize(datum_from_label("G2"))


def is_reduced(ad, word):
    """Reduced iff each letter hits a strictly positive value on a regular
    dominant weight, applied last letter first."""
    cur = ad.weight([1] * (ad.rank + 1), 0)
    for i in reversed(word):
        if ad.value(cur, i) <= 0:
            return False
        cur = reflect_weight(ad, i, cur)
    return True


def reduced_words(ad, max_len):
    for k in range(max_len + 1):
        for word in itertools.product(ad.indices, repeat=k):
            if is_reduced(ad, word):
                yield word


# ---- oracles on tuple directions ----


def _positively_proportional(u, v):
    """True iff ``v == c * u`` for some ``c > 0``; zero matches only zero."""
    for a, b in zip(u, v):
        if a:
            return a * b > 0 and all(x * b == y * a for x, y in zip(u, v))
        if b:
            return False
    return True


def make(segments):
    """The canonical ``LSPath`` through rational ``(direction, duration)``
    segments: neighbours whose directions are positively proportional
    merge, zero durations drop, and durations go over their least common
    denominator.  ``ValueError`` on a negative duration or a merged
    direction that is not integral, which has no stored form."""
    segs = [(tuple(Fraction(x) for x in v), Fraction(t))
            for v, t in segments]
    if any(t < 0 for _, t in segs):
        raise ValueError("durations must be nonnegative")
    if sum(t for _, t in segs) != 1:
        raise AssertionError("durations must sum to one")
    merged = []                               # [displacement, duration]
    for v, t in segs:
        e = [t * x for x in v]
        if merged and _positively_proportional(merged[-1][0], e):
            merged[-1] = [[a + b for a, b in zip(merged[-1][0], e)],
                          merged[-1][1] + t]
        elif t:
            merged.append([e, t])
    dirs = [[x / t for x in e] for e, t in merged]
    if any(x.denominator != 1 for v in dirs for x in v):
        raise ValueError("path direction is not integral")
    # At the lcm of the denominators the durations share no factor.
    n = lcm(*(t.denominator for _, t in merged))
    return LSPath(n, tuple((int(n * t), tuple(map(int, v)))
                           for (_, t), v in zip(merged, dirs)))


def _heights(pi, p):
    """``n`` times the pairing at the step endpoints, start included."""
    return list(itertools.accumulate([t * v[p] for t, v in pi.steps],
                                     initial=0))


def _cut_reflect(ad, p, pi, k, num, den, lo, hi):
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


def _lower(ad, p, pi):
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


def _check_width(ad, pi):
    width = ad.rank + 2
    if any(len(v) != width for _, v in pi.steps):
        raise ValueError(f"path directions on {ad.label} must have "
                         f"{width} entries")


def root_op_e(ad, i, pi):
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


def eps_phi(ad, i, pi):
    """String statistics ``(eps, phi)``; both are nonnegative integers."""
    _check_width(ad, pi)
    hs = _heights(pi, ad.pos(i))
    m, n = min(hs), pi.n
    if m % n or hs[-1] % n:
        raise ValueError(f"pairing with h_{i} attains non-integral extremum")
    return -m // n, (hs[-1] - m) // n


def concat_paths(p1, p2):
    """Both factors at double speed over half the interval, first factor
    first; ``ValueError`` on a non-integral junction direction."""
    return make([(tuple(2 * x for x in v), t / 2)
                 for pi in (p1, p2) for v, t in pi.segments])


def tensor_highest_by_counts(ad, mu, b):
    """String-count criterion: ``eps_i(b) <= mu(h_i)`` for every node."""
    return all(eps_phi(ad, i, b)[0] <= ad.value(mu, i) for i in ad.indices)


def oracle_set(ad, lam, word):
    """All ``f``-strings along the word, last letter first, from the
    straight path to ``lam``, in the order of their segments."""
    paths = {LSPath(1, ((1, lam.h + (lam.d,)),))}
    for p in reversed([ad.pos(i) for i in word]):
        grown = set()
        for pi in paths:
            cur = pi
            while cur is not None and cur not in grown:
                grown.add(cur)
                cur = _lower(ad, p, cur)
        paths = grown
    ln = lcm(*(pi.n for pi in paths))
    return sorted(paths, key=lambda pi: [
        (v, t * (ln // pi.n)) for t, v in pi.steps])


def oracle_weight(pi):
    """Endpoint of a path with an integral endpoint."""
    total = [sum(t * v[j] for t, v in pi.steps)
             for j in range(len(pi.steps[0][1]))]
    assert all(x % pi.n == 0 for x in total)
    *h, d = (x // pi.n for x in total)
    return Weight(tuple(h), d)


def oracle_joseph(mu, paths):
    """The members ``b`` with ``mu(h_i) + min h_i(b) >= 0`` at every node,
    each with ``mu + wt(b)``."""
    return [(b, mu + oracle_weight(b)) for b in paths
            if all(v * b.n + min(_heights(b, p)) >= 0
                   for p, v in enumerate(mu.h))]


def test_sets_match_the_tuple_direction_oracle(cold_memos):
    """Every request of the benchmark's ``paths`` family: size, members
    and order, character and highest terms."""
    for req in workloads.family("paths"):
        ad = affinize(datum_from_label(req[1]))
        lam = ad.weight(*req[-3:-1])
        word = req[-1]
        ps = generate_demazure_set(ad, lam, word)
        expected = oracle_set(ad, lam, word)
        assert len(ps) == len(expected), req
        assert dict(crystal_character(ps).terms()) == dict(Counter(
            (w.h, w.d) for w in map(oracle_weight, expected))), req
        assert list(ps.paths) == expected, req
        if req[0] == "joseph_highest":
            mu = ad.weight(req[2])
            assert joseph_highest(ad, mu, lam, word) \
                == oracle_joseph(mu, ps.paths), req


def test_eps_groups_partition_each_set_by_its_string_lengths(cold_memos):
    """Every set the benchmark's ``paths`` family builds: its ``eps``
    groups hold each member once, under the vector of its ``eps_i``, one
    entry per node, from the oracle on the set's paths."""
    for req in workloads.family("paths"):
        ad = affinize(datum_from_label(req[1]))
        ps = generate_demazure_set(ad, ad.weight(*req[-3:-1]), req[-1])
        grouped = []
        for eps, group in ps._by_eps.items():
            for pi in ps._table.paths(group, ps._grade):
                assert eps == tuple(eps_phi(ad, i, pi)[0]
                                    for i in ad.indices), req
                grouped.append(pi)
        assert len(grouped) == len(ps)
        assert set(grouped) == set(ps.paths), req


# ---- paths and operators ----


def test_straight_path():
    lam1 = A1_AFF.fundamental_weight(1)
    pi = straight_path(A1_AFF, lam1)
    assert len(pi.segments) == 1
    assert pi.weight() == lam1
    with pytest.raises(errors.NotDominant):
        straight_path(A1_AFF, A1_AFF.weight([2, -1]))


def test_lowering_examples():
    lam1 = A1_AFF.fundamental_weight(1)
    down = root_op_f(A1_AFF, 1, straight_path(A1_AFF, lam1))
    assert down is not None
    assert down.weight() == A1_AFF.weight([2, -1], 0)
    assert root_op_f(A1_AFF, 1, down) is None

    lam0 = A1_AFF.fundamental_weight(0)
    down0 = root_op_f(A1_AFF, 0, straight_path(A1_AFF, lam0))
    assert down0 is not None
    assert down0.weight() == lam0 - A1_AFF.simple_root(0)
    assert down0.weight() == A1_AFF.weight([-1, 2], -1)


STEP_END_MERGE = LSPath(8, ((2, (1, -1, 0)), (4, (0, 2, 0)), (1, (4, -2, 0)),
                            (1, (0, 2, 0))))


def test_lowering_merges_a_cut_at_a_step_end_with_the_next_step():
    """The reflected stretch ends exactly where a step ends, and the
    reflected direction equals the next one, so the two merge."""
    want = LSPath(8, ((2, (1, -1, 0)), (5, (4, -2, 0)), (1, (0, 2, 0))))
    assert root_op_f(A1_AFF, 1, STEP_END_MERGE) \
        == _lower(A1_AFF, 1, STEP_END_MERGE) == want


@cache
def _orbit(ad, h):
    """The Weyl orbit of the dominant ``h`` at grade 0 as flat directions,
    breadth first, cut at 6."""
    seen = [ad.weight(h)]
    for w in seen:
        for i in ad.indices:
            u = reflect_weight(ad, i, w)
            if u not in seen and len(seen) < 6:
                seen.append(u)
    return [w.h + (w.d,) for w in seen]


@st.composite
def hand_paths(draw):
    """A datum, a node and a canonical path of up to six steps.  Each
    direction is drawn from one Weyl orbit of a dominant weight of level
    at most two, or is the reflection at the node of the one before, so
    that reflected stretches often meet an equal neighbour.  Equal
    neighbours are merged and durations put over their least
    denominator."""
    ad = draw(st.sampled_from((A1_AFF, A2_AFF, C2_AFF, G2_AFF)))
    h = draw(st.tuples(*[st.integers(0, 2)] * len(ad.indices))
             .filter(lambda h: 0 < ad.level(Weight(h)) <= 2))
    i = draw(st.sampled_from(ad.indices))
    drawn = draw(st.lists(st.tuples(st.integers(1, 2),
                                    st.sampled_from(_orbit(ad, h)),
                                    st.booleans()),
                          min_size=1, max_size=6))
    steps = []
    for t, v, reflected in drawn:
        if reflected and steps:
            *u, d = steps[-1][1]
            w = reflect_weight(ad, i, Weight(tuple(u), d))
            v = w.h + (w.d,)
        if steps and steps[-1][1] == v:
            t += steps.pop()[0]
        steps.append((t, v))
    n = sum(t for t, _ in steps)
    g = gcd(n, *[t for t, _ in steps])
    return ad, i, LSPath(n // g, tuple((t // g, v) for t, v in steps))


# One path for each branch of lowering, with its image, both at node 1 of
# A1~, where the pairing with h_1 is the middle entry.
LOWERING_CASES = {
    # n h_1 at the step ends is 0, -2, 0, -2, 2: the minimum comes twice,
    # and only the step after the later one is reflected.
    "tie": (LSPath(4, ((1, (3, -2, -1)), (1, (-1, 2, -1)), (1, (3, -2, -1)),
                       (1, (-3, 4, -4)))),
            LSPath(4, ((1, (3, -2, -1)), (1, (-1, 2, -1)), (1, (3, -2, -1)),
                       (1, (5, -4, -4))))),
    # 0, -2, 2 over n = 2: h_1 reaches m + 1 halfway through the last
    # step, which is cut in two, so every duration doubles.
    "cut-denominator": (
        LSPath(2, ((1, (3, -2, -1)), (1, (-3, 4, -4)))),
        LSPath(4, ((2, (3, -2, -1)), (1, (5, -4, -4)), (1, (-3, 4, -4))))),
    # The reflected stretch equals the step before it.  A merge with the
    # step after it is ``STEP_END_MERGE``, above.
    "merge-start": (LSPath(2, ((1, (3, -2, -1)), (1, (-1, 2, -1)))),
                    LSPath(1, ((1, (3, -2, -1)),))),
    # 0, -2, 0 over n = 3: h_1 ends less than 1 above its minimum.
    "undefined": (LSPath(3, ((1, (3, -2, -1)), (2, (0, 1, 0)))), None),
    # 0, -6, -3, 12 over n = 6: h_1 reaches m + 1 a fifth of the way into
    # the last step, so every duration is multiplied by 5.  The reflected
    # middle step equals the first, they merge, and the durations 15, 3, 12
    # over 30 shrink by 3.  A rescaled cut never ends at a step end, so it
    # cannot also merge with the step after it.
    "rescale-merge": (
        LSPath(6, ((2, (5, -3, -1)), (1, (-1, 3, -1)), (3, (-3, 5, -3)))),
        LSPath(10, ((5, (5, -3, -1)), (1, (7, -5, -3)), (4, (-3, 5, -3))))),
    # 0, 6, 4, 8 over n = 6: the first step is reflected whole and merges
    # with the next one, and the durations 4, 2 over 6 shrink by 2.
    "merge-end": (
        LSPath(6, ((3, (-1, 2, -1)), (1, (3, -2, -1)), (2, (-1, 2, -1)))),
        LSPath(3, ((2, (3, -2, -1)), (1, (-1, 2, -1))))),
    # 0, -12, -4, -8, -4 over n = 8: the one reflected step ends at m + 1,
    # its image equals both neighbours, the three merge, and the durations
    # 6, 2 over 8 shrink by 2.
    "merge-both-ends": (
        LSPath(8, ((3, (5, -4, -4)), (2, (-3, 4, -4)), (1, (5, -4, -4)),
                   (2, (-1, 2, -1)))),
        LSPath(4, ((3, (5, -4, -4)), (1, (-1, 2, -1))))),
    # 0, 2, 2, 4 over n = 4: the minimum is only at the start, and h_1
    # reaches m + 1 at the end, so every step is reflected, the last one
    # whole, and no step follows the stretch.
    "reflect-all": (
        LSPath(4, ((1, (-1, 2, -1)), (2, (1, 0, 0)), (1, (-1, 2, -1)))),
        LSPath(4, ((1, (3, -2, -1)), (2, (1, 0, 0)), (1, (3, -2, -1))))),
}


@pytest.mark.parametrize("pi, want", LOWERING_CASES.values(),
                         ids=LOWERING_CASES.keys())
def test_lowering_cases(pi, want):
    assert root_op_f(A1_AFF, 1, pi) == _lower(A1_AFF, 1, pi) == want


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(hand_paths())
@example((A1_AFF, 1, LOWERING_CASES["tie"][0]))
@example((A1_AFF, 1, LOWERING_CASES["cut-denominator"][0]))
@example((A1_AFF, 1, LOWERING_CASES["merge-start"][0]))
@example((A1_AFF, 1, STEP_END_MERGE))
@example((A1_AFF, 1, LOWERING_CASES["undefined"][0]))
@example((A1_AFF, 1, LOWERING_CASES["rescale-merge"][0]))
@example((A1_AFF, 1, LOWERING_CASES["merge-end"][0]))
@example((A1_AFF, 1, LOWERING_CASES["merge-both-ends"][0]))
@example((A1_AFF, 1, LOWERING_CASES["reflect-all"][0]))
def test_lowering_a_drawn_path_matches_the_oracle(case):
    """``root_op_f`` on a path given by hand is the oracle's ``f_i``,
    defined or not, where the minimum comes more than once, where the cut
    rescales the durations, where the reflected stretch merges with a
    neighbour at either end or both, and where it is the whole path.  A
    defined image is canonical on its own terms too: its durations are
    positive, share no factor with ``n`` and join no equal neighbours."""
    ad, i, pi = case
    down = root_op_f(ad, i, pi)
    assert down == _lower(ad, ad.pos(i), pi)
    if down is not None:
        ts = [t for t, _ in down.steps]
        assert gcd(down.n, *ts) == 1 and min(ts) > 0
        assert all(u != v for (_, u), (_, v) in zip(down.steps,
                                                    down.steps[1:]))


def test_raising_is_inverse_of_lowering():
    lam1 = A1_AFF.fundamental_weight(1)
    pi = straight_path(A1_AFF, lam1)
    down = root_op_f(A1_AFF, 1, pi)
    assert root_op_e(A1_AFF, 1, down) == pi
    for i in A1_AFF.indices:
        assert root_op_e(A1_AFF, i, pi) is None


def test_operator_roundtrip_on_generated_sets():
    for ad, lam_h, grade, word in (
            (A1_AFF, (1, 0), 1, (1, 0)),
            (A2_AFF, (1, 0, 0), 0, (2, 1, 0)),
            (A1_AFF, (1, 1), 0, (0, 1, 0, 1))):
        lam = ad.weight(lam_h, grade)
        ps = generate_demazure_set(ad, lam, word)
        for pi in ps:
            for i in ad.indices:
                down = root_op_f(ad, i, pi)
                if down is not None:
                    assert root_op_e(ad, i, down) == pi
                    assert down.weight() == pi.weight() - ad.simple_root(i)
                up = root_op_e(ad, i, pi)
                if up is not None:
                    assert root_op_f(ad, i, up) == pi
                    assert up.weight() == pi.weight() + ad.simple_root(i)


def test_string_statistics():
    lam1 = A1_AFF.fundamental_weight(1)
    pi = straight_path(A1_AFF, lam1)
    assert eps_phi(A1_AFF, 1, pi) == (0, 1)
    assert eps_phi(A1_AFF, 0, pi) == (0, 0)
    down = root_op_f(A1_AFF, 1, pi)
    assert eps_phi(A1_AFF, 1, down) == (1, 0)


def test_string_statistics_axiom():
    lam = A1_AFF.weight([1, 0], 1)
    ps = generate_demazure_set(A1_AFF, lam, (1, 0))
    for pi in ps:
        for i in A1_AFF.indices:
            eps, phi = eps_phi(A1_AFF, i, pi)
            assert phi - eps == A1_AFF.value(pi.weight(), i)
            assert eps >= 0 and phi >= 0


def test_non_integral_minimum_rejected():
    up = tuple(Fraction(x) for x in (-2, 2, 0))
    down = tuple(Fraction(x) for x in (2, -2, 0))
    pi = make([(down, Fraction(1, 4)), (up, Fraction(3, 4))])
    with pytest.raises(ValueError, match="non-integral extremum"):
        eps_phi(A1_AFF, 1, pi)


def test_non_integral_endpoint_rejected():
    pi = make([((1, 1, 0), Fraction(1, 2)), ((0, 0, 0), Fraction(1, 2))])
    with pytest.raises(ValueError):
        pi.weight()


# ---- canonical form ----


def test_canonical_form_merges_and_drops():
    v = tuple(Fraction(x) for x in (0, 1, 0))
    whole = make([(v, Fraction(1))])
    split = make([(v, Fraction(1, 2)), (v, Fraction(1, 2))])
    assert split == whole and len(split.segments) == 1

    # Positively proportional neighbours merge into their mean direction.
    scaled = make([(v, Fraction(1, 2)),
                   (tuple(3 * x for x in v), Fraction(1, 2))])
    assert len(scaled.segments) == 1
    assert scaled.segments[0] == ((Fraction(0), Fraction(2), Fraction(0)),
                                  Fraction(1))
    assert (scaled.n, scaled.steps) == (1, ((1, (0, 2, 0)),))
    # A mean direction of 5/3 has no integral form.
    with pytest.raises(ValueError):
        make([(v, Fraction(1, 3)),
              (tuple(2 * x for x in v), Fraction(2, 3))])

    # Merging 1/3 and 2/3 of one direction leaves a common factor 3.
    thirds = make([(v, Fraction(1, 3)), (v, Fraction(2, 3))])
    assert (thirds.n, thirds.steps) == (1, ((1, (0, 1, 0)),))
    assert thirds == whole

    still = tuple(Fraction(0) for _ in v)
    paused = make([(v, Fraction(1, 2)), (still, Fraction(1, 2))])
    assert len(paused.segments) == 2

    dropped = make([(v, Fraction(0)), (v, Fraction(1))])
    assert dropped == whole

    with pytest.raises(AssertionError):
        make([(v, Fraction(1, 2))])
    # Durations 3/2 and -1/2 sum to one but trace no path.
    with pytest.raises(ValueError):
        make([((0, 2, 0), Fraction(3, 2)),
              ((0, -2, 0), Fraction(-1, 2))])


def test_split_segments_rebuild_the_same_path():
    lam = G2_AFF.fundamental_weight(2)
    ps = generate_demazure_set(G2_AFF, lam, (0, 2, 1, 2))
    assert any(pi.n > 1 for pi in ps)
    for pi in ps:
        assert make(pi.segments) == pi
        pieces = [(v, t * part) for v, t in pi.segments
                  for part in (Fraction(1, 3), Fraction(0), Fraction(2, 3))]
        rebuilt = make(pieces)
        assert rebuilt == pi and hash(rebuilt) == hash(pi)
        assert rebuilt.segments == pi.segments


# ---- Demazure sets and characters ----


def test_generated_set_sizes():
    lam1 = A1_AFF.fundamental_weight(1)
    assert len(generate_demazure_set(A1_AFF, lam1, ())) == 1
    assert len(generate_demazure_set(A1_AFF, lam1, (1,))) == 2
    lam = A1_AFF.weight([1, 0], 1)
    assert len(generate_demazure_set(A1_AFF, lam, (1, 0))) == 4


def test_raising_stability():
    """Raising never leaves a generated set."""
    lam = A1_AFF.weight([1, 1], 0)
    ps = generate_demazure_set(A1_AFF, lam, (0, 1, 0))
    members = set(ps.paths)
    for pi in ps:
        for i in A1_AFF.indices:
            up = root_op_e(A1_AFF, i, pi)
            assert up is None or up in members


def test_crystal_character_equals_operator_ladders_rank1():
    dominants = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    words = list(reduced_words(A1_AFF, 4))
    for h in dominants:
        lam = A1_AFF.weight(h, 0)
        for word in words:
            ps = generate_demazure_set(A1_AFF, lam, word)
            assert crystal_character(ps) == demazure_word_char(A1_AFF, word, lam)
            assert len(ps) == demazure_word_char(A1_AFF, word, lam).mass()


def test_crystal_character_equals_operator_ladders_rank2():
    """Every fundamental weight and reduced word up to length 4 on affine
    A2, C2 and G2; lowering then raising returns every member."""
    for ad in (A2_AFF, C2_AFF, G2_AFF):
        words = list(reduced_words(ad, 4))
        for i in ad.indices:
            lam = ad.fundamental_weight(i)
            for word in words:
                ps = generate_demazure_set(ad, lam, word)
                assert crystal_character(ps) == demazure_word_char(ad, word,
                                                                   lam)
                for pi in ps:
                    for j in ad.indices:
                        down = root_op_f(ad, j, pi)
                        assert down is None or root_op_e(ad, j, down) == pi


# ---- concatenation and highest terms ----


def test_concatenation_adds_weights():
    lam0 = A1_AFF.fundamental_weight(0)
    lam1 = A1_AFF.fundamental_weight(1)
    both = concat_paths(straight_path(A1_AFF, lam0), straight_path(A1_AFF, lam1))
    assert both.weight() == lam0 + lam1

    down = root_op_f(A1_AFF, 1, straight_path(A1_AFF, lam1))
    mixed = concat_paths(straight_path(A1_AFF, lam0), down)
    assert mixed.weight() == lam0 + down.weight()


def test_joseph_highest_examples():
    lam0 = A1_AFF.fundamental_weight(0)
    lam1 = A1_AFF.fundamental_weight(1)

    pairs = joseph_highest(A1_AFF, lam0, lam1, (1,))
    assert pairs == [(straight_path(A1_AFF, lam1), lam0 + lam1)]

    pairs = joseph_highest(A1_AFF, lam0, lam1, ())
    assert pairs == [(straight_path(A1_AFF, lam1), lam0 + lam1)]

    lam = A1_AFF.weight([1, 0], 1)
    pairs = joseph_highest(A1_AFF, lam0, lam, (1, 0))
    assert len(pairs) == 2
    nus = sorted((nu.h, nu.d) for _, nu in pairs)
    assert nus == [((0, 2), 0), ((2, 0), 1)]

    with pytest.raises(errors.NotDominant):
        joseph_highest(A1_AFF, A1_AFF.weight([2, -1]), lam1, (1,))


def test_count_criterion_matches_concatenation_test():
    """eps-count highest-term test agrees with the pairing-minimum test,
    and both with the concatenation ``straight(mu) * b`` built in full."""
    rng = random.Random(61)
    cases = [(A1_AFF, (1, 0), 1, (1, 0)), (A1_AFF, (0, 1), 0, (0, 1, 0)),
             (A2_AFF, (1, 0, 0), 0, (2, 1, 0)), (A2_AFF, (0, 0, 1), 0, (1, 2))]
    for ad, lam_h, grade, word in cases:
        lam = ad.weight(lam_h, grade)
        ps = generate_demazure_set(ad, lam, word)
        for _ in range(3):
            mu = ad.weight([rng.randint(0, 1) for _ in ad.indices], 0)
            if ad.level(mu) == 0:
                mu = ad.fundamental_weight(0)
            by_min = {b for b, _ in joseph_highest(ad, mu, lam, word)}
            by_count = {b for b in ps if tensor_highest_by_counts(ad, mu, b)}
            mu_path = straight_path(ad, mu)
            by_concat = {b for b in ps if all(
                eps_phi(ad, i, concat_paths(mu_path, b))[0] == 0
                for i in ad.indices)}
            assert by_min == by_count == by_concat


# ---- edge export ----


def test_f_edge_lines():
    lam1 = A1_AFF.fundamental_weight(1)
    ps = generate_demazure_set(A1_AFF, lam1, (1,))
    assert f_edge_lines(ps) == "0 1 1\n"
    single = generate_demazure_set(A1_AFF, lam1, ())
    assert f_edge_lines(single) == ""


# Edge lists number paths by their place in the set's order, so these pin
# the order of three sets with non-integral breakpoints.
EDGE_CASES = [
    (A2_AFF, (0, 1, 0), (1, 0, 2, 1),
     "0 0 1\n0 1 4\n1 1 3\n3 1 5\n4 0 3\n6 1 7\n7 0 2\n7 2 8\n8 0 0\n"),
    (C2_AFF, (0, 1, 0), (2, 1, 0, 1),
     "0 1 2\n0 2 1\n2 2 4\n3 1 6\n4 2 5\n6 0 0\n6 2 7\n7 0 1\n"),
    (G2_AFF, (0, 0, 1), (0, 2, 1, 2),
     "0 0 3\n1 0 4\n1 2 2\n2 0 5\n5 0 6\n7 1 8\n8 1 9\n10 1 7\n"
     "11 2 15\n12 0 7\n12 1 13\n13 0 8\n13 1 14\n13 2 16\n14 0 9\n"
     "14 2 17\n15 0 10\n15 1 12\n16 0 0\n17 0 1\n17 2 18\n18 0 2\n"),
]


@pytest.mark.parametrize("ad, h, word, expected", EDGE_CASES,
                         ids=["A2", "C2", "G2"])
def test_f_edge_lines_pin_set_order(ad, h, word, expected):
    ps = generate_demazure_set(ad, ad.weight(h), word)
    assert f_edge_lines(ps) == expected


# ---- memo and input checks ----


def test_repeated_sets_and_characters_are_the_same_objects(cold_memos):
    lam = A2_AFF.weight([0, 1, 1], 1)
    word = (2, 1, 0, 2, 1)
    ps = generate_demazure_set(A2_AFF, lam, list(word))
    again = generate_demazure_set(A2_AFF, Weight([0, 1, 1], 1), word)
    assert again is ps
    assert crystal_character(again) is crystal_character(ps)
    assert crystal_character(ps) == demazure_word_char(A2_AFF, word, lam)
    assert lspath._path_set.cache_info().hits == 1


def test_repeated_highest_terms_are_fresh_lists_of_the_same_terms(cold_memos):
    mu, lam = A2_AFF.weight([1, 0, 0]), A2_AFF.weight([0, 1, 1], 1)
    word = (2, 1, 0, 2, 1)
    first = joseph_highest(A2_AFF, mu, lam, list(word))
    again = joseph_highest(A2_AFF, Weight([1, 0, 0]), Weight((0, 1, 1), 1),
                           word)
    assert lspath._joseph.cache_info().hits == 1
    assert type(again) is list and again == first and again is not first
    assert all(a is b for a, b in zip(again, first)) and len(first) > 1
    expected = list(first)
    again.pop()
    again.append(None)
    first.clear()
    assert joseph_highest(A2_AFF, mu, lam, word) == expected
    assert lspath._joseph.cache_info().currsize == 1


def test_highest_terms_key_the_checked_numbers(cold_memos):
    """``joseph_highest`` checks its weights before the lookup, so a float
    is refused on every call, even after the integer request is kept, and a
    bool is read as the integer it equals: its terms are the integer
    request's, every number an exact ``int``."""
    lam, word = A1_AFF.weight([1, 0]), (1, 0)
    pairs = joseph_highest(A1_AFF, A1_AFF.weight([1, 0]), lam, word)
    for _ in range(2):
        for mu in (Weight((1.0, 0), 0), Weight((1, 0), 0.0)):
            with pytest.raises(ValueError, match="integral"):
                joseph_highest(A1_AFF, mu, lam, word)
        with pytest.raises(ValueError, match="integral"):
            joseph_highest(A1_AFF, A1_AFF.weight([1, 0]),
                           Weight((1.0, 0), 0), word)
    assert joseph_highest(A1_AFF, Weight((True, False), False), lam,
                          (True, False)) == pairs
    assert all(type(x) is int for _, nu in pairs for x in (*nu.h, nu.d))
    assert lspath._joseph.cache_info().currsize == 1


def test_bad_highest_term_requests_raise_on_every_call(cold_memos):
    mu, lam = A1_AFF.fundamental_weight(0), A1_AFF.weight([1, 1])
    joseph_highest(A1_AFF, mu, lam, (0, 1))
    bad = [(errors.NotDominant, A1_AFF.weight([2, -1]), lam, (0, 1)),
           (errors.NotDominant, mu, A1_AFF.weight([2, -1]), (0, 1)),
           (ValueError, mu, Weight((1, 1, 0), 0), (0, 1)),
           (errors.IndexOutOfRange, mu, lam, (0, 2)),
           (errors.IndexOutOfRange, mu, lam, (0, 1.0))]
    for _ in range(3):
        for error, *args in bad:
            with pytest.raises(error):
                joseph_highest(A1_AFF, *args)
    assert lspath._joseph.cache_info().currsize == 1


def test_paths_are_built_on_first_use(cold_memos):
    lam = G2_AFF.fundamental_weight(2)
    ps = generate_demazure_set(G2_AFF, lam, (0, 2, 1, 2))
    assert len(ps) == crystal_character(ps).mass()
    joseph_highest(G2_AFF, G2_AFF.fundamental_weight(0), lam, (0, 2, 1, 2))
    assert "paths" not in vars(ps)
    assert ps.paths is ps.paths and len(ps.paths) == len(ps)


def test_bad_letters_raise_after_the_good_word_is_kept():
    lam = A1_AFF.weight([1, 1])
    generate_demazure_set(A1_AFF, lam, [1, 0, 1])
    for word in ([1.0, 0, 1], [1, 0, 2], ["1", 0, 1]):
        with pytest.raises(errors.IndexOutOfRange):
            generate_demazure_set(A1_AFF, lam, word)


def test_non_dominant_weight_raises_on_every_call(cold_memos):
    for _ in range(3):
        with pytest.raises(errors.NotDominant):
            generate_demazure_set(A1_AFF, A1_AFF.weight([2, -1]), (1, 0))
    assert lspath._path_set.cache_info().currsize == 0
    assert lspath._crystal.cache_info().currsize == 0


def test_path_sets_are_immutable():
    ps = generate_demazure_set(A1_AFF, A1_AFF.fundamental_weight(1), (1,))
    crystal_character(ps)
    for name in ("datum", "paths", "_character", "extra"):
        with pytest.raises(AttributeError):
            setattr(ps, name, None)
        with pytest.raises(AttributeError):
            delattr(ps, name)
    assert len(ps) == 2


def test_make_and_concat_paths_refuse_a_non_integral_direction():
    # Generated directions lie in the Weyl orbit of an integral weight; a
    # direction of (1/2, 1/2, 0) has no stored form.
    half = (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    with pytest.raises(ValueError):
        make([(half, Fraction(1))])
    # The junction merges (2, 0, 0) for 1/2 with (4, 0, 0) for 1/6 into
    # (5/2, 0, 0) for 2/3.
    first = make([((1, 0, 0), Fraction(1))])
    second = make([((2, 0, 0), Fraction(1, 3)),
                   ((0, 1, 0), Fraction(2, 3))])
    with pytest.raises(ValueError):
        concat_paths(first, second)


def test_float_coordinates_raise_value_error():
    lam = A1_AFF.weight([1, 1])
    for bad in (Weight((1.0, 1)), Weight((1, 1), 0.5)):
        with pytest.raises(ValueError):
            generate_demazure_set(A1_AFF, bad, (0, 1))
        with pytest.raises(ValueError):
            joseph_highest(A1_AFF, A1_AFF.fundamental_weight(0), bad, (0, 1))
        with pytest.raises(ValueError):
            joseph_highest(A1_AFF, bad, lam, (0, 1))


@pytest.mark.parametrize("lam", [Weight((1.5, 0.5), 0), Weight((1,), 0),
                                 Weight((1, 1), 0.5), Weight(1, 0)],
                         ids=["fractional", "short", "fractional-grade",
                              "scalar"])
def test_straight_path_refuses_a_malformed_weight(lam):
    # The first two used to give a path with a non-integral direction and
    # one with a one-entry direction on a datum whose paths need three; the
    # scalar used to raise a bare TypeError.  The path set and the highest
    # terms refuse the same weight.
    with pytest.raises(ValueError):
        straight_path(A1_AFF, lam)
    with pytest.raises(ValueError):
        generate_demazure_set(A1_AFF, lam, (0, 1))
    with pytest.raises(ValueError):
        joseph_highest(A1_AFF, A1_AFF.fundamental_weight(0), lam, (0, 1))
    with pytest.raises(ValueError):
        joseph_highest(A1_AFF, lam, A1_AFF.weight([1, 1]), (0, 1))


def test_bool_coordinates_give_integer_steps(cold_memos):
    ps = generate_demazure_set(A2_AFF, Weight((False, True, False)),
                               (True, 0, 2))
    assert all(type(x) is int for pi in ps
               for x in (pi.n, *(y for t, e in pi.steps for y in (t, *e))))
    assert generate_demazure_set(A2_AFF, A2_AFF.fundamental_weight(1),
                                 (1, 0, 2)) is ps


@pytest.mark.parametrize("v", [(1, 0), (1, 0, 0, 0), (0, 1, 0, 0)])
def test_operators_refuse_a_path_of_another_width(v):
    # Affine A1 directions have three entries: h_0, h_1 and d.  Both a
    # short and a long path used to get a silent answer.
    pi = make([(v, Fraction(1))])
    for op in (root_op_f, root_op_e, eps_phi):
        for i in A1_AFF.indices:
            with pytest.raises(ValueError, match="3 entries"):
                op(A1_AFF, i, pi)
    fine = straight_path(A1_AFF, A1_AFF.weight([0, 1]))
    assert eps_phi(A1_AFF, 1, fine) == (0, 1)
    assert root_op_e(A1_AFF, 1, root_op_f(A1_AFF, 1, fine)) == fine


# ---- one crystal per top ----


# Words of different lengths over one top of affine C2: the sets share
# directions and edges but none contains another's last string.
SHARED_TOP_WORDS = [(0, 1, 2, 1, 0, 1), (1, 2, 1, 0, 1, 2), (2, 1, 0, 1, 2),
                    (0, 2, 1, 0, 2, 1, 0)]


def _grown(ad, lam, word):
    ps = generate_demazure_set(ad, lam, word)
    return list(ps.paths), crystal_character(ps), f_edge_lines(ps)


class _YieldingIds(dict):
    """Direction ids that hand the interpreter to another thread between
    looking a direction up and interning it, where a table left unlocked
    would give one direction two ids."""

    def get(self, key, default=None):
        found = dict.get(self, key, default)
        time.sleep(0)
        return found


class _YieldingTable(lspath._Table):
    def __init__(self, ad):
        super().__init__(ad)
        self.ids = _YieldingIds()


def test_threads_growing_one_top_match_a_sequential_run(monkeypatch,
                                                        cold_memos):
    """Threads grow different words of one top in its shared table, each
    word at grades 0 and 2, which walk the same edges, and export their
    edges; each result equals the set grown alone from cold."""
    cases = [(word, g) for word in SHARED_TOP_WORDS for g in (0, 2)]
    alone = {}
    for word, g in cases:
        cold_memos()
        alone[word, g] = _grown(C2_AFF, C2_AFF.weight([1, 0, 1], g), word)
    monkeypatch.setattr(lspath, "_Table", _YieldingTable)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            cold_memos()
            results = []

            def grow(word, g):
                results.append(((word, g), _grown(
                    C2_AFF, C2_AFF.weight([1, 0, 1], g), word)))

            threads = [threading.Thread(target=grow, args=case)
                       for case in cases]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == len(threads)
            assert all(got == alone[case] for case, got in results)
            assert lspath._crystal.cache_info().currsize == 1
    finally:
        sys.setswitchinterval(interval)
        cold_memos()


def test_sets_of_one_top_do_not_depend_on_earlier_sets(cold_memos):
    lam = C2_AFF.weight([1, 0, 1])
    alone = {}
    for word in SHARED_TOP_WORDS:
        cold_memos()
        alone[word] = _grown(C2_AFF, lam, word)
    cold_memos()
    for word in reversed(SHARED_TOP_WORDS):
        assert _grown(C2_AFF, lam, word) == alone[word]
    assert lspath._crystal.cache_info().currsize == 1


def _graded(pi, g):
    """``pi`` moved by ``g delta``: ``g`` added to every direction's last
    entry, the value on the scaling element."""
    return LSPath(pi.n, tuple((t, (*v[:-1], v[-1] + g)) for t, v in pi.steps))


def test_sets_of_one_top_at_several_grades_share_one_table(cold_memos):
    """The crystal of ``(lam, g)`` is that of ``(lam, 0)`` moved by
    ``g delta``: one table serves every grade, and each set's paths,
    character and highest terms are those at grade 0 moved by ``g``."""
    h, word = (0, 1, 0), (0, 1, 2, 1, 0)
    mu = C2_AFF.weight([1, 0, 0])
    sets = {g: generate_demazure_set(C2_AFF, C2_AFF.weight(h, g), word)
            for g in (3, 0, 1)}
    assert lspath._crystal.cache_info().currsize == 1
    base = sets[0]
    highest = joseph_highest(C2_AFF, mu, C2_AFF.weight(h, 0), word)
    assert highest
    for g, ps in sets.items():
        lam = C2_AFF.weight(h, g)
        assert ps._table is base._table
        assert list(ps.paths) == [_graded(pi, g) for pi in base.paths] \
            == oracle_set(C2_AFF, lam, word)
        # Each moved direction is built once and shared by the paths.
        dirs = [v for pi in ps.paths for _, v in pi.steps]
        assert len(set(map(id, dirs))) == len(set(dirs))
        assert crystal_character(ps) == Character(C2_AFF, {
            (w, d + g): c for (w, d), c in crystal_character(base).terms()})
        assert crystal_character(ps) == demazure_word_char(C2_AFF, word, lam)
        assert joseph_highest(C2_AFF, mu, lam, word) == [
            (_graded(pi, g), Weight(nu.h, nu.d + g)) for pi, nu in highest]
    assert lspath._crystal.cache_info().currsize == 1


@pytest.mark.parametrize("bound", [None, 5], ids=["default", "small"])
def test_every_kept_edge_is_the_lowering_operator(monkeypatch, bound,
                                                  cold_memos):
    """After several sets of one top at several grades, every edge a node
    keeps, the string ends recorded from ``phi_i = 1`` included, is
    ``root_op_f`` of its source, which lowers in a table of its own, and
    no node holds more than ``_DOWN_SIZE`` edges.  Under the default
    bound nothing is cleared, and the table holds more edges than were
    lowered: the string ends were recorded, not lowered."""
    if bound is None:
        bound = lspath._DOWN_SIZE
    else:
        monkeypatch.setattr(lspath, "_DOWN_SIZE", bound)
    lowered = Counter()
    lower = lspath._lower

    def counted(tab, p, b):
        lowered[tab] += 1
        return lower(tab, p, b)

    monkeypatch.setattr(lspath, "_lower", counted)
    h = (1, 0, 1)
    for g, word in zip((0, 2, 1, 0), SHARED_TOP_WORDS):
        lam = C2_AFF.weight(h, g)
        ps = generate_demazure_set(C2_AFF, lam, word)
        assert list(ps.paths) == oracle_set(C2_AFF, lam, word)
        assert all(len(down) <= bound for down in ps._table.down)
    tab = ps._table
    kept = ends = 0
    for p, i in enumerate(C2_AFF.indices):
        for b, c in tab.down[p].items():
            want = root_op_f(C2_AFF, i, *tab.paths([b]))
            assert want == (None if c is None else tab.paths([c])[0])
            kept += 1
            ends += c is None
    assert ends
    if bound == 4096:
        assert lowered[tab] < kept
    cold_memos()


def _members(ps):
    """A set's paths with their weights, read out of its table."""
    return dict(zip(ps._table.paths(list(ps._weights)),
                    ps._weights.values()))


def test_a_table_keeps_a_bounded_number_of_edges_a_node(monkeypatch,
                                                        cold_memos):
    """Three long words of one top fill a node of an unbounded cold table
    with 15,552, 23,328 and 38,880 edges.  Grown one after another in one
    table, each node keeps at most ``_DOWN_SIZE``, and every set is the
    one the unbounded cold table grows."""
    lam = A2_AFF.weight([1, 1, 0])
    words = {(0, 1, 2) * 4: 15552, (1, 2, 0) * 4: 23328,
             (2, 0, 1) * 4: 38880}
    cold = {}
    with monkeypatch.context() as m:
        m.setattr(lspath, "_DOWN_SIZE", float("inf"))
        for word, most in words.items():
            cold_memos()
            ps = generate_demazure_set(A2_AFF, lam, word)
            assert max(map(len, ps._table.down)) == most
            cold[word] = _members(ps)
    cold_memos()
    for word in words:
        ps = generate_demazure_set(A2_AFF, lam, word)
        assert all(len(down) <= lspath._DOWN_SIZE
                   for down in ps._table.down)
        assert _members(ps) == cold[word]
    assert lspath._crystal.cache_info().currsize == 1


MALFORMED = {
    "empty": LSPath(1, ()),
    "n-zero": LSPath(0, ((0, (1, 1, 0)),)),
    "negative-duration": LSPath(2, ((3, (1, 1, 0)), (-1, (0, 2, 0)))),
    "short-sum": LSPath(2, ((1, (1, 1, 0)),)),
    "float-direction": LSPath(1, ((1, (1.0, 1, 0)),)),
    "fraction-direction": LSPath(2, ((2, (Fraction(1, 2), 1, 0)),)),
    "float-duration": LSPath(1, ((1.0, (1, 1, 0)),)),
    "float-n": LSPath(1.0, ((1, (1, 1, 0)),)),
    "equal-neighbours": LSPath(2, ((1, (1, 1, 0)), (1, (1, 1, 0)))),
}


@pytest.mark.parametrize("pi", MALFORMED.values(), ids=MALFORMED.keys())
def test_lowering_refuses_a_malformed_path(pi):
    for i in A1_AFF.indices:
        with pytest.raises(ValueError):
            root_op_f(A1_AFF, i, pi)


def test_an_empty_path_has_no_weight():
    with pytest.raises(ValueError):
        LSPath(1, ()).weight()
