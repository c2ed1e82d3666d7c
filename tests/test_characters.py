"""Operator ladders, finite Weyl characters, and the graded projection and
grade shift that other tests use as oracles."""

import random
from collections import Counter, deque

import pytest

from demflag import (
    Character,
    Weight,
    affinize,
    apply_word,
    characters,
    check_w_invariance_per_grade,
    datum_from_label,
    demazure_step,
    demazure_word_char,
    errors,
    forget_grading,
    weyl_character_finite,
)
from test_root_data import all_datums, coroot, rho

A1 = datum_from_label("A1")
A2 = datum_from_label("A2")
C2 = datum_from_label("C2")
G2 = datum_from_label("G2")
A1_AFF = affinize(A1)
A2_AFF = affinize(A2)


def project_graded_classical(ad, f):
    """Oracle: the graded classical shadow of an affine character, from its
    terms alone.  ``h_0`` is dropped, the grade is read off ``d``, and terms
    that collide are summed."""
    out = Counter()
    for (h, d), c in f.terms():
        out[h[1:], d] += c
    return Character(ad.finite, out)


def shift_grade(g, m):
    """Oracle: ``g`` with ``m`` added to every grade."""
    return Character(g.datum, {(h, d + m): c for (h, d), c in g.terms()})


def mono(datum, h, d=0, c=1):
    return Character.monomial(datum, datum.weight(h, d), c)


def _random_char(rng, ad, terms=4):
    out = Character.zero(ad)
    for _ in range(terms):
        h = [rng.randint(-3, 3) for _ in ad.indices]
        out = out + mono(ad, h, rng.randint(-2, 2), rng.randint(-2, 3))
    return out


# ---- operator ladders ----


def test_step_ladder_cases():
    lam1 = A1_AFF.fundamental_weight(1)
    up = demazure_step(A1_AFF, 1, Character.monomial(A1_AFF, lam1))
    assert up == mono(A1_AFF, [0, 1]) + mono(A1_AFF, [2, -1])

    flat = mono(A1_AFF, [3, 0])
    assert demazure_step(A1_AFF, 1, flat) == flat

    gone = mono(A1_AFF, [2, -1])
    assert demazure_step(A1_AFF, 1, gone) == Character.zero(A1_AFF)

    # n <= -2 subtracts the interior ladder.
    neg = demazure_step(A1, 1, mono(A1, [-2]))
    assert neg == mono(A1, [0], c=-1)
    assert demazure_step(A1, 1, mono(A1, [-3])) \
        == mono(A1, [-1], c=-1) + mono(A1, [1], c=-1)


def test_step_idempotent():
    rng = random.Random(3)
    for ad in (A1_AFF, A2_AFF):
        for _ in range(30):
            f = _random_char(rng, ad)
            i = rng.choice(ad.indices)
            once = demazure_step(ad, i, f)
            assert demazure_step(ad, i, once) == once


def test_seed_rank_must_match_datum():
    # The value at node 1 is -1, so a ladder would drop the term and
    # return zero before any arithmetic could notice the missing node.
    with pytest.raises(ValueError):
        demazure_word_char(A2_AFF, (1,), A1_AFF.weight([0, -1]))
    with pytest.raises(ValueError):
        demazure_word_char(A1_AFF, (), A2_AFF.weight([1, 0, 0]))
    with pytest.raises(ValueError):
        demazure_step(A2_AFF, 1, mono(A1_AFF, [0, -1]))
    # A character refuses such a weight when it is built.
    with pytest.raises(ValueError):
        Character(A1, {Weight((1, 2), 0): 1})
    with pytest.raises(ValueError):
        Character(A2, {((1,), 0): 1})
    with pytest.raises(ValueError):
        Character(A1_AFF, {((1,), 0): 1})


def test_weights_must_be_integral():
    # Ladders pack every key into one int, so a float has no place there.
    for h, d in (((1.0, 0), 0), ((1, 0), 0.5)):
        with pytest.raises(ValueError, match="not integral"):
            Character(A1_AFF, {(h, d): 1})
        with pytest.raises(ValueError, match="not integral"):
            demazure_word_char(A1_AFF, (1, 0), Weight(h, d))
    f = Character(A1_AFF, {((True, 0), False): 1})
    assert all(type(x) is int for (h, d), _ in f.terms() for x in (*h, d))
    assert demazure_step(A1_AFF, 0, f) == demazure_step(
        A1_AFF, 0, mono(A1_AFF, [1, 0]))


def test_coefficients_must_be_integers():
    """Coefficients and scale factors go through ``operator.index``, as
    weights do, so arithmetic stays exact."""
    with pytest.raises(ValueError, match="not integral"):
        Character(A2, {Weight((1, 0), 0): 1.5, Weight((0, 1), 0): True})
    with pytest.raises(ValueError, match="not integral"):
        mono(A2, [1, 0], c=1.0)
    f = Character(A2, {Weight((0, 1), 0): True})
    assert f.mass() == 1 and all(type(c) is int for _, c in f.terms())
    chi = weyl_character_finite(A2, A2.weight([1, 0]))
    with pytest.raises(ValueError, match="not integral"):
        chi.scale(2.0)
    assert chi.scale(True) == chi
    assert all(type(c) is int for _, c in chi.scale(True).terms())


def test_word_char_examples():
    lam0_delta = A1_AFF.weight([1, 0], 1)
    assert demazure_word_char(A1_AFF, (), lam0_delta) \
        == Character.monomial(A1_AFF, lam0_delta)

    lam1 = A1_AFF.fundamental_weight(1)
    two = demazure_word_char(A1_AFF, (1,), lam1)
    assert two == mono(A1_AFF, [0, 1]) + mono(A1_AFF, [2, -1])

    four = demazure_word_char(A1_AFF, (1, 0), lam0_delta)
    expect = (mono(A1_AFF, [1, 0], 1) + mono(A1_AFF, [-1, 2], 0)
              + mono(A1_AFF, [1, 0], 0) + mono(A1_AFF, [3, -2], 0))
    assert four == expect


def test_word_char_extremal_coefficient_is_one():
    rng = random.Random(9)
    for _ in range(20):
        lam = A2_AFF.weight([rng.randint(0, 2) for _ in A2_AFF.indices], 0)
        if A2_AFF.level(lam) == 0:
            continue
        word = tuple(rng.choice(A2_AFF.indices) for _ in range(rng.randint(0, 4)))
        f = demazure_word_char(A2_AFF, word, lam)
        assert f.coefficient(lam) == 1
        assert f.coefficient(apply_word(A2_AFF, word, lam)) == 1


def test_word_char_braid_independence():
    seeds = [A2_AFF.fundamental_weight(0),
             A2_AFF.fundamental_weight(0) + A2_AFF.fundamental_weight(1),
             A2_AFF.weight([1, 1, 1], 0)]
    braids = [((0, 1, 0), (1, 0, 1)), ((1, 2, 1), (2, 1, 2)),
              ((0, 2, 0), (2, 0, 2))]
    for lam in seeds:
        for w1, w2 in braids:
            assert demazure_word_char(A2_AFF, w1, lam) \
                == demazure_word_char(A2_AFF, w2, lam)


# ---- finite Weyl characters ----


def weyl_dim(rd, lam):
    """Dimension by the product formula over positive coroots."""
    num, den = 1, 1
    r = rho(rd)
    up = lam + r
    for beta in rd.positive_roots:
        co = coroot(rd, beta)
        num *= sum(c * v for c, v in zip(co, up.h))
        den *= sum(c * v for c, v in zip(co, r.h))
    assert num % den == 0
    return num // den


def test_weyl_finite_examples():
    f = weyl_character_finite(A1, A1.weight([2]))
    assert f == mono(A1, [2]) + mono(A1, [0]) + mono(A1, [-2])
    assert weyl_character_finite(A2, A2.zero_weight) \
        == Character.monomial(A2, A2.zero_weight)
    g = weyl_character_finite(A2, A2.weight([1, 0]))
    assert len(g) == 3 and all(c == 1 for _, c in g.terms())


def test_weyl_finite_rejects_nondominant():
    with pytest.raises(errors.NotDominant):
        weyl_character_finite(A1, A1.weight([-1]))


def test_weyl_finite_normalises_its_weight():
    f = weyl_character_finite(A2, Weight((True, 0), 0))
    assert f == weyl_character_finite(A2, A2.weight([1, 0]))
    assert all(type(x) is int for (h, d), _ in f.terms() for x in (*h, d))
    with pytest.raises(ValueError):
        weyl_character_finite(A2, Weight((1, 0), 0.5))
    with pytest.raises(ValueError):
        weyl_character_finite(A2, Weight((1.0, 0), 0))


def test_weyl_finite_checks_every_division(monkeypatch):
    """The exact-division check is a raise, so it holds under ``-O`` too:
    a wrong ``(alpha, alpha)`` on A1 leaves 2 * 3 / 4 at the zero weight."""
    (a, b, pair, _), = characters._roots(A1)
    monkeypatch.setattr(characters, "_roots", lambda rd: ((a, b, pair, 3),))
    memos = (characters._weyl_character, characters._dominant)
    for memo in memos:
        memo.cache_clear()
    try:
        with pytest.raises(AssertionError, match="not exact"):
            weyl_character_finite(A1, A1.weight([2]))
    finally:
        for memo in memos:
            memo.cache_clear()


def test_weyl_finite_memo_hands_out_one_object():
    f = weyl_character_finite(G2, G2.weight([1, 1]))
    assert weyl_character_finite(G2, Weight([1, 1])) is f
    assert weyl_character_finite(G2, G2.weight([1, 1], 1)) \
        == shift_grade(f, 1)
    with pytest.raises(errors.NotDominant):
        weyl_character_finite(G2, G2.weight([1, -1]))


def test_word_ladder_memo_hands_out_one_object_and_keeps_no_error():
    """A repeated word ladder is the same object, whatever sequence and
    weight spell it; a bad seed or letter raises on every call, hit or
    not, and leaves no entry."""
    memo = characters._word_char
    memo.cache_clear()
    lam = A2_AFF.weight([0, 1, 1], 1)
    f = demazure_word_char(A2_AFF, [2, 1, 0], lam)
    assert demazure_word_char(A2_AFF, (2, 1, 0), Weight((0, 1, True), 1)) is f
    g = Character(A2_AFF, {lam: 1})
    for i in (0, 1, 2):
        g = demazure_step(A2_AFF, i, g)
    assert f == g
    for _ in range(3):
        with pytest.raises(ValueError, match="not integral"):
            demazure_word_char(A2_AFF, (2, 1, 0), Weight((0, 1, 1), 1.0))
        with pytest.raises(ValueError, match="not integral"):
            demazure_word_char(A2_AFF, (2, 1, 0), Weight((0, 1.5, 1), 1))
        for word in ((2, 1, 3), (2, 1.0, 0), (2, "1", 0)):
            with pytest.raises(errors.IndexOutOfRange):
                demazure_word_char(A2_AFF, word, lam)
    assert memo.cache_info().currsize == 1
    assert memo.cache_info().hits == 1


def test_weyl_finite_known_dimensions():
    table = [(A2, (1, 1), 8), (C2, (1, 0), 4), (C2, (0, 1), 5),
             (C2, (2, 0), 10), (C2, (1, 1), 16),
             (G2, (1, 0), 7), (G2, (0, 1), 14)]
    for rd, h, dim in table:
        assert weyl_character_finite(rd, rd.weight(h)).mass() == dim


def test_weyl_finite_matches_dimension_formula():
    """Weyl's dimension formula (Humphreys, GTM 9, section 24.3) as an
    oracle that shares no code with the ladder: every supported type at
    rho up to rank 3 and at each fundamental weight of dimension <= 1000."""
    cases = [(A1, (m,)) for m in range(5)]
    cases += [(A2, h) for h in ((1, 0), (2, 0), (1, 1), (2, 1), (2, 2))]
    cases += [(C2, h) for h in ((1, 0), (0, 1), (1, 1), (2, 1))]
    cases += [(G2, h) for h in ((1, 0), (0, 1), (1, 1))]
    datums = list(all_datums())
    for rd in datums:
        if rd.rank <= 3:
            cases.append((rd, rho(rd).h))
        cases += [(rd, w.h) for w in map(rd.fundamental_weight, rd.indices)
                  if weyl_dim(rd, w) <= 1000]
    assert {rd.label for rd, _ in cases} == {rd.label for rd in datums}
    for rd, h in cases:
        lam = rd.weight(h)
        f = weyl_character_finite(rd, lam)
        assert f.mass() == weyl_dim(rd, lam), (rd.label, h)
        assert f.coefficient(lam) == 1
        assert f.coefficient(apply_word(rd, rd.w0_word, lam)) == 1


def test_weyl_finite_reaches_e8_omega2():
    """No test compares E8 w2 with the w0 ladder, which is too slow there;
    its mass is checked against Weyl's dimension formula."""
    E8 = datum_from_label("E8")
    lam = E8.fundamental_weight(2)
    assert weyl_character_finite(E8, lam).mass() == weyl_dim(E8, lam) \
        == 147250


def test_weyl_finite_is_w_invariant():
    for rd, h in ((A2, (2, 1)), (C2, (1, 1)), (G2, (1, 0))):
        f = weyl_character_finite(rd, rd.weight(h))
        g = Character(rd, {(k, 0): c for (k, _), c in f.terms()})
        assert check_w_invariance_per_grade(rd, g)


def _closure(cartan, h):
    """The closure of ``h`` under the simple reflections, breadth first,
    from the Cartan matrix alone: ``s_i`` subtracts ``h_i`` times column
    ``i``, the values of ``alpha_i``."""
    seen = {tuple(h)}
    queue = deque(seen)
    while queue:
        mu = queue.popleft()
        for i, v in enumerate(mu):
            nu = tuple(x - v * row[i] for x, row in zip(mu, cartan))
            if nu not in seen:
                seen.add(nu)
                queue.append(nu)
    return seen


def test_weyl_orbits_are_reflection_closures():
    """Every orbit memoised beneath a Weyl character holds the closure of
    its dominant weight under the simple reflections, each weight once, at
    grade 0: below rho (and 2 rho up to rank 3) for every finite type up
    to rank 4, G2 and F4 among them, and at E6 w1."""
    E6 = datum_from_label("E6")
    cases = [(E6, E6.fundamental_weight(1).h)]
    for rd in all_datums():
        if rd.rank <= 4:
            cases.append((rd, rho(rd).h))
        if rd.rank <= 3:
            cases.append((rd, tuple(2 * x for x in rho(rd).h)))
    for rd, top in cases:
        for mu, _ in characters._dominant(rd, top):
            orbit = characters._orbit(rd, mu)
            assert mu[-1] == 0 and all(k[-1] == 0 for k in orbit)
            assert len(set(orbit)) == len(orbit)
            assert {k[:-1] for k in orbit} == _closure(rd.cartan, mu[:-1])


# ---- the projection and shift oracles ----


def test_project_examples():
    lam0_delta = A1_AFF.weight([1, 0], 1)
    g = project_graded_classical(
        A1_AFF, Character.monomial(A1_AFF, lam0_delta))
    assert g.terms() == [(((0,), 1), 1)]

    four = demazure_word_char(A1_AFF, (1, 0), lam0_delta)
    g = project_graded_classical(A1_AFF, four)
    assert dict(g.terms()) == {((2,), 0): 1, ((0,), 0): 1,
                               ((-2,), 0): 1, ((0,), 1): 1}


def test_project_sums_collisions():
    f = mono(A1_AFF, [1, 0]) + mono(A1_AFF, [0, 0])
    g = project_graded_classical(A1_AFF, f)
    assert g.terms() == [(((0,), 0), 2)]


def test_project_preserves_mass():
    rng = random.Random(17)
    for _ in range(20):
        f = _random_char(rng, A2_AFF, terms=6)
        assert project_graded_classical(A2_AFF, f).mass() == f.mass()


def test_forget_and_shift():
    g = Character(A1, {((2,), 0): 1, ((0,), 0): 1,
                       ((-2,), 0): 1, ((0,), 1): 1})
    flat = forget_grading(g)
    assert flat == mono(A1, [2]) + mono(A1, [0], c=2) + mono(A1, [-2])
    assert shift_grade(g, 0) == g
    assert shift_grade(shift_grade(g, 5), -5) == g
    assert shift_grade(g, 2).grades() == [2, 3]
    assert g.coefficient(A1.weight([0], 1)) == 1
    assert g.grade_slice(0) == {(2,): 1, (0,): 1, (-2,): 1}


def test_invariance_checker():
    ok = Character(A1, {((2,), 0): 1, ((0,), 0): 1,
                        ((-2,), 0): 1, ((0,), 1): 1})
    assert check_w_invariance_per_grade(A1, ok)
    bad = Character(A1, {((1,), 0): 1})
    assert not check_w_invariance_per_grade(A1, bad)
    assert check_w_invariance_per_grade(A1, Character.zero(A1))
    c2_char = weyl_character_finite(C2, C2.weight([1, 0]))
    assert check_w_invariance_per_grade(C2, c2_char)
    with pytest.raises(ValueError):
        check_w_invariance_per_grade(A2, c2_char)


# ---- character algebra ----


def test_character_algebra():
    om = mono(A1, [1]) + mono(A1, [-1])
    square = om * om
    assert square == mono(A1, [2]) + mono(A1, [0], c=2) + mono(A1, [-2])
    assert square.mass() == 4
    assert (om - om) == Character.zero(A1)
    assert len(om - om) == 0
    assert mono(A1, [1], c=0) == Character.zero(A1)
    assert om.scale(3).mass() == 6
    assert (-om).coefficient(A1.weight([1])) == -1


def test_mixed_datum_refused():
    with pytest.raises(ValueError):
        mono(A1, [1]) + mono(A2, [1, 0])
    with pytest.raises(ValueError):
        mono(A1, [1]) * mono(A1_AFF, [0, 1])
    g1 = Character(A1, {((1,), 0): 1})
    g2 = Character(A2, {((1, 0), 0): 1})
    with pytest.raises(ValueError):
        g1 + g2
