"""Extremal-weight solving, module characters, and dimension laws."""

import random

import pytest

from demflag import (
    DemazureLabel,
    Weight,
    affinize,
    apply_word,
    characters,
    check_w_invariance_per_grade,
    datum_from_label,
    demazure,
    demazure_character,
    demazure_dim,
    dominance_leq,
    errors,
    forget_grading,
    shift_grade,
    solve_extremal,
    weyl_character_finite,
)

A1 = datum_from_label("A1")
A2 = datum_from_label("A2")
C2 = datum_from_label("C2")
A1_AFF = affinize(A1)
A2_AFF = affinize(A2)
C2_AFF = affinize(C2)


# ---- extremal weights ----


def test_solve_extremal_examples():
    lam, word = solve_extremal(A1_AFF, DemazureLabel(1, A1.weight([1])))
    assert lam == A1_AFF.fundamental_weight(1) and word == (1,)

    lam, word = solve_extremal(A1_AFF, DemazureLabel(1, A1.weight([2])))
    assert lam == A1_AFF.weight([1, 0], 1) and word == (1, 0)

    for level in (1, 2, 3):
        lam, word = solve_extremal(A2_AFF, DemazureLabel(level, A2.zero_weight))
        assert lam == A2_AFF.weight([level, 0, 0], 0) and word == ()


def test_solve_extremal_postcondition():
    """apply_word(word, lam) reproduces the extremal affine weight."""
    rng = random.Random(31)
    for ad in (A1_AFF, A2_AFF, C2_AFF):
        rd = ad.finite
        for _ in range(10):
            level = rng.randint(1, 3)
            clam = rd.weight([rng.randint(0, 2) for _ in rd.indices])
            grade = rng.randint(-1, 2)
            lam, word = solve_extremal(ad, DemazureLabel(level, clam, grade))
            assert ad.is_dominant(lam)
            assert ad.level(lam) == level
            w0lam = apply_word(rd, rd.w0_word, clam)
            target = ad.embed_classical(w0lam, grade)
            target = ad.weight([target.h[0] + level, *target.h[1:]], grade)
            assert apply_word(ad, word, lam) == target


def test_validation_errors():
    with pytest.raises(errors.ZeroLevel):
        solve_extremal(A1_AFF, DemazureLabel(0, A1.weight([1])))
    with pytest.raises(errors.NotDominant):
        solve_extremal(A1_AFF, DemazureLabel(1, A1.weight([-1])))
    with pytest.raises(ValueError):
        solve_extremal(A2_AFF, DemazureLabel(1, A1.weight([1])))


# ---- characters ----


def test_character_examples():
    g = demazure_character(A1_AFF, DemazureLabel(1, A1.weight([2])))
    assert dict(g.terms()) == {((2,), 0): 1, ((0,), 0): 1,
                               ((-2,), 0): 1, ((0,), 1): 1}

    g = demazure_character(A1_AFF, DemazureLabel(2, A1.weight([2])))
    assert dict(g.terms()) == {((2,), 0): 1, ((0,), 0): 1, ((-2,), 0): 1}

    for level, m in ((1, 0), (2, 3), (3, -2)):
        g = demazure_character(A2_AFF, DemazureLabel(level, A2.zero_weight, m))
        assert g.terms() == [(((0, 0), m), 1)]


def test_grade_offset_is_a_shift():
    for ad, lam in ((A1_AFF, A1.weight([2])), (A2_AFF, A2.weight([1, 1])),
                    (C2_AFF, C2.weight([1, 0]))):
        base = demazure_character(ad, DemazureLabel(1, lam, 0))
        for m in (-2, 1, 4):
            shifted = demazure_character(ad, DemazureLabel(1, lam, m))
            assert shifted == shift_grade(base, m)


def test_dimension_examples():
    for m in range(5):
        assert demazure_dim(A1_AFF, DemazureLabel(1, A1.weight([m]))) == 2 ** m
    assert demazure_dim(A1_AFF, DemazureLabel(2, A1.weight([2]))) == 3
    for level in (1, 2, 3):
        assert demazure_dim(A2_AFF, DemazureLabel(level, A2.zero_weight)) == 1


def test_dimension_ignores_grade_offset():
    for m in (-1, 0, 3):
        assert demazure_dim(A2_AFF, DemazureLabel(2, A2.weight([1, 0]), m)) \
            == demazure_dim(A2_AFF, DemazureLabel(2, A2.weight([1, 0]), 0))


def test_dimension_dual_weight():
    rng = random.Random(41)
    for ad in (A2_AFF, C2_AFF):
        rd = ad.finite
        for _ in range(8):
            level = rng.randint(1, 2)
            lam = rd.weight([rng.randint(0, 2) for _ in rd.indices])
            dual = -apply_word(rd, rd.w0_word, lam)
            assert rd.is_dominant(dual)
            assert demazure_dim(ad, DemazureLabel(level, lam)) \
                == demazure_dim(ad, DemazureLabel(level, dual))


def test_dimension_monotone_along_dominance():
    chains = [(A1_AFF, [A1.weight([0]), A1.weight([2]), A1.weight([4])]),
              (A2_AFF, [A2.zero_weight, A2.weight([1, 1]), A2.weight([2, 2])])]
    for ad, chain in chains:
        for low, high in zip(chain, chain[1:]):
            assert dominance_leq(ad.finite, low, high)
        for level in (1, 2):
            dims = [demazure_dim(ad, DemazureLabel(level, lam))
                    for lam in chain]
            assert dims == sorted(dims)


def _kr_dim(ad, a, m):
    """Dimension of ``D(m, m omega_a)``, one for ``m = 0``."""
    rd = ad.finite
    return demazure_dim(ad, DemazureLabel(m, m * rd.fundamental_weight(a))) \
        if m else 1


@pytest.mark.parametrize("label", ["A2", "A3", "D4", "D5", "E6"])
def test_dimensions_satisfy_the_q_system(label):
    """In simply-laced type the Kirillov-Reshetikhin module ``W^a_m`` is the
    Demazure module ``D(m, m omega_a)`` (Chari-Moura 2006;
    Fourier-Littelmann 2007), and by the Kirillov-Reshetikhin conjecture
    (Nakajima 2003; Hernandez 2006) the dimensions ``Q^a_m`` satisfy

        (Q^a_m)^2 = Q^a_(m+1) Q^a_(m-1) + prod over neighbours b of Q^b_m,

    with ``Q^a_0 = 1``: an identity between dimensions that no part of
    the Demazure construction knows of."""
    rd = datum_from_label(label)
    ad = affinize(rd)
    for a in rd.indices:
        nbrs = [b for b in rd.indices
                if b != a and rd.cartan[rd.pos(a)][rd.pos(b)]]
        for m in (1, 2):
            prod = 1
            for b in nbrs:
                prod *= _kr_dim(ad, b, m)
            assert _kr_dim(ad, a, m) ** 2 \
                == _kr_dim(ad, a, m + 1) * _kr_dim(ad, a, m - 1) + prod, \
                (label, a, m)


# ---- structural invariants ----


def test_character_structure_random_labels():
    """Invariance, top coefficient, support bound, grade floor."""
    rng = random.Random(53)
    for _ in range(12):
        ad = rng.choice((A1_AFF, A2_AFF, C2_AFF))
        rd = ad.finite
        level = rng.randint(1, 3)
        lam = rd.weight([rng.randint(0, 2) for _ in rd.indices])
        m = rng.randint(-1, 1)
        g = demazure_character(ad, DemazureLabel(level, lam, m))
        assert check_w_invariance_per_grade(rd, g)
        assert g.coefficient(Weight(lam.h, m)) == 1
        assert min(g.grades()) == m
        for w in g.support():
            assert dominance_leq(rd, w, lam), (ad.label, level, lam.h, w.h)
        lam_grades = [gr for gr in g.grades()
                      if g.coefficient(Weight(lam.h, gr))]
        assert lam_grades == [m]


# ---- the per-process memo ----


def _outcome(call):
    """A call's result, or the type of the exception it raised."""
    try:
        return call()
    except Exception as e:
        return type(e)


def test_memo_hit_returns_the_same_object():
    demazure._character.cache_clear()
    g = demazure_character(C2_AFF, DemazureLabel(2, C2.weight([1, 1]), 1))
    again = demazure_character(C2_AFF, DemazureLabel(2, C2.weight([1, 1]), 1))
    assert again is g
    assert demazure._character.cache_info().hits == 1


def test_arithmetic_leaves_the_memo_entry_alone():
    lab = DemazureLabel(1, A2.weight([2, 1]))
    g = demazure_character(A2_AFF, lab)
    for f in (g - g, -g, g.scale(3), shift_grade(g, 2)):
        assert f is not g
    hit = demazure_character(A2_AFF, lab)
    demazure._character.cache_clear()
    assert hit == demazure_character(A2_AFF, lab)


def test_characters_are_immutable():
    g = demazure_character(A1_AFF, DemazureLabel(1, A1.weight([2])))
    f = forget_grading(g)
    for obj in (g, f):
        for name in ("datum", "_terms", "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert dict(g.terms()) == {((2,), 0): 1, ((0,), 0): 1,
                               ((-2,), 0): 1, ((0,), 1): 1}


def test_list_coordinates_share_the_tuple_entry():
    demazure._character.cache_clear()
    g = demazure_character(A2_AFF, DemazureLabel(1, Weight((1, 0), 0)))
    assert demazure_character(A2_AFF, DemazureLabel(1, Weight([1, 0]))) is g
    assert demazure._character.cache_info().currsize == 1


def test_float_labels_never_share_an_integer_entry():
    # A float level or grade raises whether or not the integer label is
    # memoised.
    cases = [(A1_AFF, DemazureLabel(level, A1.weight([2]), grade))
             for level, grade in ((1.0, 0), (2.0, 0), (1, 1.0))]
    for ad, lab in cases:
        demazure._character.cache_clear()
        fresh = _outcome(lambda: demazure_character(ad, lab))
        demazure_character(ad, lab._replace(level=int(lab.level),
                                            grade=int(lab.grade)))
        assert _outcome(lambda: demazure_character(ad, lab)) == fresh
        assert fresh is ValueError
    demazure._character.cache_clear()
    with pytest.raises(ValueError):
        demazure_character(A1_AFF, DemazureLabel(1, A1.weight([2]), 1.0))
    g = demazure_character(A1_AFF, DemazureLabel(1, A1.weight([2]), 1))
    assert all(type(gr) is int for gr in g.grades())


# A float coordinate, level, grade or weight grade: the dimension used to
# come back as the float 2.0, or grades at 0.5.
NON_INTEGRAL = [DemazureLabel(1, Weight((1.0,), 0)),
                DemazureLabel(1.0, Weight((1,), 0)),
                DemazureLabel(1, Weight((1,), 0), 0.5),
                DemazureLabel(1, Weight((1,), 0.5))]


@pytest.mark.parametrize("lab", NON_INTEGRAL,
                         ids=["weight", "level", "grade", "weight-grade"])
def test_non_integral_labels_are_refused(lab):
    demazure._character.cache_clear()
    demazure._dim.cache_clear()
    demazure._labels.cache_clear()
    whole = DemazureLabel(1, Weight((1,), 0))
    demazure_character(A1_AFF, whole)
    demazure_dim(A1_AFF, whole)
    for _ in range(2):
        with pytest.raises(ValueError):
            demazure_character(A1_AFF, lab)
        with pytest.raises(ValueError):
            demazure_dim(A1_AFF, lab)
    assert demazure._character.cache_info().currsize == 1
    assert demazure._dim.cache_info().currsize == 1
    assert demazure._labels.cache_info().currsize == 1


def test_bad_labels_raise_on_every_call():
    demazure._character.cache_clear()
    demazure._labels.cache_clear()
    for _ in range(3):
        with pytest.raises(errors.ZeroLevel):
            demazure_character(A1_AFF, DemazureLabel(0, A1.weight([1])))
        with pytest.raises(errors.NotDominant):
            demazure_character(A1_AFF, DemazureLabel(1, A1.weight([-1])))
        with pytest.raises(ValueError):
            demazure_character(A2_AFF, DemazureLabel(1, A1.weight([1])))
    assert demazure._character.cache_info().currsize == 0
    assert demazure._labels.cache_info().currsize == 0


def test_memo_stays_within_its_bound():
    """The dimensions keep ``MEMO_SIZE`` entries and the multiplicity maps
    beneath them four times that; beneath expansions, the dominant
    multiplicities of Weyl characters keep four times and their orbits
    eight times that.  Run past every bound: each A1 weight ``n`` adds one
    top and one orbit, that of ``n`` itself; past the tops' bound the
    orbits are asked for alone, which is cheaper."""
    size = demazure.MEMO_SIZE
    bounds = ((demazure._dim, size), (demazure._labels, 4 * size))
    for memo, _ in bounds:
        memo.cache_clear()
    for grade in range(4 * size + 8):
        demazure_dim(A1_AFF, DemazureLabel(1, A1.weight([grade % 3]), grade))
        for memo, bound in bounds:
            assert memo.cache_info().currsize == min(grade + 1, bound)
    tops, orbits = characters._dominant, characters._orbit
    for memo in (characters._weyl_character, tops, orbits):
        memo.cache_clear()
    for n in range(8 * size + 8):
        if n < 4 * size + 8:
            weyl_character_finite(A1, A1.weight([n]))
            assert tops.cache_info().currsize == min(n + 1, 4 * size)
        else:
            orbits(A1, (n, 0))
        assert orbits.cache_info().currsize == min(n + 1, 8 * size)
