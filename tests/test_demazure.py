"""Extremal-weight solving, module characters, and dimension laws."""

import random
from itertools import product

import pytest

from demflag import (
    DemazureLabel,
    DominantLWeight,
    Weight,
    affinize,
    apply_word,
    characters,
    check_w_invariance_per_grade,
    datum_from_label,
    demazure,
    demazure_character,
    demazure_dim,
    demazure_word_char,
    errors,
    flags,
    forget_grading,
    generate_demazure_set,
    graded_weyl_character,
    joseph_highest,
    level_flag,
    local_weyl_character,
    lspath,
    solve_extremal,
    weyl_character_finite,
)
from test_characters import shift_grade
from test_root_data import dominance_leq

A1 = datum_from_label("A1")
A2 = datum_from_label("A2")
C2 = datum_from_label("C2")
A1_AFF = affinize(A1)
A2_AFF = affinize(A2)
C2_AFF = affinize(C2)


# ---- extremal weights ----


def embed_classical(ad, lam, grade):
    """Oracle: the level-zero embedding of a classical weight at ``grade``,
    ``lam(h_0) = -lam(h_theta)`` with ``h_theta`` the comarks."""
    h0 = -sum(a * v for a, v in zip(ad.finite.comarks, lam.h))
    return Weight((h0, *lam.h), grade)


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
            target = embed_classical(ad, w0lam, grade)
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


def dim(ad, lab):
    """``demazure_dim``, checked against the mass of the graded character,
    which runs the graded ladder and shares no code with the product of
    the factorization."""
    out = demazure_dim(ad, lab)
    assert out == demazure_character(ad, lab).mass(), (ad.label, lab)
    return out


def test_dimension_examples():
    for m in range(5):
        assert dim(A1_AFF, DemazureLabel(1, A1.weight([m]))) == 2 ** m
    assert dim(A1_AFF, DemazureLabel(2, A1.weight([2]))) == 3
    for level in (1, 2, 3):
        assert dim(A2_AFF, DemazureLabel(level, A2.zero_weight)) == 1


def test_dimension_ignores_grade_offset():
    for ad, level, lam in ((A1_AFF, 1, A1.weight([5])),
                           (A2_AFF, 2, A2.weight([1, 0])),
                           (A2_AFF, 1, A2.weight([2, 1])),
                           (C2_AFF, 1, C2.weight([1, 2]))):
        dims = {dim(ad, DemazureLabel(level, lam, g)) for g in (-3, 0, 5)}
        assert len(dims) == 1, (ad.label, level, lam.h, dims)


# ---- the grade-free dimension ladder against the graded one ----


def test_rank_one_level_one_dimensions_to_forty():
    """``dim D(1, m omega_1) = 2^m`` on A1, the tensor power of the
    two-dimensional fundamental module."""
    for m in range(41):
        assert dim(A1_AFF, DemazureLabel(1, A1.weight([m]))) == 2 ** m, m


@pytest.mark.parametrize("label,extra", [("A2", (6, 6)), ("A3", (2, 2, 2)),
                                         ("D4", (1, 1, 1, 1))])
def test_level_one_dimensions_factor_into_fundamentals(label, extra):
    """In simply laced type ``D(1, lam)`` is the local Weyl module
    ``W(lam)``, whose dimension is the product over the fundamental weights
    of ``dim W(omega_i)^lam_i`` (the paper's factorization)."""
    rd = datum_from_label(label)
    ad = affinize(rd)
    fund = [dim(ad, DemazureLabel(1, rd.fundamental_weight(i)))
            for i in rd.indices]
    small = [h for h in product(range(5), repeat=rd.rank) if sum(h) <= 4]
    for h in small + [extra]:
        prod = 1
        for d, n in zip(fund, h):
            prod *= d ** n
        assert dim(ad, DemazureLabel(1, rd.weight(h))) == prod, h


@pytest.mark.parametrize("label,level,h", [
    ("A1", 1, (20,)), ("A2", 1, (6, 6)), ("A2", 2, (6, 6)), ("C2", 1, (2, 3)),
    ("G2", 2, (1, 1))])
def test_dimension_is_the_mass_of_the_graded_character(label, level, h):
    ad = affinize(datum_from_label(label))
    lab = DemazureLabel(level, ad.finite.weight(h))
    assert demazure_dim(ad, lab) == demazure_character(ad, lab).mass()


# Each coordinate of the exactness grid runs from 0 to its bound, at
# levels 1-3.  D5 and E6 take every label of coordinate sum at most 2 at
# level 1: products of two pieces, on D and on E.
GRID = {"A1": 9, "A2": 5, "A3": 3, "D4": 2}
SUM_TWO = ("D5", "E6")


@pytest.mark.parametrize("label", [*GRID, *SUM_TWO])
def test_factorized_dimensions_equal_the_ladder(label):
    """On simply-laced data ``demazure_dim`` multiplies the dimensions of
    ``D(l, l omega_i)`` and of one small ``D(l, lam0)``
    (Fourier-Littelmann 2007); on every label of the grid that product
    equals the grade-free ladder run on the whole label."""
    rd = datum_from_label(label)
    ad = affinize(rd)
    if label in GRID:
        cases = product((1, 2, 3),
                        product(range(GRID[label] + 1), repeat=rd.rank))
    else:
        cases = ((1, h) for h in product(range(3), repeat=rd.rank)
                 if sum(h) <= 2)
    for level, h in cases:
        lam = rd.weight(h)
        assert demazure_dim(ad, DemazureLabel(level, lam)) \
            == demazure._ladder_dim(ad, level, lam), (level, h)


def test_large_labels_run_only_small_ladders(monkeypatch, cold_memos):
    """A large simply-laced label runs the ladder only on labels whose
    coordinates are at most the level: A1 (1000) at level 1 is ``2^1000``
    with one ladder, on ``omega_1``, and D4 (6,6,6,6) at level 2 is the
    product of the cubes of its four pieces ``D(2, 2 omega_i)``."""
    D4 = datum_from_label("D4")
    D4_AFF = affinize(D4)
    pieces = [demazure._ladder_dim(D4_AFF, 2, 2 * D4.fundamental_weight(i))
              for i in D4.indices]
    ran = []
    ladder = demazure._ladder

    def recorded(ad, level, lam, grade, graded):
        ran.append((level, lam.h))
        return ladder(ad, level, lam, grade, graded)

    monkeypatch.setattr(demazure, "_ladder", recorded)
    assert demazure_dim(A1_AFF, DemazureLabel(1, A1.weight([1000]))) \
        == 2 ** 1000
    assert ran == [(1, (1,))]
    want = 1
    for piece in pieces:
        want *= piece ** 3
    assert demazure_dim(D4_AFF, DemazureLabel(2, D4.weight([6] * 4))) == want
    assert all(max(h) <= level for level, h in ran), ran


def test_a_dimension_past_the_bit_bound_is_refused():
    """A factorized dimension whose factors pass ``MAX_DIM_BITS`` bits, by
    the sum of ``m_i`` times each piece's bit length, is refused before it
    is multiplied out; the label is checked first, and no error is kept."""
    demazure._dim.cache_clear()
    bound = demazure.MAX_DIM_BITS
    # ``dim D(1, omega_1) = 2`` is two bits long.
    assert demazure_dim(A1_AFF, DemazureLabel(1, A1.weight([bound // 2]))) \
        == 2 ** (bound // 2)
    # The last has 4,300 digits, and its bit count more than CPython turns
    # into a string.
    for m in (bound // 2 + 1, 10 ** 20, 10 ** 4300 - 1):
        for _ in range(2):
            with pytest.raises(errors.TooLarge, match="bits"):
                demazure_dim(A1_AFF, DemazureLabel(1, A1.weight([m])))
    with pytest.raises(errors.NotDominant):
        demazure_dim(A2_AFF, DemazureLabel(1, A2.weight([10 ** 20, -1])))
    assert demazure._dim.cache_info().currsize == 1


def test_dimension_dual_weight():
    rng = random.Random(41)
    for ad in (A2_AFF, C2_AFF):
        rd = ad.finite
        for _ in range(8):
            level = rng.randint(1, 2)
            lam = rd.weight([rng.randint(0, 2) for _ in rd.indices])
            dual = -apply_word(rd, rd.w0_word, lam)
            assert rd.is_dominant(dual)
            assert dim(ad, DemazureLabel(level, lam)) \
                == dim(ad, DemazureLabel(level, dual))


def test_dimension_monotone_along_dominance():
    chains = [(A1_AFF, [A1.weight([0]), A1.weight([2]), A1.weight([4])]),
              (A2_AFF, [A2.zero_weight, A2.weight([1, 1]), A2.weight([2, 2])])]
    for ad, chain in chains:
        for low, high in zip(chain, chain[1:]):
            assert dominance_leq(ad.finite, low, high)
        for level in (1, 2):
            dims = [dim(ad, DemazureLabel(level, lam)) for lam in chain]
            assert dims == sorted(dims)


def _kr_dim(ad, a, m):
    """Dimension of ``D(m, m omega_a)``, one for ``m = 0``."""
    rd = ad.finite
    return dim(ad, DemazureLabel(m, m * rd.fundamental_weight(a))) if m else 1


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
def test_non_integral_labels_are_refused(lab, cold_memos):
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


@pytest.mark.parametrize("d", [5, -1, 0.0, 0.5])
def test_a_classical_weight_carries_no_grade(d, cold_memos):
    """A module's grade is its label's: a classical highest weight whose
    ``d`` is not the integer 0 is refused on every call by every entry
    point, and keeps no memo entry."""
    memos = (demazure._labels, demazure._character, demazure._dim,
             flags._graded_weyl, flags._level_flag, flags._local_weyl)
    for rd in (A2, C2):
        ad = affinize(rd)
        graded = Weight((1, 1), d)
        calls = [
            lambda: demazure_character(ad, DemazureLabel(1, graded)),
            lambda: demazure_dim(ad, DemazureLabel(1, graded)),
            lambda: solve_extremal(ad, DemazureLabel(1, graded)),
            lambda: graded_weyl_character(rd, graded),
            lambda: local_weyl_character(
                rd, DominantLWeight(((graded, "a"),)))]
        if not rd.short_nodes:
            calls.append(lambda: level_flag(ad, 1, 2, graded))
        for call in calls * 2:
            with pytest.raises(ValueError, match="grade"):
                call()
    assert all(memo.cache_info().currsize == 0 for memo in memos)
    # At ``d = 0`` the flag pieces sit at ``d = 0`` too, through the
    # short-root lift on C2.
    _, fd = graded_weyl_character(C2, Weight((1, 1), 0))
    assert all(w.d == 0 for w, _, _ in fd.pieces)


def test_bad_labels_raise_on_every_call(cold_memos):
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
    beneath the characters four times that; beneath expansions, the
    dominant multiplicities of Weyl characters keep four times and their
    orbits eight times that.  Path crystals keep ``MEMO_SIZE`` tables and
    the path sets grown in them, the highest terms read from those sets
    and the word ladders compared with them a sixth of that.  Run past
    every bound: each A1 weight ``n`` adds one top and one orbit, that of
    ``n`` itself; past the tops' bound the orbits are asked for alone,
    which is cheaper.  A dimension runs the grade-free ladder, so it
    leaves the multiplicity maps alone."""
    size = demazure.MEMO_SIZE
    dims, maps = demazure._dim, demazure._labels
    for memo in (dims, maps):
        memo.cache_clear()
    for grade in range(4 * size + 8):
        lab = DemazureLabel(1, A1.weight([grade % 3]), grade)
        demazure_dim(A1_AFF, lab)
        assert dims.cache_info().currsize == min(grade + 1, size)
        assert maps.cache_info().currsize == min(grade, 4 * size)
        demazure_character(A1_AFF, lab)
        assert maps.cache_info().currsize == min(grade + 1, 4 * size)
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
    crystals, sets = lspath._crystal, lspath._path_set
    terms, ladders = lspath._joseph, characters._word_char
    for memo in (crystals, sets, terms, ladders):
        memo.cache_clear()
    for n in range(size + 8):
        lam = A1_AFF.weight([n, 1])
        generate_demazure_set(A1_AFF, lam, (0, 1))
        joseph_highest(A1_AFF, A1_AFF.fundamental_weight(0), lam, (0, 1))
        demazure_word_char(A1_AFF, (0, 1), lam)
        assert crystals.cache_info().currsize == min(n + 1, size)
        assert sets.cache_info().currsize == min(n + 1, size // 6)
        assert terms.cache_info().currsize == min(n + 1, size // 6)
        assert ladders.cache_info().currsize == min(n + 1, size // 6)
