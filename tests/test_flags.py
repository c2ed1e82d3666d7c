"""Greedy flag decomposition, graded Weyl characters, and product laws."""

import copy
import itertools
import random

import pytest

from demflag import (
    Character,
    DemazureLabel,
    DominantLWeight,
    Weight,
    affinize,
    check_w_invariance_per_grade,
    datum_from_label,
    demazure,
    demazure_character,
    errors,
    flags,
    forget_grading,
    graded_weyl_character,
    greedy_decompose,
    level_flag,
    local_weyl_character,
    weyl_character_finite,
    weyl_dim_product_check,
)
from demflag.demazure import MEMO_SIZE
from test_characters import shift_grade

A1 = datum_from_label("A1")
A2 = datum_from_label("A2")
C2 = datum_from_label("C2")
G2 = datum_from_label("G2")
A1_AFF = affinize(A1)
A2_AFF = affinize(A2)


def multiset(fd):
    """Oracle: a flag's pieces as ``(h, grade)`` pairs, one per unit of
    multiplicity, sorted, so that tie orders can be compared."""
    return sorted((w.h, g) for w, g, c in fd.pieces for _ in range(c))


def reassemble(ad, fd):
    total = Character.zero(ad.finite)
    for lam, grade, mult in fd.pieces:
        piece = demazure_character(ad, DemazureLabel(fd.level, lam, 0))
        total = total + shift_grade(piece, grade).scale(mult)
    return total


# ---- greedy decomposition ----


def test_greedy_self_decomposition():
    g = demazure_character(A1_AFF, DemazureLabel(2, A1.weight([2])))
    fd = greedy_decompose(A1_AFF, g, 2)
    assert fd.pieces == ((A1.weight([2]), 0, 1),)


def test_greedy_splits_level_one_into_level_two():
    g = demazure_character(A1_AFF, DemazureLabel(1, A1.weight([2])))
    fd = greedy_decompose(A1_AFF, g, 2)
    assert fd.pieces == ((A1.weight([2]), 0, 1), (A1.zero_weight, 1, 1))
    assert reassemble(A1_AFF, fd) == g


def test_greedy_on_zero_character():
    fd = greedy_decompose(A1_AFF, Character.zero(A1), 2)
    assert fd.pieces == ()
    for level in (0, -5):
        with pytest.raises(errors.ZeroLevel):
            greedy_decompose(A1_AFF, Character.zero(A1), level)


def test_greedy_rejects_noninvariant_input():
    bad = Character(A1, {((1,), 0): 1})
    with pytest.raises(errors.NonDominantLeading):
        greedy_decompose(A1_AFF, bad, 2)


def test_greedy_rejects_a_stray_term_at_another_grade():
    # Invariant at grade 0; straightening alone would read the stray e^1 at
    # grade 1 as V(1) there.
    g = weyl_character_finite(A1, A1.weight([2])) \
        + Character(A1, {((1,), 1): 1})
    for level in (1, 2):
        with pytest.raises(errors.NonDominantLeading):
            greedy_decompose(A1_AFF, g, level)


def test_greedy_refuses_a_character_of_another_datum():
    with pytest.raises(ValueError):
        greedy_decompose(A2_AFF, Character.zero(C2), 2)


def test_greedy_rejects_negative_leading_coefficient():
    bad = Character(A1, {((0,), 0): -1})
    with pytest.raises(errors.NegativeMultiplicity):
        greedy_decompose(A1_AFF, bad, 2)


# ---- piece order ----
#
# The rendered flag lists pieces in peeling order, and the cache stores
# rendered bytes, so the order itself is pinned here, not just the multiset.


def _ordered(fd):
    return [(w.h, g, c) for w, g, c in fd.pieces]


def test_level_flag_piece_order_is_pinned():
    A3 = datum_from_label("A3")
    assert _ordered(level_flag(A2_AFF, 1, 2, A2.weight([4, 4]))) == [
        ((4, 4), 0, 1), ((5, 2), 2, 1), ((5, 2), 3, 1), ((6, 0), 4, 1),
        ((2, 5), 2, 1), ((2, 5), 3, 1), ((3, 3), 5, 1), ((3, 3), 6, 2),
        ((3, 3), 7, 1), ((4, 1), 7, 1), ((4, 1), 8, 1), ((4, 1), 9, 1),
        ((0, 6), 4, 1), ((1, 4), 7, 1), ((1, 4), 8, 1), ((1, 4), 9, 1),
        ((2, 2), 8, 1), ((2, 2), 9, 2), ((2, 2), 10, 3), ((2, 2), 11, 2),
        ((2, 2), 12, 1), ((3, 0), 11, 1), ((3, 0), 12, 1), ((3, 0), 13, 1),
        ((0, 3), 11, 1), ((0, 3), 12, 1), ((0, 3), 13, 1), ((1, 1), 15, 1),
        ((0, 0), 16, 1)]
    assert _ordered(level_flag(affinize(A3), 1, 2, A3.weight([2, 1, 2]))) \
        == [((2, 1, 2), 0, 1), ((2, 2, 0), 1, 1), ((3, 0, 1), 2, 1),
            ((0, 2, 2), 1, 1), ((1, 0, 3), 2, 1), ((0, 3, 0), 2, 1),
            ((1, 1, 1), 4, 1), ((2, 0, 0), 4, 1), ((2, 0, 0), 5, 1),
            ((0, 0, 2), 4, 1), ((0, 0, 2), 5, 1), ((0, 1, 0), 6, 1)]


def test_weyl_flag_piece_order_is_pinned():
    C3 = datum_from_label("C3")
    table = [(C2, (1, 1), [((1, 1), 0, 1)]),
             (G2, (1, 1), [((1, 1), 0, 1)]),
             (G2, (2, 2), [((2, 2), 0, 1), ((0, 3), 1, 1)]),
             (C3, (1, 1, 1), [((1, 1, 1), 0, 1), ((0, 0, 2), 1, 1)])]
    for rd, h, pieces in table:
        assert _ordered(graded_weyl_character(rd, rd.weight(h))[1]) \
            == pieces, (rd.label, h)


# ---- level-raising flags ----


def test_level_flag_examples():
    fd = level_flag(A1_AFF, 1, 2, A1.weight([2]))
    assert fd.level == 2
    assert fd.pieces == ((A1.weight([2]), 0, 1), (A1.zero_weight, 1, 1))
    assert level_flag(A1_AFF, 1, 2, A1.weight([1])).pieces \
        == ((A1.weight([1]), 0, 1),)
    assert level_flag(A1_AFF, 1, 2, A1.zero_weight).pieces \
        == ((A1.zero_weight, 0, 1),)


def test_level_flag_reconstruction_and_positivity():
    for lam_h, level, to_level in (((3,), 1, 2), ((2,), 1, 3), ((4,), 2, 3)):
        lam = A1.weight(lam_h)
        fd = level_flag(A1_AFF, level, to_level, lam)
        assert all(c > 0 for _, _, c in fd.pieces)
        assert all(g >= 0 for _, g, _ in fd.pieces)
        assert reassemble(A1_AFF, fd) \
            == demazure_character(A1_AFF, DemazureLabel(level, lam))


def test_level_flag_guards():
    with pytest.raises(errors.NotSimplyLaced):
        level_flag(affinize(C2), 1, 2, C2.weight([1, 0]))
    with pytest.raises(ValueError):
        level_flag(A1_AFF, 2, 2, A1.weight([1]))
    with pytest.raises(ValueError):
        level_flag(A1_AFF, 2, 1, A1.weight([1]))


# ---- graded Weyl characters ----


def test_weyl_character_simply_laced():
    """One-piece flag, W(lambda) = D(1, lambda): Fourier-Littelmann, Adv.
    Math. 211 (2007)."""
    g, fd = graded_weyl_character(A1, A1.weight([2]))
    assert dict(g.terms()) == {((2,), 0): 1, ((0,), 0): 1,
                               ((-2,), 0): 1, ((0,), 1): 1}
    assert fd.pieces == ((A1.weight([2]), 0, 1),)

    g, fd = graded_weyl_character(A2, A2.zero_weight)
    assert g.terms() == [(((0, 0), 0), 1)]
    assert fd.pieces == ((A2.zero_weight, 0, 1),)


def test_weyl_character_rejects_nondominant():
    with pytest.raises(errors.NotDominant):
        graded_weyl_character(C2, C2.weight([-1, 0]))


def test_weyl_character_short_lift_c2():
    """Flag lifted from the short-root subsystem: Naoi, Adv. Math. 229
    (2012)."""
    lam = C2.weight([2, 0])
    g, fd = graded_weyl_character(C2, lam)
    assert fd.pieces == ((C2.weight([2, 0]), 0, 1), (C2.weight([0, 1]), 1, 1))
    assert g.mass() == 16
    assert g.coefficient(lam) == 1
    assert check_w_invariance_per_grade(C2, g)
    assert reassemble(affinize(C2), fd) == g


def test_weyl_character_short_lift_g2():
    """Short-root lift as for C2 (Naoi 2012)."""
    lam = G2.weight([2, 0])
    g, fd = graded_weyl_character(G2, lam)
    assert fd.pieces == ((G2.weight([2, 0]), 0, 1), (G2.weight([0, 1]), 1, 1))
    assert g.mass() == 49
    assert g.coefficient(lam) == 1
    assert check_w_invariance_per_grade(G2, g)


def _gaussian_binomial(m, k):
    """Coefficients of [m, k]_q, lowest degree first; [] outside 0..m."""
    if k < 0 or k > m:
        return []
    if k in (0, m):
        return [1]
    # q-Pascal rule: [m, k] = [m-1, k-1] + q^k [m-1, k].
    low, high = _gaussian_binomial(m - 1, k - 1), _gaussian_binomial(m - 1, k)
    out = [0] * max(len(low), k + len(high))
    for j, c in enumerate(low):
        out[j] += c
    for j, c in enumerate(high):
        out[k + j] += c
    return out


def test_sl2_graded_weyl_characters_match_the_closed_form():
    """Grade j of W(m) holds V(m - 2k) with multiplicity the q^j
    coefficient of [m, k]_q - [m, k-1]_q: Chari-Loktev, Adv. Math. 207
    (2006), for sl_2 also Chari-Pressley, Represent. Theory 5 (2001)."""
    for m in range(13):
        g, _ = graded_weyl_character(A1, A1.weight([m]))
        weights = {}
        for ((n,), j), c in g.terms():
            weights[n, j] = c
        # An sl_2 character holds V(n) as often as e^n exceeds e^(n+2).
        got = {(n, j): c - weights.get((n + 2, j), 0)
               for (n, j), c in weights.items() if n >= 0}
        expected = {}
        for k in range(m // 2 + 1):
            top, below = _gaussian_binomial(m, k), _gaussian_binomial(m, k - 1)
            below += [0] * (len(top) - len(below))
            for j, (a, b) in enumerate(zip(top, below)):
                expected[m - 2 * k, j] = a - b
        assert {key: c for key, c in got.items() if c} \
            == {key: c for key, c in expected.items() if c}, m


def test_weyl_character_long_weights_single_piece():
    g, fd = graded_weyl_character(C2, C2.weight([0, 2]))
    assert fd.pieces == ((C2.weight([0, 2]), 0, 1),)
    assert g.mass() == 25
    g, fd = graded_weyl_character(G2, G2.weight([0, 1]))
    assert fd.pieces == ((G2.weight([0, 1]), 0, 1),)
    assert g.mass() == 15


def test_weyl_module_masses():
    table = [(C2, (1, 0), 4), (C2, (0, 1), 5), (C2, (1, 1), 20),
             (G2, (1, 0), 7), (G2, (1, 1), 105)]
    for rd, h, mass in table:
        assert graded_weyl_character(rd, rd.weight(h))[0].mass() == mass


def test_dim_product_check():
    assert weyl_dim_product_check(A1, A1.zero_weight) == (True, (1, 1))
    assert weyl_dim_product_check(A1, A1.weight([3])) == (True, (8, 8))
    assert weyl_dim_product_check(A2, A2.weight([1, 1])) == (True, (9, 9))
    assert weyl_dim_product_check(C2, C2.weight([1, 1])) == (True, (20, 20))
    assert weyl_dim_product_check(G2, G2.weight([2, 0])) == (True, (49, 49))


# ---- labelled tensor factors ----


def test_local_weyl_single_factor():
    f = local_weyl_character(A1, DominantLWeight(((A1.weight([2]), "a"),)))
    assert f == (Character.monomial(A1, A1.weight([2]))
                 + Character.monomial(A1, A1.zero_weight, 2)
                 + Character.monomial(A1, A1.weight([-2])))


def test_local_weyl_two_factors():
    om = A1.weight([1])
    f = local_weyl_character(
        A1, DominantLWeight(((om, "a"), (om, "b"))))
    single = forget_grading(graded_weyl_character(A1, om)[0])
    assert f == single * single
    assert f.coefficient(A1.weight([2])) == 1
    assert f.coefficient(A1.zero_weight) == 2


def test_local_weyl_computes_each_factor_weight_once(monkeypatch):
    calls = []

    def counted(rd, lam):
        calls.append(lam)
        return graded_weyl_character(rd, lam)

    monkeypatch.setattr(flags, "graded_weyl_character", counted)
    om = A1.weight([1])
    f = local_weyl_character(
        A1, DominantLWeight(((om, "a"), (om, "b"), (om, "c"))))
    assert calls == [om]
    assert [(h, c) for (h, _), c in f.terms()] \
        == [((-3,), 1), ((-1,), 3), ((1,), 3), ((3,), 1)]


def test_local_weyl_empty_product():
    f = local_weyl_character(A1, DominantLWeight(()))
    assert f == Character.monomial(A1, A1.zero_weight)


def test_local_weyl_mass_multiplies():
    rng = random.Random(71)
    for rd in (A1, C2):
        for _ in range(4):
            k = rng.randint(2, 3)
            factors = tuple(
                (rd.weight([rng.randint(0, 1) for _ in rd.indices]),
                 f"p{j}") for j in range(k))
            f = local_weyl_character(rd, DominantLWeight(factors))
            prod = 1
            for w, _ in factors:
                prod *= graded_weyl_character(rd, w)[0].mass()
            assert f.mass() == prod
            total = rd.zero_weight
            for w, _ in factors:
                total = total + w
            assert f.coefficient(total) == 1


def test_labels_must_be_distinct():
    om = A1.weight([1])
    with pytest.raises(ValueError):
        DominantLWeight(((om, "a"), (om, "a")))


def test_dominant_lweight_total():
    varpi = DominantLWeight(((C2.weight([1, 0]), "a"),
                             (C2.weight([0, 1]), "b")))
    assert varpi.weight(C2) == C2.weight([1, 1])


# ---- the per-process memo ----


def test_weyl_memo_hit_returns_the_same_pair():
    flags._graded_weyl.cache_clear()
    pair = graded_weyl_character(G2, G2.weight([1, 1]))
    assert graded_weyl_character(G2, G2.weight([1, 1])) is pair
    assert flags._graded_weyl.cache_info().hits == 1


def test_arithmetic_leaves_the_weyl_memo_entry_alone():
    g, fd = graded_weyl_character(C2, C2.weight([2, 0]))
    for f in (g - g, -g, g.scale(2), shift_grade(g, 1)):
        assert f is not g
    with pytest.raises(AttributeError):
        g.datum = A1
    with pytest.raises(AttributeError):
        fd.pieces = ()
    hit = graded_weyl_character(C2, C2.weight([2, 0]))
    flags._graded_weyl.cache_clear()
    assert hit == graded_weyl_character(C2, C2.weight([2, 0]))


def test_weyl_list_coordinates_share_the_tuple_entry():
    flags._graded_weyl.cache_clear()
    pair = graded_weyl_character(A2, Weight((1, 0), 0))
    assert graded_weyl_character(A2, Weight([1, 0])) is pair
    assert pair[1].pieces == ((A2.weight([1, 0]), 0, 1),)


def test_nondominant_weyl_weight_raises_on_every_call():
    # A short weight must fail the length check before the short-root lift
    # or the sum of the lifted pieces reads it.
    short = [(A2, (1,)), (datum_from_label("B3"), (1,)),
             (datum_from_label("F4"), (1, 0)), (C2, (1,)), (G2, (1,))]
    flags._graded_weyl.cache_clear()
    for _ in range(3):
        with pytest.raises(errors.NotDominant):
            graded_weyl_character(C2, C2.weight([-1, 0]))
        for rd, h in short:
            with pytest.raises(ValueError,
                               match=f"expected {rd.rank} coroot values"):
                graded_weyl_character(rd, Weight(h, 0))
    assert flags._graded_weyl.cache_info().currsize == 0


def _small_weights():
    """Distinct (datum, dominant weight) pairs, each cheap to compute."""
    for series, ranks in (("A", range(1, 9)), ("B", range(2, 9)),
                          ("C", range(2, 9)), ("D", range(4, 9))):
        for n in ranks:
            rd = datum_from_label(f"{series}{n}")
            yield rd, rd.zero_weight
    for rd in (A1, A2, C2, G2, datum_from_label("A3")):
        for h in itertools.product(range(3), repeat=len(rd.indices)):
            if any(h):
                yield rd, rd.weight(h)


def test_weyl_memo_stays_within_its_bound():
    flags._graded_weyl.cache_clear()
    pairs = list(_small_weights())
    assert len(pairs) > MEMO_SIZE
    for k, (rd, lam) in enumerate(pairs):
        graded_weyl_character(rd, lam)
        assert flags._graded_weyl.cache_info().currsize \
            == min(k + 1, MEMO_SIZE)


def test_peeling_leaves_the_held_label_maps_alone(monkeypatch):
    """Every ``demazure._labels`` entry that ``level_flag`` and
    ``graded_weyl_character`` read still equals a fresh computation."""
    memo, held = demazure._labels, {}

    def record(*args):
        held[args] = out = memo(*args)
        return out

    monkeypatch.setattr(demazure, "_labels", record)
    monkeypatch.setattr(flags, "_labels", record)
    memo.cache_clear()
    flags._graded_weyl.cache_clear()
    level_flag(A2_AFF, 1, 2, A2.weight([2, 2]))
    level_flag(A1_AFF, 1, 3, A1.weight([4]))
    for rd, h in ((A2, (1, 1)), (C2, (2, 0)), (G2, (2, 2))):
        graded_weyl_character(rd, rd.weight(h))
    assert memo.cache_info().currsize == len(held) > 10
    memo.cache_clear()
    for args, out in held.items():
        assert out == memo(*args), args


def test_peeling_keeps_every_held_label_map_intact(monkeypatch):
    """The ``demazure._labels`` entries behind a level flag, a graded Weyl
    character and a greedy peel equal a deep snapshot after each call runs
    twice, and hold no zero and no empty row: the peel deletes in place on
    its own copy."""
    memo, held = demazure._labels, set()

    def record(*args):
        held.add(args)
        return memo(*args)

    g = demazure_character(A2_AFF, DemazureLabel(1, A2.weight([2, 1])))
    calls = (lambda: level_flag(A1_AFF, 1, 2, A1.weight([12])),
             lambda: graded_weyl_character(G2, G2.weight([2, 2])),
             lambda: greedy_decompose(A2_AFF, g, 2))
    monkeypatch.setattr(demazure, "_labels", record)
    monkeypatch.setattr(flags, "_labels", record)
    flags._graded_weyl.cache_clear()
    for call in calls:
        call()
    monkeypatch.undo()
    memo.cache_clear()
    flags._graded_weyl.cache_clear()
    snapshot = {args: copy.deepcopy(memo(*args)) for args in held}
    for call in calls:
        call()
        call()
    assert memo.cache_info().currsize == len(snapshot) > 10
    for args, labels in snapshot.items():
        assert memo(*args) == labels, args
        assert all(row and all(row.values()) for row in labels.values())
