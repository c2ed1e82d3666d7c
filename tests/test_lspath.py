"""Path crystals: root operators, Demazure sets, concatenation, highest terms."""

import itertools
import random
from fractions import Fraction

import pytest

from demflag import (
    LSPath,
    Weight,
    affinize,
    concat_paths,
    crystal_character,
    datum_from_label,
    demazure_word_char,
    eps_phi,
    errors,
    f_edge_lines,
    generate_demazure_set,
    joseph_highest,
    lspath,
    reflect_weight,
    root_op_e,
    root_op_f,
    straight_path,
    tensor_highest_by_counts,
)

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
    pi = LSPath.make([(down, Fraction(1, 4)), (up, Fraction(3, 4))])
    with pytest.raises(errors.NonIntegralMin):
        eps_phi(A1_AFF, 1, pi)


def test_non_integral_endpoint_rejected():
    pi = LSPath.make([((1, 1, 0), Fraction(1, 2)), ((0, 0, 0), Fraction(1, 2))])
    with pytest.raises(ValueError):
        pi.weight()


# ---- canonical form ----


def test_canonical_form_merges_and_drops():
    v = tuple(Fraction(x) for x in (0, 1, 0))
    whole = LSPath.make([(v, Fraction(1))])
    split = LSPath.make([(v, Fraction(1, 2)), (v, Fraction(1, 2))])
    assert split == whole and len(split.segments) == 1

    # Positively proportional neighbours merge into their mean direction.
    scaled = LSPath.make([(v, Fraction(1, 2)),
                          (tuple(3 * x for x in v), Fraction(1, 2))])
    assert len(scaled.segments) == 1
    assert scaled.segments[0] == ((Fraction(0), Fraction(2), Fraction(0)),
                                  Fraction(1))
    assert (scaled.n, scaled.steps) == (1, ((1, (0, 2, 0)),))
    # A mean direction of 5/3 has no integral form.
    with pytest.raises(ValueError):
        LSPath.make([(v, Fraction(1, 3)),
                     (tuple(2 * x for x in v), Fraction(2, 3))])

    # Merging 1/3 and 2/3 of one direction leaves a common factor 3.
    thirds = LSPath.make([(v, Fraction(1, 3)), (v, Fraction(2, 3))])
    assert (thirds.n, thirds.steps) == (1, ((1, (0, 1, 0)),))
    assert thirds == whole

    still = tuple(Fraction(0) for _ in v)
    paused = LSPath.make([(v, Fraction(1, 2)), (still, Fraction(1, 2))])
    assert len(paused.segments) == 2

    dropped = LSPath.make([(v, Fraction(0)), (v, Fraction(1))])
    assert dropped == whole

    with pytest.raises(AssertionError):
        LSPath.make([(v, Fraction(1, 2))])
    # Durations 3/2 and -1/2 sum to one but trace no path.
    with pytest.raises(ValueError):
        LSPath.make([((0, 2, 0), Fraction(3, 2)),
                     ((0, -2, 0), Fraction(-1, 2))])


def test_split_segments_rebuild_the_same_path():
    lam = G2_AFF.fundamental_weight(2)
    ps = generate_demazure_set(G2_AFF, lam, (0, 2, 1, 2))
    assert any(pi.n > 1 for pi in ps)
    for pi in ps:
        assert LSPath.make(pi.segments) == pi
        pieces = [(v, t * part) for v, t in pi.segments
                  for part in (Fraction(1, 3), Fraction(0), Fraction(2, 3))]
        rebuilt = LSPath.make(pieces)
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


def test_repeated_sets_and_characters_are_the_same_objects():
    lspath._path_set.cache_clear()
    lam = A2_AFF.weight([0, 1, 1], 1)
    word = (2, 1, 0, 2, 1)
    ps = generate_demazure_set(A2_AFF, lam, list(word))
    again = generate_demazure_set(A2_AFF, Weight([0, 1, 1], 1), word)
    assert again is ps
    assert crystal_character(again) is crystal_character(ps)
    assert crystal_character(ps) == demazure_word_char(A2_AFF, word, lam)
    assert lspath._path_set.cache_info().hits == 1


def test_bad_letters_raise_after_the_good_word_is_kept():
    lam = A1_AFF.weight([1, 1])
    generate_demazure_set(A1_AFF, lam, [1, 0, 1])
    for word in ([1.0, 0, 1], [1, 0, 2], ["1", 0, 1]):
        with pytest.raises(errors.IndexOutOfRange):
            generate_demazure_set(A1_AFF, lam, word)


def test_non_dominant_weight_raises_on_every_call():
    lspath._path_set.cache_clear()
    for _ in range(3):
        with pytest.raises(errors.NotDominant):
            generate_demazure_set(A1_AFF, A1_AFF.weight([2, -1]), (1, 0))
    assert lspath._path_set.cache_info().currsize == 0


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
        LSPath.make([(half, Fraction(1))])
    # The junction merges (2, 0, 0) for 1/2 with (4, 0, 0) for 1/6 into
    # (5/2, 0, 0) for 2/3.
    first = LSPath.make([((1, 0, 0), Fraction(1))])
    second = LSPath.make([((2, 0, 0), Fraction(1, 3)),
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


def test_bool_coordinates_give_integer_steps():
    lspath._path_set.cache_clear()
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
    pi = LSPath.make([(v, Fraction(1))])
    for op in (root_op_f, root_op_e, eps_phi):
        for i in A1_AFF.indices:
            with pytest.raises(ValueError, match="3 entries"):
                op(A1_AFF, i, pi)
    fine = straight_path(A1_AFF, A1_AFF.weight([0, 1]))
    assert eps_phi(A1_AFF, 1, fine) == (0, 1)
    assert root_op_e(A1_AFF, 1, root_op_f(A1_AFF, 1, fine)) == fine
