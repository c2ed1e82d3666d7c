"""Tables, reflections, chamber reduction, and the short-root subsystem."""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul

import pytest

from demflag import (
    Character,
    DemazureLabel,
    DominantLWeight,
    LSPath,
    RootDatum,
    Weight,
    affinize,
    apply_word,
    build_finite_datum,
    datum_from_label,
    demazure_character,
    demazure_dim,
    errors,
    eta_lambda,
    generate_demazure_set,
    greedy_decompose,
    joseph_highest,
    level_flag,
    make_dominant,
    reflect_weight,
    root_op_f,
    short_subdatum,
    weyl_character_finite,
    weyl_dim_product_check,
)
from demflag.root_data import _integer_inverse, printable, shown

A1 = datum_from_label("A1")
A2 = datum_from_label("A2")
C2 = datum_from_label("C2")
G2 = datum_from_label("G2")

ALL_RANKS = {"A": (1, 8), "B": (2, 8), "C": (2, 8), "D": (4, 8),
             "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def all_datums():
    for series, (lo, hi) in ALL_RANKS.items():
        for n in range(lo, hi + 1):
            yield build_finite_datum(series, n)


def rho(rd):
    """The half sum of the positive roots: 1 on every coroot."""
    return Weight((1,) * rd.rank, 0)


def coroot(rd, beta):
    """Coefficients of ``h_beta`` on the ``h_i`` basis, for the root with
    simple-root coordinates ``beta``."""
    n = rd.rank
    q = sum(beta[i] * beta[j] * rd.symmetrizer[i] * rd.cartan[i][j]
            for i in range(n) for j in range(n))
    nums = [2 * rd.symmetrizer[j] * beta[j] for j in range(n)]
    if any(x % q for x in nums):
        raise ValueError("coroot coefficients must be integral")
    return tuple(x // q for x in nums)


# ---- finite tables ----


def test_cartan_matrices():
    # cartan[i][j] = alpha_j(h_i): long roots pair to -2/-3 on short coroots.
    assert A1.cartan == ((2,),)
    assert A2.cartan == ((2, -1), (-1, 2))
    assert C2.cartan == ((2, -2), (-1, 2))
    assert G2.cartan == ((2, -3), (-1, 2))
    b3 = datum_from_label("B3")
    assert b3.cartan == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    f4 = datum_from_label("F4")
    assert f4.cartan == ((2, -1, 0, 0), (-1, 2, -1, 0),
                         (0, -2, 2, -1), (0, 0, -1, 2))


def test_e_series_edges():
    # Chain 1-3-4-..-n with node 2 attached to node 4.
    for n in (6, 7, 8):
        rd = build_finite_datum("E", n)
        edges = {(i, j) for i in rd.indices for j in rd.indices
                 if i < j and rd.cartan[rd.pos(i)][rd.pos(j)] != 0}
        chain = {(1, 3)} | {(k, k + 1) for k in range(3, n)}
        assert edges == chain | {(2, 4)}


def test_positive_root_counts():
    expected = {"A1": 1, "A2": 3, "A3": 6, "B3": 9, "C2": 4, "C3": 9,
                "D4": 12, "E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6}
    for label, count in expected.items():
        assert len(datum_from_label(label).positive_roots) == count
    # Every type against the classical counts (Bourbaki, plates I-IX).
    counts = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
              "C": lambda n: n * n, "D": lambda n: n * (n - 1),
              "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
              "F": lambda n: 24, "G": lambda n: 6}
    for rd in all_datums():
        assert len(rd.positive_roots) == counts[rd.series](rd.rank), rd.label


def _reflection_closure(cartan):
    # Reference: every root, negative ones included, reflected at every
    # node until no new one appears; the positive ones by height, then by
    # coordinates.
    n = len(cartan)
    simple = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for i in range(n):
            pairing = sum(beta[j] * cartan[i][j] for j in range(n))
            cand = list(beta)
            cand[i] -= pairing
            cand = tuple(cand)
            if cand not in roots:
                roots.add(cand)
                frontier.append(cand)
    pos = [b for b in roots if all(x >= 0 for x in b)]
    return tuple(sorted(pos, key=lambda b: (sum(b), b)))


def test_positive_roots_match_the_reflection_closure():
    count = 0
    for rd in all_datums():
        assert rd.positive_roots == _reflection_closure(rd.cartan), rd.label
        count += 1
    assert count == 32


def test_symmetrizers():
    assert A2.symmetrizer == (1, 1)
    assert C2.symmetrizer == (1, 2)
    assert G2.symmetrizer == (1, 3)
    assert datum_from_label("B3").symmetrizer == (2, 2, 1)
    assert datum_from_label("C3").symmetrizer == (1, 1, 2)
    assert datum_from_label("F4").symmetrizer == (2, 2, 1, 1)


def _fraction_symmetrizer(cartan):
    # Reference: d_j = d_i c_ij / c_ji along the diagram, on Fractions.
    n = len(cartan)
    d = [Fraction(1)] + [None] * (n - 1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if j != i and cartan[i][j] and d[j] is None:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                todo.append(j)
    den = lcm(*(x.denominator for x in d))
    ints = [int(x * den) for x in d]
    return [x // gcd(*ints) for x in ints]


@cache
def _fraction_inverse(cartan):
    # Reference: Gauss-Jordan on Fractions, then the least common
    # denominator of the entries.
    n = len(cartan)
    aug = [[Fraction(x) for x in row] + [Fraction(i == k) for k in range(n)]
           for i, row in enumerate(cartan)]
    for c in range(n):
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for k in range(n):
            if k != c and aug[k][c]:
                f = aug[k][c]
                aug[k] = [a - f * b for a, b in zip(aug[k], aug[c])]
    inv = [row[n:] for row in aug]
    den = lcm(*(x.denominator for row in inv for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in inv), den


def test_integer_symmetrizer_and_inverse_match_fractions():
    # The symmetrizer is written down with the diagram, not solved for: the
    # reference solves for it on a connected diagram, and it must make
    # d_i c_ij = d_j c_ji hold for every pair.
    count = 0
    for rd in all_datums():
        d, c = rd.symmetrizer, rd.cartan
        assert list(d) == _fraction_symmetrizer(c)
        assert all(d[i] * c[i][j] == d[j] * c[j][i]
                   for i in range(rd.rank) for j in range(rd.rank))
        assert _integer_inverse(rd.cartan) == _fraction_inverse(rd.cartan)
        count += 1
    assert count == 32


def test_catalogue_is_pinned():
    # Every table of the 32 finite types, their affinizations and short
    # subsystems, hashed in series and rank order: a change to how the
    # data are built must leave each number as it was.
    rows = []
    for rd in all_datums():
        ad = affinize(rd)
        row = [rd.label, rd.cartan, rd.symmetrizer, rd.positive_roots,
               rd.theta_coords, rd.theta_h, rd.comarks, rd.w0_word,
               rd.short_nodes, rd.lacing, ad.cartan, ad.dual_marks,
               ad.flat_roots]
        if rd.short_nodes:
            se = short_subdatum(rd)
            row += [se.nodes, se.subdatum.label]
        rows.append(row)
    assert len(rows) == 32
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() \
        == "787ead71d74f14593d51be229e7466253ea4baed2c3ae3ad1ee5d6971f807284"


def test_weight_arithmetic_never_falls_back_to_tuples():
    w = A2.weight([1, -2], 3)
    assert 2 * w == A2.weight([2, -4], 6)
    assert w + w == A2.weight([2, -4], 6)
    with pytest.raises(TypeError):
        w * 2
    with pytest.raises(TypeError):
        (1,) + w
    with pytest.raises(TypeError):
        sum([w, w])


def test_data_are_immutable():
    ad = affinize(C2)
    with pytest.raises(AttributeError):
        C2.rank = 3
    with pytest.raises(AttributeError):
        ad.cartan = ()
    with pytest.raises(AttributeError):
        del C2.series
    assert C2.rank == 2 and ad.cartan[0][0] == 2


def test_one_datum_per_type():
    assert datum_from_label("C2") is datum_from_label("C2")
    assert build_finite_datum(series="C", rank=2) is C2
    assert affinize(C2) is affinize(datum_from_label("C2"))
    assert short_subdatum(C2) is short_subdatum(C2)
    assert short_subdatum(C2).subdatum is A1


def test_short_nodes_and_lacing():
    assert A2.short_nodes == () and A2.lacing == 1
    assert C2.short_nodes == (1,) and C2.lacing == 2
    assert G2.short_nodes == (1,) and G2.lacing == 3
    assert datum_from_label("B3").short_nodes == (3,)
    assert datum_from_label("C3").short_nodes == (1, 2)
    assert datum_from_label("F4").short_nodes == (3, 4)


def test_highest_root_tables():
    assert A2.theta_coords == (1, 1) and A2.theta_h == (1, 1)
    assert C2.theta_coords == (2, 1) and C2.theta_h == (2, 0)
    assert G2.theta_coords == (3, 2) and G2.theta_h == (0, 1)
    b3 = datum_from_label("B3")
    assert b3.theta_coords == (1, 2, 2) and b3.theta_h == (0, 1, 0)
    assert C2.comarks == (1, 1)
    assert G2.comarks == (1, 2)
    assert b3.comarks == (1, 2, 1)
    assert datum_from_label("F4").comarks == (2, 3, 2, 1)
    # On every type theta is the last positive root, theta_h has theta's
    # simple-root coordinates, read back through the inverse Cartan
    # matrix, and theta is dominant.
    for rd in all_datums():
        assert rd.theta_coords == rd.positive_roots[-1], rd.label
        assert rd.root_coordinates(rd.theta_h) == rd.theta_coords, rd.label
        assert min(rd.theta_h) >= 0, rd.label


def test_coxeter_numbers_all_types():
    """1 + mark sum and 1 + comark sum against the classical tables."""
    cox = {"A": lambda n: n + 1, "B": lambda n: 2 * n, "C": lambda n: 2 * n,
           "D": lambda n: 2 * n - 2,
           "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
           "F": lambda n: 12, "G": lambda n: 6}
    dual = {"A": lambda n: n + 1, "B": lambda n: 2 * n - 1,
            "C": lambda n: n + 1, "D": lambda n: 2 * n - 2,
            "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
            "F": lambda n: 9, "G": lambda n: 4}
    for rd in all_datums():
        assert 1 + sum(rd.theta_coords) == cox[rd.series](rd.rank), rd.label
        assert 1 + sum(rd.comarks) == dual[rd.series](rd.rank), rd.label


def test_longest_element_word():
    for rd in all_datums():
        assert len(rd.w0_word) == len(rd.positive_roots), rd.label
        assert apply_word(rd, rd.w0_word, rho(rd)) == -rho(rd), rd.label


def test_w0_is_an_involution():
    rng = random.Random(7)
    for rd in (A2, C2):
        for _ in range(20):
            mu = rd.weight([rng.randint(-4, 4) for _ in rd.indices])
            assert apply_word(rd, rd.w0_word * 2, mu) == mu


def test_coroot_of_theta_is_comarks():
    # ``coroot`` refuses coefficients that are not integers, so the comarks
    # are integral on every type.
    for rd in all_datums():
        assert coroot(rd, rd.theta_coords) == rd.comarks, rd.label


def test_coroot_of_simple_roots():
    for rd in (A2, C2, G2):
        for i in rd.indices:
            coords = tuple(1 if j == i else 0 for j in rd.indices)
            expect = tuple(1 if j == i else 0 for j in rd.indices)
            assert coroot(rd, coords) == expect


def test_pairing_with_theta_coroot():
    for rd, h in ((A2, (1, 1)), (C2, (2, 0)), (G2, (0, 1))):
        assert sum(c * v for c, v in zip(coroot(rd, rd.theta_coords), h)) == 2


def test_unknown_type_rejected():
    for bad in ("H3", "A0", "A9", "F5", "G3", "D3", "a2", "X1", ""):
        with pytest.raises(errors.UnknownType):
            datum_from_label(bad)


def test_unknown_series_rejected_by_the_builder():
    # datum_from_label's pattern never lets an unknown series through, so
    # the builder's own check is reached only directly.
    with pytest.raises(errors.UnknownType, match="^unknown series 'H'$"):
        build_finite_datum("H", 2)


def test_a_datum_takes_exactly_its_fields():
    with pytest.raises(TypeError, match="^RootDatum takes the fields series, "
                                        "rank, cartan, "):
        RootDatum(series="A")


def test_index_bounds():
    with pytest.raises(errors.IndexOutOfRange):
        A2.pos(0)
    with pytest.raises(errors.IndexOutOfRange):
        A2.pos(3)
    ad = affinize(A2)
    with pytest.raises(errors.IndexOutOfRange):
        ad.pos(-1)
    with pytest.raises(errors.IndexOutOfRange):
        ad.pos(3)


def test_weight_arity_checked():
    with pytest.raises(ValueError):
        A2.weight([1])
    with pytest.raises(ValueError):
        affinize(A1).weight([1])
    with pytest.raises(ValueError):
        A2.weight([1, 0]) + A1.weight([1])
    # A scalar is no sequence of coroot values, on either kind of datum.
    for datum in (A1, affinize(A1)):
        with pytest.raises(ValueError):
            datum.weight(1, 0)


def test_weight_refuses_non_integer_coordinates():
    # int() used to truncate these: A1.weight([2.9]) was 2 omega_1.
    for datum in (A1, affinize(A1)):
        n = len(datum.indices)
        for bad in (2.9, 1.0, Fraction(1, 2), Fraction(2), "2"):
            with pytest.raises(ValueError):
                datum.weight([bad] + [0] * (n - 1))
            with pytest.raises(ValueError):
                datum.weight([0] * n, bad)
    with pytest.raises(ValueError):
        affinize(A1).weight([0.9, 2.7], 1)
    assert A1.weight([True], 2) == Weight((1,), 2)


@pytest.mark.parametrize("rd", list(all_datums()), ids=lambda rd: rd.label)
def test_shared_datum_surface(rd):
    for datum in (rd, affinize(rd)):
        size = len(datum.indices)
        for i in datum.indices:
            p, alpha = datum.pos(i), datum.simple_root(i)
            assert datum.flat_roots[p] == alpha.h + (alpha.d,)
            # Cartan column p; only the affine alpha_0 carries delta.
            assert datum.flat_roots[p] \
                == tuple(row[p] for row in datum.cartan) + (int(i == 0),)
        rho = datum.weight([1] * size)
        for mu in (rho, *map(datum.fundamental_weight, datum.indices)):
            for i in datum.indices:
                assert reflect_weight(datum, i, mu) \
                    == mu - mu.h[datum.pos(i)] * datum.simple_root(i)
        # Nodes are integers in range: a float, even an integral one, a
        # string or None is no node.
        for bad in (datum.indices[0] - 1, datum.indices[-1] + 1,
                    1.5, 1.0, "1", None):
            for call in (datum.pos, datum.fundamental_weight,
                         datum.simple_root, lambda i: datum.value(rho, i),
                         lambda i: reflect_weight(datum, i, rho)):
                with pytest.raises(errors.IndexOutOfRange):
                    call(bad)
        for n in (size - 1, size + 1):
            with pytest.raises(ValueError):
                datum.weight([0] * n)
            for i in datum.indices:
                with pytest.raises(ValueError):
                    reflect_weight(datum, i, Weight((1,) * n))
        # The Weyl group acts on integral weights only: a float value or
        # grade is refused by ``datum.weight``, wherever the walk would go.
        for mu in (Weight((-1.5,) + (2,) * (size - 1)),
                   Weight((1,) * size, 0.5), Weight((1.0,) * size)):
            for call in (lambda: make_dominant(datum, mu),
                         lambda: apply_word(datum, datum.indices, mu),
                         *(lambda i=i: reflect_weight(datum, i, mu)
                           for i in datum.indices)):
                with pytest.raises(ValueError, match="not integral"):
                    call()


# ---- affinization ----


def test_affine_cartan_a1():
    ad = affinize(A1)
    assert ad.cartan == ((2, -2), (-2, 2))
    assert ad.label == "A1~"
    assert ad.dual_marks == (1, 1)


def test_affine_cartan_a2():
    ad = affinize(A2)
    assert ad.cartan[0] == (2, -1, -1)
    assert ad.cartan[1][0] == -1 and ad.cartan[2][0] == -1


def test_affine_cartan_tables():
    """On every type the affine Cartan matrix is a generalized Cartan
    matrix: 2 on the diagonal, no positive entry, and zeros in symmetric
    places.  Its finite block is the finite Cartan matrix, and
    ``alpha_0 = delta - theta``: ``alpha_0 + theta`` is ``delta`` in coroot
    values and grade."""
    for rd in all_datums():
        ad = affinize(rd)
        c = ad.cartan
        for i, j in itertools.product(range(rd.rank + 1), repeat=2):
            if i == j:
                assert c[i][j] == 2, rd.label
            else:
                assert c[i][j] <= 0 and (c[i][j] == 0) == (c[j][i] == 0), \
                    (rd.label, i, j)
        assert tuple(row[1:] for row in c[1:]) == rd.cartan, rd.label
        total = ad.simple_root(0)
        for i, t in zip(rd.indices, rd.theta_coords):
            total = total + t * ad.simple_root(i)
        assert total == ad.delta, rd.label


def test_simple_roots_have_level_zero():
    for rd in all_datums():
        ad = affinize(rd)
        for i in ad.indices:
            assert ad.level(ad.simple_root(i)) == 0
        assert ad.level(ad.delta) == 0
        assert ad.level(ad.fundamental_weight(0)) == 1


# ---- reflections and words ----


def test_reflection_examples():
    ad = affinize(A1)
    assert reflect_weight(ad, 1, ad.weight([2, -1])) == ad.weight([0, 1])
    lam0_delta = ad.weight([1, 0], 1)
    assert reflect_weight(ad, 0, lam0_delta) == ad.weight([-1, 2], 0)
    fixed = ad.weight([3, 0])
    assert reflect_weight(ad, 1, fixed) == fixed


def test_reflection_is_an_involution():
    rng = random.Random(11)
    ad = affinize(A2)
    for _ in range(30):
        mu = ad.weight([rng.randint(-3, 3) for _ in ad.indices],
                       rng.randint(-2, 2))
        i = rng.choice(ad.indices)
        assert reflect_weight(ad, i, reflect_weight(ad, i, mu)) == mu
        assert ad.level(reflect_weight(ad, i, mu)) == ad.level(mu)


def test_apply_word_examples():
    ad = affinize(A1)
    lam0_delta = ad.weight([1, 0], 1)
    assert apply_word(ad, (), lam0_delta) == lam0_delta
    # Last letter acts first: s_1(s_0(Lambda_0 + delta)).
    assert apply_word(ad, (1, 0), lam0_delta) == ad.weight([3, -2], 0)
    word = (0, 1, 0)
    assert apply_word(ad, word + tuple(reversed(word)), lam0_delta) \
        == lam0_delta


def test_make_dominant_examples():
    ad = affinize(A1)
    lam, word = make_dominant(ad, ad.weight([2, -1]))
    assert lam == ad.fundamental_weight(1) and word == (1,)
    # Letters come in application order, so apply_word recovers the input.
    mu = ad.weight([3, -2], 0)
    lam, word = make_dominant(ad, mu)
    assert lam == ad.weight([1, 0], 1)
    assert word == (1, 0)
    assert apply_word(ad, word, lam) == mu
    dom = ad.weight([2, 1], 0)
    assert make_dominant(ad, dom) == (dom, ())
    # A float weight is no weight: once it reached the chamber as
    # ``(1.5, 0.5)`` by the word ``(1,)``.
    for call in (lambda: make_dominant(A2, Weight((-1.5, 2.0))),
                 lambda: reflect_weight(A2, 1, Weight((1.5, 0), 0.5)),
                 lambda: apply_word(A2, (1, 2), Weight((0, 1.5)))):
        with pytest.raises(ValueError, match="not integral"):
            call()


def _random_level_weight(rng, ad, level):
    tail = [rng.randint(-4, 4) for _ in range(ad.rank)]
    h0 = level - sum(a * v for a, v in zip(ad.finite.comarks, tail))
    return ad.weight([h0] + tail, rng.randint(-2, 2))


def largest_node_walk(ad, mu):
    """Chamber walk reflecting at the largest node of negative value, the
    other end from ``make_dominant``'s, as ``(dominant, word)`` with the
    word in ``apply_word`` order."""
    word = []
    while negative := [i for i in ad.indices if ad.value(mu, i) < 0]:
        mu = reflect_weight(ad, negative[-1], mu)
        word.append(negative[-1])
    return mu, tuple(word)


def test_make_dominant_word_length_tie_break_independent():
    rng = random.Random(23)
    for rd in (A1, A2):
        ad = affinize(rd)
        for _ in range(50):
            mu = _random_level_weight(rng, ad, rng.randint(1, 3))
            lam_min, w_min = make_dominant(ad, mu)
            lam_max, w_max = largest_node_walk(ad, mu)
            assert lam_min == lam_max
            assert len(w_min) == len(w_max)
            assert apply_word(ad, w_min, lam_min) == mu
            assert apply_word(ad, w_max, lam_max) == mu


def test_make_dominant_word_is_reduced_witness():
    """Applying the word to a regular dominant weight never repeats."""
    rng = random.Random(5)
    ad = affinize(A2)
    reg = ad.weight([1] * (ad.rank + 1), 0)
    for _ in range(20):
        mu = _random_level_weight(rng, ad, rng.randint(1, 3))
        _, word = make_dominant(ad, mu)
        seen = {reg}
        cur = reg
        for i in reversed(word):
            cur = reflect_weight(ad, i, cur)
            assert cur not in seen
            seen.add(cur)


def test_make_dominant_refuses_a_weight_of_another_rank():
    for datum in (A2, affinize(A1)):
        for h in ((1,), (1, 0, 0, 0)):
            with pytest.raises(ValueError, match="coroot values"):
                make_dominant(datum, Weight(h, 0))


def test_make_dominant_rejects_nonpositive_level():
    ad = affinize(A1)
    with pytest.raises(errors.ZeroLevel):
        make_dominant(ad, ad.weight([1, -1]))
    with pytest.raises(errors.ZeroLevel):
        make_dominant(ad, ad.weight([-2, 1]))


# ---- dominance order ----


def dominance_leq(datum, mu, lam):
    """Oracle: True iff ``lam - mu`` is a nonnegative integer sum of simple
    roots, solved on the Cartan matrix by ``_fraction_inverse``.  On an
    affine datum only ``alpha_0`` carries ``delta``, so its coefficient is
    the grade of the difference; the other coefficients solve the rows of
    nodes ``1..n``, and the row of node ``0`` must then agree.  A finite
    datum ignores the grade."""
    diff = [a - b for a, b in zip(lam.h, mu.h)]
    cartan = datum.cartan
    if datum.indices[0] == 0:
        c0 = lam.d - mu.d
        rows = tuple(row[1:] for row in cartan[1:])
        rhs = [v - c0 * row[0] for v, row in zip(diff[1:], cartan[1:])]
    else:
        c0, rows, rhs = None, cartan, diff
    inv, den = _fraction_inverse(rows)
    coords = [sum(map(mul, row, rhs)) for row in inv]
    if any(x % den for x in coords):
        return False
    coords = [x // den for x in coords]
    if c0 is not None:
        coords.insert(0, c0)
        if sum(map(mul, cartan[0], coords)) != diff[0]:
            return False
    return all(x >= 0 for x in coords)


def test_dominance_examples():
    zero = A2.zero_weight
    assert dominance_leq(A2, zero, A2.weight([1, 1]))
    assert dominance_leq(A2, A2.weight([1, 1]), A2.weight([1, 1]))
    assert not dominance_leq(A2, A2.weight([1, 0]), A2.weight([0, 1]))
    assert not dominance_leq(A2, A2.weight([1, 1]), zero)


def test_dominance_affine():
    ad = affinize(A1)
    lam0 = ad.fundamental_weight(0)
    # delta = alpha_0 + alpha_1 here.
    assert dominance_leq(ad, lam0, lam0 + ad.delta)
    assert not dominance_leq(ad, lam0 + ad.delta, lam0)
    below = apply_word(ad, (0,), lam0 + ad.delta)
    assert dominance_leq(ad, below, lam0 + ad.delta)


def _combination(datum, coeffs):
    total = Weight((0,) * len(datum.indices))
    for c, i in zip(coeffs, datum.indices):
        total = total + c * datum.simple_root(i)
    return total


# The dominance oracle and ``root_coordinates`` against enumeration: every
# difference sum c_i alpha_i with |c_i| <= 2 is tested, and the answer must
# be membership in the set of such sums with all c_i >= 0, enumerated from
# the simple roots alone.  The
# offsets lie off the root lattice (A2 and B3 have weights outside it; an
# affine fundamental weight has nonzero level), so nothing is above zero.
@pytest.mark.parametrize("label, affine, offsets", [
    ("A2", False, [(1, 0), (0, 1)]),
    ("B3", False, [(0, 0, 1)]),
    ("G2", False, []),
    ("F4", False, []),
    ("A1", True, [(1, 0)]),
    ("C2", True, [(1, 0, 0)]),
])
def test_dominance_matches_enumeration(label, affine, offsets):
    rd = datum_from_label(label)
    datum = affinize(rd) if affine else rd
    box = list(itertools.product(range(-2, 3), repeat=len(datum.indices)))
    cone = {_combination(datum, c) for c in box if min(c) >= 0}
    rng = random.Random(label)
    bases = [Weight(tuple(rng.randint(-3, 3) for _ in datum.indices),
                    rng.randint(-2, 2) if affine else 0) for _ in range(2)]
    for coeffs in box:
        diff = _combination(datum, coeffs)
        if not affine:
            assert rd.root_coordinates(diff.h) == coeffs
        for mu in bases:
            assert dominance_leq(datum, mu, mu + diff) == (diff in cone), \
                (label, coeffs)
            for off in offsets:
                assert not dominance_leq(datum, mu, mu + diff + Weight(off))
                if not affine:
                    assert rd.root_coordinates((diff + Weight(off)).h) is None


def test_height_increases_along_dominance():
    rng = random.Random(5)
    for label in ("A2", "B3", "C3", "D4", "G2", "F4", "E6"):
        rd = datum_from_label(label)
        unit = rd.height(rd.simple_root(1).h)
        assert unit > 0
        assert all(rd.height(rd.simple_root(i).h) == unit for i in rd.indices)
        for _ in range(100):
            mu = rd.weight([rng.randint(-4, 4) for _ in rd.indices])
            coeffs = [rng.randint(0, 2) for _ in rd.indices]
            nu = mu + _combination(rd, coeffs)
            assert rd.height(nu.h) - rd.height(mu.h) == unit * sum(coeffs)
            other = rd.weight([rng.randint(-4, 4) for _ in rd.indices])
            if other != mu and dominance_leq(rd, mu, other):
                assert rd.height(mu.h) < rd.height(other.h), (label, mu)


# ---- short-root subsystem ----


def test_short_subdatum_tables():
    # On each of the 16 non-simply-laced types the short simple roots form
    # a type-A chain: the parent's Cartan matrix on them is the subdatum's.
    count = 0
    for rd in all_datums():
        if not rd.short_nodes:
            with pytest.raises(errors.SimplyLaced):
                short_subdatum(rd)
            continue
        se = short_subdatum(rd)
        k = len(se.nodes)
        assert se.nodes == rd.short_nodes and se.subdatum.label == f"A{k}"
        assert tuple(tuple(rd.cartan[rd.pos(a)][rd.pos(b)] for b in se.nodes)
                     for a in se.nodes) == se.subdatum.cartan, rd.label
        count += 1
    assert count == 16
    assert short_subdatum(C2).nodes == (1,)
    assert short_subdatum(G2).nodes == (1,)
    assert short_subdatum(datum_from_label("B3")).nodes == (3,)
    se = short_subdatum(datum_from_label("C3"))
    assert se.nodes == (1, 2) and se.subdatum.label == "A2"
    se = short_subdatum(datum_from_label("F4"))
    assert se.nodes == (3, 4) and se.subdatum.label == "A2"
    with pytest.raises(errors.SimplyLaced):
        short_subdatum(A2)


def test_short_restrict():
    se = short_subdatum(C2)
    assert se.restrict(C2.weight([2, 0])) == se.subdatum.weight([2])
    assert se.restrict(C2.weight([0, 1])) == se.subdatum.weight([0])


def test_eta_lambda_examples():
    se = short_subdatum(C2)
    lam = C2.weight([2, 0])
    assert eta_lambda(se, lam, se.restrict(lam)) == lam
    assert eta_lambda(se, lam, se.subdatum.zero_weight) == C2.weight([0, 1])
    long_only = C2.weight([0, 2])
    assert eta_lambda(se, long_only, se.subdatum.zero_weight) == long_only


def test_eta_lambda_dominant_and_compatible():
    se = short_subdatum(C2)
    sub = se.subdatum
    for lam_h in ((1, 0), (2, 0), (1, 1), (3, 1), (2, 2)):
        lam = C2.weight(lam_h)
        bar = se.restrict(lam)
        for k in range(bar.h[0] + 1):
            mu = sub.weight([k])
            if not dominance_leq(sub, mu, bar):
                continue
            out = eta_lambda(se, lam, mu)
            assert C2.is_dominant(out), (lam_h, k)
            assert se.restrict(out) == mu


def test_eta_lambda_not_below():
    se = short_subdatum(C2)
    with pytest.raises(errors.NotBelow):
        eta_lambda(se, C2.zero_weight, se.subdatum.weight([1]))
    with pytest.raises(errors.NotBelow):
        eta_lambda(se, C2.weight([1, 0]), se.subdatum.weight([3]))


# A number of 5,000 digits, past the 4,300 that CPython turns into a string.
BIG = 10 ** 5000
A1_AFF = affinize(A1)
# Each library refusal that shows a caller's number, with that number
# past the limit, and the error it documents.
HUGE_REFUSALS = {
    "dim-check product": (errors.TooLarge, lambda: weyl_dim_product_check(
        A1, A1.weight([BIG]))),
    "finite character": (errors.NotDominant, lambda: weyl_character_finite(
        A1, Weight((-BIG,), 0))),
    "ladder dimension": (errors.NotDominant, lambda: demazure_dim(
        affinize(C2), DemazureLabel(1, Weight((-BIG, 0), 0)))),
    "joseph weight": (errors.NotDominant, lambda: joseph_highest(
        A1_AFF, Weight((-BIG, 0), 0), Weight((1, 0), 0), [1])),
    "path-set letter": (errors.IndexOutOfRange, lambda: generate_demazure_set(
        A1_AFF, Weight((1, 0), 0), [BIG])),
    "node": (errors.IndexOutOfRange, lambda: A1.pos(BIG)),
    "level": (errors.ZeroLevel, lambda: demazure_dim(
        A1_AFF, DemazureLabel(-BIG, A1.weight([1])))),
    "affine level": (errors.ZeroLevel, lambda: make_dominant(
        A1_AFF, Weight((-BIG, 0), 0))),
    "rank": (errors.UnknownType, lambda: build_finite_datum("A", BIG)),
    "series": (errors.UnknownType, lambda: build_finite_datum(BIG, 1)),
    "weight": (ValueError, lambda: A2.weight([BIG, 0.5])),
    "label grade": (ValueError, lambda: demazure_character(
        A1_AFF, DemazureLabel(1, Weight((1,), BIG)))),
    "integral": (ValueError, lambda: level_flag(
        A1_AFF, [BIG], 2, A1.weight([1]))),
    "path length": (ValueError, lambda: root_op_f(
        A1_AFF, 1, LSPath(-BIG, ((1, (1, 0, 0)),)))),
    "summand label": (ValueError, lambda: DominantLWeight(
        ((A1.weight([1]), BIG),))),
    "flag piece": (errors.NegativeMultiplicity, lambda: greedy_decompose(
        A1_AFF, Character(A1, {((0,), 0): -BIG}), 1)),
}


@pytest.mark.parametrize("kind, call", HUGE_REFUSALS.values(),
                         ids=list(HUGE_REFUSALS))
def test_a_refusal_of_a_huge_number_raises_the_documented_error(kind, call):
    """The message names the number's size, in bits, where formatting the
    number itself would raise CPython's own ``ValueError``."""
    with pytest.raises(kind) as info:
        call()
    message = str(info.value)
    assert "set_int_max_str_digits" not in message
    assert " bits>" in message


def test_a_refusal_shows_a_printable_value_as_before():
    """``shown`` leaves a value that prints as it is, so its message keeps
    its bytes; a number past the limit shows as its sign and bit length."""
    value = (10 ** 4300 - 1, -2, "3", [1.5])
    assert shown(value) == value
    assert f"{shown(value)} {shown('3')!r}" == f"{value} {'3'!r}"
    assert repr(shown((-BIG, BIG))) == "(-<int of 16610 bits>, " \
                                        "<int of 16610 bits>)"
    assert printable(10 ** 4300 - 1) and not printable(-10 ** 4300)
