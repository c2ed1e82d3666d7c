"""Acceptance suite: eight end-to-end checks, one PASS/FAIL line each."""

import random
import time

from demflag import (
    DemazureLabel,
    DominantLWeight,
    Weight,
    affinize,
    apply_word,
    check_w_invariance_per_grade,
    crystal_character,
    datum_from_label,
    demazure_character,
    demazure_dim,
    demazure_step,
    demazure_word_char,
    generate_demazure_set,
    graded_weyl_character,
    joseph_highest,
    level_flag,
    local_weyl_character,
    make_dominant,
    solve_extremal,
    weyl_dim_product_check,
)
from demflag.characters import Character
from test_root_data import dominance_leq

A1 = datum_from_label("A1")
A2 = datum_from_label("A2")
C2 = datum_from_label("C2")
G2 = datum_from_label("G2")
A1_AFF = affinize(A1)
A2_AFF = affinize(A2)
C2_AFF = affinize(C2)


def _run(tag, desc, budget, body):
    start = time.monotonic()
    try:
        body()
        elapsed = time.monotonic() - start
        assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
    except BaseException:
        print(f"{tag}: FAIL - {desc}")
        raise
    print(f"{tag}: PASS - {desc}")


# ---- A1: rank-one dimension law and hand-expanded characters ----


def test_a1_rank_one_dimensions():
    def body():
        for m in range(9):
            lab = DemazureLabel(1, A1.weight([m]))
            assert demazure_dim(A1_AFF, lab) == 2 ** m
        by_m = {
            0: {((0,), 0): 1},
            1: {((1,), 0): 1, ((-1,), 0): 1},
            2: {((2,), 0): 1, ((0,), 0): 1, ((-2,), 0): 1, ((0,), 1): 1},
        }
        for m, expected in by_m.items():
            g = demazure_character(A1_AFF, DemazureLabel(1, A1.weight([m])))
            assert dict(g.terms()) == expected, m

    _run("A1", "rank-one level-one dimensions 2^m and small characters",
         1.0, body)


# ---- A2: simply-laced Weyl modules are single Demazure modules ----


def test_a2_simply_laced_triviality():
    """In simply-laced type W(lambda) is D(1, lambda): Fourier-Littelmann,
    Adv. Math. 211 (2007)."""

    def body():
        for a in range(5):
            for b in range(5 - a):
                lam = A2.weight([a, b])
                g, fd = graded_weyl_character(A2, lam)
                assert fd.pieces == ((lam, 0, 1),)
                ok, (mass, product) = weyl_dim_product_check(A2, lam)
                assert ok, (lam, mass, product)

    _run("A2", "simply-laced Weyl modules have a one-step flag and "
         "multiplicative dimension", 10.0, body)


# ---- A3: non-simply-laced flags exist and are well-formed ----


def test_a3_short_root_flags():
    """Level-one flags lifted from the short-root subsystem: Naoi, Adv.
    Math. 229 (2012)."""

    def body():
        cases = [(C2, h) for h in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]
        cases += [(G2, (1, 0)), (G2, (2, 0))]
        for rd, h in cases:
            lam = rd.weight(h)
            g, fd = graded_weyl_character(rd, lam)
            assert all(c > 0 for _, _, c in fd.pieces), (rd.label, h)
            assert check_w_invariance_per_grade(rd, g)
            assert g.coefficient(lam) == 1
        ok, (mass, product) = weyl_dim_product_check(C2, C2.weight([1, 1]))
        assert ok and mass == product == 20

    _run("A3", "short-root flags for C2 and G2 with positive "
         "multiplicities", 60.0, body)


# ---- A4: path crystals agree with operator ladders ----


def _alternating_words(maxlen):
    words = [()]
    for start in (0, 1):
        w = []
        for k in range(maxlen):
            w.append((start + k) % 2)
            words.append(tuple(w))
    return words


def test_a4_crystal_matches_ladders():
    def body():
        dominants = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        for lam_h in dominants:
            lam = A1_AFF.weight(lam_h, 0)
            words = {()}
            if A1_AFF.level(lam) > 0:
                for word in _alternating_words(6):
                    back, produced = make_dominant(
                        A1_AFF, apply_word(A1_AFF, word, lam))
                    assert back == lam
                    words.add(produced)
            for word in sorted(words):
                ps = generate_demazure_set(A1_AFF, lam, word)
                assert crystal_character(ps) \
                    == demazure_word_char(A1_AFF, word, lam), (lam_h, word)

    _run("A4", "path-crystal characters equal ladder characters through "
         "length six", 60.0, body)


# ---- A5: highest terms of the product crystal match the level flag ----


def test_a5_joseph_consistency():
    def body():
        mu = A1_AFF.fundamental_weight(0)
        worked = {
            1: [((1, 1), 0)],
            2: [((0, 2), 0), ((2, 0), 1)],
        }
        for m in range(5):
            lam = A1.weight([m])
            fd = level_flag(A1_AFF, 1, 2, lam)
            from_flag = []
            for piece_lam, grade, mult in fd.pieces:
                top, _ = solve_extremal(
                    A1_AFF, DemazureLabel(2, piece_lam, grade))
                from_flag.extend([(top.h, top.d)] * mult)
            top_lam, word = solve_extremal(A1_AFF, DemazureLabel(1, lam, 0))
            pairs = joseph_highest(A1_AFF, mu, top_lam, word)
            from_paths = [(nu.h, nu.d) for _, nu in pairs]
            assert sorted(from_flag) == sorted(from_paths), m
            if m in worked:
                assert sorted(from_paths) == worked[m], m

    _run("A5", "product-crystal highest terms index the level-two flag",
         60.0, body)


# ---- A6: operator algebra ----


def _random_char(datum, rng):
    f = Character.zero(datum)
    for _ in range(rng.randint(1, 4)):
        h = [rng.randint(-3, 3) for _ in datum.indices]
        d = rng.randint(-2, 2)
        f = f + Character.monomial(
            datum, datum.weight(h, d), rng.randint(-2, 3))
    return f


def test_a6_operator_algebra():
    def body():
        rng = random.Random(6)
        for ad in (A1_AFF, A2_AFF):
            for _ in range(50):
                i = rng.choice(list(ad.indices))
                f = _random_char(ad, rng)
                once = demazure_step(ad, i, f)
                assert demazure_step(ad, i, once) == once

        braids = [((0, 1, 0), (1, 0, 1)), ((1, 2, 1), (2, 1, 2)),
                  ((0, 2, 0), (2, 0, 2))]
        for k in range(20):
            w1, w2 = braids[k % 3]
            seed = A2_AFF.weight([rng.randint(-2, 2) for _ in range(3)],
                                 rng.randint(-1, 1))
            assert demazure_word_char(A2_AFF, w1, seed) \
                == demazure_word_char(A2_AFF, w2, seed), (k, seed)

    _run("A6", "ladder operators are idempotent and word-independent",
         10.0, body)


# ---- A7: tensor character law ----


def test_a7_tensor_law():
    def body():
        cases = [
            (A1, [(1,), (1,)]),
            (A1, [(2,), (1,)]),
            (A1, [(1,), (1,), (2,)]),
            (C2, [(1, 0), (0, 1)]),
            (C2, [(1, 0), (1, 0), (0, 1)]),
        ]
        for rd, hs in cases:
            factors = tuple((rd.weight(h), f"t{j}") for j, h in enumerate(hs))
            joint = local_weyl_character(rd, DominantLWeight(factors))
            product = Character.monomial(rd, rd.zero_weight)
            mass = 1
            for w, a in factors:
                single = local_weyl_character(rd, DominantLWeight(((w, a),)))
                product = product * single
                mass *= single.mass()
            assert joint == product, (rd.label, hs)
            assert joint.mass() == mass

    _run("A7", "labelled tensor characters multiply", 10.0, body)


# ---- A8: structural invariants of every Demazure character ----


def test_a8_structural_invariants():
    def body():
        rng = random.Random(8)
        data = [(A1, A1_AFF), (A2, A2_AFF), (C2, C2_AFF)]
        for _ in range(30):
            rd, ad = rng.choice(data)
            level = rng.randint(1, 3)
            lam = rd.weight([rng.randint(0, 2) for _ in rd.indices])
            m = rng.randint(0, 2)
            g = demazure_character(ad, DemazureLabel(level, lam, m))
            assert check_w_invariance_per_grade(rd, g)
            assert g.coefficient(Weight(lam.h, m)) == 1
            assert all(grade >= m for grade in g.grades())
            for w in g.support():
                assert dominance_leq(rd, w, lam), (rd.label, level, lam, w)

    _run("A8", "Demazure characters are invariant, normalized, and "
         "supported below their label", 30.0, body)
