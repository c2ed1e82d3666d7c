"""Graded characters and flags against closed forms written out here.

Nothing below calls the package except for the result under test.  The
Cartan matrices, the straightening through the Weyl symmetrizer and the
Gaussian binomials are all written in this file.

* Fundamental local Weyl modules in classical types are Kirillov-Reshetikhin
  modules ``W^{r,1}`` (Chari 2001; Chari-Moura 2006), graded by the domino
  rule.  For B_n with ``r < n`` and D_n with ``r <= n - 2`` the module is
  ``sum_k q^k V(omega_{r-2k})`` over ``0 <= k <= r/2``, with ``omega_0 = 0``.
  For C_n, the spin nodes and every node of A_n it is ``V(omega_r)``.
* Level-two Demazure flags of level-one Demazure modules of affine sl2
  (Chari-Schneider-Shereen-Wand 2014):
  ``[D(1, n) : D(2, n - 2k)]_q = q^(k ceil(n/2)) [floor(n/2) choose k]_q``.
"""

from collections import Counter

import pytest

from demflag import (Weight, affinize, datum_from_label,
                     graded_weyl_character, level_flag)


def cartan(series, n):
    """Bourbaki Cartan matrix, ``c[i][j] = alpha_j(h_i)``, 0-based."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    chain = n - 1 if series in "ABC" else n - 2
    for i in range(chain):
        c[i][i + 1] = c[i + 1][i] = -1
    if series == "B":                   # alpha_n short
        c[n - 1][n - 2] = -2
    elif series == "C":                 # alpha_n long
        c[n - 2][n - 1] = -2
    elif series == "D":                 # n - 2 meets n - 1 and n
        c[n - 3][n - 1] = c[n - 1][n - 3] = -1
    return c


def straighten(c, terms):
    """``{(h, grade): m}`` of a Weyl-invariant character, grade by grade:
    ``e^mu`` goes to ``sign(w) V(w(mu + rho) - rho)``, or to zero when
    ``mu + rho`` lies on a wall."""
    n = len(c)
    out = Counter()
    for (h, grade), m in terms:
        nu = [x + 1 for x in h]
        while True:
            p = next((p for p in range(n) if nu[p] <= 0), None)
            if p is None:
                out[tuple(x - 1 for x in nu), grade] += m
                break
            if nu[p] == 0:
                break
            v = nu[p]
            nu = [nu[j] - v * c[j][p] for j in range(n)]
            m = -m
    return {k: m for k, m in out.items() if m}


def omega(n, r):
    return tuple(int(j == r - 1) for j in range(n))


def domino(series, n, r):
    """``{(top, grade): 1}`` of ``W^{r,1}`` by the domino rule."""
    if series == "B" and r < n or series == "D" and r <= n - 2:
        return {(omega(n, r - 2 * k), k): 1 for k in range(r // 2 + 1)}
    return {(omega(n, r), 0): 1}


FUNDAMENTALS = [(series, n, r)
                for series, ranks in (("A", range(1, 7)), ("B", range(2, 7)),
                                      ("C", range(2, 7)), ("D", range(4, 7)))
                for n in ranks for r in range(1, n + 1)]


@pytest.mark.parametrize("series,n,r", FUNDAMENTALS,
                         ids=[f"{s}{n}-{r}" for s, n, r in FUNDAMENTALS])
def test_fundamental_local_weyl_modules_follow_the_domino_rule(series, n, r):
    rd = datum_from_label(f"{series}{n}")
    c = cartan(series, n)
    assert [list(row) for row in rd.cartan] == c
    g, _ = graded_weyl_character(rd, rd.weight(omega(n, r)))
    assert straighten(c, g.terms()) == domino(series, n, r)


def gaussian(m, k):
    """Coefficients of the Gaussian binomial ``[m choose k]_q``, by
    ``[m, k] = [m - 1, k - 1] + q^k [m - 1, k]``."""
    if k < 0 or k > m:
        return []
    if k in (0, m):
        return [1]
    left, right = gaussian(m - 1, k - 1), [0] * k + gaussian(m - 1, k)
    size = max(len(left), len(right))
    left += [0] * (size - len(left))
    right += [0] * (size - len(right))
    return [a + b for a, b in zip(left, right)]


@pytest.mark.parametrize("n", range(17))
def test_sl2_level_two_flags_are_gaussian_binomials(n):
    ad = affinize(datum_from_label("A1"))
    got = Counter()
    for w, grade, mult in level_flag(ad, 1, 2, Weight((n,))).pieces:
        got[w.h, grade] += mult
    expected = {}
    for k in range(n // 2 + 1):
        shift = k * -(-n // 2)
        for e, coeff in enumerate(gaussian(n // 2, k)):
            if coeff:
                expected[(n - 2 * k,), shift + e] = coeff
    assert dict(got) == expected
