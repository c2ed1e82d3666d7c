"""Graded local Weyl characters against quantum Lakshmibai-Seshadri paths.

For an untwisted affine type and a dominant weight ``lam``, the graded
character of the local Weyl module ``W(lam)`` is ``sum q^(-Deg(eta))
e^(wt(eta))`` over the quantum LS paths ``eta`` of shape ``lam``
(Lenart-Naito-Sagaki-Schilling-Shimozono, "A uniform model for
Kirillov-Reshetikhin crystals I", IMRN 2015, and "III", 2017; in
non-simply-laced type ``W(lam)`` is the tensor product of single-column
Kirillov-Reshetikhin modules these count, Naoi 2012).  The package's grade
is ``-Deg``, with no shift.

Nothing below calls the package except for the result under test: the
Cartan matrices and root lengths are written here, and the roots, the
Weyl orbit and the quantum Bruhat graph are built from them.

* ``J = {i : lam(h_i) = 0}``.  The vertices are the orbit ``W lam``: the
  weight ``w lam`` stands for the minimal coset representative ``w`` in
  ``W^J``, and a breadth-first word from ``lam`` is a reduced word of it.
* An edge ``mu -> s_gamma mu`` for every root ``gamma`` with ``c =
  mu(gamma^vee) > 0``, labelled ``c``.  With ``w`` the vertex of ``mu``,
  ``alpha = w^-1 gamma`` is a positive root outside ``Phi_J`` and ``c =
  lam(alpha^vee)``.  The edge is Bruhat if the length rises by one and
  quantum if it changes by ``1 - (2 rho - 2 rho_J)(alpha^vee)``;
  otherwise there is none.
* ``wt_lam(x => y)`` sums the labels of the quantum edges along a shortest
  directed path from ``x`` to ``y``; every shortest path gives one sum.
* A quantum LS path is ``w_1 != ... != w_s`` at times ``0 < sigma_1 < ... <
  sigma_(s-1) < 1``, with a directed path from ``w_(u+1)`` to ``w_u`` along
  edges whose ``sigma_u c`` is an integer.  ``wt = sum (sigma_u -
  sigma_(u-1)) w_u lam`` and ``-Deg = sum sigma_u wt_lam(w_(u+1) => w_u)``.
"""

import itertools
import time
from collections import Counter, deque
from fractions import Fraction
from math import lcm

import pytest

from demflag import datum_from_label, graded_weyl_character

# Bourbaki Cartan matrices, ``c[i][j] = alpha_j(h_i)``, and half the
# squared length of each simple root, short roots 1 (Bourbaki, Lie Groups
# and Lie Algebras ch. VI, plates I-IX).
CARTAN = {
    "A1": (((2,),), (1,)),
    "A2": (((2, -1), (-1, 2)), (1, 1)),
    "B2": (((2, -1), (-2, 2)), (2, 1)),       # alpha_2 short
    "C2": (((2, -2), (-1, 2)), (1, 2)),       # alpha_1 short
    "G2": (((2, -3), (-1, 2)), (1, 3)),       # alpha_1 short
    "A3": (((2, -1, 0), (-1, 2, -1), (0, -1, 2)), (1, 1, 1)),
    "B3": (((2, -1, 0), (-1, 2, -1), (0, -2, 2)), (2, 2, 1)),  # alpha_3 short
    "C3": (((2, -1, 0), (-1, 2, -2), (0, -1, 2)), (1, 1, 2)),  # alpha_3 long
    "A4": (((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
           (1, 1, 1, 1)),
    "B4": (((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -2, 2)),
           (2, 2, 2, 1)),                     # alpha_4 short
    "C4": (((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2)),
           (1, 1, 1, 2)),                     # alpha_4 long
    "D4": (((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
           (1, 1, 1, 1)),                     # alpha_2 on three legs
    "F4": (((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2)),
           (2, 2, 1, 1)),                     # alpha_3, alpha_4 short
    # Chain 1-3-4-5-6 with alpha_2 on alpha_4.
    "E6": (((2, 0, -1, 0, 0, 0), (0, 2, 0, -1, 0, 0), (-1, 0, 2, -1, 0, 0),
            (0, -1, -1, 2, -1, 0), (0, 0, 0, -1, 2, -1), (0, 0, 0, 0, -1, 2)),
           (1, 1, 1, 1, 1, 1)),
}


class RootSystem:
    """Roots in simple-root coordinates, weights in fundamental-weight
    coordinates (their values on the simple coroots).  The weight, squared
    length and simple reflections of every root are computed once."""

    def __init__(self, cartan, half_lengths):
        self.c, self.d, self.n = cartan, half_lengths, len(cartan)
        simple = [tuple(int(i == j) for j in range(self.n))
                  for i in range(self.n)]
        self.wt, self.norm = {}, {}
        for a in simple:
            self._add(a)
        todo = list(simple)
        while todo:
            a = todo.pop()
            for i in range(self.n):
                b = self.reflect_root(a, i)
                if b not in self.wt:
                    self._add(b)
                    todo.append(b)
        self.roots = list(self.wt)
        self.positive = [a for a in self.roots if min(a) >= 0]
        self.refl = {a: [self.reflect_root(a, i) for i in range(self.n)]
                     for a in self.roots}

    def _add(self, a):
        self.wt[a] = w = tuple(sum(x * y for x, y in zip(a, row))
                               for row in self.c)
        self.norm[a] = sum(x * d * m for x, d, m in zip(a, self.d, w))

    def pair(self, mu, a):
        """``mu(a^vee) = 2 (mu, a) / (a, a)``, with ``(mu, alpha_j) = d_j
        mu(h_j)``."""
        num = 2 * sum(x * d * m for x, d, m in zip(a, self.d, mu))
        assert num % self.norm[a] == 0
        return num // self.norm[a]

    def reflect(self, mu, i):
        return tuple(m - mu[i] * row[i] for m, row in zip(mu, self.c))

    def reflect_root(self, a, i):
        x = self.wt[a][i]
        return tuple(y - x * (j == i) for j, y in enumerate(a))


def quantum_bruhat_graph(rs, lam):
    """``{mu: [(nu, c, quantum)]}`` over the orbit of ``lam``."""
    words = {lam: ()}
    todo = deque([lam])
    while todo:
        mu = todo.popleft()
        for i in range(rs.n):
            nu = rs.reflect(mu, i)
            if nu not in words:
                words[nu] = (i,) + words[mu]
                todo.append(nu)
    outside = [j for j in range(rs.n) if lam[j]]
    two_rho = (2,) * rs.n
    in_j = [rs.wt[b] for b in rs.positive
            if not any(b[j] for j in outside)]
    two_rho_j = [sum(b[i] for b in in_j) for i in range(rs.n)]
    edges = {}
    for mu, word in words.items():
        out = edges[mu] = []
        for gamma in rs.roots:
            c = rs.pair(mu, gamma)
            if c <= 0:
                continue
            nu = tuple(x - c * y for x, y in zip(mu, rs.wt[gamma]))
            alpha = gamma
            for i in word:
                alpha = rs.refl[alpha][i]
            assert min(alpha) >= 0 and any(alpha[j] for j in outside)
            assert rs.pair(lam, alpha) == c
            rise = len(words[nu]) - len(word)
            if rise == 1:
                out.append((nu, c, False))
            elif rise == 1 - rs.pair(two_rho, alpha) + rs.pair(two_rho_j,
                                                               alpha):
                out.append((nu, c, True))
    return edges


def shortest_weights(edges):
    """``wt[x][y]``: the quantum labels summed along a shortest directed
    path from ``x`` to ``y``, checked to be one sum over all of them."""
    wt = {}
    for x in edges:
        dist, sums, layer = {x: 0}, {x: {0}}, [x]
        while layer:
            nxt = []
            for y in layer:
                for z, c, quantum in edges[y]:
                    if dist.setdefault(z, dist[y] + 1) != dist[y] + 1:
                        continue
                    if z not in sums:
                        sums[z] = set()
                        nxt.append(z)
                    sums[z].update(s + c * quantum for s in sums[y])
            layer = nxt
        assert len(sums) == len(edges)
        assert all(len(s) == 1 for s in sums.values())
        wt[x] = {y: min(s) for y, s in sums.items()}
    return wt


def qls_character(label, lam):
    """``{(wt(eta), -Deg(eta)): count}`` over the quantum LS paths of shape
    ``lam``.

    Telescoped, ``wt = w_s lam + sum sigma_u (w_u lam - w_(u+1) lam)``, so
    a path's weight and degree are sums over its turns.  The paths are
    counted by a sweep over the times in order: before time ``sigma``,
    ``state[x]`` counts the paths so far by (weight, degree) sums, each
    times ``den``, the lcm of the labels, for each direction ``x`` they
    hold; at ``sigma`` each may turn once, from ``x`` to a ``y`` that
    leads to ``x``.  No path is built one by one.
    """
    rs = RootSystem(*CARTAN[label])
    edges = quantum_bruhat_graph(rs, lam)
    wt = shortest_weights(edges)
    labels = {c for out in edges.values() for _, c, _ in out}
    den = lcm(*labels)
    sigmas = sorted({Fraction(k, c) for c in labels for k in range(1, c)})
    state = {x: Counter({((0,) * rs.n, 0): 1}) for x in edges}
    for s in sigmas:
        turned = {y: Counter(counts) for y, counts in state.items()}
        for y in edges:
            # The vertices that the edges with integral s c lead to from y.
            seen, todo = {y}, [y]
            while todo:
                for z, c, _ in edges[todo.pop()]:
                    if (s * c).denominator == 1 and z not in seen:
                        seen.add(z)
                        todo.append(z)
            for x in seen - {y}:
                step = int(s * den)
                move = [step * (a - b) for a, b in zip(x, y)]
                grade = step * wt[y][x]
                into = turned[y]
                for (w, g), m in state[x].items():
                    into[tuple(map(sum, zip(w, move))), g + grade] += m
        state = turned
    out = Counter()
    for x, counts in state.items():
        for (w, g), m in counts.items():
            end = [a + den * b for a, b in zip(w, x)]
            assert all(a % den == 0 for a in end) and g % den == 0
            out[tuple(a // den for a in end), g // den] += m
    return dict(out)


SMALL = ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3"]
LARGE = ["A4", "B4", "C4", "D4", "F4", "E6"]

# E6 omega_4 (dimension 3732; its shortest-path table takes seconds) and F4
# (0,2,0,0) (dimension 2,900,209) are left to a run of this file as a
# script.
SLOW = [("E6", (0, 0, 0, 1, 0, 0)), ("F4", (0, 2, 0, 0))]

CASES = [(label, h) for label in SMALL
         for h in itertools.product(range(3), repeat=len(CARTAN[label][0]))
         if 0 < sum(h) <= 2] + [
    (label, tuple(int(j == i) for j in range(len(CARTAN[label][0]))))
    for label in LARGE for i in range(len(CARTAN[label][0]))] + [
    ("D4", (0, 2, 0, 0)), ("B4", (0, 0, 0, 2)), ("C4", (1, 1, 0, 0)),
    ("F4", (0, 0, 0, 2))]
CASES = [case for case in CASES if case not in SLOW]


def test_every_weight_of_coordinate_sum_at_most_two_is_covered():
    # Of the types up to rank 3; rank 4 and E6 add their fundamental
    # weights but E6 omega_4, and four weights of coordinate sum 2.
    assert sum(label in SMALL for label, _ in CASES) == 49
    assert len(CASES) == 49 + 25 + 4


def check(label, h):
    rd = datum_from_label(label)
    cartan, half_lengths = CARTAN[label]
    assert [list(row) for row in rd.cartan] == [list(row) for row in cartan]
    assert list(rd.symmetrizer) == list(half_lengths)
    g, _ = graded_weyl_character(rd, rd.weight(h))
    assert dict(g.terms()) == qls_character(label, h)


@pytest.mark.parametrize("label,h", CASES,
                         ids=[f"{label}-{''.join(map(str, h))}"
                              for label, h in CASES])
def test_graded_local_weyl_characters_count_quantum_ls_paths(label, h):
    check(label, h)


if __name__ == "__main__":
    for label, h in SLOW:
        start = time.perf_counter()
        check(label, h)
        print(f"{label} {h}: matched in {time.perf_counter() - start:.1f} s")
