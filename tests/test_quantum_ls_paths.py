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
from collections import Counter, deque
from fractions import Fraction

import pytest

from demflag import datum_from_label, graded_weyl_character

# Bourbaki Cartan matrices, ``c[i][j] = alpha_j(h_i)``, and half the
# squared length of each simple root, short roots 1.
CARTAN = {
    "A1": (((2,),), (1,)),
    "A2": (((2, -1), (-1, 2)), (1, 1)),
    "B2": (((2, -1), (-2, 2)), (2, 1)),       # alpha_2 short
    "C2": (((2, -2), (-1, 2)), (1, 2)),       # alpha_1 short
    "G2": (((2, -3), (-1, 2)), (1, 3)),       # alpha_1 short
    "A3": (((2, -1, 0), (-1, 2, -1), (0, -1, 2)), (1, 1, 1)),
    "B3": (((2, -1, 0), (-1, 2, -1), (0, -2, 2)), (2, 2, 1)),  # alpha_3 short
    "C3": (((2, -1, 0), (-1, 2, -2), (0, -1, 2)), (1, 1, 2)),  # alpha_3 long
}


class RootSystem:
    """Roots in simple-root coordinates, weights in fundamental-weight
    coordinates (their values on the simple coroots)."""

    def __init__(self, cartan, half_lengths):
        self.c, self.d, self.n = cartan, half_lengths, len(cartan)
        simple = [tuple(int(i == j) for j in range(self.n))
                  for i in range(self.n)]
        self.roots = set(simple)
        todo = list(simple)
        while todo:
            a = todo.pop()
            for i in range(self.n):
                b = self.reflect_root(a, i)
                if b not in self.roots:
                    self.roots.add(b)
                    todo.append(b)
        self.positive = [a for a in self.roots if min(a) >= 0]

    def weight(self, a):
        return tuple(sum(x * y for x, y in zip(a, row)) for row in self.c)

    def pair(self, mu, a):
        """``mu(a^vee) = 2 (mu, a) / (a, a)``, with ``(mu, alpha_j) = d_j
        mu(h_j)``."""
        num = 2 * sum(x * d * m for x, d, m in zip(a, self.d, mu))
        norm = sum(x * d * m for x, d, m in zip(a, self.d, self.weight(a)))
        assert num % norm == 0
        return num // norm

    def reflect(self, mu, i):
        return tuple(m - mu[i] * row[i] for m, row in zip(mu, self.c))

    def reflect_root(self, a, i):
        x = self.weight(a)[i]
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
    in_j = [rs.weight(b) for b in rs.positive
            if not any(b[j] for j in outside)]
    two_rho_j = [sum(b[i] for b in in_j) for i in range(rs.n)]
    edges = {}
    for mu, word in words.items():
        out = edges[mu] = []
        for gamma in rs.roots:
            c = rs.pair(mu, gamma)
            if c <= 0:
                continue
            nu = tuple(x - c * y for x, y in zip(mu, rs.weight(gamma)))
            alpha = gamma
            for i in word:
                alpha = rs.reflect_root(alpha, i)
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
    ``lam``."""
    rs = RootSystem(*CARTAN[label])
    edges = quantum_bruhat_graph(rs, lam)
    wt = shortest_weights(edges)
    labels = {c for out in edges.values() for _, c, _ in out}
    sigmas = sorted({Fraction(k, c) for c in labels for k in range(1, c)})
    # reach[k][y]: the vertices that the edges with integral sigma_k c
    # lead to from y.
    reach = []
    for s in sigmas:
        reach.append({})
        for y in edges:
            seen, todo = {y}, [y]
            while todo:
                for z, c, _ in edges[todo.pop()]:
                    if (s * c).denominator == 1 and z not in seen:
                        seen.add(z)
                        todo.append(z)
            reach[-1][y] = seen
    out = Counter()

    def extend(x, k, start, weight, grade):
        """``x`` holds from ``start`` on; end there, or turn at a later
        time ``sigmas[j]``, ``j >= k``, to a ``y`` that leads to ``x``."""
        end = [w + (1 - start) * m for w, m in zip(weight, x)]
        assert all(w.denominator == 1 for w in end)
        assert grade.denominator == 1
        out[tuple(map(int, end)), int(grade)] += 1
        for j in range(k, len(sigmas)):
            s = sigmas[j]
            moved = [w + (s - start) * m for w, m in zip(weight, x)]
            for y in edges:
                if y != x and x in reach[j][y]:
                    extend(y, j + 1, s, moved, grade + s * wt[y][x])

    for x in edges:
        extend(x, 0, Fraction(0), [Fraction(0)] * rs.n, Fraction(0))
    return dict(out)


CASES = [(label, h) for label, (cartan, _) in CARTAN.items()
         for h in itertools.product(range(3), repeat=len(cartan))
         if 0 < sum(h) <= 2]


def test_every_weight_of_coordinate_sum_at_most_two_is_covered():
    assert len(CASES) == 49


@pytest.mark.parametrize("label,h", CASES,
                         ids=[f"{label}-{''.join(map(str, h))}"
                              for label, h in CASES])
def test_graded_local_weyl_characters_count_quantum_ls_paths(label, h):
    rd = datum_from_label(label)
    assert [list(row) for row in rd.cartan] \
        == [list(row) for row in CARTAN[label][0]]
    g, _ = graded_weyl_character(rd, rd.weight(h))
    assert dict(g.terms()) == qls_character(label, h)
