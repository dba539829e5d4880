"""The one-hole spectrum of the complete graph K_n in closed form: the
tests' oracle for every route that solves an infinite-U sector of K_n.

On K_n the hole trades places with every electron, so the hopping operator
is -t times the sum of the transpositions of the hole's label with the n - 1
others: a Jucys-Murphy element (Jucys, Rep. Math. Phys. 5, 107 (1974);
Murphy, J. Algebra 69, 287 (1981); Okounkov & Vershik, Selecta Math. 2, 581
(1996)).  In the sector with a up and b down electrons (a + b = n - 1) the
electrons' spin states carry the partitions mu of n - 1 with at most two
rows and mu_1 >= max(a, b), each at total spin S = (mu_1 - mu_2) / 2.  Each
box added to mu, giving lambda, is one level E = -t c, with c the content
(column - row) of the added box and multiplicity f^lambda, the number of
standard Young tableaux of shape lambda.
"""

from fractions import Fraction
from math import factorial


def tableaux(shape) -> int:
    """f^lambda by the hook-length formula."""
    hooks = 1
    for row, length in enumerate(shape):
        for col in range(length):
            below = sum(1 for r in shape[row + 1:] if r > col)
            hooks *= length - col + below
    return factorial(sum(shape)) // hooks


def levels(sites: int, m, t: float = 1.0) -> list[tuple[float, int, Fraction]]:
    """The levels (E, multiplicity, S) of sector M of K_sites at hopping t,
    ascending in E; levels of equal energy and different S stay apart."""
    electrons = sites - 1
    n_up = (electrons + int(2 * Fraction(m))) // 2
    out = []
    for mu2 in range(min(n_up, electrons - n_up) + 1):
        mu = (electrons - mu2, mu2)
        spin = Fraction(mu[0] - mu[1], 2)
        for row, col in ((0, mu[0]), (1, mu[1]), (2, 0)):
            shape = list(mu) + [0]
            if row > 0 and shape[row] == shape[row - 1]:
                continue                    # the box would not leave a partition
            shape[row] += 1
            out.append((-t * (col - row), tableaux(shape), spin))
    return sorted(out, key=lambda level: (level[0], level[2]))


def spectrum(sites: int, m, t: float = 1.0) -> list[float]:
    """Every eigenvalue of sector M with its multiplicity, ascending."""
    return [e for e, mult, _ in levels(sites, m, t) for _ in range(mult)]


def ground(sites: int, m, t: float = 1.0) -> tuple[float, float, int, Fraction]:
    """E0, the gap to the next level, the degeneracy of E0 and its spin."""
    found = levels(sites, m, t)
    e0, degeneracy, spin = found[0]
    above = [e for e, _, _ in found if e > e0]
    return e0, above[0] - e0, degeneracy, spin
