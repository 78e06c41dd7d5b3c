"""Z(rho) and W(rho) against 30-digit mpmath across their whole domain, 0 <= rho <= 1e6.

The reference is the paper's y-integral, integrated in t = sqrt(sqrt(2)/4 - y)
with mpmath's tanh-sinh quadrature, split where the integrand drops past
y ~ 1/rho; it shares nothing with the library's fixed-node Gauss-Legendre
kernel, which integrates other forms in another variable.  The tolerance
is the accuracy of the bic_potential docstring, 1e-15 relative to Z and W.
mpmath and hypothesis are test-only dependencies (the ``test`` extra).
"""

import math

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bicatom.bic_potential import (  # noqa: E402
    _BLOCK_SIZE,
    _GL_W,
    _GL_X,
    _RULES,
    Y_STAR,
    PotentialKind,
    _w_kernel,
    tabulate,
    w_of_rho,
    z_of_rho,
)


def _with_neighbours(points):
    return sorted({r for p in points
                   for r in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))})


# rho where the kernel switches from its near form to its far form
SPLIT_RHO = 1.0
# rho where ceil(log2(pi rho/2)), the far form's number of panel halvings,
# steps, and the split itself, each with its float neighbours
PANEL_EDGE_RHO = _with_neighbours(
    [SPLIT_RHO] + [2.0 ** (m + 1) / math.pi for m in range(1, 21)])
# the switch points of the three-piece kernel this one replaced: ordinary
# points of the new one, kept as samples
FORMER_SPLIT_RHO = 4.0 * math.sqrt(2.0)
FORMER_EDGE_RHO = [FORMER_SPLIT_RHO * (1.0 + d) for d in (-1e-12, 1e-12)] + _with_neighbours(
    [FORMER_SPLIT_RHO]
    + [(2.0 / Y_STAR) * math.exp(e) for e in (0.0, 0.5, 1.25, 2.5, 4.0, 6.0, 9.0)])

log_uniform_rho = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0 ** e)
reproducible = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def z_mpmath_y(rho) -> "mp.mpf":
    """Z = rho^2 int_0^{y*} q(y; rho) dy + (B/4) rho, the paper's form, at 30 digits."""
    with mp.workdps(30):
        rho = mp.mpf(rho)
        if rho == 0:
            return mp.mpf(0)
        y_star = mp.sqrt(2) / 4

        def g(t):
            # 2t q(y* - t^2; rho), with 1 - 8y^2 = 8t^2 (y* + y) divided out
            y = y_star - t * t
            root1 = mp.sqrt(1 + y * y)
            numer = 2 * y * root1 - 2 * y * y - 1
            radicand_over_t2 = 8 * (y_star + y) / (1 + 4 * y * y + 4 * y * root1)
            return 2 * numer / (mp.sqrt(radicand_over_t2) * root1
                                * mp.sqrt(1 + rho ** 4 * y ** 4))

        ys = [mp.mpf(0)]
        y = 1 / rho
        while y < y_star:
            ys.append(y)
            y *= 4
        ts = sorted({mp.sqrt(y_star - y) for y in ys} | {mp.mpf(0)})
        quarter_beta = mp.beta(mp.mpf(1) / 4, mp.mpf(1) / 4) / 4
        return +(rho * rho * mp.quad(g, ts) + quarter_beta * rho)


def z_mpmath_s(rho) -> "mp.mpf":
    """Z from the kernel's two forms in s, at 30 digits (bic_potential._w_kernel)."""
    with mp.workdps(30):
        rho = mp.mpf(rho)

        def p_and_q(s):
            sin = mp.sin(s)
            q = rho ** 2 * sin ** 2 / 4
            return (1 + sin) ** 2 + q ** 2, mp.cos(s) ** 4 + q ** 2

        if rho < 1:
            j = mp.quad(lambda s: 1 / mp.sqrt(p_and_q(s)[0]), [0, mp.pi / 2])
            return +(rho * (mp.beta(mp.mpf(1) / 4, mp.mpf(1) / 4) / 4 - rho * j / 2))

        def g(s):
            p, q = p_and_q(s)
            return (p - q) / (mp.sqrt(p) * mp.sqrt(q) * (mp.sqrt(p) + mp.sqrt(q)))

        edges = [mp.mpf(0)]
        edge = 2 / rho  # the layer at s = 0 is about 2/rho wide
        while edge < mp.pi / 2:
            edges.append(edge)
            edge *= 4
        edges.append(mp.pi / 2)
        return +(rho ** 2 / 2 * mp.quad(g, edges))


def z_mpmath(rho: float) -> float:
    return float(z_mpmath_y(rho))


def close_to_mpmath(z: float, rho: float) -> bool:
    # Z(0) = 0 exactly, so the relative bound also pins the origin
    ref = z_mpmath(rho)
    return abs(z - ref) <= 1e-15 * abs(ref)


def assert_z_and_w_match_mpmath(rho: float) -> None:
    z = z_mpmath_y(rho)
    assert abs(z_of_rho(rho) - float(z)) <= 1e-15 * float(z)
    if rho > 0.0:
        with mp.workdps(30):
            w = float(-z / rho)
        assert abs(w_of_rho(rho) - w) <= 1e-15 * abs(w)


@reproducible
@seed(8103)
@given(log_uniform_rho)
def test_matches_mpmath_log_uniform(rho):
    assert_z_and_w_match_mpmath(rho)


@pytest.mark.parametrize("rho", sorted({
    0.0, 1e-6, 1e-3, 1e5, 1e6, math.nextafter(1e6, 0.0), *PANEL_EDGE_RHO, *FORMER_EDGE_RHO,
}))
def test_matches_mpmath_at_domain_edges_and_split(rho):
    assert_z_and_w_match_mpmath(rho)


@pytest.mark.parametrize("rho", list(10.0 ** np.linspace(-6.0, 6.0, 50)) + [1.0])
def test_kernel_forms_equal_the_paper_integral(rho):
    # the identity behind the kernel, in 30-digit arithmetic on both sides; the
    # y-form's own cancellation costs it about log10(rho) of its 30 digits
    y_form = z_mpmath_y(rho)
    assert abs(z_mpmath_s(rho) - y_form) <= mp.mpf("1e-18") * y_form


def rules_of(rho) -> np.ndarray:
    """The kernel's rule of each rho: 0 (near form) below the split, else
    ceil(log2(pi rho/2))."""
    rho = np.asarray(rho, dtype=float)
    far = np.ceil(np.log2((math.pi / 2.0) * np.maximum(rho, SPLIT_RHO)))
    return np.where(rho >= SPLIT_RHO, far, 0.0).astype(int)


def block_rows(m: int) -> int:
    """Rows in one kernel block of rule m: _BLOCK_SIZE elements of its nodes."""
    return _BLOCK_SIZE // _RULES[m][3].size


def rows_of_rule(m: int, count: int, rng) -> np.ndarray:
    """count rho drawn uniformly from rule m's range of rho."""
    lo, hi = (0.0, SPLIT_RHO) if m == 0 else (max(2.0 ** m / math.pi, SPLIT_RHO),
                                              min(2.0 ** (m + 1) / math.pi, 1e6))
    rho = np.empty(0)
    while rho.size < count:
        draw = rng.uniform(lo, hi, count)
        rho = np.concatenate([rho, draw[rules_of(draw) == m]])
    return rho[:count]


@reproducible
@seed(8104)
@given(st.lists(log_uniform_rho, min_size=1, max_size=2),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_array_path_matches_scalar_path_and_mpmath(rhos, draw_seed):
    # each drawn rho brings one block of rows of its own rule, so the shuffled
    # array passes a block edge of every rule it uses
    rng = np.random.default_rng(draw_seed)
    rho = np.concatenate([rhos] + [rows_of_rule(m, block_rows(m), rng)
                                   for m in rules_of(rhos)])
    rng.shuffle(rho)
    got = -rho * _w_kernel(rho)
    for r, z in zip(rho, got):
        assert abs(z - z_of_rho(r)) <= 1e-14
    # the stable sort keeps a rule's rows in array order, so the first drawn
    # rule's first block ends between its rows k - 1 and k
    m = rules_of(rhos)[0]
    k = block_rows(m)
    rows = np.flatnonzero(rules_of(rho) == m)
    assert rows.size > k
    for i in rows[[k - 1, k]]:
        assert close_to_mpmath(got[i], rho[i])


def test_rows_do_not_depend_on_their_neighbours():
    # a row's W is bit-identical alone, at the end of a sorted table and in a
    # shuffled array mixing every rule the kernel groups by
    rhos = PANEL_EDGE_RHO + [1e5, 1e6]
    alone = [w_of_rho(r) for r in rhos]
    # two of the largest blocks plus one row: each table on [0, r] passes a
    # block edge of at least one rule
    n = 2 * max(block_rows(m) for m in range(len(_RULES))) + 1
    tables = [tabulate(PotentialKind.EXACT_BIC, 0.0, r, n) for r in rhos]
    for table in tables:
        counts = np.bincount(rules_of(table.rho_grid))
        assert any(c > block_rows(m) for m, c in enumerate(counts))
    in_table = [table.values[-1] for table in tables]
    rng = np.random.default_rng(8105)
    mixed = np.concatenate([rhos] + [rows_of_rule(m, block_rows(m) + 1, rng)
                                     for m in range(len(_RULES))])
    order = rng.permutation(mixed.size)
    shuffled = np.empty(mixed.size)
    shuffled[order] = _w_kernel(mixed[order])
    np.testing.assert_array_equal(in_table, alone)
    np.testing.assert_array_equal(shuffled[:len(rhos)], alone)
    np.testing.assert_array_equal(shuffled, _w_kernel(mixed))


def test_one_rule_over_many_blocks_matches_scalar_path():
    # rule 6, rho in (64/pi, 128/pi], holds about half the rows of the
    # interpolant's table on [0, 40]: more than two blocks
    table = tabulate("bic", 0.0, 40.0, 5121)
    m, k = 6, block_rows(6)
    rows = np.flatnonzero(rules_of(table.rho_grid) == m)
    assert rows.size > 2 * k
    edges = [rows[0], rows[-1]] + [rows[j] for i in range(k, rows.size, k) for j in (i - 1, i)]
    np.testing.assert_array_equal(table.values[edges],
                                  [w_of_rho(r) for r in table.rho_grid[edges]])


def test_empty_and_one_point_arrays():
    empty = _w_kernel(np.empty(0))
    assert empty.shape == (0,) and empty.dtype == float
    for rho in (0.0, 0.5, SPLIT_RHO, 3.0, 1e6):
        one = _w_kernel(np.array([rho]))
        assert one.shape == (1,)
        np.testing.assert_array_equal(one, _w_kernel(np.array([rho, 2.0, 0.25]))[:1])


def gauss_legendre_50_digits(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], positive half, as
    50-digit strings: Newton's method on P_n at 60 digits from numpy's nodes."""
    with mp.workdps(60):
        def p_and_dp(x):
            p_prev, p = mp.mpf(1), x
            for k in range(2, n + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            return p, n * (x * p - p_prev) / (x * x - 1)

        nodes, weights = [], []
        for start in sorted(np.polynomial.legendre.leggauss(n)[0], reverse=True)[:n // 2]:
            x = mp.mpf(start)
            for _ in range(6):  # quadratic: 16 correct digits pass 60 in two steps
                p, dp = p_and_dp(x)
                x -= p / dp
            _, dp = p_and_dp(x)
            nodes.append(mp.nstr(x, 50))
            weights.append(mp.nstr(2 / ((1 - x * x) * dp * dp), 50))
    return nodes, weights


def test_gauss_legendre_literals_are_correctly_rounded():
    # float() of a decimal string rounds it to the nearest double
    nodes, weights = gauss_legendre_50_digits(2 * len(_GL_X))
    assert list(_GL_X) == [float(x) for x in nodes]
    assert list(_GL_W) == [float(w) for w in weights]
