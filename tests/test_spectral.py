import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import bdlimits as bd
from bdlimits.spectral import PD_TOLERANCE


def test_eigen_sym_examples():
    assert np.allclose(bd.eigen_sym(np.eye(3)), [1.0, 1.0, 1.0])
    assert np.allclose(bd.eigen_sym(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])
    assert np.allclose(bd.eigen_sym([[2.0, -1.0], [-1.0, 2.0]]), [1.0, 3.0], atol=1e-12)


def test_eigen_sym_rejects_asymmetric():
    with pytest.raises(bd.AsymmetricMatrixError):
        bd.eigen_sym([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(bd.DimensionMismatchError):
        bd.eigen_sym(np.zeros((2, 3)))


_EMPTY, _NO_STATE = np.zeros((0, 0)), np.zeros(0)

EMPTY_MATRIX_CALLS = {
    "stationary_gaussian": lambda: bd.stationary_gaussian(_EMPTY),
    "is_hurwitz": lambda: bd.is_hurwitz(_EMPTY),
    "numeric_report": lambda: bd.numeric_report(_EMPTY),
    "euler_maruyama_terminal": lambda: bd.euler_maruyama_terminal(
        _EMPTY, _NO_STATE, dt=0.1, n_paths=2, seed=0
    ),
    "lyapunov_residual": lambda: bd.lyapunov_residual(_EMPTY, _EMPTY),
    "eigen_sym": lambda: bd.eigen_sym(_EMPTY),
    "exact_transition": lambda: bd.exact_transition(_EMPTY, _NO_STATE, 1.0),
    "rk4_integrate": lambda: bd.rk4_integrate(_EMPTY, _EMPTY, _NO_STATE, dt=0.1),
}


@pytest.mark.parametrize("call", EMPTY_MATRIX_CALLS.values(), ids=EMPTY_MATRIX_CALLS.keys())
def test_empty_matrix_is_refused(call):
    # a 0 x 0 matrix is square, but no entry point has a dimension to work in
    with pytest.raises(bd.DimensionMismatchError, match="non-empty"):
        call()


@pytest.mark.parametrize(
    "spectrum, fits", [(bd.star_spectrum, 9999), (bd.path_spectrum, 9998)], ids=["star", "path"]
)
def test_closed_form_spectra_refuse_past_physical_memory(monkeypatch, spectrum, fits):
    # an 80 kB cap holds 10^4 eigenvalues: m + 1 of the star, n + 2 of the path
    monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", 8 * 10**4)
    assert spectrum(fits, -3.0, 1.0).eigenvalues.size == 10**4
    tracemalloc.start()
    try:
        with pytest.raises(bd.ValidationError, match="eigenvalues of the .* past physical memory"):
            spectrum(10**5, -3.0, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


@pytest.mark.parametrize(
    "spectrum, size", [(bd.star_spectrum, 10**5 - 1), (bd.path_spectrum, 10**5 - 2)],
    ids=["star", "path"],
)
def test_closed_form_spectra_peak_at_their_counted_bytes(spectrum, size):
    # 10^5 eigenvalues in one array, built and sorted in place: the 800 kB
    # that the memory check counts, and no temporary copy
    spectrum(4, -3.0, 1.0)
    tracemalloc.start()
    try:
        report = spectrum(size, -3.0, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.eigenvalues.nbytes == 8 * 10**5
    assert peak <= 8 * 10**5 + 2**14


def test_eigen_sym_against_lapack():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 7, 20, 45):
        m = rng.normal(size=(n, n))
        m = 0.5 * (m + m.T)
        assert np.abs(bd.eigen_sym(m) - np.linalg.eigvalsh(m)).max() < 1e-11


def test_eigen_sym_off_diagonal_residual_contract():
    # repeated eigenvalues and a zero matrix are the awkward cases
    assert np.array_equal(bd.eigen_sym(np.zeros((4, 4))), np.zeros(4))
    ones = np.ones((6, 6))
    assert np.abs(bd.eigen_sym(ones) - np.linalg.eigvalsh(ones)).max() < 1e-11


def test_matrix_exp_zero_is_identity_exactly():
    assert np.array_equal(bd.matrix_exp(np.zeros((3, 3))), np.eye(3))
    assert np.array_equal(bd.matrix_exp(np.ones((3, 3)), 0.0), np.eye(3))


def test_matrix_exp_diagonal_and_nilpotent():
    d = bd.matrix_exp(np.diag([1.0, -2.0]), 0.5)
    assert np.allclose(np.diag(d), np.exp([0.5, -1.0]), atol=1e-12)
    n = bd.matrix_exp(np.array([[0.0, 1.0], [0.0, 0.0]]), 2.5)
    assert np.allclose(n, [[1.0, 2.5], [0.0, 1.0]], atol=1e-14)


def test_matrix_exp_semigroup_property():
    rng = np.random.default_rng(23)
    m = rng.normal(scale=0.7, size=(4, 4))
    lhs = bd.matrix_exp(m, 0.9 + 0.4)
    rhs = bd.matrix_exp(m, 0.9) @ bd.matrix_exp(m, 0.4)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_matrix_exp_vs_scipy_benchmark():
    a = bd.alpha_beta_matrix(bd.star_graph(5), -2.0, 0.7)
    ours = bd.matrix_exp(a, 1.7)
    ref = scipy.linalg.expm(a * 1.7)
    assert np.abs(ours - ref).max() / np.abs(ref).max() < 1e-10


def test_star_spectrum_example():
    rep = bd.star_spectrum(4, -3.0, 1.0)
    assert np.allclose(rep.eigenvalues, [1.0, 3.0, 3.0, 3.0, 5.0], atol=1e-12)
    assert rep.positive_definite
    assert rep.method == "closed_form_star"


def test_star_spectrum_boundary():
    rep = bd.star_spectrum(9, -3.0, 1.0)
    assert abs(rep.min_eigenvalue) < 1e-10
    assert not rep.positive_definite
    assert rep.boundary


def test_star_spectrum_decoupled():
    rep = bd.star_spectrum(6, -1.0, 0.0)
    assert np.allclose(rep.eigenvalues, np.ones(7))
    assert rep.positive_definite
    with pytest.raises(bd.ValidationError):
        bd.star_spectrum(1, -1.0, 0.0)


def test_star_spectrum_matches_numeric():
    for m in (2, 5, 17, 50):
        for alpha, beta in ((-3.0, -2.0), (-1.0, 0.5), (-2.0, 2.0)):
            rep = bd.star_spectrum(m, alpha, beta)
            numeric = bd.eigen_sym(-bd.alpha_beta_matrix(bd.star_graph(m), alpha, beta))
            assert np.abs(rep.eigenvalues - numeric).max() < 1e-10


def test_path_spectrum_two_vertices():
    rep = bd.path_spectrum(0, -2.0, 1.0)
    assert np.allclose(rep.eigenvalues, [1.0, 3.0], atol=1e-12)


def test_path_spectrum_matches_numeric():
    for n in (0, 1, 3, 11, 50):
        for alpha, beta in ((-3.0, 1.0), (-1.0, -0.5), (-2.0, 2.0)):
            rep = bd.path_spectrum(n, alpha, beta)
            numeric = bd.eigen_sym(-bd.alpha_beta_matrix(bd.path_graph(n + 2), alpha, beta))
            assert np.abs(rep.eigenvalues - numeric).max() < 1e-10


def test_path_spectrum_decoupled():
    rep = bd.path_spectrum(4, -2.0, 0.0)
    assert np.allclose(rep.eigenvalues, np.full(6, 2.0))
    with pytest.raises(bd.ValidationError):
        bd.path_spectrum(-1, -2.0, 0.0)


def test_classify_triangle():
    rep = bd.classify_pd(bd.cycle_graph(3), -3.0, 1.0)
    assert rep.positive_definite
    assert rep.method == "gershgorin_bound"
    assert np.allclose(rep.eigenvalues, [1.0, 4.0, 4.0], atol=1e-10)
    rep2 = bd.classify_pd(bd.cycle_graph(3), -2.0, 1.0)
    assert not rep2.positive_definite
    assert abs(rep2.min_eigenvalue) < 1e-10


def test_classify_decoupled_any_graph():
    for g in (bd.star_graph(3), bd.cycle_graph(4), bd.complete_graph(4), bd.single_vertex()):
        assert bd.classify_pd(g, -1.0, 0.0).positive_definite


def test_classify_dispatch_tags():
    assert bd.classify_pd(bd.star_graph(4), -3.0, 1.0).method == "closed_form_star"
    assert bd.classify_pd(bd.path_graph(4), -3.0, 1.0).method == "closed_form_path"
    # a 3-vertex path is also the 2-leaf star; the star route wins and both
    # closed forms give the same eigenvalues
    three = bd.build_graph(3, [(0, 1), (1, 2)])
    rep = bd.classify_pd(three, -3.0, 0.8)
    assert rep.method == "closed_form_star"
    assert np.allclose(rep.eigenvalues, bd.path_spectrum(1, -3.0, 0.8).eigenvalues, atol=1e-12)
    assert bd.classify_pd(bd.path_graph(2), -1.5, 0.4).method == "closed_form_path"
    assert bd.classify_pd(bd.complete_graph(4), -3.0, 0.5).method == "gershgorin_bound"


def test_classify_general_graph():
    # triangle with a tail: degrees {1, 2, 2, 3}, no closed form
    g = bd.build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    strong = bd.classify_pd(g, -4.0, 1.0)  # diagonally dominant
    assert strong.positive_definite
    assert strong.method == "gershgorin_bound"
    weak = bd.classify_pd(g, -2.0, 1.0)  # dominance fails at the degree-3 vertex
    assert weak.method == "numeric"
    numeric = bd.eigen_sym(-bd.alpha_beta_matrix(g, -2.0, 1.0))
    assert weak.positive_definite == (numeric.min() > PD_TOLERANCE)


def test_constant_degree_criterion_where_it_is_sharp():
    # alpha < 0 and alpha + |beta| nu < 0 is always sufficient (diagonal
    # dominance).  It is also necessary when beta > 0 (the Perron eigenvalue
    # nu of the adjacency is attained) and, for beta < 0, exactly on
    # bipartite graphs (-nu in the adjacency spectrum); even cycles qualify.
    cases = [
        (bd.cycle_graph(4), 2, (-1.2, -0.4, 0.4, 1.2)),
        (bd.cycle_graph(6), 2, (-1.2, -0.4, 0.4, 1.2)),
        (bd.cycle_graph(5), 2, (0.4, 1.2)),
        (bd.complete_graph(4), 3, (0.4, 1.2)),
    ]
    for g, nu, betas in cases:
        for alpha in (-3.0, -1.0):
            for beta in betas:
                rep = bd.classify_pd(g, alpha, beta)
                criterion = alpha < 0 and alpha + abs(beta) * nu < 0
                if abs(alpha + abs(beta) * nu) > 1e-9:
                    assert rep.positive_definite == criterion


def test_constant_degree_criterion_not_necessary_off_bipartite():
    # non-bipartite counterexample: K4 with beta < 0 stays positive definite
    # well past the |beta| nu bound, because the adjacency spectrum bottoms
    # out at -1 rather than -nu
    rep = bd.classify_pd(bd.complete_graph(4), -3.0, -1.2)
    assert rep.positive_definite
    assert np.allclose(rep.eigenvalues, [1.8, 1.8, 1.8, 6.6], atol=1e-10)
    assert -3.0 + 1.2 * 3 > 0  # the one-sided criterion would say no
    # ... while the sufficient direction still never misfires
    assert bd.classify_pd(bd.complete_graph(4), -4.0, -1.2).positive_definite


def test_gershgorin_containment():
    rng = np.random.default_rng(31)
    for g in (bd.star_graph(5), bd.path_graph(6), bd.cycle_graph(5)):
        nu_max = int(g.degrees.max())
        for _ in range(3):
            alpha = float(rng.uniform(-4, -0.5))
            beta = float(rng.uniform(-2, 2))
            eigs = bd.eigen_sym(-bd.alpha_beta_matrix(g, alpha, beta))
            lo, hi = -alpha - abs(beta) * nu_max, -alpha + abs(beta) * nu_max
            assert eigs.min() >= lo - 1e-10
            assert eigs.max() <= hi + 1e-10


def test_is_hurwitz_examples():
    assert bd.is_hurwitz(-np.eye(3))
    assert not bd.is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # purely imaginary
    assert bd.is_hurwitz(np.array([[-2.0, 1.0], [1.0, -2.0]]))
    assert not bd.is_hurwitz(np.array([[1.0]]))


def test_is_hurwitz_nonsymmetric_routes():
    # certified by the symmetric part alone
    assert bd.is_hurwitz(np.array([[-2.0, 0.3], [-0.3, -2.0]]))
    # symmetric part indefinite, Schur spectrum decides: eigenvalues are -1, -1
    skew_heavy = np.array([[-1.0, 10.0], [0.0, -1.0]])
    assert bd.is_hurwitz(skew_heavy)
    # and a genuinely unstable one the symmetric part cannot certify
    assert not bd.is_hurwitz(np.array([[0.5, 10.0], [0.0, -1.0]]))


def test_is_hurwitz_dimension_cap():
    n = 501
    m = -np.eye(n)
    m[0, 1] = 10.0  # asymmetric and not certified by the symmetric part
    m[0, 0] = 3.0
    with pytest.raises(bd.InconclusiveSpectrumError):
        bd.is_hurwitz(m)


def test_boundary_flag_at_exact_zero():
    rep = bd.classify_pd(bd.cycle_graph(3), -2.0, 1.0)
    assert rep.boundary and not rep.positive_definite
    rep2 = bd.classify_pd(bd.cycle_graph(3), -2.0 - 1e-6, 1.0)
    assert rep2.positive_definite and not rep2.boundary


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("which", ["alpha", "beta"])
def test_closed_form_spectra_reject_non_finite_coefficients(which, bad):
    # a nan eigenvalue would sort last and leave a finite verdict behind
    coeffs = {"alpha": -3.0, "beta": 1.0, which: bad}
    for call in (
        lambda: bd.star_spectrum(4, **coeffs),
        lambda: bd.path_spectrum(1, **coeffs),
        lambda: bd.classify_pd(bd.star_graph(4), **coeffs),
        lambda: bd.classify_pd(bd.path_graph(3), **coeffs),
        lambda: bd.classify_pd(bd.cycle_graph(4), **coeffs),
    ):
        with pytest.raises(bd.ValidationError, match="finite"):
            call()
