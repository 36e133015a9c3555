"""When does the limit diffusion have a stationary law?

For A = alpha E + beta adjacency the answer is positive definiteness of
-A.  Stars and paths have closed-form spectra, constant-degree graphs a
sharp Gershgorin criterion for beta > 0; the examples below walk the
verdict across its boundaries and cross-check the closed forms against the
numeric (LAPACK) eigensolver.
"""

import numpy as np

import bdlimits as bd

print("star with 4 leaves, alpha=-3, beta=1")
rep = bd.classify_pd(bd.star_graph(4), -3.0, 1.0)
print(f"  method={rep.method} pd={rep.positive_definite} eigenvalues={rep.eigenvalues}")

print("\nsame star at the boundary alpha = -sqrt(m) * beta, m = 9:")
for alpha in (-3.0 - 1e-6, -3.0, -3.0 + 1e-6):
    rep = bd.classify_pd(bd.star_graph(9), alpha, 1.0)
    print(f"  alpha={alpha:+.6f}: pd={rep.positive_definite} min_eig={rep.min_eigenvalue:+.2e}")

print("\npath on 5 vertices: cosine spectrum vs numeric eigensolver")
closed = bd.path_spectrum(3, -3.0, 1.0)
numeric = bd.eigen_sym(-bd.alpha_beta_matrix(bd.path_graph(5), -3.0, 1.0))
print("  closed form:", np.round(closed.eigenvalues, 8))
print("  numeric:    ", np.round(numeric, 8))

print("\ntriangle (constant degree 2): verdict flips at alpha + |beta| nu = 0 for beta > 0")
for alpha in (-2.5, -2.0, -1.5):
    rep = bd.classify_pd(bd.cycle_graph(3), alpha, 1.0)
    print(f"  alpha={alpha:+.2f}: pd={rep.positive_definite} eigenvalues={np.round(rep.eigenvalues, 6)}")

print("\n... but for beta < 0 the bound is only sufficient off bipartite graphs:")
rep = bd.classify_pd(bd.complete_graph(4), -3.0, -1.2)
print(f"  K4, alpha=-3, beta=-1.2: pd={rep.positive_definite} "
      f"eigenvalues={rep.eigenvalues} (criterion would predict not PD)")

print("\nHurwitz checks feed the stationary Gaussian law:")
a = bd.alpha_beta_matrix(bd.path_graph(3), -2.0, 0.5)
print("  is_hurwitz:", bd.is_hurwitz(a))
_, cov = bd.stationary_gaussian(a)
print("  stationary covariance (-A)^-1:")
print(np.round(cov, 6))
print("  lyapunov residual:", bd.lyapunov_residual(a, cov))
