"""Validated LAPACK eigenvalue and matrix-exponential wrappers, and
positive-recurrence classifiers.

For interaction matrices of the form A = alpha*E + beta*adjacency the
positive definiteness of -A decides whether the limit diffusion has a
stationary law.  Star and path graphs admit closed-form spectra; constant
degree graphs have an if-and-only-if Gershgorin criterion; everything else
falls back to the numeric eigensolver with diagonal dominance as the
recorded sufficient bound.  The eigenvalues come from numpy; scipy.linalg
is imported inside matrix_exp, its one user here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    DimensionMismatchError,
    InconclusiveSpectrumError,
    ValidationError,
    real_array,
    require_integer,
    require_memory,
    require_real,
)
from .graphs import Graph, alpha_beta_matrix

PD_TOLERANCE = 1e-10

SYMMETRY_TOLERANCE = 1e-12

# past this size a non-symmetric spectrum is not certified here
GENERAL_SPECTRUM_DIM_CAP = 500


def as_square_matrix(matrix) -> np.ndarray:
    """matrix as a fresh float array, checked to have finite entries and to
    be square and non-empty."""
    m = real_array("matrix", matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        raise DimensionMismatchError(f"expected a non-empty square matrix, got shape {m.shape}")
    return m


def as_state(matrix: np.ndarray, u) -> np.ndarray:
    """u as a fresh flat float vector, checked to be finite and as long as
    the square matrix is wide."""
    v = real_array("state", u).reshape(-1)
    if v.shape[0] != matrix.shape[0]:
        raise DimensionMismatchError(
            f"state length {v.shape[0]} does not match dimension {matrix.shape[0]}"
        )
    return v


def is_symmetric(m: np.ndarray) -> bool:
    """True iff the square array m equals its transpose within
    SYMMETRY_TOLERANCE, entrywise."""
    return np.abs(m - m.T).max(initial=0.0) <= SYMMETRY_TOLERANCE


def eigen_sym(matrix) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending (LAPACK syevd)."""
    m = as_square_matrix(matrix)
    if not is_symmetric(m):
        raise AsymmetricMatrixError(
            f"matrix is not symmetric within {SYMMETRY_TOLERANCE}"
        )
    return np.linalg.eigvalsh(0.5 * (m + m.T))


def matrix_exp(matrix, t: float = 1.0) -> np.ndarray:
    """e^{Mt} by scipy's Pade scaling and squaring; exp of zero is exactly I."""
    import scipy.linalg

    m = as_square_matrix(matrix)
    return scipy.linalg.expm(m * require_real("t", t))


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Eigenvalues of the negated interaction matrix and the PD verdict.

    positive_definite means the smallest eigenvalue clears PD_TOLERANCE;
    boundary marks verdicts within tolerance of zero (reported as not PD
    because the recurrence criteria are strict inequalities).  method
    records which route produced the eigenvalues.
    """

    eigenvalues: np.ndarray
    positive_definite: bool
    method: str
    boundary: bool = False

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])


def _report(eigenvalues: np.ndarray, method: str) -> SpectralReport:
    """The report of a fresh float array of eigenvalues, which it sorts in
    place and keeps."""
    eigenvalues.sort()
    smallest = float(eigenvalues[0])
    return SpectralReport(
        eigenvalues=eigenvalues,
        positive_definite=smallest > PD_TOLERANCE,
        method=method,
        boundary=abs(smallest) <= PD_TOLERANCE,
    )


def star_spectrum(m: int, alpha: float, beta: float) -> SpectralReport:
    """Spectrum of -A for the star with m >= 2 leaves, A = alpha*E + beta*adj.

    -alpha with multiplicity m-1 plus the pair -alpha -+ beta*sqrt(m); the
    matrix is positive definite iff alpha < 0 and alpha + |beta|*sqrt(m) < 0.
    An m whose m + 1 eigenvalues pass physical memory raises ValidationError.
    """
    if require_integer("m", m) < 2:
        raise ValidationError(f"star criterion needs m >= 2 leaves, got {m}")
    alpha, beta = require_real("alpha", alpha), require_real("beta", beta)
    require_memory(8 * (m + 1), f"the {m + 1} eigenvalues of the star with {m} leaves")
    root = math.sqrt(m)
    eigs = np.full(m + 1, -alpha)
    eigs[0], eigs[-1] = -alpha - beta * root, -alpha + beta * root
    return _report(eigs, "closed_form_star")


def path_spectrum(n: int, alpha: float, beta: float) -> SpectralReport:
    """Spectrum of -A for the path on n+2 vertices (n >= 0 interior steps).

    -A is tridiagonal Toeplitz with diagonal -alpha and off-diagonal -beta,
    so the eigenvalues are -alpha - 2 beta cos(k pi / (n+3)), k = 1..n+2,
    all simple.  Positive definite iff alpha < 0 and
    alpha + 2|beta|cos(pi/(n+3)) < 0.  An n whose n + 2 eigenvalues pass
    physical memory raises ValidationError.
    """
    if require_integer("n", n) < 0:
        raise ValidationError(f"path parameter must be >= 0, got {n}")
    alpha, beta = require_real("alpha", alpha), require_real("beta", beta)
    require_memory(8 * (n + 2), f"the {n + 2} eigenvalues of the path on {n + 2} vertices")
    # -alpha - 2 beta cos(k pi / (n + 3)), built in the one array
    eigs = np.arange(1, n + 3, dtype=float)
    eigs *= math.pi
    eigs /= n + 3
    np.cos(eigs, out=eigs)
    eigs *= 2.0 * beta
    np.subtract(-alpha, eigs, out=eigs)
    return _report(eigs, "closed_form_path")


def _degree_family(g: Graph) -> tuple[str, int]:
    """Structural family from the degree multiset: star, path, constant, general."""
    degs = np.sort(g.degrees)
    n = g.num_vertices
    if n >= 3 and degs[-1] == n - 1 and np.all(degs[:-1] == 1):
        return "star", int(degs[-1])
    ones = int((degs == 1).sum())
    twos = int((degs == 2).sum())
    if n >= 2 and ones == 2 and ones + twos == n:
        return "path", n - 2
    if degs[0] == degs[-1]:
        return "constant", int(degs[0])
    return "general", int(degs[-1])


def classify_pd(g: Graph, alpha: float, beta: float) -> SpectralReport:
    """PD verdict for -A, A = alpha*E + beta*adjacency, with auto dispatch.

    Stars and paths use their closed-form spectra; constant-degree graphs
    report numeric eigenvalues under the sharp Gershgorin criterion tag;
    other graphs get numeric eigenvalues, tagged gershgorin_bound when the
    diagonal-dominance sufficient condition already certifies PD.
    """
    family, value = _degree_family(g)
    if family == "star":
        return star_spectrum(value, alpha, beta)
    if family == "path":
        return path_spectrum(value, alpha, beta)
    neg_a = -alpha_beta_matrix(g, alpha, beta)
    eigs = eigen_sym(neg_a)
    if family == "constant":
        method = "gershgorin_bound"
    else:
        max_degree = value
        dominant = alpha < 0 and alpha + abs(beta) * max_degree < 0
        method = "gershgorin_bound" if dominant else "numeric"
    return _report(eigs, method)


def numeric_report(matrix) -> SpectralReport:
    """SpectralReport for an explicitly given symmetric matrix (numeric route)."""
    return _report(eigen_sym(matrix), "numeric")


def is_hurwitz(a) -> bool:
    """True iff every eigenvalue of A has real part below -PD_TOLERANCE.

    Symmetric matrices go through the symmetric eigensolver.  Otherwise the
    symmetric part provides a certified sufficient check (its largest
    eigenvalue bounds every real part from above); if that is inconclusive
    the full spectrum comes from the real Schur iteration, with a dimension
    cap past which no verdict is attempted.
    """
    m = as_square_matrix(a)
    if is_symmetric(m):
        return float(eigen_sym(m)[-1]) < -PD_TOLERANCE
    sym_part = 0.5 * (m + m.T)
    if float(eigen_sym(sym_part)[-1]) < -PD_TOLERANCE:
        return True
    if m.shape[0] > GENERAL_SPECTRUM_DIM_CAP:
        raise InconclusiveSpectrumError(
            f"non-symmetric spectrum beyond dimension "
            f"{GENERAL_SPECTRUM_DIM_CAP} is not certified"
        )
    max_real = float(np.linalg.eigvals(m).real.max())
    return max_real < -PD_TOLERANCE
