"""Dense Hermitian linear algebra on small complex matrices.

The package's one Hermitian eigensolver and positive-semidefiniteness
classification.  Matrices are plain numpy arrays (row-major complex
entries); shape, finiteness and Hermitian symmetry are validated at the
interfaces.  Eigenvalues come from LAPACK (``np.linalg.eigh``); each
decomposition is accepted only after its reconstruction residual is
checked against ``tol.eig_tol``.

The samplers' screens ask only whether a smallest eigenvalue reaches a
threshold, and :func:`min_eig_at_least` answers that from the pivots of
one elimination over a whole batch, with no eigensolve: the PSD cone's
margin screen and the univariate Bezoutian screen both call it.
"""

from __future__ import annotations

import numpy as np

from .tolerances import DEFAULT_TOL, ToleranceProfile

__all__ = [
    "is_hermitian",
    "hermitian_eigh",
    "hermitian_eigenvalues",
    "psd_classify",
    "psd_class_of",
    "min_eig_at_least",
]

#: Classification labels returned by :func:`psd_classify`.
POSITIVE_DEFINITE = "positive_definite"
POSITIVE_SEMIDEFINITE = "positive_semidefinite"
INDEFINITE = "indefinite"


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def is_hermitian(m, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """True when ``m`` equals its conjugate transpose within tolerance.

    The package's one Hermitian test.  It is relative, with no absolute
    floor: ``||m - m^H||_F <= tol.hermitian_tol * ||m||_F``, so the verdict
    does not depend on the scale of ``m`` and the zero matrix passes.
    """
    a = _as_square(m)
    return float(np.linalg.norm(a - a.conj().T)) <= tol.hermitian_tol * float(np.linalg.norm(a))


def hermitian_eigh(m, tol: ToleranceProfile = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (LAPACK ``np.linalg.eigh``).

    Parameters
    ----------
    m : array_like
        Hermitian matrix with finite entries (validated against
        ``tol.hermitian_tol``).  The solver sees the Hermitian average
        ``(m + m^H) / 2``, which sheds the validated asymmetry noise.
    tol : ToleranceProfile
        Tolerance profile; ``tol.eig_tol`` bounds the accepted residual.

    Returns
    -------
    (w, v) : tuple of ndarray
        ``w`` real eigenvalues in ascending order, ``v`` unitary with
        ``m @ v[:, k] == w[k] * v[:, k]``.  The reconstruction residual
        ``||m v - v diag(w)||_F`` is checked against
        ``tol.eig_tol * ||m||_F``; a larger one raises ``ArithmeticError``.

    Raises
    ------
    ValueError
        If ``m`` is not square, has a NaN or infinite entry, or is not
        Hermitian within tolerance.
    """
    a = _as_square(m)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has a non-finite entry")
    if not is_hermitian(a, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    scale = float(np.linalg.norm(a))
    herm = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(herm)
    residual = float(np.linalg.norm(herm @ v - v * w[np.newaxis, :]))
    if residual > tol.eig_tol * max(scale, 1e-300):
        raise ArithmeticError(
            f"eigensolver did not reach the requested residual: "
            f"{residual:.3e} > {tol.eig_tol:.1e} * {scale:.3e}"
        )
    return w, v


def hermitian_eigenvalues(m, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix, from :func:`hermitian_eigh`."""
    w, _ = hermitian_eigh(m, tol=tol)
    return w


def psd_classify(m, tol: ToleranceProfile = DEFAULT_TOL) -> str:
    """Classify a Hermitian matrix by the sign of its smallest eigenvalue.

    Returns ``"positive_definite"`` when ``lambda_min > band``,
    ``"indefinite"`` when ``lambda_min < -band`` and
    ``"positive_semidefinite"`` inside the band, where
    ``band = tol.eig_tol * ||m||_F``.  The band is relative with no
    absolute floor, so the label does not depend on the scale of ``m``;
    the zero matrix (band 0, lambda_min 0) classifies as positive
    semidefinite.
    """
    a = _as_square(m)
    return psd_class_of(float(hermitian_eigenvalues(a, tol=tol)[0]), a, tol)


def psd_class_of(lam_min: float, m, tol: ToleranceProfile = DEFAULT_TOL) -> str:
    """The :func:`psd_classify` label of ``m``, given its smallest eigenvalue."""
    band = tol.eig_tol * float(np.linalg.norm(m))
    if lam_min > band:
        return POSITIVE_DEFINITE
    if lam_min < -band:
        return INDEFINITE
    return POSITIVE_SEMIDEFINITE


def min_eig_at_least(A: np.ndarray, t) -> np.ndarray:
    """Per matrix of a batch, whether ``lambda_min >= t``, from pivots alone.

    ``A`` is a draws-last (n, n, B) stack of real symmetric matrices and is
    overwritten; ``t`` is a scalar or one threshold per matrix.  lambda_min
    >= t iff A - t I is positive semidefinite iff every pivot of its
    square-root-free Cholesky (LDL^T) elimination is >= 0, a zero pivot
    with a zero column below it.  Each elimination step is one operation on
    whole rows of B matrices.  A matrix within rounding of the threshold
    may fall either way; one with a NaN entry or threshold fails.
    """
    n = A.shape[0]
    diag = np.arange(n)
    A[diag, diag] -= t
    keep = np.ones(A.shape[2], dtype=bool)
    # an overflowing update is a hugely negative Schur complement: rejected
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n - 1):
            piv, col = A[j, j], A[j + 1 :, j]
            pos = piv > 0
            keep &= pos | ((piv == 0) & ~col.any(axis=0))
            ratio = col / np.where(pos, piv, np.inf)  # no update below a rejected pivot
            A[j + 1 :, j + 1 :] -= ratio[:, np.newaxis] * col
    return keep & (A[-1, -1] >= 0)
