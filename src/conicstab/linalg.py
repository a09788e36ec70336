"""Dense Hermitian linear algebra on small complex matrices.

Self-contained kernels sized for the rest of the package: a cyclic Jacobi
eigensolver for Hermitian matrices and positive-semidefiniteness
classification.  Matrices are plain numpy arrays (row-major complex
entries); shape and Hermitian symmetry are validated at the interfaces.

The Jacobi solver is used instead of a library eigensolver because its
convergence on Hermitian input is unconditional and its failure modes are
transparent; on the matrix sizes handled here (tens of rows) it is more
than fast enough.
"""

from __future__ import annotations

import numpy as np

from .tolerances import DEFAULT_TOL, ToleranceProfile

__all__ = [
    "is_hermitian",
    "hermitian_eigh",
    "hermitian_eigenvalues",
    "psd_classify",
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

    The comparison is relative: the defect ``||m - m^H||_F`` is measured
    against ``max(1, ||m||_F)``.
    """
    a = _as_square(m)
    scale = max(1.0, float(np.linalg.norm(a)))
    return float(np.linalg.norm(a - a.conj().T)) <= tol.hermitian_tol * scale


def _require_hermitian(a: np.ndarray, tol: ToleranceProfile) -> None:
    if not is_hermitian(a, tol):
        raise ValueError("matrix is not Hermitian within tolerance")


def hermitian_eigh(
    m,
    tol: ToleranceProfile = DEFAULT_TOL,
    max_sweeps: int = 40,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Parameters
    ----------
    m : array_like
        Hermitian matrix (validated against ``tol.hermitian_tol``).
    tol : ToleranceProfile
        Tolerance profile; ``tol.eig_tol`` bounds the accepted residual.
    max_sweeps : int
        Safety cap on full sweeps; convergence is quadratic and typically
        takes fewer than ten.

    Returns
    -------
    (w, v) : tuple of ndarray
        ``w`` real eigenvalues in ascending order, ``v`` unitary with
        ``m @ v[:, k] == w[k] * v[:, k]``.  The reconstruction residual
        ``||m v - v diag(w)||_F`` is guaranteed ``<= tol.eig_tol * ||m||_F``.

    Notes
    -----
    Each rotation first removes the phase of the pivot entry and then
    applies the classical symmetric Jacobi rotation, so the update is a
    plane unitary.  Off-diagonal mass decreases monotonically, which gives
    unconditional convergence on Hermitian input.
    """
    a = _as_square(m).copy()
    _require_hermitian(a, tol)
    n = a.shape[0]
    scale = float(np.linalg.norm(a))
    if n == 1:
        return np.array([a[0, 0].real]), np.eye(1, dtype=complex)

    # Work on the Hermitian average to shed the validated asymmetry noise.
    a = 0.5 * (a + a.conj().T)
    v = np.eye(n, dtype=complex)
    stop = max(np.finfo(float).eps * scale * n, 1e-300)

    for _ in range(max_sweeps):
        # Off-diagonal mass measured entrywise: subtracting the diagonal
        # mass from the total cancels catastrophically once convergence
        # is near and can report 0 while an O(sqrt(eps)) entry survives.
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= stop / n:
                    continue
                phase = apq / abs(apq)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(apq))
                sgn = 1.0 if tau >= 0.0 else -1.0
                t = sgn / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c * phase
                # A <- G^H A G with the plane unitary G = [[c, s], [-conj(s), c]].
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - np.conj(s) * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = np.conj(s) * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                vcol_p, vcol_q = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vcol_p - np.conj(s) * vcol_q
                v[:, q] = s * vcol_p + c * vcol_q

    w = np.real(np.diag(a))
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = v[:, order]

    herm = 0.5 * (_as_square(m) + _as_square(m).conj().T)
    residual = float(np.linalg.norm(herm @ v - v * w[np.newaxis, :]))
    if residual > tol.eig_tol * max(scale, 1e-300):
        raise ArithmeticError(
            f"Jacobi eigensolver did not reach the requested residual: "
            f"{residual:.3e} > {tol.eig_tol:.1e} * {scale:.3e}"
        )
    return w, v


def hermitian_eigenvalues(m, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix (cyclic Jacobi)."""
    w, _ = hermitian_eigh(m, tol=tol)
    return w


def psd_classify(m, tol: ToleranceProfile = DEFAULT_TOL) -> str:
    """Classify a Hermitian matrix by the sign of its smallest eigenvalue.

    Returns ``"positive_definite"`` when ``lambda_min > band``,
    ``"indefinite"`` when ``lambda_min < -band`` and
    ``"positive_semidefinite"`` inside the band, where
    ``band = tol.eig_tol * max(1, ||m||_F)``.  The zero matrix therefore
    classifies as positive semidefinite.
    """
    a = _as_square(m)
    w = hermitian_eigenvalues(a, tol=tol)
    band = tol.eig_tol * max(1.0, float(np.linalg.norm(a)))
    lam_min = float(w[0])
    if lam_min > band:
        return POSITIVE_DEFINITE
    if lam_min < -band:
        return INDEFINITE
    return POSITIVE_SEMIDEFINITE

