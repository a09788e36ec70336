"""Shared numerical tolerances.

Every module takes an optional :class:`ToleranceProfile`; the defaults below
are tuned for double precision at desk scale (matrix dimensions in the tens,
polynomial degrees in the single digits).  Tolerances are grouped here rather
than scattered through the code so that a caller who needs a looser or
tighter regime can thread one object through the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical slack used across the package.

    Attributes
    ----------
    hermitian_tol : float
        Relative slack when validating Hermitian symmetry of a matrix.
    eig_tol : float
        Acceptable eigendecomposition residual relative to the Frobenius
        norm of the input; also the half-width of the semidefinite band
        around zero (for a univariate Bezoutian relative to the squared
        coefficient mass of its normalized row, on top of its rounding).
    coeff_zero_tol : float
        Polynomial coefficients with modulus at or below this are dropped
        during canonicalization (:meth:`negligible`, the one trim rule).
    root_tol : float
        Univariate root acceptance: |p(r)| <= root_tol * ||p||_1 * max(1,|r|)^deg.
    real_root_im_tol : float
        The one slack on imaginary parts of computed roots: a root with
        Im(r) <= real_root_im_tol does not disprove stability, and a root
        with |Im(r)| <= real_root_im_tol * max(1, |r|) is read as real.
    sign_tol : float
        Relative slack when testing nonpositivity of a sampled function.
    residual_tol : float
        Witness acceptance: |f(z)| <= residual_tol * sum|coeff| * max(1,|z|)^deg.
    interior_tol : float
        Strict-inequality slack for cone interior membership queries.
    sample_margin : float
        Offset pushing interior samples away from the cone boundary; also
        the unit of the witness margin requirement (margin >= sample_margin/2).
    sample_sigma : float
        Standard deviation of the Gaussian real-part draws in the samplers.
    """

    hermitian_tol: float = 1e-10
    eig_tol: float = 1e-10
    coeff_zero_tol: float = 1e-12
    root_tol: float = 1e-8
    real_root_im_tol: float = 1e-9
    sign_tol: float = 1e-9
    residual_tol: float = 1e-6
    interior_tol: float = 1e-9
    sample_margin: float = 1e-3
    sample_sigma: float = 2.0

    def with_overrides(self, **kwargs: float) -> "ToleranceProfile":
        """Return a copy with the named fields replaced."""
        return replace(self, **kwargs)

    def negligible(self, c):
        """``|c| <= coeff_zero_tol``, on a scalar or elementwise on an array.

        The coefficient-zero (trim) rule: ``MultiPoly`` and ``UniPoly`` drop
        such coefficients, the ``is_real`` tests read such imaginary parts as
        zero, the pencil trims its weight rows with it, and ``Polyhedral``
        applies it to generator norms relative to the largest.
        """
        return abs(c) <= self.coeff_zero_tol


#: Default profile shared by all modules.
DEFAULT_TOL = ToleranceProfile()
