"""Block matrices and determinantal stability certificates.

The semidefinite half of the package works with polynomials of the form

    f(Z) = det( sum_{i,j} A_ij * z_ij + B ),

where A is an n x n grid of d x d blocks, B is a d x d Hermitian matrix,
and Z = (z_ij) ranges over symmetric matrix variables.  When the flattened
block matrix is positive semidefinite, f is stable relative to the PSD
cone (or vanishes identically) — that is a *sufficient* certificate, and
the machinery here makes it checkable:

* :class:`BlockMatrix` stores the uniform block grid and flattens it,
* :func:`khatri_rao` takes blockwise Kronecker products, whose
  PSD-preservation facts (:func:`liu_psd_check`) drive the argument,
* :func:`assemble_coefficient` forms sum y_ij A_ij and cross-checks it
  against the flanked Khatri-Rao identity
  (1 x n of I_d) (Y * A) (n x 1 of I_d),
* :func:`thm54_certify` issues the certificate itself; a PSD flattening
  makes f stable or zero, and the expansion (within the caps, returned
  with the certificate) or the one value f(iI) = det(B + i sum_i A_ii)
  says which,
* :func:`expand_det_polynomial` expands f symbolically for small sizes so
  the certificate can be cross-checked against the sampling falsifier,
* :func:`perturbed_certify` walks a singular PSD matrix through the
  definite approximations A + eps * I used to reach the boundary case,
  reading every step from the one eigensolve of A (the spectrum shifts
  by eps) and one expansion with eps as a variable,
* :func:`prop56_diagonal_criterion` handles grids of *diagonal* blocks,
  where semidefiniteness splits into d independent n x n conditions under
  an explicit permutation.

Everything here is pure linear algebra on small matrices; the sampling
counterpart lives in :mod:`conicstab.constab`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
import numpy as np

from .linalg import (
    INDEFINITE,
    POSITIVE_DEFINITE,
    POSITIVE_SEMIDEFINITE,
    hermitian_eigenvalues,
    hermitian_eigh,
    is_hermitian,
    psd_class_of,
    psd_classify,
)
from .poly import MatrixVarIndex, MultiPoly
from .tolerances import DEFAULT_TOL, ToleranceProfile

CERTIFIED_STABLE = "certified_stable"
NOT_CERTIFIED = "not_certified"
IDENTICALLY_ZERO = "identically_zero"

_EXPAND_N_CAP = 4
_EXPAND_D_CAP = 4


# ---------------------------------------------------------------------------
# Block matrices
# ---------------------------------------------------------------------------


class BlockMatrix:
    """An n1 x n2 grid of p x q complex blocks with a uniform shape.

    Stored as a read-only (n1, n2, p, q) array.  ``flatten`` produces the
    ordinary (n1*p) x (n2*q) matrix; ``is_hermitian`` checks the blockwise
    condition A_ij = A_ji^H, which holds exactly when the grid is square
    and the flattening is Hermitian (:func:`conicstab.linalg.is_hermitian`).
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks) -> None:
        arr = np.asarray(blocks, dtype=complex)
        if arr.ndim != 4:
            raise ValueError("blocks must form an (n1, n2, p, q) array")
        if min(arr.shape) < 1:
            raise ValueError("block grid and block shape must be nonempty")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "blocks", arr)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BlockMatrix is immutable")

    @property
    def n1(self) -> int:
        return self.blocks.shape[0]

    @property
    def n2(self) -> int:
        return self.blocks.shape[1]

    @property
    def p(self) -> int:
        return self.blocks.shape[2]

    @property
    def q(self) -> int:
        return self.blocks.shape[3]

    @property
    def grid(self) -> tuple[int, int]:
        return (self.n1, self.n2)

    def flatten(self) -> np.ndarray:
        n1, n2, p, q = self.blocks.shape
        return self.blocks.transpose(0, 2, 1, 3).reshape(n1 * p, n2 * q).copy()

    def is_hermitian(self, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
        square = self.n1 == self.n2 and self.p == self.q
        return square and is_hermitian(self.flatten(), tol)

    def is_real(self, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
        return bool(np.all(tol.negligible(self.blocks.imag)))

    @staticmethod
    def from_flat(m, n1: int, n2: int) -> "BlockMatrix":
        """Cut an ordinary matrix into an n1 x n2 grid of equal blocks."""
        arr = np.asarray(m, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] % n1 or arr.shape[1] % n2:
            raise ValueError("matrix shape is not divisible into the requested grid")
        p, q = arr.shape[0] // n1, arr.shape[1] // n2
        return BlockMatrix(arr.reshape(n1, p, n2, q).transpose(0, 2, 1, 3))

    @staticmethod
    def scalar(m) -> "BlockMatrix":
        """View an ordinary matrix as a grid of 1 x 1 blocks."""
        arr = np.asarray(m, dtype=complex)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        return BlockMatrix(arr[:, :, None, None])

    def __eq__(self, other) -> bool:
        return isinstance(other, BlockMatrix) and np.array_equal(self.blocks, other.blocks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockMatrix(grid={self.n1}x{self.n2}, block={self.p}x{self.q})"


def _check_square(A: BlockMatrix, B=None) -> np.ndarray | None:
    """Require a square grid of square blocks and finite entries; return B as a d x d complex array."""
    if A.n1 != A.n2 or A.p != A.q:
        raise ValueError("expected a square grid of square blocks")
    if not np.all(np.isfinite(A.blocks)):
        raise ValueError("block matrix has a non-finite entry")
    if B is None:
        return None
    b = np.asarray(B, dtype=complex)
    if b.shape != (A.p, A.p):
        raise ValueError(f"B must be {A.p} x {A.p}")
    if not np.all(np.isfinite(b)):
        raise ValueError("B has a non-finite entry")
    return b


def block_matrix_to_json(A: BlockMatrix) -> str:
    """Serialize a square-grid, square-block matrix.

    Complex grids set ``re_im`` and store every entry as an [re, im] pair;
    real grids store plain floats.
    """
    _check_square(A)
    complex_entries = bool(np.max(np.abs(A.blocks.imag)) > 0.0)
    if complex_entries:
        paired = np.stack([A.blocks.real, A.blocks.imag], axis=-1)
        payload = paired.tolist()
    else:
        payload = A.blocks.real.tolist()
    return json.dumps(
        {"n": A.n1, "d": A.p, "re_im": complex_entries, "blocks": payload}
    )


def block_matrix_from_json(text: str) -> BlockMatrix:
    data = json.loads(text)
    n, d = int(data["n"]), int(data["d"])
    raw = np.asarray(data["blocks"], dtype=float)
    if data.get("re_im", False):
        if raw.shape != (n, n, d, d, 2):
            raise ValueError("paired blocks must have shape (n, n, d, d, 2)")
        arr = raw[..., 0] + 1j * raw[..., 1]
    else:
        if raw.shape != (n, n, d, d):
            raise ValueError("blocks must have shape (n, n, d, d)")
        arr = raw.astype(complex)
    return BlockMatrix(arr)


# ---------------------------------------------------------------------------
# Khatri-Rao products
# ---------------------------------------------------------------------------


def khatri_rao(A: BlockMatrix, B: BlockMatrix) -> BlockMatrix:
    """Blockwise Kronecker product (A * B)_ij = A_ij (x) B_ij.

    The grids must agree; block shapes may differ and multiply.
    """
    if A.grid != B.grid:
        raise ValueError(f"block grids differ: {A.grid} vs {B.grid}")
    n1, n2 = A.grid
    prod = np.einsum("ijab,ijcd->ijacbd", A.blocks, B.blocks)
    return BlockMatrix(prod.reshape(n1, n2, A.p * B.p, A.q * B.q))


@dataclass(frozen=True)
class LiuReport:
    """Outcome of the two PSD-preservation implications for A * B."""

    a_class: str
    b_class: str
    a_diagonal_definite: bool
    product_class: str
    psd_implication_ok: bool | None
    pd_implication_ok: bool | None

    @property
    def holds_all(self) -> bool:
        return self.psd_implication_ok is not False and self.pd_implication_ok is not False


def liu_psd_check(A: BlockMatrix, B: BlockMatrix, tol: ToleranceProfile = DEFAULT_TOL) -> LiuReport:
    """Check the Khatri-Rao semidefiniteness implications on a pair.

    Implication one: A, B both PSD forces A * B PSD.  Implication two:
    A PSD with positive definite diagonal blocks and B positive definite
    force A * B positive definite.  ``None`` marks an implication whose
    premise does not apply; ``False`` would disprove the implementation.
    """
    if A.grid != B.grid:
        raise ValueError(f"block grids differ: {A.grid} vs {B.grid}")
    _check_square(A)
    _check_square(B)
    if not A.is_hermitian(tol) or not B.is_hermitian(tol):
        raise ValueError("liu_psd_check expects Hermitian block matrices")
    a_class = psd_classify(A.flatten(), tol)
    b_class = psd_classify(B.flatten(), tol)
    diag_definite = all(
        psd_classify(A.blocks[i, i], tol) == POSITIVE_DEFINITE for i in range(A.n1)
    )
    product_class = psd_classify(khatri_rao(A, B).flatten(), tol)

    semidef = (POSITIVE_DEFINITE, POSITIVE_SEMIDEFINITE)
    psd_ok: bool | None = None
    if a_class in semidef and b_class in semidef:
        psd_ok = product_class in semidef
    pd_ok: bool | None = None
    if a_class in semidef and diag_definite and b_class == POSITIVE_DEFINITE:
        pd_ok = product_class == POSITIVE_DEFINITE
    return LiuReport(
        a_class=a_class,
        b_class=b_class,
        a_diagonal_definite=diag_definite,
        product_class=product_class,
        psd_implication_ok=psd_ok,
        pd_implication_ok=pd_ok,
    )


def assemble_coefficient(Y, A: BlockMatrix, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Form sum_ij y_ij A_ij for a real symmetric Y.

    The same matrix equals (1 x n of I_d) (Y * A) (n x 1 of I_d) with Y
    read as a grid of scalar blocks; the identity is asserted in debug
    builds because it is the hinge the definite-coefficient argument
    turns on.
    """
    y = np.asarray(Y, dtype=float)
    _check_square(A)
    n, d = A.n1, A.p
    if y.shape != (n, n):
        raise ValueError(f"Y must be {n} x {n}")
    if not is_hermitian(y, tol):
        raise ValueError("Y must be symmetric")
    out = np.einsum("ij,ijab->ab", y, A.blocks)

    if __debug__:
        left = np.kron(np.ones((1, n)), np.eye(d))
        right = np.kron(np.ones((n, 1)), np.eye(d))
        flanked = left @ khatri_rao(BlockMatrix.scalar(y), A).flatten() @ right
        scale = max(1.0, float(np.max(np.abs(out))))
        assert float(np.max(np.abs(out - flanked))) <= 1e-10 * scale
    return out


# ---------------------------------------------------------------------------
# Symbolic expansion of det(sum A_ij z_ij + B)
# ---------------------------------------------------------------------------


def _entry_polynomials(
    A: BlockMatrix, B: np.ndarray, tol: ToleranceProfile, shift: bool = False
) -> list[list[MultiPoly]]:
    """The d x d grid of affine-linear entries in the symmetric variables.

    The variables are the upper-triangle entries of a symmetric Z, so the
    coefficient of z_ij with i < j collects both A_ij and A_ji.  With
    ``shift`` the entries are those of A + eps * I, eps being one more
    variable after the z_ij: each diagonal entry gains eps * sum_i z_ii.
    """
    n, d = A.n1, A.p
    index = MatrixVarIndex(n)
    names = index.names + (("eps",) if shift else ())
    nvars = len(names)
    entries: list[list[MultiPoly]] = []
    zero_exp = (0,) * nvars
    for k in range(d):
        row = []
        for l in range(d):
            terms: dict[tuple[int, ...], complex] = {}
            const = complex(B[k, l])
            if const:
                terms[zero_exp] = const
            for i in range(n):
                for j in range(i, n):
                    coeff = A.blocks[i, j, k, l]
                    if i != j:
                        coeff = coeff + A.blocks[j, i, k, l]
                    exp = [0] * nvars
                    exp[index.flat(i, j)] = 1
                    if coeff:
                        terms[tuple(exp)] = complex(coeff)
                    if shift and i == j and k == l:
                        exp[-1] = 1
                        terms[tuple(exp)] = 1.0
            row.append(MultiPoly(names, terms, tol=tol))
        entries.append(row)
    return entries


def _det_cofactor(rows: list[list[MultiPoly]], names: tuple[str, ...]) -> MultiPoly:
    d = len(rows)
    if d == 1:
        return rows[0][0]
    total = MultiPoly.zero(names)
    for col in range(d):
        entry = rows[0][col]
        if not entry:
            continue
        minor = [[rows[r][c] for c in range(d) if c != col] for r in range(1, d)]
        term = entry * _det_cofactor(minor, names)
        total = total + (term if col % 2 == 0 else -term)
    return total


def _check_caps(A: BlockMatrix) -> None:
    """Raise ``ValueError`` when the grid or block size exceeds the expansion caps."""
    if A.n1 > _EXPAND_N_CAP or A.p > _EXPAND_D_CAP:
        raise ValueError(
            f"expansion capped at grid {_EXPAND_N_CAP}, block {_EXPAND_D_CAP} (got {A.n1}, {A.p})"
        )


def expand_det_polynomial(
    A: BlockMatrix,
    B,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> MultiPoly:
    """Exact expansion of det(sum A_ij z_ij + B) in symmetric variables.

    Works over the upper-triangle variable set z_ij (i <= j) of the n x n
    symmetric argument, so off-diagonal pairs contribute A_ij + A_ji.
    Sizes are capped because cofactor expansion is exponential in d.
    """
    b = _check_square(A, B)
    _check_caps(A)
    entries = _entry_polynomials(A, b, tol)
    names = MatrixVarIndex(A.n1).names
    return _det_cofactor(entries, names)


# ---------------------------------------------------------------------------
# The sufficient stability certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetCertificate:
    """Result of the semidefinite coefficient test.

    ``certified_stable`` — the flattened block matrix is PSD and the
    polynomial is not identically zero, which makes det(sum A_ij z_ij + B)
    stable relative to the PSD cone.  ``not_certified`` — the flattened
    matrix is indefinite; the criterion is sufficient only, so nothing is
    claimed about stability either way.  ``identically_zero`` — the
    coefficient structure makes the determinant vanish as a polynomial.

    ``flat_class`` and ``lambda_min`` describe the flattening.  The zero
    test (``nonzero_method``) is ``"expansion"`` within the caps, which
    also sets ``polynomial``, or ``"evaluation"`` of f(iI) above them,
    which leaves it ``None``; for ``not_certified`` both are ``None``.
    A positive definite flattening is certified on either route (f(iI) is
    nonzero), so its ``polynomial`` may be the zero polynomial when the
    trim emptied the expansion; the certificate text then says so.
    """

    outcome: str
    lambda_min: float
    certificate: str
    flat_class: str
    nonzero_method: str | None = None
    polynomial: MultiPoly | None = None


def _poly_is_nonzero(A: BlockMatrix, b: np.ndarray, tol: ToleranceProfile) -> tuple[bool, str, MultiPoly | None]:
    """Zero test for det(sum A_ij z_ij + B) when the flattening is PSD.

    Within the caps the expansion decides (and is returned).  Above them,
    as f is stable or zero, f(iI) decides: B + i sum_i A_ii is singular
    when sigma_min <= tol.eig_tol * sigma_max, which includes the zero matrix.
    """
    if A.n1 <= _EXPAND_N_CAP and A.p <= _EXPAND_D_CAP:
        f = expand_det_polynomial(A, b, tol)
        return bool(f), "expansion", f
    sigma = np.linalg.svd(b + 1j * np.einsum("iiab->ab", A.blocks), compute_uv=False)
    return bool(sigma[-1] > tol.eig_tol * sigma[0]), "evaluation", None


def thm54_certify(
    A: BlockMatrix,
    B,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> DetCertificate:
    """Sufficient stability certificate for det(sum A_ij z_ij + B).

    A positive semidefinite flattened block matrix certifies stability of
    the determinant polynomial relative to PSD(n) — unless the polynomial
    vanishes identically, which is reported separately.  An indefinite
    flattening yields ``not_certified``: the test is one-sided and never
    claims instability (there are indefinite examples whose polynomial is
    stable regardless).
    """
    b = _check_square(A, B)
    if not A.is_hermitian(tol):
        raise ValueError("block matrix must be Hermitian (A_ij = A_ji^H)")
    if not is_hermitian(b, tol):
        raise ValueError("B must be Hermitian")

    flat = A.flatten()
    lam_min = float(hermitian_eigh(flat, tol)[0][0])
    flat_class = psd_class_of(lam_min, flat, tol)
    if flat_class == INDEFINITE:
        return DetCertificate(
            outcome=NOT_CERTIFIED,
            lambda_min=lam_min,
            certificate=(
                f"flattened coefficient matrix is indefinite (lambda_min = {lam_min:.6g}); "
                "the semidefinite test is sufficient only"
            ),
            flat_class=flat_class,
        )

    nonzero, method, poly = _poly_is_nonzero(A, b, tol)
    outcome, text = IDENTICALLY_ZERO, "determinant vanishes identically"
    # A definite flattening is nonzero by itself: f(iI) = det(B + i sum_i A_ii)
    # with sum_i A_ii definite, even where the expansion trims every term.
    if nonzero or flat_class == POSITIVE_DEFINITE:
        b_residual = float(np.max(np.abs(b - b.conj().T)))
        outcome, text = CERTIFIED_STABLE, (
            f"flattened coefficient matrix is {flat_class} "
            f"(lambda_min = {lam_min:.6g}); B Hermitian residual {b_residual:.2g}"
            + ("" if nonzero else "; expansion trimmed to zero, f(iI) nonzero by definiteness")
        )
    return DetCertificate(
        outcome=outcome,
        lambda_min=lam_min,
        certificate=text,
        flat_class=flat_class,
        nonzero_method=method,
        polynomial=poly,
    )


# ---------------------------------------------------------------------------
# Boundary approximation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbEntry:
    eps: float
    flat_class: str
    diagonal_definite: bool
    outcome: str
    coeff_diff: float


@dataclass(frozen=True)
class PerturbReport:
    entries: tuple[PerturbEntry, ...]
    trivial: bool
    converged: bool

    @property
    def all_certified(self) -> bool:
        return all(e.outcome == CERTIFIED_STABLE for e in self.entries)


def perturbed_certify(
    A: BlockMatrix,
    B,
    schedule=None,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> PerturbReport:
    """Approximate a singular PSD coefficient matrix from the definite side.

    Adds eps * I to every diagonal block (equivalently eps * I to the
    flattening), checks each perturbation is PSD with definite diagonal
    blocks, certifies it, and tracks coefficientwise convergence of the
    perturbed polynomials back to the unperturbed one.  Definite input
    needs no approximation and reports a trivial pass; indefinite input,
    singular input above the expansion caps, and a ``schedule`` that is
    empty or holds an entry that is not positive and finite are rejected
    with ``ValueError``.

    The walk costs one eigensolve and at most two expansions however long
    the schedule.  A + eps * I has the spectrum of A shifted by eps, so
    each step's flattening and diagonal blocks are classified from the
    one eigensolve of A, in the band of the shifted matrix.  The
    determinant is expanded once with eps as a variable; its eps^k parts
    form a (d+1, T) array Q over the T monomials in z, and V @ Q, with V
    the schedule's Vandermonde matrix, gives every step's coefficients,
    trimmed by ``tol.negligible``.  A step is certified as
    :func:`thm54_certify` would certify A + eps * I.  ``converged`` reads
    the drift at the smallest eps against the drift at the largest; the
    entries keep the schedule's order.
    """
    eps_list = [2.0 ** -k for k in range(1, 21)] if schedule is None else [float(e) for e in schedule]
    if not eps_list or not all(0 < e < np.inf for e in eps_list):
        raise ValueError("schedule must be a nonempty list of positive finite entries")
    b = _check_square(A, B)
    n, d = A.n1, A.p
    base = thm54_certify(A, b, tol)  # A + eps*I is Hermitian exactly when A is
    if base.flat_class == INDEFINITE:
        raise ValueError("perturbed_certify requires a semidefinite block matrix")
    if base.flat_class == POSITIVE_DEFINITE:
        entry = PerturbEntry(
            eps=0.0,
            flat_class=base.flat_class,
            diagonal_definite=True,
            outcome=base.outcome,
            coeff_diff=0.0,
        )
        return PerturbReport(entries=(entry,), trivial=True, converged=True)

    _check_caps(A)  # within the caps the base certificate carries its expansion
    base_poly = base.polynomial
    entries = _entry_polynomials(A, b, tol, shift=True)
    shifted = _det_cofactor(entries, entries[0][0].var_names)
    # one column per monomial in z, of the base polynomial or of any eps^k part
    monomials = [*base_poly.terms, *(e[:-1] for e in shifted.terms)]
    cols = {e: c for c, e in enumerate(dict.fromkeys(monomials))}
    Q = np.zeros((d + 1, len(cols)), dtype=complex)
    for e, c in shifted.terms.items():
        Q[e[-1], cols[e[:-1]]] = c
    eps = np.array(eps_list)
    coeffs = np.vander(eps, d + 1, increasing=True) @ Q
    coeffs[tol.negligible(coeffs)] = 0
    base_row = np.array([base_poly.terms.get(e, 0j) for e in cols], dtype=complex)
    diffs = np.abs(coeffs - base_row).max(axis=1, initial=0.0)
    nonzero = coeffs.any(axis=1)

    flat, eye = A.flatten(), np.eye(n * d)
    # A_ii + eps*I has eigenvalues lambda(A_ii) + eps: one solve per block.
    diag_min = [float(hermitian_eigenvalues(A.blocks[i, i], tol)[0]) for i in range(n)]
    steps = []
    for e, diff, live in zip(eps_list, diffs, nonzero):
        flat_class = psd_class_of(base.lambda_min + e, flat + e * eye, tol)
        if flat_class == INDEFINITE:
            outcome = NOT_CERTIFIED
        elif live or flat_class == POSITIVE_DEFINITE:
            outcome = CERTIFIED_STABLE
        else:
            outcome = IDENTICALLY_ZERO
        diag_def = all(
            psd_class_of(lam + e, A.blocks[i, i] + e * eye[:d, :d], tol) == POSITIVE_DEFINITE
            for i, lam in enumerate(diag_min)
        )
        steps.append(
            PerturbEntry(
                eps=e,
                flat_class=flat_class,
                diagonal_definite=diag_def,
                outcome=outcome,
                coeff_diff=float(diff),
            )
        )

    small, large = diffs[np.argmin(eps)], diffs[np.argmax(eps)]
    scale = max(1.0, base_poly.coeff_norm1())
    converged = bool(small <= 1e-4 * scale and small <= large + tol.coeff_zero_tol)
    return PerturbReport(entries=tuple(steps), trivial=False, converged=converged)


# ---------------------------------------------------------------------------
# Diagonal-block reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalReport:
    """Per-slice semidefiniteness of a grid of diagonal blocks.

    ``block_classes[k]`` classifies the n x n matrix collecting entry
    (k, k) of every block; the permutation that block-diagonalizes the
    flattening into exactly those slices is verified entry-for-entry.
    """

    block_classes: tuple[str, ...]
    overall_class: str
    permutation_ok: bool
    consistent: bool
    scalar_conditions: tuple[bool, ...] | None


def prop56_diagonal_criterion(A: BlockMatrix, tol: ToleranceProfile = DEFAULT_TOL) -> DiagonalReport:
    """Split a grid of diagonal blocks into d independent n x n tests.

    When every block A_ij is diagonal, the flattening is similar (by the
    permutation sending grid position (i, k) to k*n + i) to the direct
    sum of the slice matrices A_k = (A_ij[k, k])_ij, so semidefiniteness
    holds exactly when every slice is semidefinite.  For 2 x 2 grids the
    slice conditions are also reported as the explicit scalar
    inequalities (diagonal nonnegativity plus determinant), with bands
    ``tol.eig_tol`` times the slice's Frobenius norm and its square, so
    they do not depend on the scale of A.  A block entry off its diagonal
    counts as zero up to ``tol.hermitian_tol`` times the largest entry of
    the grid; a larger one raises ``ValueError``.
    """
    _check_square(A)
    n, d = A.n1, A.p
    off_mask = ~np.eye(d, dtype=bool)
    worst = float(np.max(np.abs(A.blocks[:, :, off_mask]))) if d > 1 else 0.0
    if worst > tol.hermitian_tol * float(np.max(np.abs(A.blocks))):
        raise ValueError("all blocks must be diagonal for the slice reduction")

    slices = [np.array(A.blocks[:, :, k, k]) for k in range(d)]
    block_classes = tuple(psd_classify(s, tol) for s in slices)
    flat = A.flatten()
    overall = psd_classify(flat, tol)

    # Permutation check: P[i*d + k, k*n + i] = 1 block-diagonalizes flat.
    P = np.zeros((n * d, n * d))
    for i in range(n):
        for k in range(d):
            P[i * d + k, k * n + i] = 1.0
    conjugated = P.T @ flat @ P
    expected = np.zeros_like(conjugated)
    for k in range(d):
        expected[k * n:(k + 1) * n, k * n:(k + 1) * n] = slices[k]
    permutation_ok = np.array_equal(conjugated, expected)

    semidef = (POSITIVE_DEFINITE, POSITIVE_SEMIDEFINITE)
    consistent = (overall in semidef) == all(c in semidef for c in block_classes)

    scalar_conditions = None
    if n == 2:
        conds = []
        for s in slices:
            norm = float(np.linalg.norm(s))
            ok = (
                min(s[0, 0].real, s[1, 1].real) >= -tol.eig_tol * norm
                and (s[0, 0].real * s[1, 1].real - abs(s[0, 1]) ** 2) >= -tol.eig_tol * norm**2
            )
            conds.append(bool(ok))
        scalar_conditions = tuple(conds)

    return DiagonalReport(
        block_classes=block_classes,
        overall_class=overall,
        permutation_ok=permutation_ok,
        consistent=consistent,
        scalar_conditions=scalar_conditions,
    )
