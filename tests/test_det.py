"""Tests for block matrices and determinantal certificates.

Frozen oracles:

* coupling blocks I2 / offdiag(1/2): flattening has eigenvalues
  {1/2, 1/2, 3/2, 3/2} and det expansion (z11+z22)^2 - z12^2;
* blocks diag(1,5), offdiag(2), diag(5,1): flattening decouples into
  [[1,2],[2,1]] and [[5,2],[2,5]] with eigenvalues {-1,3} and {3,7},
  so lambda_min = -1, and the expansion is
  (z11+5 z22)(5 z11+z22) - 16 z12^2 = 5 z11^2 + 26 z11 z22 + 5 z22^2 - 16 z12^2.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conicstab.cones import PSD
from conicstab.constab import NOT_FALSIFIED, falsify_k_stability
from conicstab.det import (
    CERTIFIED_STABLE,
    IDENTICALLY_ZERO,
    NOT_CERTIFIED,
    BlockMatrix,
    assemble_coefficient,
    block_matrix_from_json,
    block_matrix_to_json,
    expand_det_polynomial,
    khatri_rao,
    liu_psd_check,
    perturbed_certify,
    prop56_diagonal_criterion,
    thm54_certify,
)
from conicstab.linalg import (
    INDEFINITE,
    POSITIVE_DEFINITE,
    POSITIVE_SEMIDEFINITE,
    hermitian_eigenvalues,
    psd_classify,
)
from conicstab.poly import parse

OFF_HALF = np.array([[0.0, 0.5], [0.5, 0.0]])
I2 = np.eye(2)


def coupling_example() -> BlockMatrix:
    return BlockMatrix([[I2, OFF_HALF], [OFF_HALF, I2]])


def indefinite_example() -> BlockMatrix:
    off2 = np.array([[0.0, 2.0], [2.0, 0.0]])
    return BlockMatrix([[np.diag([1.0, 5.0]), off2], [off2, np.diag([5.0, 1.0])]])


def planted_grid(seed, plant_a, plant_b, n=5, d=2):
    """A PSD n x n grid of d x d blocks and a Hermitian d x d B.

    A unit vector v drawn with the seed is planted in the kernel of every
    diagonal block (``plant_a``) and of B (``plant_b``).  Then
    B + i sum_i A_ii is singular exactly when both are planted, so the
    determinant vanishes identically exactly then.
    """
    gen = np.random.default_rng(seed)
    v = gen.normal(size=d) + 1j * gen.normal(size=d)
    proj = np.eye(d) - np.outer(v, v.conj()) / np.vdot(v, v).real
    G = gen.normal(size=(n * d, n * d)) + 1j * gen.normal(size=(n * d, n * d))
    if plant_a:
        G = G @ np.kron(np.eye(n), proj)
    H = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    H = H + H.conj().T
    return BlockMatrix.from_flat(G.conj().T @ G, n, n), proj @ H @ proj if plant_b else H


def random_psd_blocks(gen, n, d):
    """Gram-constructed PSD block matrix: flatten = G^H G cut into blocks."""
    G = gen.normal(size=(n * d, n * d)) + 1j * gen.normal(size=(n * d, n * d))
    return BlockMatrix.from_flat(G.conj().T @ G, n, n)


# ---------------------------------------------------------------------------
# BlockMatrix basics
# ---------------------------------------------------------------------------


class TestBlockMatrix:
    def test_flatten_layout(self):
        A = coupling_example()
        expected = np.array(
            [
                [1.0, 0.0, 0.0, 0.5],
                [0.0, 1.0, 0.5, 0.0],
                [0.0, 0.5, 1.0, 0.0],
                [0.5, 0.0, 0.0, 1.0],
            ]
        )
        assert np.array_equal(A.flatten().real, expected)
        assert A.grid == (2, 2) and (A.p, A.q) == (2, 2)

    def test_from_flat_round_trip(self):
        gen = np.random.default_rng(0)
        M = gen.normal(size=(6, 4))
        A = BlockMatrix.from_flat(M, 3, 2)
        assert (A.n1, A.n2, A.p, A.q) == (3, 2, 2, 2)
        assert np.array_equal(A.flatten().real, M)

    def test_from_flat_rejects_ragged_cut(self):
        with pytest.raises(ValueError):
            BlockMatrix.from_flat(np.eye(5), 2, 2)

    def test_scalar_blocks(self):
        Y = np.array([[2.0, 1.0], [1.0, 2.0]])
        A = BlockMatrix.scalar(Y)
        assert (A.p, A.q) == (1, 1)
        assert np.array_equal(A.flatten().real, Y)

    def test_hermitian_blockwise(self):
        A = coupling_example()
        assert A.is_hermitian()
        # Break the cross-block condition only.
        blocks = np.array(A.blocks)
        blocks[0, 1] = np.array([[0.0, 0.5], [0.5, 0.1]])
        assert not BlockMatrix(blocks).is_hermitian()

    def test_complex_hermitian(self):
        b01 = np.array([[0.0, 1j], [0.5, 0.0]])
        A = BlockMatrix([[I2, b01], [b01.conj().T, I2]])
        assert A.is_hermitian()
        assert not A.is_real()

    def test_immutable(self):
        A = coupling_example()
        with pytest.raises(AttributeError):
            A.blocks = None
        with pytest.raises(ValueError):
            A.blocks[0, 0, 0, 0] = 5.0

    def test_rejects_non_grid_input(self):
        with pytest.raises(ValueError):
            BlockMatrix(np.eye(3))

    def test_json_round_trip_real(self):
        A = coupling_example()
        text = block_matrix_to_json(A)
        data = json.loads(text)
        assert data["n"] == 2 and data["d"] == 2 and data["re_im"] is False
        assert block_matrix_from_json(text) == A

    def test_json_round_trip_complex(self):
        b01 = np.array([[0.0, 1j], [1j, 0.0]])
        A = BlockMatrix([[I2, b01], [b01.conj().T, I2]])
        text = block_matrix_to_json(A)
        assert json.loads(text)["re_im"] is True
        assert block_matrix_from_json(text) == A


# ---------------------------------------------------------------------------
# Kronecker and Khatri-Rao
# ---------------------------------------------------------------------------


class TestProducts:
    def test_kronecker_spectrum_is_pairwise_products(self):
        gen = np.random.default_rng(7)
        for _ in range(10):
            na, nb = gen.integers(2, 5), gen.integers(2, 5)
            Ma = gen.normal(size=(na, na)) + 1j * gen.normal(size=(na, na))
            Mb = gen.normal(size=(nb, nb)) + 1j * gen.normal(size=(nb, nb))
            Ha, Hb = Ma + Ma.conj().T, Mb + Mb.conj().T
            lam = hermitian_eigenvalues(np.kron(Ha, Hb))
            prods = np.sort(np.outer(hermitian_eigenvalues(Ha), hermitian_eigenvalues(Hb)).ravel())
            assert np.max(np.abs(lam - prods)) <= 1e-8

    def test_khatri_rao_scalar_blocks_rescale(self):
        Y = np.array([[2.0, -1.0], [-1.0, 3.0]])
        A = coupling_example()
        C = khatri_rao(BlockMatrix.scalar(Y), A)
        expected = np.array(A.blocks) * Y[:, :, None, None]
        assert np.array_equal(C.blocks, expected)

    def test_khatri_rao_single_block_is_kronecker(self):
        gen = np.random.default_rng(1)
        Ma = gen.normal(size=(1, 1, 2, 3))
        Mb = gen.normal(size=(1, 1, 3, 2))
        C = khatri_rao(BlockMatrix(Ma), BlockMatrix(Mb))
        assert np.array_equal(C.blocks[0, 0], np.kron(Ma[0, 0], Mb[0, 0]))

    def test_khatri_rao_zero_annihilates(self):
        A = coupling_example()
        Z = BlockMatrix(np.zeros((2, 2, 3, 3)))
        assert not np.any(khatri_rao(A, Z).blocks)

    def test_khatri_rao_grid_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(coupling_example(), BlockMatrix(np.zeros((3, 3, 1, 1))))


# ---------------------------------------------------------------------------
# PSD preservation
# ---------------------------------------------------------------------------


class TestLiu:
    def test_coupling_times_definite_scalars(self):
        Y = np.array([[2.0, 1.0], [1.0, 2.0]])
        rep = liu_psd_check(BlockMatrix.scalar(Y), coupling_example())
        assert rep.a_class == POSITIVE_DEFINITE
        assert rep.b_class == POSITIVE_DEFINITE
        assert rep.product_class == POSITIVE_DEFINITE
        assert rep.psd_implication_ok is True
        assert rep.pd_implication_ok is True
        assert rep.holds_all

    def test_identity_blocks(self):
        A = BlockMatrix([[I2, np.zeros((2, 2))], [np.zeros((2, 2)), I2]])
        rep = liu_psd_check(A, A)
        assert rep.product_class == POSITIVE_DEFINITE
        assert rep.holds_all

    def test_random_psd_property(self):
        gen = np.random.default_rng(42)
        for trial in range(25):
            n = int(gen.integers(2, 4))
            d = int(gen.integers(1, 3))
            A = random_psd_blocks(gen, n, d)
            B = random_psd_blocks(gen, n, d)
            rep = liu_psd_check(A, B)
            assert rep.psd_implication_ok is True, f"trial {trial}"
            assert rep.holds_all

    def test_indefinite_premise_not_applied(self):
        rep = liu_psd_check(indefinite_example(), coupling_example())
        assert rep.a_class == INDEFINITE
        assert rep.psd_implication_ok is None
        assert rep.pd_implication_ok is None
        assert rep.holds_all

    def test_rejects_non_hermitian(self):
        bad = BlockMatrix(np.arange(16.0).reshape(2, 2, 2, 2))
        with pytest.raises(ValueError):
            liu_psd_check(bad, coupling_example())


# ---------------------------------------------------------------------------
# Coefficient assembly
# ---------------------------------------------------------------------------


class TestAssemble:
    def test_identity_weights_sum_the_diagonal(self):
        A = coupling_example()
        Q = assemble_coefficient(np.eye(2), A)
        assert np.array_equal(Q, A.blocks[0, 0] + A.blocks[1, 1])

    def test_offdiagonal_weights_pick_cross_blocks(self):
        A = coupling_example()
        Y = np.array([[0.0, 1.0], [1.0, 0.0]])
        Q = assemble_coefficient(Y, A)
        assert np.array_equal(Q, A.blocks[0, 1] + A.blocks[1, 0])

    def test_definite_weights_give_definite_coefficient(self):
        Y = np.array([[2.0, 1.0], [1.0, 2.0]])
        Q = assemble_coefficient(Y, coupling_example())
        assert psd_classify(Q) == POSITIVE_DEFINITE

    def test_flanked_identity_on_random_instances(self):
        gen = np.random.default_rng(3)
        for _ in range(100):
            n = int(gen.integers(1, 5))
            d = int(gen.integers(1, 4))
            blocks = gen.normal(size=(n, n, d, d)) + 1j * gen.normal(size=(n, n, d, d))
            A = BlockMatrix(blocks)
            Y = gen.normal(size=(n, n))
            Y = Y + Y.T
            direct = np.einsum("ij,ijab->ab", Y, A.blocks)
            left = np.kron(np.ones((1, n)), np.eye(d))
            right = np.kron(np.ones((n, 1)), np.eye(d))
            flanked = left @ khatri_rao(BlockMatrix.scalar(Y), A).flatten() @ right
            scale = max(1.0, float(np.max(np.abs(direct))))
            assert np.max(np.abs(direct - flanked)) <= 1e-12 * scale
            assert np.max(np.abs(assemble_coefficient(Y, A) - direct)) == 0.0

    def test_rejects_asymmetric_weights(self):
        with pytest.raises(ValueError):
            assemble_coefficient(np.array([[0.0, 1.0], [0.0, 0.0]]), coupling_example())

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            assemble_coefficient(np.eye(3), coupling_example())

    def test_rejects_asymmetric_weights_at_any_scale(self):
        for scale in (1e-12, 1.0, 1e12):
            with pytest.raises(ValueError, match="symmetric"):
                assemble_coefficient(scale * np.array([[1.0, 2.0], [0.0, 1.0]]), coupling_example())


# ---------------------------------------------------------------------------
# Symbolic expansion
# ---------------------------------------------------------------------------


class TestExpansion:
    def test_coupling_expansion(self):
        f = expand_det_polynomial(coupling_example(), np.zeros((2, 2)))
        target = parse("(z11 + z22)^2 - z12^2", var_names=("z11", "z12", "z22"))
        assert f.max_coeff_diff(target) == 0.0

    def test_indefinite_example_expansion(self):
        f = expand_det_polynomial(indefinite_example(), np.zeros((2, 2)))
        target = parse(
            "(z11 + 5*z22)*(5*z11 + z22) - 16*z12^2",
            var_names=("z11", "z12", "z22"),
        )
        assert f.max_coeff_diff(target) <= 1e-12

    def test_one_by_one(self):
        A = BlockMatrix(np.full((1, 1, 1, 1), 3.5))
        f = expand_det_polynomial(A, np.zeros((1, 1)))
        assert f.terms == {(1,): 3.5 + 0j}

    def test_constant_offset_enters_linearly(self):
        A = BlockMatrix(np.full((1, 1, 1, 1), 2.0))
        f = expand_det_polynomial(A, np.array([[5.0]]))
        assert f.terms == {(1,): 2.0 + 0j, (0,): 5.0 + 0j}

    def test_cap_enforced(self):
        big = BlockMatrix(np.zeros((5, 5, 1, 1)))
        with pytest.raises(ValueError):
            expand_det_polynomial(big, np.zeros((1, 1)))

    def test_matches_pointwise_determinant(self):
        gen = np.random.default_rng(11)
        blocks = gen.normal(size=(3, 3, 2, 2))
        blocks = blocks + blocks.transpose(1, 0, 3, 2)
        A = BlockMatrix(blocks)
        Bc = gen.normal(size=(2, 2))
        Bc = Bc + Bc.T
        f = expand_det_polynomial(A, Bc)
        from conicstab.poly import MatrixVarIndex

        index = MatrixVarIndex(3)
        for _ in range(5):
            flat = gen.normal(size=index.dim) + 1j * gen.normal(size=index.dim)
            Z = index.mat_from_flat(flat)
            M = np.einsum("ijab,ij->ab", A.blocks, Z) + Bc
            direct = np.linalg.det(M)
            assert abs(complex(f(flat)) - direct) <= 1e-8 * max(1.0, abs(direct))


# ---------------------------------------------------------------------------
# The certificate
# ---------------------------------------------------------------------------


class TestCertify:
    def test_coupling_matrix_certified(self):
        cert = thm54_certify(coupling_example(), np.zeros((2, 2)))
        assert cert.outcome == CERTIFIED_STABLE
        assert abs(cert.lambda_min - 0.5) <= 1e-9
        assert cert.nonzero_method == "expansion"

    def test_indefinite_example_not_certified(self):
        cert = thm54_certify(indefinite_example(), np.zeros((2, 2)))
        assert cert.outcome == NOT_CERTIFIED
        assert abs(cert.lambda_min - (-1.0)) <= 1e-9

    def test_scaled_indefinite_example_not_certified(self):
        # The PSD band is relative: at 1e-11 scale lambda_min = -1e-11 lies
        # below it, as -1 does at unit scale (an absolute band of 1e-10 used
        # to call it semidefinite and the determinant identically zero).
        A = BlockMatrix.from_flat(1e-11 * indefinite_example().flatten(), 2, 2)
        cert = thm54_certify(A, np.zeros((2, 2)))
        assert (cert.outcome, cert.flat_class) == (NOT_CERTIFIED, INDEFINITE)

    def test_zero_blocks_constant_determinant(self):
        A = BlockMatrix(np.zeros((2, 2, 2, 2)))
        cert = thm54_certify(A, np.eye(2))
        assert cert.outcome == CERTIFIED_STABLE

    def test_zero_everything_is_identically_zero(self):
        A = BlockMatrix(np.zeros((2, 2, 2, 2)))
        cert = thm54_certify(A, np.zeros((2, 2)))
        assert cert.outcome == IDENTICALLY_ZERO

    @pytest.mark.parametrize("norm", [1.0, 1e-3, 1e-6])
    def test_small_definite_grid_certified_on_the_expansion_route(self, norm):
        # Below norm 1e-3 the degree-4 coefficients (~norm^4) fall under the
        # expansion's trim and it comes back as the zero polynomial; the
        # definite flattening still makes f(iI) = det(i sum A_ii) nonzero.
        A = random_psd_blocks(np.random.default_rng(19), 2, 4)
        A = BlockMatrix(A.blocks * (norm / np.linalg.norm(A.flatten())))
        cert = thm54_certify(A, np.zeros((4, 4)))
        assert (cert.flat_class, cert.nonzero_method) == (POSITIVE_DEFINITE, "expansion")
        assert cert.outcome == CERTIFIED_STABLE
        assert bool(cert.polynomial) == (norm == 1.0)
        assert ("expansion trimmed to zero" in cert.certificate) == (norm < 1.0)

    def test_certified_instance_survives_falsifier(self):
        f = expand_det_polynomial(coupling_example(), np.zeros((2, 2)))
        v = falsify_k_stability(f, PSD(2), n_samples=2_000, rng=0)
        assert v.status == NOT_FALSIFIED

    def test_rejects_non_hermitian_blocks(self):
        bad = BlockMatrix(np.arange(16.0).reshape(2, 2, 2, 2))
        with pytest.raises(ValueError):
            thm54_certify(bad, np.zeros((2, 2)))

    def test_rejects_non_hermitian_offset(self):
        with pytest.raises(ValueError):
            thm54_certify(coupling_example(), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            thm54_certify(coupling_example(), np.zeros((3, 3)))


class TestEvaluationRoute:
    """Above the expansion caps one value f(iI) = det(B + i sum_i A_ii) decides."""

    def test_definite_grid_certified(self):
        A = random_psd_blocks(np.random.default_rng(5), 5, 2)
        cert = thm54_certify(A, np.zeros((2, 2)))
        assert cert.outcome == CERTIFIED_STABLE
        assert cert.nonzero_method == "evaluation"

    def test_zero_blocks_zero_offset_identically_zero(self):
        cert = thm54_certify(BlockMatrix(np.zeros((5, 5, 2, 2))), np.zeros((2, 2)))
        assert cert.outcome == IDENTICALLY_ZERO
        assert cert.nonzero_method == "evaluation"

    def test_zero_blocks_identity_offset_certified(self):
        cert = thm54_certify(BlockMatrix(np.zeros((5, 5, 2, 2))), np.eye(2))
        assert cert.outcome == CERTIFIED_STABLE
        assert cert.nonzero_method == "evaluation"

    def test_tiny_definite_grid_certified(self):
        # det of a 2 x 2 matrix with entries ~1e-5 is ~1e-10 at unit Z; a
        # definite flattening still cannot give the zero polynomial.
        A = random_psd_blocks(np.random.default_rng(6), 5, 2)
        A = BlockMatrix(A.blocks * (1e-5 / np.linalg.norm(A.flatten())))
        cert = thm54_certify(A, np.zeros((2, 2)))
        assert cert.outcome == CERTIFIED_STABLE
        assert cert.nonzero_method == "evaluation"

    @given(
        seed=st.integers(0, 2**32 - 1),
        plant_a=st.booleans(),
        plant_b=st.booleans(),
        log_c=st.floats(-12.0, 12.0),
    )
    def test_outcome_is_scale_free_and_matches_planted_kernel(self, seed, plant_a, plant_b, log_c):
        A, B = planted_grid(seed, plant_a, plant_b)
        expected = IDENTICALLY_ZERO if plant_a and plant_b else CERTIFIED_STABLE
        for c in (1.0, 10.0 ** log_c):
            cert = thm54_certify(BlockMatrix(A.blocks * c), B * c)
            assert cert.nonzero_method == "evaluation"
            assert cert.outcome == expected


class TestCertificateContract:
    def test_expansion_route_carries_the_expansion(self):
        for A, B in (
            (coupling_example(), np.zeros((2, 2))),
            (BlockMatrix(np.zeros((2, 2, 2, 2))), np.zeros((2, 2))),
            (BlockMatrix(np.zeros((2, 2, 2, 2))), np.eye(2)),
        ):
            cert = thm54_certify(A, B)
            assert cert.nonzero_method == "expansion"
            assert cert.polynomial == expand_det_polynomial(A, B)

    def test_no_polynomial_on_evaluation_route_or_when_not_certified(self):
        big = random_psd_blocks(np.random.default_rng(2), 5, 1)
        assert thm54_certify(big, np.zeros((1, 1))).polynomial is None
        cert = thm54_certify(indefinite_example(), np.zeros((2, 2)))
        assert cert.polynomial is None and cert.nonzero_method is None

    def test_flat_class_matches_psd_classify(self):
        cases = (
            (coupling_example(), np.zeros((2, 2)), CERTIFIED_STABLE),
            (BlockMatrix(np.zeros((2, 2, 2, 2))), np.zeros((2, 2)), IDENTICALLY_ZERO),
            (indefinite_example(), np.zeros((2, 2)), NOT_CERTIFIED),
        )
        for A, B, outcome in cases:
            cert = thm54_certify(A, B)
            assert cert.outcome == outcome
            assert cert.flat_class == psd_classify(A.flatten())


# ---------------------------------------------------------------------------
# Boundary approximation
# ---------------------------------------------------------------------------


class TestPerturbation:
    def test_singular_psd_walks_to_the_boundary(self):
        rep = perturbed_certify(BlockMatrix.scalar(np.ones((2, 2))), np.zeros((1, 1)))
        assert not rep.trivial
        assert len(rep.entries) == 20
        assert rep.all_certified
        assert all(e.flat_class == POSITIVE_DEFINITE for e in rep.entries)
        assert all(e.diagonal_definite for e in rep.entries)
        assert rep.converged
        # Coefficient drift is linear in eps for this instance:
        # det((1+e)z11 ... ) - det(...)|_{e=0} has coefficients O(eps).
        diffs = [e.coeff_diff for e in rep.entries]
        epss = [e.eps for e in rep.entries]
        assert diffs[-1] <= 1e-5
        assert all(d <= 4.0 * e for d, e in zip(diffs, epss))

    def test_singular_grid_entries(self):
        # Blocks I2 / offdiag(1): flattening eigenvalues {0, 0, 2, 2} and
        # det = (z11+z22)^2 - 4 z12^2.  A step adds eps to z11 and z22, so
        # the z11*z22 coefficient moves by 2 eps (2 + eps), the largest
        # drift.  Values recorded from the implementation that re-expanded
        # every step.
        off1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        rep = perturbed_certify(BlockMatrix([[I2, off1], [off1, I2]]), np.zeros((2, 2)))
        assert not rep.trivial and rep.converged and rep.all_certified
        assert len(rep.entries) == 20
        for e in rep.entries:
            assert (e.flat_class, e.diagonal_definite, e.outcome) == (
                POSITIVE_DEFINITE, True, CERTIFIED_STABLE,
            )
            assert e.coeff_diff == pytest.approx(2.0 * e.eps * (2.0 + e.eps), rel=1e-12)
        recorded = {0: (0.5, 2.5), 4: (0.03125, 0.126953125), 19: (9.5367431640625e-07, 3.8146990846144035e-06)}
        for k, (eps, diff) in recorded.items():
            assert rep.entries[k].eps == eps
            assert rep.entries[k].coeff_diff == pytest.approx(diff, rel=1e-12)

    def test_definite_input_passes_trivially(self):
        rep = perturbed_certify(coupling_example(), np.zeros((2, 2)))
        assert rep.trivial
        assert rep.converged
        assert rep.entries[0].eps == 0.0
        assert rep.entries[0].outcome == CERTIFIED_STABLE

    def test_indefinite_input_rejected(self):
        with pytest.raises(ValueError):
            perturbed_certify(indefinite_example(), np.zeros((2, 2)))

    def test_custom_schedule(self):
        rep = perturbed_certify(
            BlockMatrix.scalar(np.ones((2, 2))), np.zeros((1, 1)), schedule=[0.5, 0.25]
        )
        assert len(rep.entries) == 2
        with pytest.raises(ValueError):
            perturbed_certify(
                BlockMatrix.scalar(np.ones((2, 2))), np.zeros((1, 1)), schedule=[0.0]
            )

    @pytest.mark.parametrize("schedule", [[], [float("nan")], [0.5, float("inf")]])
    def test_degenerate_schedule_rejected(self, schedule):
        with pytest.raises(ValueError, match="schedule"):
            perturbed_certify(BlockMatrix.scalar(np.ones((2, 2))), np.zeros((1, 1)), schedule=schedule)


# ---------------------------------------------------------------------------
# Diagonal-block reduction
# ---------------------------------------------------------------------------


class TestDiagonalReduction:
    def test_rank_one_slices_are_psd(self):
        ones = np.ones((2, 2))
        blocks = np.zeros((2, 2, 2, 2))
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    blocks[i, j, k, k] = ones[i, j]
        rep = prop56_diagonal_criterion(BlockMatrix(blocks))
        assert rep.block_classes == (POSITIVE_SEMIDEFINITE, POSITIVE_SEMIDEFINITE)
        assert rep.overall_class == POSITIVE_SEMIDEFINITE
        assert rep.permutation_ok
        assert rep.consistent
        assert rep.scalar_conditions == (True, True)

    def test_mixed_slices_match_flatten(self):
        blocks = np.zeros((2, 2, 2, 2))
        slice1 = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        slice2 = np.eye(2)
        for i in range(2):
            for j in range(2):
                blocks[i, j, 0, 0] = slice1[i, j]
                blocks[i, j, 1, 1] = slice2[i, j]
        rep = prop56_diagonal_criterion(BlockMatrix(blocks))
        assert rep.block_classes == (INDEFINITE, POSITIVE_DEFINITE)
        assert rep.overall_class == INDEFINITE
        assert rep.permutation_ok
        assert rep.consistent
        assert rep.scalar_conditions == (False, True)

    def test_random_agreement(self):
        gen = np.random.default_rng(9)
        for _ in range(25):
            n = int(gen.integers(2, 5))
            d = int(gen.integers(1, 4))
            slices = []
            for k in range(d):
                if gen.random() < 0.5:
                    G = gen.normal(size=(n, n))
                    slices.append(G.T @ G)
                else:
                    S = gen.normal(size=(n, n))
                    slices.append(S + S.T)
            blocks = np.zeros((n, n, d, d))
            for k, s in enumerate(slices):
                blocks[:, :, k, k] = s
            rep = prop56_diagonal_criterion(BlockMatrix(blocks))
            assert rep.permutation_ok
            assert rep.consistent

    def test_scalar_conditions_use_relative_bands(self):
        # An indefinite slice at scale 1e-6 fails its determinant condition.
        rep = prop56_diagonal_criterion(BlockMatrix.scalar(1e-6 * np.array([[1.0, 2.0], [2.0, 1.0]])))
        assert rep.block_classes == (INDEFINITE,)
        assert rep.scalar_conditions == (False,)

    @given(st.data())
    def test_scalar_conditions_are_scale_free(self, data):
        # The scalar conditions of c A equal those of A for c = 2^k.
        d = data.draw(st.integers(1, 3))
        entry = st.integers(-300, 300).map(lambda v: v / 100)
        blocks = np.zeros((2, 2, d, d))
        for k in range(d):
            a, b, c = (data.draw(entry) for _ in range(3))
            blocks[:, :, k, k] = [[a, b], [b, c]]
        scale = 2.0 ** data.draw(st.integers(-40, 40))
        rep = prop56_diagonal_criterion(BlockMatrix(blocks))
        scaled = prop56_diagonal_criterion(BlockMatrix(scale * blocks))
        assert scaled.scalar_conditions == rep.scalar_conditions

    def test_rejects_non_diagonal_blocks(self):
        with pytest.raises(ValueError):
            prop56_diagonal_criterion(coupling_example())

    def test_diagonal_gate_is_relative_to_the_grid(self):
        # off-diagonal entries count as zero only up to hermitian_tol * max|A|
        blocks = np.zeros((2, 2, 2, 2))
        blocks[0, 0] = blocks[1, 1] = [[1.0, 0.9], [0.9, 1.0]]
        for scale in (1.0, 1e-12):
            with pytest.raises(ValueError, match="diagonal"):
                prop56_diagonal_criterion(BlockMatrix(scale * blocks))
        rep = prop56_diagonal_criterion(BlockMatrix(np.zeros((2, 2, 2, 2))))
        assert rep.overall_class == POSITIVE_SEMIDEFINITE


# ---------------------------------------------------------------------------
# The one Hermitian rule, at every scale
# ---------------------------------------------------------------------------


class TestHermitianScale:
    def test_non_hermitian_grid_rejected_at_any_scale(self):
        # A_01 != A_10^H at every scale; below unit scale it used to certify
        for scale in (1.0, 1e-12):
            A = BlockMatrix(np.arange(16.0).reshape(2, 2, 2, 2) * scale)
            assert not A.is_hermitian()
            with pytest.raises(ValueError, match="Hermitian"):
                thm54_certify(A, np.zeros((2, 2)))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        d=st.integers(1, 3),
        log_c=st.floats(-12.0, 12.0),
    )
    def test_planted_relative_asymmetry_fails_at_every_scale(self, seed, n, d, log_c):
        rng = np.random.default_rng(seed)
        shape = (n * d, n * d)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h = x + x.conj().T
        k = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # an anti-Hermitian defect with ||e||_F = 1e-6 * ||h||_F
        e = 1e-6 * np.linalg.norm(h) * (k - k.conj().T) / np.linalg.norm(k - k.conj().T)
        c = 10.0**log_c
        assert BlockMatrix.from_flat(c * h, n, n).is_hermitian()
        assert not BlockMatrix.from_flat(c * (h + e), n, n).is_hermitian()
