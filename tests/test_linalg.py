import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conicstab import linalg
from conicstab.tolerances import DEFAULT_TOL


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def random_gram(rng, n, rank=None):
    rank = n if rank is None else rank
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return g @ g.conj().T


class TestHermitianEigh:
    def test_known_2x2(self):
        # char poly of [[2, i], [-i, 2]]: (2-t)^2 - 1 -> eigenvalues 1, 3
        m = np.array([[2.0, 1j], [-1j, 2.0]])
        w = linalg.hermitian_eigenvalues(m)
        npt.assert_allclose(w, [1.0, 3.0], atol=1e-12)

    def test_diagonal_already(self):
        w = linalg.hermitian_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        npt.assert_allclose(w, [-1.0, 2.0, 3.0], atol=0)

    def test_residual_and_unitarity(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 8, 13):
            m = random_hermitian(rng, n)
            w, v = linalg.hermitian_eigh(m)
            assert np.all(np.diff(w) >= 0)
            npt.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-12)
            resid = np.linalg.norm(m @ v - v * w[np.newaxis, :])
            assert resid <= DEFAULT_TOL.eig_tol * np.linalg.norm(m)

    def test_trace_and_det_match_eigenvalues(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 7):
            m = random_hermitian(rng, n)
            w = linalg.hermitian_eigenvalues(m)
            npt.assert_allclose(np.sum(w), np.trace(m).real, atol=1e-10)
            npt.assert_allclose(
                np.prod(w), np.linalg.det(m).real, rtol=1e-9, atol=1e-10
            )

    def test_degenerate_spectrum(self):
        # identity plus a rank-one bump keeps a (n-1)-fold eigenvalue
        rng = np.random.default_rng(3)
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        u /= np.linalg.norm(u)
        m = np.eye(5) + 2.0 * np.outer(u, u.conj())
        w = linalg.hermitian_eigenvalues(m)
        npt.assert_allclose(w, [1.0, 1.0, 1.0, 1.0, 3.0], atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            linalg.hermitian_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            linalg.hermitian_eigh(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_before_lapack(self, bad, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("non-finite input reached the eigensolver")

        monkeypatch.setattr(linalg.np.linalg, "eigh", unreachable)
        m = np.eye(3, dtype=complex)
        m[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            linalg.hermitian_eigh(m)


@st.composite
def hermitian_matrices(draw):
    # Entries on a grid of step 1e-3 in the unit square, so the overall
    # scale is set by the drawn power of ten alone (and ties are common).
    n = draw(st.integers(1, 16))
    grid = st.integers(-1000, 1000)
    re, im = (draw(hnp.arrays(int, (n, n), elements=grid)) for _ in range(2))
    g = (re + 1j * im) / 1000.0
    return 10.0 ** draw(st.floats(-6.0, 6.0)) * 0.5 * (g + g.conj().T)


class TestHermitianEighProperties:
    @given(hermitian_matrices())
    def test_eigh_contract(self, m):
        n = m.shape[0]
        w, v = linalg.hermitian_eigh(m)
        bound = DEFAULT_TOL.eig_tol * np.linalg.norm(m)
        assert np.all(np.diff(w) >= 0)
        assert np.all(np.abs(w - np.linalg.eigvalsh(m)) <= bound)
        npt.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-12)
        assert np.linalg.norm(m @ v - v * w[np.newaxis, :]) <= bound


class TestPsdClassify:
    def test_indefinite_example(self):
        # [[1,2],[2,1]] has eigenvalues -1 and 3 (hand cofactor: det = -3 < 0)
        assert linalg.psd_classify(np.array([[1.0, 2.0], [2.0, 1.0]])) == "indefinite"

    def test_pd_example(self):
        assert linalg.psd_classify(np.array([[2.0, 1.0], [1.0, 2.0]])) == "positive_definite"

    def test_zero_matrix_is_psd(self):
        assert linalg.psd_classify(np.zeros((3, 3))) == "positive_semidefinite"

    def test_singular_gram_is_psd(self):
        rng = np.random.default_rng(5)
        m = random_gram(rng, 4, rank=2)
        assert linalg.psd_classify(m) == "positive_semidefinite"

    def test_random_grams_never_indefinite(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            m = random_gram(rng, rng.integers(1, 7))
            assert linalg.psd_classify(m) != "indefinite"

    def test_band_is_relative_at_small_scale(self):
        # band = eig_tol * ||m||_F with no absolute floor
        assert linalg.psd_classify(1e-12 * np.diag([1.0, -1.0])) == "indefinite"
        assert linalg.psd_classify(1e-12 * np.eye(2)) == "positive_definite"

    def test_class_of_lambda_min_uses_the_relative_band(self):
        # band = eig_tol * ||m||_F: 1e-10 for I, 1e-6 for 1e4 * I.
        assert linalg.psd_class_of(2e-10, np.eye(1)) == "positive_definite"
        assert linalg.psd_class_of(-2e-10, np.eye(1)) == "indefinite"
        assert linalg.psd_class_of(-2e-10, 1e4 * np.eye(1)) == "positive_semidefinite"
        rng = np.random.default_rng(23)
        for _ in range(25):
            m = random_hermitian(rng, rng.integers(1, 7))
            assert linalg.psd_class_of(np.linalg.eigvalsh(m)[0], m) == linalg.psd_classify(m)


class TestIsHermitian:
    def test_zero_matrix_passes(self):
        assert linalg.is_hermitian(np.zeros((3, 3)))

    def test_asymmetry_is_measured_against_the_matrix(self):
        # ||m - m^H||_F <= hermitian_tol * ||m||_F, with no absolute floor
        for scale in (1e-12, 1.0, 1e12):
            assert linalg.is_hermitian(scale * np.array([[2.0, 1j], [-1j, 2.0]]))
            assert not linalg.is_hermitian(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_tiny_non_hermitian_matrix_is_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.psd_classify([[0.0, 1e-12], [0.0, 0.0]])


class TestMinEigAtLeast:
    def test_per_matrix_thresholds_on_a_draws_last_batch(self):
        # Each matrix of a (n, n, B) stack against its own threshold, just
        # below or just above its smallest eigenvalue.
        rng = np.random.default_rng(7)
        g = rng.standard_normal((50, 4, 4))
        S = g + g.transpose(0, 2, 1)
        lam = np.linalg.eigvalsh(S)[:, 0]
        t = lam + rng.choice([-1e-6, 1e-6], lam.size) * (1.0 + np.abs(lam))
        keep = linalg.min_eig_at_least(np.ascontiguousarray(S.transpose(1, 2, 0)), t)
        assert keep.any() and not keep.all()
        assert np.array_equal(keep, lam >= t)
