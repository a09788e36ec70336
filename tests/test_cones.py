"""Tests for cone membership, duals, sampling, and the simplex core."""

import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conicstab.cones import (
    PSD,
    Orthant,
    Polyhedral,
    Product,
    cone_from_descriptor,
    product,
    simplex_solve,
)
from conicstab.tolerances import DEFAULT_TOL

DELTA = 1e-3  # default interior sampling margin
TOL = DEFAULT_TOL.interior_tol  # the dual tests below compare dual_margin with it


def sample_interior(cone, rng):
    """One interior point from one row of standard normals."""
    return cone.interior_from_normals(rng.standard_normal((1, cone.draw_dim)))[0]


class TestSimplex:
    def test_known_optimum(self):
        # min -x1 - 2*x2 s.t. x1 + x2 + s1 = 4, x1 + 3*x2 + s2 = 6
        A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
        b = np.array([4.0, 6.0])
        c = np.array([-1.0, -2.0, 0.0, 0.0])
        status, x, obj = simplex_solve(A, b, c)
        assert status == "optimal"
        assert obj == pytest.approx(-5.0)
        assert x[:2] == pytest.approx([3.0, 1.0])

    def test_infeasible(self):
        # x1 + x2 = -1 has no nonnegative solution.
        status, _, _ = simplex_solve(np.array([[1.0, 1.0]]), np.array([-1.0]), np.zeros(2))
        assert status == "infeasible"

    def test_unbounded(self):
        status, _, _ = simplex_solve(
            np.array([[1.0, -1.0]]), np.array([1.0]), np.array([-1.0, 0.0])
        )
        assert status == "unbounded"

    def test_degenerate_vertex_terminates(self):
        # Redundant constraints force degenerate pivots; Bland's rule
        # must still terminate at the optimum.
        A = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 0.0, 0.0]])
        b = np.array([1.0, 2.0, 1.0])
        c = np.array([0.0, -1.0, 0.0])
        status, x, obj = simplex_solve(A, b, c)
        assert status == "optimal"
        assert obj == pytest.approx(0.0)

    def test_matches_reference_solver_on_random_instances(self):
        rng = np.random.default_rng(30)
        agree = 0
        for _ in range(40):
            m, n = rng.integers(1, 5), rng.integers(2, 8)
            A = rng.normal(size=(m, n))
            x0 = np.abs(rng.normal(size=n))
            b = A @ x0  # feasible by construction
            c = rng.normal(size=n)
            status, x, obj = simplex_solve(A, b, c)
            ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
            if status == "optimal":
                assert ref.status == 0
                assert obj == pytest.approx(ref.fun, abs=1e-7)
                assert np.all(x >= -1e-9)
                assert np.allclose(A @ x, b, atol=1e-8)
                agree += 1
            else:
                assert status == "unbounded"
                assert ref.status == 3
        assert agree >= 20  # most random instances should be bounded


class TestOrthant:
    def test_interior_examples(self):
        k = Orthant(3)
        assert k.contains_interior(np.array([0.5, 1.0, 0.5]))
        assert not k.contains_interior(np.array([0.5, 0.0, 0.5]))
        assert not k.contains_interior(np.array([0.5, -1.0, 0.5]))

    def test_dual_is_self(self):
        k = Orthant(2)
        assert k.dual_margin(np.array([1.0, 1.0])) > TOL
        rng = np.random.default_rng(31)
        for _ in range(25):
            p = rng.normal(size=2)
            assert (k.dual_margin(p) > TOL) == k.contains_interior(p)

    def test_boundary_vs_closed_dual(self):
        k = Orthant(2)
        a = np.array([1.0, 0.0])
        assert k.dual_margin(a) >= -TOL
        assert k.dual_margin(a) <= TOL

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not fit"):
            Orthant(3).contains_interior(np.ones(2))


class TestPolyhedral:
    def test_wedge_membership(self):
        # cone{(1,0),(1,1)} = {(x, y) : 0 <= y <= x}
        k = Polyhedral([[1.0, 0.0], [1.0, 1.0]])
        assert k.contains_interior(np.array([2.0, 1.0]))
        assert not k.contains_interior(np.array([1.0, 2.0]))
        assert not k.contains_interior(np.array([1.0, 0.0]))  # boundary
        assert not k.contains_interior(np.array([-1.0, -2.0]))

    def test_orthant_generators_match_orthant(self):
        rng = np.random.default_rng(32)
        k = Polyhedral(np.eye(3))
        o = Orthant(3)
        for _ in range(30):
            p = rng.normal(size=3)
            assert k.contains_interior(p) == o.contains_interior(p)

    def test_dual_examples(self):
        k = Polyhedral([[1.0, 0.0], [1.0, 1.0]])
        # <a, (1,0)> = 0 puts a on the dual boundary.
        a = np.array([0.0, 1.0])
        assert k.dual_margin(a) <= TOL
        assert k.dual_margin(a) >= -TOL

    def test_dual_positivity_definition(self):
        rng = np.random.default_rng(33)
        gens = np.array([[2.0, 0.0, 1.0], [0.0, 1.0, 0.5], [1.0, 1.0, 2.0], [0.5, 2.0, 1.0]])
        k = Polyhedral(gens)
        for _ in range(40):
            a = rng.normal(size=3)
            expected = bool(np.min(gens @ a) > 1e-9 * np.linalg.norm(a))
            assert (k.dual_margin(a) > TOL) == expected

    def test_rejects_non_spanning(self):
        with pytest.raises(ValueError, match="span"):
            Polyhedral([[1.0, 0.0], [2.0, 0.0]])

    def test_rejects_unpointed(self):
        with pytest.raises(ValueError, match="pointed"):
            Polyhedral([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])

    def test_rejects_zero_generator(self):
        with pytest.raises(ValueError, match="zero generator"):
            Polyhedral([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_generator(self, bad):
        for gens in ([[bad, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0], [1.0, bad]]):
            with pytest.raises(ValueError, match="generators must be finite"):
                Polyhedral(gens)

    @pytest.mark.parametrize("scale", [1e-13, 1e-11, 1.0, 1e11])
    def test_tiny_orthant_generators_are_accepted(self, scale):
        # The orthant at any scale: no zero generator, pointed.
        k = Polyhedral(scale * np.eye(3))
        assert np.array_equal(k.generators, scale * np.eye(3))
        assert k.contains_interior(np.ones(3))

    @settings(max_examples=300)
    @given(st.data())
    def test_acceptance_is_scale_free(self, data):
        # Polyhedral(c G) is accepted, or rejected with the same reason,
        # exactly as Polyhedral(G) is, for c = 2^k.
        n = data.draw(st.integers(2, 4))
        m = data.draw(st.integers(n, n + 3))
        entry = st.integers(-300, 300).map(lambda v: v / 100)
        G = np.array(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)))
        c = 2.0 ** data.draw(st.integers(-40, 40))

        def outcome(gens):
            try:
                Polyhedral(gens)
            except ValueError as exc:
                return str(exc)
            return "accepted"

        assert outcome(c * G) == outcome(G)

    def test_high_dimension_lp_route(self):
        # Above the ray-enumeration cutoff the LP fallback must agree
        # with the closed form for orthant generators: margin = min coord.
        rng = np.random.default_rng(34)
        k = Polyhedral(np.eye(7))
        assert k._dual_rays is None
        for _ in range(10):
            p = rng.normal(size=7) + 0.8
            assert k.contains_interior(p) == bool(np.min(p) > 1e-9)
            if np.min(p) > 0:
                assert k.interior_margin(p) == pytest.approx(np.min(p), abs=1e-8)

    def test_interior_margin_hand_value(self):
        k = Polyhedral([[1.0, 0.0], [1.0, 1.0]])
        # Facet normals are (0,1) and (1,-1)/sqrt(2).
        assert k.interior_margin(np.array([2.0, 1.0])) == pytest.approx(
            min(1.0, 1.0 / np.sqrt(2))
        )


class TestPSDCone:
    def test_interior_examples(self):
        k = PSD(2)
        assert not k.contains_interior(np.array([1.0, 2.0, 1.0]))  # eigs {-1, 3}
        assert k.contains_interior(np.array([1.0, 0.0, 1.0]))

    def test_interior_margin_is_min_eigenvalue(self):
        k = PSD(2)
        assert k.interior_margin(np.array([1.0, 2.0, 1.0])) == pytest.approx(-1.0)

    def test_dual_example(self):
        k = PSD(2)
        assert k.dual_margin(np.array([5.0, 0.0, 1.0])) > TOL

    def test_dual_uses_halved_off_diagonals(self):
        k = PSD(2)
        # a = (1, 2, 1) acts as tr(AZ) with A = [[1,1],[1,1]], which is
        # PSD but singular: in the closed dual, not its interior.
        a = np.array([1.0, 2.0, 1.0])
        assert k.dual_margin(a) >= -TOL
        assert k.dual_margin(a) <= TOL
        # (1, 1, 1) acts via [[1, .5], [.5, 1]] with eigenvalues {.5, 1.5}.
        assert k.dual_margin(np.array([1.0, 1.0, 1.0])) > TOL

    def test_self_duality_under_reweighting(self):
        rng = np.random.default_rng(35)
        k = PSD(3)
        for _ in range(20):
            a = rng.normal(size=k.dim)
            mat = k.index.mat_from_flat(a)
            halved = (mat + np.diag(np.diag(mat))) / 2.0
            p = k.index.flat_from_mat(halved)
            assert (k.dual_margin(a) > TOL) == k.contains_interior(p)


class TestProduct:
    def test_orthant_product_matches_orthant(self):
        rng = np.random.default_rng(36)
        k = product(Orthant(2), Orthant(1))
        o = Orthant(3)
        assert k.dim == 3
        for _ in range(25):
            p = rng.normal(size=3)
            assert k.contains_interior(p) == o.contains_interior(p)
            assert (k.dual_margin(p) > TOL) == (o.dual_margin(p) > TOL)

    def test_halfline_extension(self):
        k = product(Polyhedral([[1.0, 0.0], [1.0, 1.0]]), Orthant(1))
        assert k.contains_interior(np.array([2.0, 1.0, 0.5]))
        assert not k.contains_interior(np.array([2.0, 1.0, 0.0]))
        assert not k.contains_interior(np.array([1.0, 2.0, 0.5]))

    def test_psd_times_halfline_dim(self):
        k = product(PSD(2), Orthant(1))
        assert k.dim == 4

    def test_nested_products_flatten(self):
        k = Product([Product([Orthant(1), Orthant(2)]), PSD(2)])
        assert len(k.factors) == 3
        assert k.dim == 6


_WEDGE = Polyhedral([[1.0, 0.0], [1.0, 1.0]])
_MINIMIZER_CONES = [
    Orthant(1),
    Orthant(4),
    _WEDGE,
    Polyhedral([[2.0, 0.0, 1.0], [0.0, 1.0, 0.5], [1.0, 1.0, 2.0], [0.5, 2.0, 1.0]]),
    PSD(2),
    PSD(3),
    product(Orthant(1), PSD(2)),
    product(_WEDGE, Orthant(1)),
]


class TestDualMinimizer:
    def test_hand_values(self):
        m, p = Orthant(3).dual_minimizer(np.array([2.0, -1.0, 0.5]))
        assert m == -1.0 and np.array_equal(p, [0.0, 1.0, 0.0])
        # a = (1, -3): the unit generator (1, 1)/sqrt(2) pairs to -2/sqrt(2).
        m, p = _WEDGE.dual_minimizer(np.array([1.0, -3.0]))
        assert m == pytest.approx(-2.0 / np.sqrt(2) / np.sqrt(10))
        npt.assert_allclose(p, np.array([1.0, 1.0]) / np.sqrt(2) / np.sqrt(10))
        # z11 - z22 acts via diag(1, -1): the minimizer is E22.
        m, p = PSD(2).dual_minimizer(np.array([1.0, 0.0, -1.0]))
        assert m == pytest.approx(-1.0)
        npt.assert_allclose(p, [0.0, 0.0, 1.0], atol=1e-15)

    def test_product_pads_the_minimizing_factor(self):
        k = product(Orthant(2), PSD(2))
        m, p = k.dual_minimizer(np.array([1.0, 2.0, 1.0, 0.0, -3.0]))
        assert m == pytest.approx(-3.0)
        npt.assert_allclose(p, [0.0, 0.0, 0.0, 0.0, 1.0], atol=1e-15)

    @given(st.data())
    def test_contract_property(self, data):
        k = data.draw(st.sampled_from(_MINIMIZER_CONES))
        coeffs = st.lists(st.floats(-100.0, 100.0), min_size=k.dim, max_size=k.dim)
        a = np.array(data.draw(coeffs))
        m, p = k.dual_minimizer(a)
        assert m == k.dual_margin(a)
        scale = max(1.0, float(np.linalg.norm(p)))
        assert k.interior_margin(p) >= -1e-12 * scale  # p lies in the closed cone
        bound = 1e-12 * max(1.0, float(np.abs(a).sum())) * scale
        assert float(a @ p) == pytest.approx(m, abs=bound)


class TestSampling:
    @pytest.mark.parametrize(
        "cone",
        [
            Orthant(1),
            Orthant(4),
            Polyhedral([[1.0, 0.0], [0.0, 1.0]]),
            Polyhedral([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
            PSD(2),
            PSD(3),
            Product([Orthant(2), PSD(2)]),
        ],
    )
    def test_samples_are_interior(self, cone):
        rng = np.random.default_rng(37)
        for _ in range(50):
            p = sample_interior(cone, rng)
            assert cone.contains_interior(p, tol=DELTA / 2)

    def test_psd_sample_margin(self):
        rng = np.random.default_rng(38)
        k = PSD(2)
        s = sample_interior(k, rng)
        assert k.interior_margin(s) >= DELTA - 1e-12

    def test_batch_matches_stream(self):
        k = Product([Orthant(2), PSD(2)])
        u = np.random.default_rng(39).standard_normal((6, k.draw_dim))
        batch = k.interior_from_normals(u)
        again = k.interior_from_normals(u)
        assert np.array_equal(batch, again)
        assert batch.shape == (6, k.dim)
        for row in batch:
            assert k.contains_interior(row, tol=DELTA / 2)

    def test_rng_determinism(self):
        k = Polyhedral([[1.0, 0.0], [1.0, 1.0]])
        a = sample_interior(k, np.random.default_rng(123))
        b = sample_interior(k, np.random.default_rng(123))
        assert np.array_equal(a, b)


class TestBatchMargins:
    """``interior_margin_batch(P, t)`` is the keep-mask ``interior_margin(row) >= t``."""

    @pytest.mark.parametrize(
        "cone",
        [
            Orthant(3),
            Polyhedral([[1.0, 0.0], [1.0, 1.0]]),
            PSD(2),
            Product([Orthant(1), PSD(2)]),
            PSD(3),
            PSD(4),
        ],
    )
    def test_batch_agrees_with_scalar(self, cone):
        rng = np.random.default_rng(40)
        P = rng.normal(size=(30, cone.dim))
        # Mix in some certified-interior rows.
        P[::3] = cone.interior_from_normals(rng.standard_normal((10, cone.draw_dim)))
        margins = np.array([cone.interior_margin(row) for row in P])
        for t in (0.0, 2.5e-4, 1.0):
            keep = cone.interior_margin_batch(P, t)
            assert keep.dtype == bool and np.array_equal(keep, margins >= t)
        # Each row against thresholds just below and just above its own margin.
        for sign in (-1.0, 1.0):
            for row, m in zip(P, margins):
                t = m + sign * 1e-6 * max(1.0, abs(m))
                assert cone.interior_margin_batch(row[np.newaxis], t)[0] == (m >= t)

    @given(st.data())
    def test_psd_mask_away_from_the_threshold(self, data):
        # Y = scale Q diag(lam) Q^T at scales 10^[-6, 6], any inertia.
        n = data.draw(st.integers(1, 4))
        cone = PSD(n)
        lam = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        Q, _ = np.linalg.qr(gen.standard_normal((n, n)))
        scale = 10.0 ** data.draw(st.floats(-6.0, 6.0))
        Y = scale * (Q * lam) @ Q.T
        Y = (Y + Y.T) / 2.0
        t = scale * data.draw(st.floats(-1.0, 1.0))
        row = cone.index.flat_from_mat(Y)
        m = cone.interior_margin(row)
        assume(abs(m - t) > 1e-9 * np.linalg.norm(Y))
        assert cone.interior_margin_batch(row[np.newaxis], t)[0] == (m >= t)

    def test_psd_zero_pivot(self):
        # A zero pivot is semidefinite only with a zero column below it:
        # [[0, 1], [1, 1]] is indefinite, 0 and diag(0, 1) have margin 0.
        P = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert PSD(2).interior_margin_batch(P, 0.0).tolist() == [False, True, True]

    def test_lp_only_cone_has_no_batch_path(self):
        assert Polyhedral(np.eye(7)).interior_margin_batch(np.ones((2, 7)), 0.0).all()


class TestJson:
    @pytest.mark.parametrize(
        "cone",
        [
            Orthant(3),
            PSD(2),
            Polyhedral([[1.0, 0.0], [1.0, 1.0]]),
            Product([Orthant(1), Product([PSD(2), Orthant(2)])]),
        ],
    )
    def test_round_trip(self, cone):
        restored = cone_from_descriptor(json.loads(json.dumps(cone.descriptor())))
        assert restored == cone

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown cone"):
            cone_from_descriptor({"type": "icecream", "n": 2})
