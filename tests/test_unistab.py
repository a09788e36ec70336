import itertools
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conicstab import unistab
from conicstab.tolerances import DEFAULT_TOL
from conicstab.unistab import UniPoly


def poly(*ascending):
    return UniPoly(ascending)


class TestUniPoly:
    def test_canonicalization_trims_trailing_zeros(self):
        p = poly(1.0, 2.0, 0.0, 1e-15)
        assert p.degree == 1
        assert p.coeffs == (1.0 + 0j, 2.0 + 0j)

    def test_zero_polynomial(self):
        z = poly(0.0, 0.0)
        assert not z
        assert z.degree == -1

    def test_arithmetic(self):
        f = poly(1.0, 1.0)  # 1 + t
        g = poly(-1.0, 0.0, 1.0)  # t^2 - 1
        assert (f * f).coeffs == (1 + 0j, 2 + 0j, 1 + 0j)
        assert (g + f.scale(-1.0)).coeffs == (-2 + 0j, -1 + 0j, 1 + 0j)
        assert f.derivative().coeffs == (1 + 0j,)
        assert g.derivative().coeffs == (0j, 2 + 0j)

    def test_eval_horner(self):
        g = poly(-1.0, 0.0, 1.0)
        assert g(2.0) == pytest.approx(3.0)
        npt.assert_allclose(g(np.array([0.0, 1.0, 2.0])), [-1.0, 0.0, 3.0])

    def test_from_roots(self):
        p = UniPoly.from_roots([1.0, -1.0])
        assert p.coeffs == (-1 + 0j, 0j, 1 + 0j)


class TestRoots:
    def test_quadratic_imaginary_pair(self):
        r = unistab.roots(poly(1.0, 0.0, 1.0))  # t^2 + 1
        npt.assert_allclose(r, [-1j, 1j], atol=1e-12)

    def test_double_root(self):
        r = unistab.roots(poly(1.0, -2.0, 1.0))  # (t-1)^2
        npt.assert_allclose(r, [1.0, 1.0], atol=1e-6)

    def test_zero_poly_raises(self):
        with pytest.raises(ValueError):
            unistab.roots(poly(0.0))

    def test_constant_has_no_roots(self):
        assert unistab.roots(poly(3.0)).size == 0

    def test_round_trip_random_degrees(self):
        rng = np.random.default_rng(101)
        for deg in range(1, 9):
            for _ in range(10):
                true = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
                p = UniPoly.from_roots(true, lead=rng.standard_normal() + 2.0)
                got = unistab.roots(p)
                npt.assert_allclose(
                    np.sort_complex(got), np.sort_complex(true), atol=1e-6
                )

    def test_residual_contract(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            deg = int(rng.integers(1, 9))
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            p = UniPoly(c)
            if p.degree < 1:
                continue
            r = unistab.roots(p)
            norm1 = sum(abs(x) for x in p.coeffs)
            bound = 1e-8 * norm1 * np.maximum(1.0, np.abs(r)) ** p.degree
            assert np.all(np.abs(p(r)) <= bound)

    @pytest.mark.parametrize(
        "coeffs",
        [(1.0, 0.5, np.inf), (1.0, np.nan, 1.0), (np.inf, 1.0, 0.0, 1.0), (1.0, 2.0, 0.0, np.nan)],
    )
    def test_non_finite_coefficients_raise(self, coeffs):
        with pytest.raises(ArithmeticError):
            unistab.roots(UniPoly(coeffs))

    def test_failed_bound_retries_once_then_raises(self, monkeypatch):
        p = poly(2.0, -3.0, 1.0)  # (t-1)(t-2)
        monkeypatch.setattr(unistab, "_closed_form", lambda c: np.full((1, 2), 5.0 + 0j))
        npt.assert_allclose(unistab.roots(p), [1.0, 2.0], atol=1e-12)
        monkeypatch.setattr(unistab, "_companion_polished", lambda c: np.full(2, 5.0 + 0j))
        with pytest.raises(ArithmeticError):
            unistab.roots(p)

    @given(
        st.lists(
            st.tuples(
                st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=8,
        ),
        st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
    )
    def test_residual_contract_and_order_property(self, clusters, lead):
        true = [r for r, mult in clusters for _ in range(mult)][:8]
        p = UniPoly.from_roots(true, lead=lead)
        r = unistab.roots(p)
        assert r.size == p.degree == len(true)
        norm1 = sum(abs(x) for x in p.coeffs)
        bound = DEFAULT_TOL.root_tol * norm1 * np.maximum(1.0, np.abs(r)) ** p.degree
        assert np.all(np.abs(p(r)) <= bound)
        assert np.all(np.lexsort((r.imag, r.real)) == np.arange(r.size))

    def test_batch_agrees_with_companion_oracle(self):
        rng = np.random.default_rng(13)
        for deg in (3, 4, 6):
            c = rng.standard_normal((40, deg + 1)) + 1j * rng.standard_normal((40, deg + 1))
            c[:, -1] += 3.0  # keep the leading coefficient honest
            mine = unistab._roots_batch(c)
            for row in range(40):
                oracle = np.roots(c[row, ::-1])
                npt.assert_allclose(
                    np.sort_complex(mine[row]), np.sort_complex(oracle), atol=1e-6
                )

    @pytest.mark.parametrize("deg", [1, 2, 3, 5])
    def test_batch_zero_leading_coefficient(self, deg):
        # A row with a vanishing leading coefficient gets the roots of its
        # trimmed polynomial padded with NaN; the other rows are unchanged.
        rng = np.random.default_rng(14)
        c = rng.standard_normal((30, deg + 1)) + 1j * rng.standard_normal((30, deg + 1))
        c[:, -1] += 3.0
        mixed = c.copy()
        mixed[[4, 11], -1] = 0.0
        mixed[11, :] = 0.0
        mixed[11, 0] = 1.0  # the constant 1: no roots at all
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = unistab._roots_batch(mixed)
        assert z.shape == (30, deg)
        keep = np.ones(30, dtype=bool)
        keep[[4, 11]] = False
        assert np.array_equal(z[keep], unistab._roots_batch(c)[keep])
        assert np.all(np.isnan(z[11]))
        assert np.isnan(z[4, -1])
        assert np.array_equal(unistab._roots_batch(mixed[4:5]), z[4:5], equal_nan=True)
        npt.assert_allclose(
            np.sort_complex(z[4, :-1]), np.sort_complex(np.roots(mixed[4, -2::-1])), atol=1e-8
        )

    def test_aberth_keeps_the_correction_of_starts_far_from_zero(self):
        # Roots near 1.5e11, 5 and 1e-13: the Cauchy circle has radius ~1e23.
        # The Aberth sum over the other starts, ~1e-23 there, must not be
        # lost to rounding, or the iteration is Newton's and leaves the row
        # unconverged.
        row = np.array([[0.044 - 0.011j, 7.0e9 - 3.2e11j, -5.2e10 - 2.5e10j,
                         -2.1e-06 + 9.5e-07j, 2.6e-12 + 4.6e-13j]])
        z, converged = unistab._aberth_batch(row)
        assert converged[0]
        oracle = np.roots(row[0, ::-1])
        by_size = lambda r: r[np.argsort(np.abs(r))]
        npt.assert_allclose(by_size(z[0]), by_size(oracle), rtol=1e-8)

    @pytest.mark.parametrize("row", [[0, 0, -5, 1], [0, 0, 0, -5, 1]])
    def test_batch_splits_off_exact_zero_roots(self, row, monkeypatch):
        # t^2 (t - 5) and t^3 (t - 5): Aberth would crawl toward the
        # multiple root at 0 and stop short of it.
        calls = []
        horner = unistab._horner_batch
        monkeypatch.setattr(
            unistab, "_horner_batch", lambda c, z: calls.append(1) or horner(c, z)
        )
        z = np.sort_complex(unistab._roots_batch(np.array([row], dtype=complex))[0])
        assert np.array_equal(z, [0.0] * (len(row) - 2) + [5.0])
        assert len(calls) <= 5


@st.composite
def _planted_cubic(draw):
    """Three planted roots and a leading coefficient.

    Real coefficients (three real roots, or one and a conjugate pair) or
    complex ones; distinct, double, triple or clustered (10^[-13, -2]
    apart) roots; scaled by 10^[-6, 6] about a centre within 300.  t^3 and
    (t - 1)^3 are drawn on their own.
    """
    special = draw(st.sampled_from([None, None, None, None, 0.0, 1.0]))
    if special is not None:
        return np.full(3, special, dtype=complex), 1.0 + 0j
    real = draw(st.booleans())
    pattern = draw(st.sampled_from(["distinct", "double", "triple", "cluster"]))
    # draws below 1e-3 in modulus are 0: a root is on an axis or well off it
    part = st.floats(-1.0, 1.0).map(lambda x: x if abs(x) >= 1e-3 else 0.0)
    re = np.array(draw(st.lists(part, min_size=3, max_size=3)))
    im = np.array(draw(st.lists(part, min_size=3, max_size=3)))
    if real:
        im[:] = 0.0
        if draw(st.booleans()):  # a conjugate pair
            re[2], im[1], im[2] = re[1], abs(im[1]) + 0.1, -abs(im[1]) - 0.1
    if pattern == "triple":
        re[:], im[:] = re[0], im[0]
    elif pattern == "double" and not (real and im[1] != 0):
        re[1], im[1] = re[0], im[0]
    elif pattern == "cluster" and not (real and im[1] != 0):
        re[1], im[1] = re[0] + 10.0 ** draw(st.floats(-13.0, -2.0)), im[0]
    centre = draw(st.floats(-300.0, 300.0).map(lambda x: x if abs(x) >= 1e-3 else 0.0))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    if real:
        lead = complex(draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0)))
    else:
        lead = draw(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_infinity=False))
    return scale * (centre + re + 1j * im), lead


class TestCubicStart:
    """Degree-3 batches: Aberth polishes the closed-form (Cardano) roots."""

    @given(_planted_cubic())
    def test_batch_matches_companion_oracle(self, planted):
        r, lead = planted
        # np.poly is real for conjugate-paired roots, so a real lead gives a real row
        row = (lead * np.poly(r)[::-1]).astype(complex)[np.newaxis, :]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mine = unistab._roots_batch(row)[0]
            z, converged = unistab._aberth_batch(row, start=unistab._batch_cubic(row))
        oracle = np.roots(row[0, ::-1])
        # Up to permutation: the multisets agree when their elementary
        # symmetric functions do.  Comparing roots one by one would measure
        # the conditioning of a multiple root, not the solver.
        unit = np.max(np.abs(r)) or 1.0
        npt.assert_allclose(np.poly(mine / unit), np.poly(oracle / unit), atol=1e-6)
        # A converged row passes the residual test of the iteration.
        eps = np.finfo(float).eps
        monic = row[0] / row[0, -1]
        resid = np.abs(np.polyval(monic[::-1], z[0]))
        mass = np.polyval(np.abs(monic[::-1]), np.abs(z[0]))
        assert not converged[0] or np.all(resid <= 1e6 * eps * np.maximum(mass, eps))

    def test_random_batch_converges_in_four_sweeps(self, monkeypatch):
        # Verifying the starts evaluates two Horner rows, each sweep three and
        # the verdict two more, so (calls - 2) // 3 counts the sweeps.
        calls = []
        horner = unistab._horner_batch
        monkeypatch.setattr(
            unistab, "_horner_batch", lambda c, z: calls.append(1) or horner(c, z)
        )
        rng = np.random.default_rng(9)
        c = rng.standard_normal((600, 4)) + 1j * rng.standard_normal((600, 4))
        unistab._roots_batch(c)
        assert (len(calls) - 2) // 3 <= 4

    def test_coincident_starts_are_separated(self):
        # Cardano gives t^3 and (t - 1)^3 three equal starts.
        rows = np.array([[0.0, 0.0, 0.0, 1.0], [-1.0, 3.0, -3.0, 1.0]], dtype=complex)
        assert np.ptp(unistab._batch_cubic(rows), axis=1).max() == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, converged = unistab._aberth_batch(rows, start=unistab._batch_cubic(rows))
        assert converged.all()
        npt.assert_allclose(z, [[0.0] * 3, [1.0] * 3], atol=1e-6)


def _counting_horner(monkeypatch):
    calls = []
    horner = unistab._horner_batch
    monkeypatch.setattr(unistab, "_horner_batch", lambda c, z: calls.append(1) or horner(c, z))
    return calls


class TestVerifiedStarts:
    """Given starts whose residuals are at rounding level skip the sweeps."""

    # Cardano starts of the first two rows verify; those of the last two
    # (roots 0.25, -4, 7 and 1e3, -2e-3, 5) do not.
    _ROWS = np.array(
        [np.poly(r)[::-1] for r in ([1, 2, 3], [-1 + 1j, 2, 0.5j], [0.25, -4, 7], [1e3, -2e-3, 5])],
        dtype=complex,
    )

    def test_verified_batch_returns_its_starts_after_two_evaluations(self, monkeypatch):
        rows = self._ROWS[:2]
        start = unistab._batch_cubic(rows)
        calls = _counting_horner(monkeypatch)
        z, converged = unistab._aberth_batch(rows, start=start)
        assert len(calls) == 2 and converged.all()
        assert np.array_equal(z, unistab._separated(np.array(start.T, order="C")).T)

    def test_mixed_batch_gives_each_row_what_it_gets_alone(self, monkeypatch):
        start = unistab._batch_cubic(self._ROWS)
        z, converged = unistab._aberth_batch(self._ROWS, start=start)
        assert converged.all()
        calls = _counting_horner(monkeypatch)
        swept = []
        for i in range(len(self._ROWS)):
            calls.clear()
            zi, ci = unistab._aberth_batch(self._ROWS[i : i + 1], start=start[i : i + 1])
            swept.append(len(calls) > 2)
            assert np.array_equal(zi[0], z[i]) and ci[0]
        assert swept == [False, False, True, True]

    def test_well_separated_companion_start_runs_no_sweep(self, monkeypatch):
        # The scalar path's retry polishes companion eigenvalues; for a
        # well-separated polynomial they verify as they are, and roots()
        # accepts them without the retry.
        c = np.poly([1, -2, 3j, -4, 0.5 + 1j])[::-1].astype(complex)
        calls = _counting_horner(monkeypatch)
        z = unistab._companion_polished(c)
        assert len(calls) == 2
        assert np.array_equal(z, np.roots(c[::-1]))
        calls.clear()
        unistab.roots(UniPoly(c))
        assert not calls


class TestBezoutScreen:
    """``_clears_lower``: Bez(Re p, Im p) clearly positive definite."""

    def test_t_plus_i_is_cleared_and_t_minus_i_is_not(self):
        rows = np.array([[1j, 1.0], [-1j, 1.0]])
        assert unistab._clears_lower(rows).tolist() == [True, False]

    def test_pair_t_squared_plus_one_and_2t_is_not_cleared(self):
        # (t^2 + 1) + i(2t) has roots (-1 ± sqrt 2) i, one above the axis.
        assert not unistab._clears_lower(np.array([[1.0, 2j, 1.0]]))[0]

    def test_double_lower_root_is_cleared(self):
        # (t + i)^2 = t^2 - 1 + 2it: P and Q share no real root.
        assert unistab._clears_lower(np.array([[-1.0, 2j, 1.0]]))[0]

    def test_invariant_under_unit_phase_scale_and_shift(self):
        rows = np.array(
            [
                np.poly([0.3 - 1j, -2.0 - 0.5j, 1.0 - 2j])[::-1],
                np.poly([100.3 - 1j, 98.0 - 0.5j, 101.0 - 2j])[::-1],
                1e6 * np.exp(0.7j) * np.poly([0.3 - 1j, -2.0 - 0.5j, 1.0 - 2j])[::-1],
            ]
        )
        assert unistab._clears_lower(rows).all()
        assert not unistab._clears_lower(rows.conj()).any()

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_zero_lead_or_non_finite_entry_is_never_cleared(self, bad):
        row = np.poly([-1j, -2j, 1.0 - 1j])[::-1].astype(complex)
        assert unistab._clears_lower(row[np.newaxis, :])[0]
        for col in ([-1] if bad == 0.0 else [0, 2, -1]):
            broken = row.copy()
            broken[col] = bad
            with np.errstate(invalid="ignore", over="ignore"):
                assert not unistab._clears_lower(broken[np.newaxis, :])[0]

    def test_screen_leaves_its_input_row_unchanged(self):
        # One row transposes to a view of the caller's array; the non-finite
        # row's stand-in of ones must not be written into it.
        row = np.array([[np.inf, 1j, 1.0]])
        assert not unistab._clears_lower(row)[0]
        assert np.array_equal(row, [[np.inf, 1j, 1.0]])

    @settings(max_examples=200)
    @given(st.data())
    def test_pivot_test_agrees_with_the_smallest_eigenvalue(self, data):
        # The screen clears a row iff lambda_min(Bez) >= tau, except within
        # 1e-9 tau of the band, where rounding may decide either way.  One
        # root of each row sits 10^[-8, 0] below the axis, so rows fall on
        # both sides of the band, and a batch of 1 to 12 rows takes both
        # arithmetic paths of the builder; a row may hold a root above the axis.
        d = data.draw(st.integers(3, 8))
        near = np.array(data.draw(st.lists(st.floats(-8.0, 0.0), min_size=1, max_size=12)))
        upper = np.array(data.draw(st.lists(st.booleans(), min_size=near.size, max_size=near.size)))
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        r = gen.uniform(-1, 1, (near.size, d)) - 1j * gen.uniform(0.2, 1.5, (near.size, d))
        r[:, 0] = r[:, 0].real - 1j * 10.0**near
        r[upper, -1] = r[upper, -1].conj()
        c = np.array([np.poly(row)[::-1] for row in r]) * np.exp(1j * gen.uniform(0, 2 * np.pi))
        eigs, m, M = unistab._bezout_eigs(c)
        tau = unistab._BEZOUT_BAND * m * np.maximum(m, M)
        clear = np.abs(eigs[:, 0] - tau) > 1e-9 * tau
        assert np.array_equal(unistab._clears_lower(c)[clear], (eigs[:, 0] >= tau)[clear])


# Rows that Aberth leaves unconverged, so _roots_batch retries them from
# companion eigenvalues; from degree 5 the wide random rows below do too.
_RETRY_ROWS = {
    3: [-0.0537, -0.19, 522000.0, 2.04e-06],
    4: [-8.9e-11 + 8.8e-11j, -5.1e-06 - 1.4e-05j, 8.9e11 - 6.3e11j, 6.2e-09 - 5.4e-09j,
        -5.6e-12 - 4.7e-12j],
}


class TestBatchRowIndependence:
    """A row's roots and screen decision do not depend on its batch-mates.

    The samplers stack the rows of many pencil members into one call, so a
    member must get what it would get alone.
    """

    @staticmethod
    def _rows(deg):
        gen = np.random.default_rng(40 + deg)
        c = gen.standard_normal((60, deg + 1)) + 1j * gen.standard_normal((60, deg + 1))
        c[20:40] *= 10.0 ** gen.uniform(-12, 12, (20, deg + 1))  # wide ranges
        c[40:50, 0] = 0.0  # exact-zero constants: the split-off root 0 from degree 3
        c[50, -1] = 0.0  # a zero leading coefficient
        return np.concatenate([c, [_RETRY_ROWS[deg]]]) if deg in _RETRY_ROWS else c

    @pytest.mark.parametrize("deg", range(1, 9))
    def test_roots_are_bit_identical_alone_in_chunks_and_in_the_batch(self, deg, monkeypatch):
        retries = []
        polish = unistab._companion_polished
        monkeypatch.setattr(unistab, "_companion_polished",
                            lambda c: retries.append(1) or polish(c))
        c = self._rows(deg)
        full = unistab._roots_batch(c)
        assert (len(retries) > 0) == (deg >= 3)
        for chunk in (1, 7, 25):
            parts = [unistab._roots_batch(c[i : i + chunk]) for i in range(0, len(c), chunk)]
            assert np.array_equal(np.concatenate(parts), full, equal_nan=True)

    @pytest.mark.parametrize("deg", range(1, 7))
    def test_screen_decides_each_row_alone(self, deg):
        # Roots below the axis, one of them within 1e-3 to 1 of it, and a
        # quarter of the rows with a root above.  Batches of up to 8 rows
        # shift by another path, which moves eigenvalue bits but no
        # decision.  (From degree 7 the screen clears almost no row.)
        gen = np.random.default_rng(80 + deg)
        r = gen.uniform(-1, 1, (200, deg)) - 1j * gen.uniform(0.5, 1.5, (200, deg))
        r[:, 0] = r[:, 0].real - 1j * 10.0 ** gen.uniform(-3, 0, 200)
        r[150:, -1] = r[150:, -1].conj()
        c = np.array([np.poly(row)[::-1] for row in r])
        full = unistab._clears_lower(c)
        assert full.any() and not full.all()
        for chunk in (1, 5, 8, 9, 64):
            parts = [unistab._clears_lower(c[i : i + chunk]) for i in range(0, len(c), chunk)]
            assert np.array_equal(np.concatenate(parts), full)


class TestStability:
    def test_lower_root_is_stable(self):
        assert unistab.is_stable_univariate(poly(1j, 1.0))  # t + i, root -i

    def test_upper_root_is_not(self):
        assert not unistab.is_stable_univariate(poly(-1j, 1.0))  # t - i, root +i

    def test_real_roots_are_stable(self):
        assert unistab.is_stable_univariate(poly(-1.0, 0.0, 1.0))

    def test_zero_poly_not_stable(self):
        assert not unistab.is_stable_univariate(poly(0.0))

    def test_nonzero_constant_stable(self):
        assert unistab.is_stable_univariate(poly(5.0))

    def test_t_squared_plus_one_unstable(self):
        assert not unistab.is_stable_univariate(poly(1.0, 0.0, 1.0))

    @pytest.mark.parametrize("roots,rows,stable", [
        ([-1j, 1 - 2j, -0.5 - 0.3j], [1], True),  # Bez(P, Q) definite
        ([1j, 1 - 2j, -0.5 - 0.3j], [1], False),  # Bez(P, Q) indefinite
        ([-1j, 1.0, -0.5 - 0.3j], [1, 1], True),  # a real root: Bez(P, Q) singular
        ([1.0, 2.0, 2.0], [1], True),  # real p: only Bez(P, P')
    ])
    def test_derivative_row_only_inside_the_band(self, roots, rows, stable, monkeypatch):
        calls = []
        eigs = unistab._bezout_eigs
        monkeypatch.setattr(unistab, "_bezout_eigs", lambda c: calls.append(len(c)) or eigs(c))
        assert unistab.is_stable_univariate(UniPoly.from_roots(roots, lead=2 - 1j)) == stable
        assert calls == rows

    def test_real_rooted(self):
        assert unistab.is_real_rooted(poly(-1.0, 0.0, 1.0))
        assert not unistab.is_real_rooted(poly(1.0, 0.0, 1.0))
        assert unistab.is_real_rooted(poly(2.0))
        assert not unistab.is_real_rooted(poly(0.0))


def interleaved_pair(rng, deg_f, same_degree, gap=0.5):
    """Build (f, g) with strictly alternating roots, g on the outside."""
    total = 2 * deg_f + (0 if same_degree else 1)
    pts = np.cumsum(gap + rng.random(total))
    if same_degree:
        rf, rg = pts[0::2], pts[1::2]  # f first: f_1 < g_1 < f_2 < ...
    else:
        rg, rf = pts[0::2], pts[1::2]  # g takes both extremes
    f = UniPoly.from_roots(rf)
    g = UniPoly.from_roots(rg)
    return f, g


def _grid_draw(data, degree, grid=st.integers(-32, 32)):
    """``degree`` sorted roots on the 1/8 grid in [-4, 4] and their polynomial, lead +-1.

    ``grid`` draws the roots' multiples of 1/8.  The coefficients are
    exact: each is a multiple of 8^-6 below 2^13 in modulus.
    """
    rts = np.sort(data.draw(st.lists(grid, min_size=degree, max_size=degree))) / 8.0
    return rts, UniPoly.from_roots(rts, lead=data.draw(st.sampled_from([-1.0, 1.0])))


def _window(data):
    """Multiples of 1/8 in [-32, 32] within 1-32 steps of a drawn center.

    Narrow windows cluster the roots far from 0, where the monomial
    coefficients resolve them worst.
    """
    center, half = data.draw(st.integers(-32, 32)), data.draw(st.integers(1, 32))
    return st.integers(max(-32, center - half), min(32, center + half))


def _grid_poly(data, degree):
    """A polynomial with ``degree`` roots on the 1/8 grid in [-4, 4], lead +-1."""
    return _grid_draw(data, degree)[1]


def _alternate(a, b):
    """Reference: sorted a_1 <= b_1 <= a_2 <= ..., len(a) - len(b) in (0, 1)."""
    if len(a) - len(b) not in (0, 1):
        return False
    merged = [x for pair in itertools.zip_longest(a, b) for x in pair if x is not None]
    return all(y >= x for x, y in zip(merged, merged[1:]))


def _multiset(data, values, max_distinct):
    """Distinct draws from ``values``, each repeated 1-3 times."""
    picks = data.draw(st.lists(values, min_size=1, max_size=max_distinct, unique=True))
    return [r for r in picks for _ in range(data.draw(st.integers(1, 3)))]


_GRID = st.integers(-32, 32).map(lambda k: k / 8.0)
_LEADS = st.sampled_from([1.0, -1.0, 2.5, 1j, -0.5j, np.exp(0.7j)])


class TestBezoutPredicates:
    """Real-rootedness, stability and interlacing decided by Bezoutian inertia."""

    @pytest.mark.parametrize("planted", [[0.5, 0.5, 2.0], [1.0, 1.0, 1.0], [200.0, 201.0, 199.5]])
    def test_multiple_and_far_real_roots(self, planted):
        p = UniPoly.from_roots(planted)
        assert unistab.is_real_rooted(p)
        assert unistab.is_stable_univariate(p)

    def test_shared_double_root_interlaces(self):
        f = UniPoly.from_roots([0.5, 0.5, 2.0])
        g = UniPoly.from_roots([0.5, 1.0])
        assert unistab.interlacing(f, g).kind == "proper_reversed"

    @pytest.mark.parametrize(
        "planted",
        [[-3.0, -3.0, -3.0 + 0.0015j], [k / 8.0 for k in range(-32, -25)] + [-3.625 + 0.00266j]],
    )
    def test_upper_root_beside_a_cluster(self, planted):
        # roots clustered far from 0 make M (see _bezout_eigs) 1e8 or more,
        # and a band that grows like eig_tol * M accepts both
        p = UniPoly.from_roots(planted)
        assert not unistab.is_stable_univariate(p)
        assert not unistab.is_real_rooted(p)

    def test_clustered_pair_that_does_not_alternate(self):
        # roots 3.75 (double) of g against 3.625 (double) and 3.5 of f
        f = UniPoly.from_roots([-4.0, -4.0, -3.875, -3.625, -3.625, -3.5])
        g = UniPoly.from_roots([-4.0, -4.0, -3.875, -3.75, -3.75, -3.625])
        assert unistab.interlacing(f, g).kind == "none"
        assert unistab.interlacing(g, f).kind == "none"

    @given(st.data())
    def test_real_grid_roots_with_multiplicity(self, data):
        grid = _window(data).map(lambda k: k / 8.0)
        p = UniPoly.from_roots(_multiset(data, grid, 4), lead=data.draw(_LEADS))
        assert unistab.is_real_rooted(p)
        assert unistab.is_stable_univariate(p)

    @given(st.data())
    def test_closed_lower_half_plane_roots_are_stable(self, data):
        below = st.builds(lambda k, y: complex(k, -y) / 8.0, _window(data), st.integers(0, 32))
        p = UniPoly.from_roots(_multiset(data, below, 4), lead=data.draw(_LEADS))
        assert unistab.is_stable_univariate(p)

    @given(st.data())
    def test_planted_upper_root(self, data):
        grid = _window(data).map(lambda k: k / 8.0)
        others = np.array(_multiset(data, grid, 3) if data.draw(st.booleans()) else [])
        spread = np.ptp(others) if others.size else 0.0
        delta = data.draw(st.floats(1e-3, 1.0))
        rts = np.append(others, complex(data.draw(grid), delta * (1.0 + spread)))
        # Only clusters that double precision resolves.  Seen from its real
        # centroid h and scaled by its root radius rho, the monic polynomial
        # changes by up to kappa = eps ((|h| + rho) / rho)^d of its size
        # when each coefficient is rounded.  As kappa nears 1, rounding alone
        # can move the planted root across the axis, and the band's rounding
        # term (see unistab._ROUNDING) may hide it.
        h = rts.real.mean()
        rho = np.abs(rts - h).max()
        assume(np.finfo(float).eps * ((abs(h) + rho) / rho) ** rts.size <= 1e-6)
        p = UniPoly.from_roots(rts, lead=data.draw(_LEADS))
        assert not unistab.is_stable_univariate(p)
        assert not unistab.is_real_rooted(p)

    @given(st.data())
    def test_scale_and_phase_do_not_change_verdicts(self, data):
        root = st.builds(complex, _GRID, st.one_of(st.just(0.0), _GRID))
        p = UniPoly.from_roots(_multiset(data, root, 3))
        c = 10.0 ** data.draw(st.floats(-6.0, 6.0)) * np.exp(1j * data.draw(st.floats(0.0, 2 * np.pi)))
        q = p.scale(c)
        assert q.degree == p.degree  # the absolute trim dropped no coefficient
        assert unistab.is_real_rooted(q) == unistab.is_real_rooted(p)
        assert unistab.is_stable_univariate(q) == unistab.is_stable_univariate(p)

    @given(st.data())
    def test_interlacing_kind_is_scale_free(self, data):
        _, f = _grid_draw(data, data.draw(st.integers(0, 6)))
        _, g = _grid_draw(data, data.draw(st.integers(0, 6)))
        r = 10.0 ** data.draw(st.floats(-6.0, 6.0))
        rf, rg = f.scale(r), g.scale(r)
        assert (rf.degree, rg.degree) == (f.degree, g.degree)  # nothing trimmed
        assert unistab.interlacing(rf, rg).kind == unistab.interlacing(f, g).kind


class TestInterlacing:
    def test_textbook_proper(self):
        rep = unistab.interlacing(poly(0.0, 1.0), poly(-1.0, 0.0, 1.0))
        assert rep.kind in ("strict", "proper")

    def test_identical(self):
        g = poly(-1.0, 0.0, 1.0)
        assert unistab.interlacing(g, g).kind == "identical_roots"

    def test_disjoint_not_interlaced(self):
        rep = unistab.interlacing(poly(-1.0, 0.0, 1.0), poly(-4.0, 0.0, 1.0))
        assert rep.kind == "none"

    def test_degree_gap_two_is_none(self):
        rep = unistab.interlacing(poly(0.0, 1.0), UniPoly.from_roots([1.0, 2.0, 3.0]))
        assert rep.kind == "none"

    def test_non_real_rooted_is_none(self):
        rep = unistab.interlacing(poly(1.0, 0.0, 1.0), poly(0.0, 1.0))
        assert rep.kind == "none"

    def test_hermite_biehler_forward(self):
        # proper interlacing <-> g + i f has no root above the real axis
        rng = np.random.default_rng(37)
        for case in range(60):
            deg_f = int(rng.integers(1, 5))
            f, g = interleaved_pair(rng, deg_f, same_degree=bool(rng.integers(2)))
            rep = unistab.interlacing(f, g)
            assert rep.kind == "proper", f"case {case}: {rep.kind}"
            h = g + f.scale(1j)
            assert unistab.is_stable_univariate(h)
            # flipping the orientation destroys stability whenever the
            # combination has a strictly complex root
            h_flip = g + f.scale(-1j)
            r = unistab.roots(h_flip)
            if np.any(r.imag > 1e-7):
                assert not unistab.is_stable_univariate(h_flip)

    def test_hermite_biehler_reverse(self):
        # sample stable combinations, split them, recover proper interlacing
        rng = np.random.default_rng(41)
        for _ in range(60):
            deg = int(rng.integers(2, 7))
            rts = rng.standard_normal(deg) - 1j * np.abs(rng.standard_normal(deg))
            h = UniPoly.from_roots(rts)
            g = UniPoly([c.real for c in h.coeffs])
            f = UniPoly([c.imag for c in h.coeffs])
            if not f or not g:
                continue
            rep = unistab.interlacing(f, g)
            assert rep.kind in ("proper", "identical_roots")

    def test_pencil_grid_property(self):
        # interlacing pairs: every real combination on the grid is real-rooted;
        # a non-interlacing real-rooted pair fails for some grid point
        rng = np.random.default_rng(43)
        grid = [(lam, mu) for lam in range(-3, 4) for mu in range(-3, 4)]
        for _ in range(25):
            deg_f = int(rng.integers(1, 4))
            f, g = interleaved_pair(rng, deg_f, same_degree=bool(rng.integers(2)))
            for lam, mu in grid:
                comb = f.scale(lam) + g.scale(mu)
                if not comb:
                    continue
                assert unistab.is_real_rooted(comb), (lam, mu)

        f = poly(-1.0, 0.0, 1.0)
        g = poly(-4.0, 0.0, 1.0)
        failures = [
            (lam, mu)
            for lam, mu in grid
            if (f.scale(lam) + g.scale(mu))
            and not unistab.is_real_rooted(f.scale(lam) + g.scale(mu))
        ]
        assert failures


    @given(st.data())
    def test_kind_is_proper_exactly_when_the_roots_alternate(self, data):
        grid = _window(data)
        rf, f = _grid_draw(data, data.draw(st.integers(0, 6)), grid)
        rg, g = _grid_draw(data, data.draw(st.integers(0, 6)), grid)
        kind = unistab.interlacing(f, g).kind
        assert kind in ("none", "identical_roots", "proper", "proper_reversed")
        assert (kind != "none") == (_alternate(rf, rg) or _alternate(rg, rf))


def _dense_wronskian_margin(w):
    """Reference max of (W - band) / scale on R, ``scale = sum_j |w_j| max(1, |x|)^j``.

    W is read at 4,096 Chebyshev nodes over its root bound R, at the real
    parts of all critical points, and at +-2R, where the lead dominates, so
    the tails show.  The band is ``sign_tol * scale``.
    """
    c = np.array(w.coeffs).real
    if c.size == 1:
        return c[0] / abs(c[0]) - DEFAULT_TOL.sign_tol
    bound = 1.0 + np.max(np.abs(c[:-1])) / abs(c[-1])
    nodes = np.cos(np.pi * (np.arange(4096) + 0.5) / 4096) * bound
    crit = np.roots((c[1:] * np.arange(1, c.size))[::-1]).real
    xs = np.concatenate([nodes, crit, [-2.0 * bound, 2.0 * bound]])
    scale = np.polyval(np.abs(c)[::-1], np.maximum(1.0, np.abs(xs)))
    return float(np.max(np.polyval(c[::-1], xs) / scale)) - DEFAULT_TOL.sign_tol


class TestWronskian:
    def test_hand_values(self):
        t = poly(0.0, 1.0)
        g = poly(-1.0, 0.0, 1.0)
        one = poly(1.0)
        # W(t, t^2-1) = (t^2-1) - 2t*t = -t^2 - 1
        w = unistab.wronskian_uni(t, g)
        assert w.coeffs == (-1 + 0j, 0j, -1 + 0j)
        assert unistab.wronskian_sign_leq0(t, g)
        # W(1, t) = -1
        assert unistab.wronskian_sign_leq0(one, t)
        # W(t, 1) = +1
        assert not unistab.wronskian_sign_leq0(t, one)
        # W(t^2-1, t) = t^2 + 1 > 0
        assert not unistab.wronskian_sign_leq0(g, t)

    def test_zero_wronskian_of_proportional_pair(self):
        f = poly(1.0, 2.0, 1.0)
        assert unistab.wronskian_sign_leq0(f, f.scale(3.0))

    def test_matches_proper_interlacing(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            deg_f = int(rng.integers(1, 4))
            f, g = interleaved_pair(rng, deg_f, same_degree=bool(rng.integers(2)))
            assert unistab.wronskian_sign_leq0(f, g)
            assert not unistab.wronskian_sign_leq0(g, f)

    def test_rejects_complex_input(self):
        with pytest.raises(ValueError):
            unistab.wronskian_sign_leq0(poly(1j, 1.0), poly(0.0, 1.0))

    def test_scaled_down_pair_keeps_its_verdict(self):
        # roots 3/4, 7/8 against 9/8: not interlaced, max W = 3/32 > 0, and
        # g + i f is unstable at every scale (Hermite-Biehler)
        f, g = UniPoly.from_roots([0.75, 0.875]), UniPoly.from_roots([1.125], lead=-1.0)
        for c in (1.0, 1e-4):
            assert not unistab.is_stable_univariate((g + f.scale(1j)).scale(c))
            assert not unistab.wronskian_sign_leq0(f.scale(c), g.scale(c))

    @given(st.data())
    def test_verdict_is_scale_free(self, data):
        deg_f = data.draw(st.integers(0, 6))
        f = _grid_poly(data, deg_f)
        g = _grid_poly(data, data.draw(st.integers(max(0, deg_f - 1), min(6, deg_f + 1))))
        verdict = unistab.wronskian_sign_leq0(f, g)
        for k in range(-5, 6):
            c = 10.0**k
            assert unistab.wronskian_sign_leq0(f.scale(c), g.scale(c)) == verdict, k

    @settings(max_examples=300)
    @given(st.data())
    def test_decision_matches_a_dense_reference(self, data):
        # Grid roots with repeats (degrees 0-6, differing by at most 1),
        # alternating grid roots with one root sometimes moved, or random real
        # coefficients, at scales 10^[-4, 4].  Only a reference maximum
        # within 1e-6 of zero may go either way.
        kind = data.draw(st.sampled_from(["grid", "interleaved", "random"]))
        if kind == "grid":
            deg_f = data.draw(st.integers(0, 6))
            f = _grid_poly(data, deg_f)
            g = _grid_poly(data, data.draw(st.integers(max(0, deg_f - 1), min(6, deg_f + 1))))
        elif kind == "interleaved":
            rts = np.sort(data.draw(st.lists(st.integers(-32, 32), min_size=2, max_size=12, unique=True))) / 8.0
            rts[data.draw(st.integers(0, rts.size - 1))] += data.draw(st.sampled_from([0.0, 0.0, 0.0625, -0.3]))
            leads = st.sampled_from([-1.0, 1.0])
            f, g = (UniPoly.from_roots(rts[k::2], lead=data.draw(leads)) for k in (0, 1))
        else:
            coeffs = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=7)
            f, g = UniPoly(data.draw(coeffs)), UniPoly(data.draw(coeffs))
        c = 10.0 ** data.draw(st.floats(-4.0, 4.0))
        f, g = f.scale(c), g.scale(c)
        w = unistab.wronskian_uni(f, g)
        margin = _dense_wronskian_margin(w) if w else 0.0
        if abs(margin) > 1e-6:
            assert unistab.wronskian_sign_leq0(f, g) == (margin <= 0.0)
