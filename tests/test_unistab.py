import itertools
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
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
        # Each sweep evaluates three Horner rows; the verdict adds two.
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


def _grid_poly(data, degree):
    """A polynomial with ``degree`` roots on the 1/8 grid in [-4, 4], lead +-1."""
    rts = data.draw(st.lists(st.integers(-32, 32), min_size=degree, max_size=degree))
    return UniPoly.from_roots(np.array(rts) / 8.0, lead=data.draw(st.sampled_from([-1.0, 1.0])))


def _alternate(a, b, slack):
    """Reference: a_1 <= b_1 <= a_2 <= ... within slack, len(a) - len(b) in (0, 1)."""
    if len(a) - len(b) not in (0, 1):
        return False
    merged = [x for pair in itertools.zip_longest(a, b) for x in pair if x is not None]
    return all(y >= x - slack for x, y in zip(merged, merged[1:]))


class TestInterlacing:
    @pytest.mark.parametrize(
        "first, second, slack, expected",
        [
            ([0.0, 2.0], [1.0, 3.0], 0.0, True),
            ([0.0, 2.0, 4.0], [1.0, 3.0], 0.0, True),
            ([1.0, 3.0], [0.0, 2.0, 4.0], 0.0, False),  # first must not be shorter
            ([0.0, 2.0, 4.0, 6.0], [1.0, 3.0], 0.0, False),
            ([0.0, 1.0], [0.5, 1.0 - 1e-9], 1e-7, True),
            ([0.0, 1.0], [0.5, 1.0 - 1e-9], 0.0, False),
            ([], [], 0.0, True),
        ],
    )
    def test_chain(self, first, second, slack, expected):
        assert unistab._chain(np.array(first), np.array(second), slack) is expected

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
                assert unistab.is_real_rooted(comb, im_tol=1e-6), (lam, mu)

        f = poly(-1.0, 0.0, 1.0)
        g = poly(-4.0, 0.0, 1.0)
        failures = [
            (lam, mu)
            for lam, mu in grid
            if (f.scale(lam) + g.scale(mu))
            and not unistab.is_real_rooted(f.scale(lam) + g.scale(mu), im_tol=1e-6)
        ]
        assert failures


    @given(st.data())
    def test_kind_is_proper_exactly_when_the_roots_alternate(self, data):
        f = _grid_poly(data, data.draw(st.integers(0, 6)))
        g = _grid_poly(data, data.draw(st.integers(0, 6)))
        rep = unistab.interlacing(f, g)
        assert rep.kind in ("none", "identical_roots", "proper", "proper_reversed")
        rf, rg = rep.roots_f, rep.roots_g
        if (rf.size, rg.size) != (f.degree, g.degree):
            assert rep.kind == "none"  # a multiple root left the axis in rounding
            return
        slack = DEFAULT_TOL.root_merge_tol
        alternate = _alternate(rf, rg, slack) or _alternate(rg, rf, slack)
        assert (rep.kind != "none") == alternate


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
