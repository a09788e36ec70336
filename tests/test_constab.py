"""Tests for the conic stability procedures in conicstab.constab.

Expected values come from hand analysis of small instances:

* ``z1 - z2`` over the orthant: neither (1, -1) nor (-1, 1) is
  coordinatewise nonnegative, and <(1,-1), y> = 0 at y = (1, 1), so the
  polynomial vanishes at x + i(1, 1) for an x with x1 - x2 = 0.
* ``(z1+z3)^2 - z2^2`` over Orthant(3) factors as a product of
  z1 - z2 + z3 and z1 + z2 + z3; the first factor kills stability on the
  interior plane y1 - y2 + y3 = 0 while the matrix version
  ``(z11+z22)^2 - z12^2`` stays zero-free when Im is positive definite
  (trace(Y) > |y12| for Y > 0).
* ``z1 + i`` in one variable has its only root at -i, whose imaginary
  part is not in the open half-line, so sampling must come back clean.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conicstab import constab, poly
from conicstab.cones import Orthant, Polyhedral, PSD, product
from conicstab.constab import (
    CERTIFIED_STABLE,
    CERTIFIED_UNSTABLE,
    FALSIFIED,
    NOT_FALSIFIED,
    decompose_check,
    falsify_k_stability,
    hb_lift_check,
    hyperbolicity_check,
    imaginary_projection_sample,
    linear_k_stability,
    pencil_hko_check,
    specialize_stability_check,
    wronskian_certificate,
)
from conicstab.constab import _HYPERBOLICITY, _STABILITY, _upper
from conicstab.poly import MultiPoly, parse
from conicstab.tolerances import DEFAULT_TOL, ToleranceProfile
from conicstab.unistab import UniPoly, _clears_lower, _roots_batch, roots


def _sliver(delta):
    """z11*z22 - (1+delta)*z12^2: not PSD-stable, but only on a thin sliver of directions."""
    return parse(f"z11*z22 - (1 + {delta})*z12^2", var_names=("z11", "z12", "z22"))


def _assert_valid_witness(verdict, f, K, tol=DEFAULT_TOL):
    """The confirmation contract every falsified verdict must meet."""
    z = verdict.witness
    assert z is not None
    val = abs(complex(f(z)))
    scale = f.coeff_norm1() * max(1.0, float(np.max(np.abs(z)))) ** f.degree
    assert val <= tol.residual_tol * scale
    margin = K.interior_margin(np.asarray(z).imag)
    assert margin >= tol.sample_margin / 2.0


def _assert_exact_witness(verdict, f, K, tol=DEFAULT_TOL):
    """An exact-route witness: residual bound met, Im(z) interior."""
    z = verdict.witness
    scale = f.coeff_norm1() * max(1.0, float(np.max(np.abs(z)))) ** f.degree
    assert abs(complex(f(z))) <= tol.residual_tol * scale
    assert K.interior_margin(np.asarray(z).imag) > 0


_WEDGE = Polyhedral([[1.0, 0.0], [1.0, 1.0]])
_LINEAR_CONES = [
    Orthant(1),
    Orthant(3),
    _WEDGE,
    PSD(2),
    PSD(3),
    product(Orthant(1), PSD(2)),
    product(_WEDGE, Orthant(1)),
]


# ---------------------------------------------------------------------------
# linear_k_stability
# ---------------------------------------------------------------------------


class TestLinearStability:
    def test_positive_orthant_certificate(self):
        v = linear_k_stability(parse("z1 + z2 + 1"), Orthant(2))
        assert v.status == CERTIFIED_STABLE
        assert v.certificate is not None and "K*" in v.certificate

    def test_negative_side_is_also_stable(self):
        v = linear_k_stability(parse("-z1 - z2 + 3"), Orthant(2))
        assert v.status == CERTIFIED_STABLE

    def test_mixed_signs_unstable_with_witness(self):
        f = parse("z1 - z2")
        v = linear_k_stability(f, Orthant(2))
        assert v.status == CERTIFIED_UNSTABLE
        _assert_valid_witness(v, f, Orthant(2))

    def test_psd_positive_definite_functional(self):
        # <A, Z> + 2 with A = diag(5, 1): flat coefficients (5, 0, 1).
        f = parse("5*z11 + z22 + 2", var_names=("z11", "z12", "z22"))
        v = linear_k_stability(f, PSD(2))
        assert v.status == CERTIFIED_STABLE

    def test_psd_indefinite_functional(self):
        f = parse("z11 - z22", var_names=("z11", "z12", "z22"))
        v = linear_k_stability(f, PSD(2))
        assert v.status == CERTIFIED_UNSTABLE
        _assert_valid_witness(v, f, PSD(2))

    def test_boundary_dual_functional_is_exact_but_flagged(self):
        # a = (1, 0) pairs to zero against (0, 1) but is a nonzero dual
        # vector, so z1 + b never vanishes with y1 > 0.
        v = linear_k_stability(parse("z1 + 1", var_names=("z1", "z2")), Orthant(2))
        assert v.status == CERTIFIED_STABLE
        assert "boundary" in v.certificate

    def test_wedge_cone_sign_split(self):
        # K = cone{(1,0), (1,1)}; a = (1, -3) pairs negatively with (1,1)
        # and -a pairs negatively with (1,0), so neither side is dual.
        K = Polyhedral([[1.0, 0.0], [1.0, 1.0]])
        f = parse("z1 - 3*z2")
        v = linear_k_stability(f, K)
        assert v.status == CERTIFIED_UNSTABLE
        _assert_valid_witness(v, f, K)
        assert linear_k_stability(parse("z1 + z2"), K).status == CERTIFIED_STABLE

    def test_zero_polynomial_is_unstable_by_convention(self):
        v = linear_k_stability(MultiPoly.zero(("z1", "z2")), Orthant(2))
        assert v.status == CERTIFIED_UNSTABLE
        assert "zero" in v.certificate

    def test_nonzero_constant_is_stable(self):
        v = linear_k_stability(parse("7", var_names=("z1",)), Orthant(1))
        assert v.status == CERTIFIED_STABLE

    def test_rejects_higher_degree(self):
        with pytest.raises(ValueError):
            linear_k_stability(parse("z1^2"), Orthant(1))

    def test_rejects_imaginary_linear_part(self):
        with pytest.raises(ValueError):
            linear_k_stability(parse("i*z1 + 1"), Orthant(1))

    def test_rejects_complex_constant_without_flag(self):
        with pytest.raises(ValueError):
            linear_k_stability(parse("z1 + z2 + i"), Orthant(2))

    def test_complex_constant_flag_cases(self):
        stable = parse("z1 + z2 + 1 + 2*i")
        v = linear_k_stability(stable, Orthant(2), allow_complex_constant=True)
        assert v.status == CERTIFIED_STABLE

        # Im(b) < 0 pulls a zero into the open upper set: solve
        # y1 + y2 = 2 with y interior, x1 + x2 = -1.
        f = parse("z1 + z2 + 1 - 2*i")
        v = linear_k_stability(f, Orthant(2), allow_complex_constant=True)
        assert v.status == CERTIFIED_UNSTABLE
        _assert_valid_witness(v, f, Orthant(2))

        flipped = parse("-z1 - z2 + 1 - 2*i")
        v = linear_k_stability(flipped, Orthant(2), allow_complex_constant=True)
        assert v.status == CERTIFIED_STABLE

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linear_k_stability(parse("z1 + z2"), Orthant(3))

    def test_one_sided_certificate_names_the_dual_side(self):
        # a = (1, 1) lies in int K*; only the sign of Im(b) breaks stability.
        v = linear_k_stability(parse("z1 + z2 + 1 - 2*i"), Orthant(2), allow_complex_constant=True)
        assert v.certificate == "a ∈ K* but Im b < 0"
        v = linear_k_stability(parse("-z1 - z2 + 1 + 2*i"), Orthant(2), allow_complex_constant=True)
        assert v.certificate == "-a ∈ K* but Im b > 0"
        v = linear_k_stability(parse("z1 - z2 + 1 - 2*i"), Orthant(2), allow_complex_constant=True)
        assert v.certificate == "neither a nor -a lies in the dual cone"

    @pytest.mark.parametrize(
        "K, expr, names",
        [
            (Orthant(6), "5*z1 + 4*z2 + 3*z3 + 2*z4 + z5 - 0.01*z6 + 1", None),
            (PSD(2), "z11 + z22 - 2.0002*z12 + 0.5", ("z11", "z12", "z22")),
            (_WEDGE, "z1 - 1.0001*z2", None),
            (
                product(Orthant(1), PSD(2)),
                "z1 + z11 + z22 - 2.0002*z12 - 0.3*i",
                ("z1", "z11", "z12", "z22"),
            ),
        ],
        ids=["orthant6", "psd2", "wedge", "orthant1xpsd2"],
    )
    def test_witness_just_outside_the_dual(self, K, expr, names):
        # Interior points where <a, y> < 0 are a sliver of K here; the
        # witness comes from the dual minimizer, not from sampling.
        f = parse(expr, var_names=names)
        v = linear_k_stability(f, K, allow_complex_constant=True)
        assert v.status == CERTIFIED_UNSTABLE
        _assert_exact_witness(v, f, K)

    @pytest.mark.parametrize(
        "K, expr, names",
        [
            (Orthant(2), "1e-10*z1 - 1e-10*z2 + 1", None),
            (Orthant(2), "1e-9*z1 - 1e-9*z2 + 1", None),
            (PSD(2), "1e-10*z11 - 1e-10*z22 + 1", ("z11", "z12", "z22")),
        ],
        ids=["orthant_1e-10", "orthant_1e-9", "psd2_1e-10"],
    )
    def test_tiny_mixed_sign_form_is_unstable(self, K, expr, names):
        # Neither a nor -a is dual; the dual margins of a itself are within
        # the band only because ||a|| is tiny, so the decision is on f/||a||.
        f = parse(expr, var_names=names)
        v = linear_k_stability(f, K)
        assert v.status == CERTIFIED_UNSTABLE
        assert v.certificate == "neither a nor -a lies in the dual cone"
        _assert_exact_witness(v, f, K)

    def test_witness_of_real_constant_form_has_unit_imaginary_part(self):
        # a = (1, -1e-6) is just outside the orthant's dual: <a, y> = 0 only
        # near the z2 axis, where the dual-minimizer step grows y to ~1e6.
        # With Im b = 0 any positive multiple of y is a zero, so y is unit.
        f = parse("z1 - 1e-6*z2 + 1")
        v = linear_k_stability(f, Orthant(2))
        assert v.status == CERTIFIED_UNSTABLE
        assert v.certificate == "neither a nor -a lies in the dual cone"
        _assert_exact_witness(v, f, Orthant(2))
        assert np.linalg.norm(v.witness.imag) == pytest.approx(1.0, rel=1e-12)

    def test_raw_coefficient_checks_are_scale_free(self):
        # Im b = 1e-9 is 7e-16 of ||a||: a real constant term at any scale.
        big = linear_k_stability(parse("1e6*z1 + 1e6*z2 + 1e6 + 1e-9*i"), Orthant(2))
        unit = linear_k_stability(parse("z1 + z2 + 1 + 1e-15*i"), Orthant(2))
        assert big.status == unit.status == CERTIFIED_STABLE
        with pytest.raises(ValueError, match="linear part must have real"):
            linear_k_stability(parse("1e6*z1 + 1e6*z2 + 1e-3*i*z2"), Orthant(2))

    @settings(max_examples=150)
    @given(st.data())
    def test_status_is_invariant_under_scaling(self, data):
        # f -> c*f keeps the zeros.  |a_k| >= 0.1 and |c| >= 1e-9 keep every
        # coefficient but a tiny Im b far above the trim, so both sides see
        # the same terms; Im b of about 1e-14 ||a|| is real at every scale
        # (or trimmed, which gives the same outcome).  The outcome is the
        # status, or the type raised for a complex constant term without
        # ``allow_complex_constant``.
        K = data.draw(st.sampled_from(_LINEAR_CONES))
        mag = st.floats(0.1, 10.0)
        sign = st.sampled_from([-1.0, 1.0])
        part = st.one_of(st.just(0.0), st.builds(lambda m, s: m * s, mag, sign))
        a = [data.draw(mag) * data.draw(sign) for _ in range(K.dim)]
        tiny = 1e-14 * float(np.linalg.norm(a)) * data.draw(st.floats(0.5, 2.0)) * data.draw(sign)
        b = complex(data.draw(part), data.draw(st.one_of(part, st.just(tiny))))
        c = data.draw(sign) * 10.0 ** data.draw(st.floats(-9.0, 9.0))
        allow = data.draw(st.booleans())
        names = tuple(f"z{k}" for k in range(K.dim))

        def form(scale):
            terms = {tuple(int(j == k) for j in range(K.dim)): scale * a[k] for k in range(K.dim)}
            terms[(0,) * K.dim] = scale * b
            return MultiPoly(names, terms)

        def outcome(scale):
            try:
                v = linear_k_stability(form(scale), K, allow_complex_constant=allow)
            except ValueError as exc:
                return type(exc).__name__, None
            return v.status, v

        (base, _), (status, scaled) = outcome(1.0), outcome(c)
        assert status == base
        if scaled is not None and scaled.witness is not None:
            _assert_exact_witness(scaled, form(c), K)

    @given(st.data())
    def test_decides_every_form_property(self, data):
        K = data.draw(st.sampled_from(_LINEAR_CONES))
        coeff = st.floats(-100.0, 100.0)
        a = data.draw(st.lists(coeff, min_size=K.dim, max_size=K.dim))
        b = complex(data.draw(coeff), data.draw(coeff))
        names = tuple(f"z{k}" for k in range(K.dim))
        terms = {tuple(int(j == k) for j in range(K.dim)): a[k] for k in range(K.dim)}
        terms[(0,) * K.dim] = b
        f = MultiPoly(names, terms)
        v = linear_k_stability(f, K, allow_complex_constant=True)
        if v.witness is not None:
            _assert_exact_witness(v, f, K)


@pytest.mark.parametrize(
    "imag, floor, value, accepted",
    [
        ((0.0, 1.0), 0.0, 0.0, False),  # margin exactly 0 at floor 0
        ((5e-4, 1.0), 5e-4, 0.0, True),  # margin equal to the floor
        ((1.0, 1.0), 5e-4, DEFAULT_TOL.residual_tol, True),  # residual at the bound
        ((1.0, 1.0), 5e-4, np.nextafter(DEFAULT_TOL.residual_tol, 1.0), False),  # just above
    ],
    ids=["zero_margin_floor_zero", "margin_at_floor", "residual_at_bound", "residual_above_bound"],
)
def test_witness_acceptance_boundaries(imag, floor, value, accepted):
    # The one acceptance rule of the samplers, the linear route and
    # ``stab --verify``: mass 1, degree 1 and |z| = 1 make the bound
    # residual_tol itself.
    z = 1j * np.array(imag, dtype=complex)
    got = constab._witness_residual(Orthant(2), z, floor, lambda _: value, 1.0, 1, DEFAULT_TOL)
    assert (got == value) if accepted else (got is None)


# ---------------------------------------------------------------------------
# falsify_k_stability
# ---------------------------------------------------------------------------


class TestFalsifier:
    def test_plane_witness_product_of_linear_forms(self):
        f = parse("(z1 + z3)^2 - z2^2")
        K = Orthant(3)
        v = falsify_k_stability(f, K, n_samples=2_000, rng=0)
        assert v.status == FALSIFIED
        _assert_valid_witness(v, f, K)
        y = np.asarray(v.witness).imag
        # Im(witness) must land on one of the two zero-set planes.
        planes = (abs(y[0] - y[1] + y[2]), abs(y[0] + y[1] + y[2]))
        assert min(planes) <= 1e-6 * float(np.linalg.norm(y))

    def test_matrix_variant_survives(self):
        f = parse("(z11 + z22)^2 - z12^2", var_names=("z11", "z12", "z22"))
        v = falsify_k_stability(f, PSD(2), n_samples=2_000, rng=0)
        assert v.status == NOT_FALSIFIED
        assert v.samples == 2_000

    def test_root_below_the_cone_is_not_a_witness(self):
        v = falsify_k_stability(parse("z1 + i"), Orthant(1), n_samples=2_000, rng=0)
        assert v.status == NOT_FALSIFIED

    def test_zero_polynomial_short_circuits(self):
        v = falsify_k_stability(MultiPoly.zero(("z1",)), Orthant(1), n_samples=100, rng=0)
        assert v.status == CERTIFIED_UNSTABLE

    def test_nonzero_constant_survives_without_sampling(self):
        v = falsify_k_stability(parse("3", var_names=("z1",)), Orthant(1), n_samples=100, rng=0)
        assert v.status == NOT_FALSIFIED

    @pytest.mark.parametrize(
        "text",
        [
            "z1 - z2",
            "z1^2 - z2^2",
            "(z1 - z2)*(z1 + z2 + 1)",
        ],
    )
    def test_witness_contract_on_unstable_instances(self, text):
        f = parse(text)
        K = Orthant(2)
        v = falsify_k_stability(f, K, n_samples=3_000, rng=7)
        assert v.status == FALSIFIED
        _assert_valid_witness(v, f, K)
        assert v.residual is not None and v.residual >= 0.0

    # Both entry points run the one sampling engine, so determinism and
    # prefix-stability are checked for each of them.
    def test_determinism_bit_for_bit(self):
        f = parse("(z1 + z3)^2 - z2^2")
        for search in (falsify_k_stability, hyperbolicity_check):
            a = search(f, Orthant(3), n_samples=1_000, rng=11)
            b = search(f, Orthant(3), n_samples=1_000, rng=11)
            assert a.status == b.status == FALSIFIED
            assert a.samples == b.samples
            assert a.certificate == b.certificate
            assert np.array_equal(np.asarray(a.witness), np.asarray(b.witness))

    def test_budget_extension_preserves_first_witness(self):
        f = parse("z1^2 - z2^2")
        for search in (falsify_k_stability, hyperbolicity_check):
            small = search(f, Orthant(2), n_samples=500, rng=3)
            large = search(f, Orthant(2), n_samples=5_000, rng=3)
            assert small.status == large.status == FALSIFIED
            assert small.samples == large.samples
            assert np.array_equal(np.asarray(small.witness), np.asarray(large.witness))
        # A witness past the first draw block (2048 draws) is found again at
        # the same draw by every budget that reaches it, and missed cleanly
        # by every budget that stops short of it.
        for search, f, first in (
            (falsify_k_stability, _sliver(0.0003), 2822),
            (hyperbolicity_check, _sliver(0.0001), 1828),
        ):
            found = [search(f, PSD(2), n_samples=n, rng=1) for n in (5_000, 9_000)]
            assert found[0].status == found[1].status == FALSIFIED
            assert found[0].samples == found[1].samples == first
            assert np.array_equal(np.asarray(found[0].witness), np.asarray(found[1].witness))
            short = search(f, PSD(2), n_samples=first - 1, rng=1)
            assert short.status == NOT_FALSIFIED and short.samples == first - 1

    def test_seed_echoed_in_verdict(self):
        v = falsify_k_stability(parse("z1 - z2"), Orthant(2), n_samples=500, rng=42)
        assert v.seed == 42

    def test_product_of_survivors_survives(self):
        K = Orthant(2)
        f = parse("z1 + z2 + 1")
        g = parse("(z1 + 2*z2)*(3*z1 + z2 + 5)")
        n = 1_500
        assert falsify_k_stability(f, K, n_samples=n, rng=5).status == NOT_FALSIFIED
        assert falsify_k_stability(g, K, n_samples=n, rng=5).status == NOT_FALSIFIED
        assert falsify_k_stability(f * g, K, n_samples=n, rng=5).status == NOT_FALSIFIED

    def test_product_witness_kills_a_factor(self):
        K = Orthant(2)
        bad = parse("z1 - z2")
        good = parse("z1 + z2 + 1")
        prod = bad * good
        v = falsify_k_stability(prod, K, n_samples=3_000, rng=1)
        assert v.status == FALSIFIED
        z = np.asarray(v.witness)
        vals = [abs(complex(bad(z))), abs(complex(good(z)))]
        scale = prod.coeff_norm1() * max(1.0, float(np.max(np.abs(z)))) ** prod.degree
        assert min(vals) <= 1e-4 * scale

    def test_rows_whose_monic_form_overflows_do_not_raise(self):
        # Such rows get NaN roots instead of reaching np.roots with infs, and
        # the kernels' overflow warns nothing (the suite makes warnings errors).
        K = Orthant(2)
        f = parse("1e306*z1^3*z2 + 1e306*z2^4")
        v = falsify_k_stability(f, K, n_samples=4096, rng=1)
        assert (v.status, v.samples) == (FALSIFIED, 1)
        z = np.asarray(v.witness)
        floor = DEFAULT_TOL.sample_margin / 2
        assert constab._witness_residual(K, z, floor, f, f.coeff_norm1(), f.degree, DEFAULT_TOL) is not None
        # Stable, yet at scale 1 a split fourfold root falsifies it, as in
        # test_monomial_of_degree_four_or_more_is_not_falsified: only the
        # return type is pinned.
        v = falsify_k_stability(parse("1e306*(z1+z2)^4"), K, n_samples=4096, rng=1)
        assert isinstance(v, constab.Verdict)

    def test_rejects_generator_seeds(self):
        with pytest.raises(TypeError):
            falsify_k_stability(parse("z1"), Orthant(1), rng=np.random.default_rng(0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            falsify_k_stability(parse("z1 + z2"), Orthant(3), n_samples=10)


# ---------------------------------------------------------------------------
# hyperbolicity_check
# ---------------------------------------------------------------------------


class TestHyperbolicity:
    def test_determinant_polynomial_is_hyperbolic(self):
        f = parse("z11*z22 - z12^2", var_names=("z11", "z12", "z22"))
        v = hyperbolicity_check(f, PSD(2), n_samples=1_000, rng=0)
        assert v.status == NOT_FALSIFIED

    def test_sum_of_squares_fails(self):
        f = parse("z1^2 + z2^2")
        K = Orthant(2)
        v = hyperbolicity_check(f, K, n_samples=1_000, rng=0)
        assert v.status == FALSIFIED
        _assert_valid_witness(v, f, K)

    def test_monomial_is_hyperbolic(self):
        v = hyperbolicity_check(parse("z1*z2"), Orthant(2), n_samples=1_000, rng=0)
        assert v.status == NOT_FALSIFIED

    def test_rejects_inhomogeneous_input(self):
        with pytest.raises(ValueError):
            hyperbolicity_check(parse("z1 + 1"), Orthant(1))

    @pytest.mark.parametrize("text,expect", [
        ("z1 - z2", FALSIFIED),
        ("z1 + z2", NOT_FALSIFIED),
        ("z1^2 - z2^2", FALSIFIED),
    ])
    def test_agrees_with_direct_falsifier(self, text, expect):
        f = parse(text)
        K = Orthant(2)
        hv = hyperbolicity_check(f, K, n_samples=1_000, rng=9)
        fv = falsify_k_stability(f, K, n_samples=1_000, rng=9)
        assert hv.status == expect
        assert (hv.status == FALSIFIED) == (fv.status == FALSIFIED)
        if hv.status == FALSIFIED:
            _assert_valid_witness(hv, f, K)


# ---------------------------------------------------------------------------
# hb_lift_check
# ---------------------------------------------------------------------------


class TestHbLift:
    def test_coordinate_pair_is_unstable_on_both_sides(self):
        # z1 + i z2 vanishes at (1+i, -1+i) whose imaginary part (1, 1)
        # is interior, so the direct side must be falsified; the lifted
        # side z1 + w z2 vanishes at w = 1+i, z1 = -1+i, z2 = 1 with
        # imaginary parts (1, 0, 1)... scaled into the interior by the
        # sampler. Both dirty is the consistent outcome.
        rep = hb_lift_check(
            parse("z2", var_names=("z1", "z2")), parse("z1", var_names=("z1", "z2")),
            Orthant(2), n_samples=3_000, rng=0,
        )
        assert rep.direct.status == FALSIFIED
        assert rep.lifted.status == FALSIFIED
        assert rep.consistent

    def test_sign_flip_still_dirty(self):
        rep = hb_lift_check(
            parse("-z2", var_names=("z1", "z2")), parse("z1", var_names=("z1", "z2")),
            Orthant(2), n_samples=3_000, rng=0,
        )
        assert rep.direct.status == FALSIFIED
        assert rep.lifted.status == FALSIFIED
        assert rep.consistent

    def test_zero_f_reduces_to_g(self):
        rep = hb_lift_check(
            MultiPoly.zero(("z1", "z2")), parse("z1", var_names=("z1", "z2")),
            Orthant(2), n_samples=1_000, rng=0,
        )
        assert rep.direct.status == NOT_FALSIFIED
        assert rep.lifted.status == NOT_FALSIFIED
        assert rep.consistent

    def test_constructed_stable_pair_clean_on_both_sides(self):
        # g + i f = (z1+z2+1) * (z1+z2+2+i): both factors have dual-cone
        # coefficient vectors and upper-half constants, so the product
        # never vanishes on the open set.
        base = parse("z1 + z2 + 1")
        g = base * parse("z1 + z2 + 2")
        rep = hb_lift_check(base, g, Orthant(2), n_samples=2_000, rng=4)
        assert rep.direct.status == NOT_FALSIFIED
        assert rep.lifted.status == NOT_FALSIFIED
        assert rep.consistent

    def test_rejects_complex_inputs(self):
        with pytest.raises(ValueError):
            hb_lift_check(parse("i*z1"), parse("z1"), Orthant(1))


# ---------------------------------------------------------------------------
# pencil_hko_check
# ---------------------------------------------------------------------------


class TestPencil:
    def test_proportional_pair_is_clean_and_consistent(self):
        f = parse("z1 + z2")
        rep = pencil_hko_check(f, f, Orthant(2), n_samples=800, rng=0)
        assert rep.pencil_clean
        assert rep.combo_clean
        assert rep.consistent
        # The direction lam + mu = 0 hits the zero member exactly.
        assert any(e.zero for e in rep.entries)

    def test_coordinate_pair_dirty_on_both_sides(self):
        rep = pencil_hko_check(
            parse("z2", var_names=("z1", "z2")), parse("z1", var_names=("z1", "z2")),
            Orthant(2), n_samples=800, rng=0,
        )
        assert not rep.pencil_clean
        assert not rep.combo_clean
        assert rep.consistent
        assert rep.f_plus_ig.status == FALSIFIED
        assert rep.g_plus_if.status == FALSIFIED

    def test_opposite_multiples_stay_clean(self):
        f = parse("z1")
        g = f.scale(-1.0)
        rep = pencil_hko_check(f, g, Orthant(1), n_samples=800, rng=0)
        assert rep.pencil_clean
        assert rep.combo_clean
        assert rep.consistent
        assert any(e.zero for e in rep.entries)

    def test_custom_grid_is_respected(self):
        rep = pencil_hko_check(
            parse("z1 + z2"), parse("z1 + z2"), Orthant(2),
            grid=[(1.0, 0.0), (0.0, 1.0)], n_samples=300, rng=0,
        )
        assert len(rep.entries) == 2
        assert [(e.lam, e.mu) for e in rep.entries] == [(1.0, 0.0), (0.0, 1.0)]

    def test_default_grid_contains_axes(self):
        rep = pencil_hko_check(parse("z1"), parse("z1"), Orthant(1), n_samples=200, rng=0)
        pts = [(round(e.lam, 12), round(e.mu, 12)) for e in rep.entries]
        assert (1.0, 0.0) in pts and (0.0, 1.0) in pts
        assert len(rep.entries) == 32

    def test_members_share_each_block(self, monkeypatch):
        # One draw and no falsifier call for the 32 members; one draw and
        # one falsifier call each for f + ig and g + if.
        draws, calls = [], []
        orig_draw, orig_falsify = Orthant.interior_from_normals, constab.falsify_k_stability
        monkeypatch.setattr(Orthant, "interior_from_normals",
                            lambda *a, **k: draws.append(1) or orig_draw(*a, **k))
        monkeypatch.setattr(constab, "falsify_k_stability",
                            lambda *a, **k: calls.append(1) or orig_falsify(*a, **k))
        pencil_hko_check(parse("z1^2 + z2"), parse("z1*z2 - 1"), Orthant(2), n_samples=600)
        assert (len(draws), len(calls)) == (3, 2)

    def test_one_point_grid_matches_the_lone_falsifier(self):
        # The grid's one member, a weight row on the monomials of f and g,
        # gets the same witness bits as falsify_k_stability on the member
        # polynomial.
        f, g = parse("z1^2 - z2^2 + z1"), parse("z1*z2 + 1")
        rep = pencil_hko_check(f, g, Orthant(2), grid=[(0.6, 0.8)], n_samples=600, rng=2)
        v = falsify_k_stability(f.scale(0.6) + g.scale(0.8), Orthant(2), n_samples=600, rng=2)
        assert v.status == FALSIFIED
        assert np.array_equal(rep.entries[0].verdict.witness, v.witness)

    @pytest.mark.parametrize("grid", [[], [(float("nan"), 1.0)], [(1.0, float("inf"))],
                                      [(1.0, 0.0, 0.5)], [(1.0, 0.0), (1.0,)]])
    def test_degenerate_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="grid"):
            pencil_hko_check(parse("z1 + z2"), parse("z1 - z2"), Orthant(2), grid=grid, n_samples=50)


@st.composite
def _real_pencil_pairs(draw, top=3, low=0):
    """A real pair of degree <= ``top`` on orthant(2), orthant(3) or PSD(2).

    With ``low`` > 0, f has a term of degree ``low`` or more.
    """
    K, names = draw(st.sampled_from([
        (Orthant(2), ("z1", "z2")), (Orthant(3), ("z1", "z2", "z3")), (PSD(2), MATRIX_VARS),
    ]))
    exps = [e for e in np.ndindex(*[top + 1] * len(names)) if sum(e) <= top]

    def poly(lead=()):
        support = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=5, unique=True))
        support = list(dict.fromkeys(list(lead) + support))
        coeffs = draw(st.lists(st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 0.05),
                               min_size=len(support), max_size=len(support)))
        return MultiPoly(names, dict(zip(support, coeffs)))

    lead = [draw(st.sampled_from([e for e in exps if sum(e) >= low]))] if low else []
    return poly(lead), poly(), K


@pytest.mark.xfail(strict=True, reason="real roots of multiplicity >= 4 in all, split off "
                   "the axis by rounding, pass the witness test")
@pytest.mark.parametrize("f,K", [("z3^4", Orthant(3)), ("z1^2*z2^3", Orthant(2))])
def test_monomial_of_degree_four_or_more_is_not_falsified(f, K):
    # A monomial vanishes only where a coordinate does, so it is stable on
    # the orthant.  z3^4's accepted witness has Im z3 ~ 9e-4 and |f| ~ 6e-13.
    names = ("z1", "z2", "z3")[: K.dim]
    v = falsify_k_stability(parse(f, var_names=names), K, n_samples=2_049, rng=2_049)
    assert v.status == NOT_FALSIFIED


def _monomial_quartic_member(f, g, grid):
    """A monomial of degree >= 4 divides a nonzero member lam*f + mu*g of the grid.

    Such a member's verdict hangs on rounding: its line rows have real
    roots of multiplicity >= 4 in all, which cluster where they meet; a
    solve splits them about 1e-3 off the axis, and the witness test
    accepts a split root (``test_monomial_of_degree_four_or_more_is_not_falsified``).
    """
    members = [p for p in (f.scale(lam) + g.scale(mu) for lam, mu in grid) if p]
    return any(sum(min(e[k] for e in p.terms) for k in range(p.nvars)) >= 4 for p in members)


# Every fourth direction of the default grid: 0, 45, 90 and 135 degrees among them.
_GRID8 = [(float(np.cos(np.pi * k / 8)), float(np.sin(np.pi * k / 8))) for k in range(8)]


class TestPencilFamily:
    """Each member of the shared pencil search gets the verdict it gets alone.

    Budgets 2,047, 2,049 and 4,500 end inside the first, second and third
    block.  The explicit pairs cancel a variable at 45 degrees (lam - mu =
    1.1e-16), drop f's degree at 90 degrees (lam = 6e-17), and make thin
    slivers (``_sliver``) whose members are falsified at draws 38, 160 and
    2,217 of the 4,500 budget, so members leave the family in different
    blocks while others stay to the end.  Pairs of degree 4-5 send their
    stacked rows through the Bezoutian screen, and the default grid at 600
    draws stacks several members into each solve.
    """

    @settings(max_examples=8)
    @given(_real_pencil_pairs(), st.sampled_from([2_047, 2_049, 4_500]))
    def test_members_match_independent_falsifiers(self, pair, budget):
        self._check(*pair, budget)

    @pytest.mark.parametrize("budget", [2_047, 2_049, 4_500])
    @pytest.mark.parametrize("f,g,names,K", [
        ("z1 + z2", "z1 - z2", ("z1", "z2"), Orthant(2)),
        ("z1^2 - 3*z1*z2 + 1", "z1 + 2*z2 - 1", ("z1", "z2"), Orthant(2)),
        ("z11*z22 - z12^2", "-0.0007*z12^2", ("z11", "z12", "z22"), PSD(2)),
    ])
    def test_explicit_pairs(self, f, g, names, K, budget):
        self._check(parse(f, var_names=names), parse(g, var_names=names), K, budget)

    # A member's witness moves with the rounding of its rows, far more at a
    # multiple root (3e-9 relative for z1^4 - z1^2*z2^3 before rows were
    # stacked), so these compare (status, samples, certificate).
    @settings(max_examples=4)
    @given(_real_pencil_pairs(top=5, low=4), st.sampled_from([600, 2_049]))
    def test_degree_four_and_five_members_match(self, pair, budget):
        assume(not _monomial_quartic_member(*pair[:2], _GRID8))
        self._check(*pair, budget, witness=False)

    @settings(max_examples=4)
    @given(_real_pencil_pairs())
    def test_default_grid_members_match(self, pair):
        self._check(*pair, 600, grid=None, witness=False)

    @pytest.mark.parametrize("budget", [600, 4_500])
    def test_stacked_solves_stay_block_sized(self, budget, monkeypatch):
        # Every root solve, stacked or not, is at most one block of rows;
        # at 600 draws three line or six fiber blocks fit in one, so the
        # pencil makes fewer solves than one per member and probe.
        sizes, inside = [], []
        solve, falsify = constab._roots_batch, constab.falsify_k_stability

        def lone(*a, **k):
            inside.append(1)
            try:
                return falsify(*a, **k)
            finally:
                inside.pop()

        monkeypatch.setattr(constab, "_roots_batch",
                            lambda c: sizes.append((len(c), bool(inside))) or solve(c))
        monkeypatch.setattr(constab, "falsify_k_stability", lone)
        f, g = parse("z1^2 + z2"), parse("z1*z2 - 1")
        rep = pencil_hko_check(f, g, Orthant(2), n_samples=budget)
        assert max(n for n, _ in sizes) <= constab._BLOCK
        if budget == 600:
            members = sum(e.verdict is not None for e in rep.entries)
            assert sum(not lone_call for _, lone_call in sizes) < members * 3

    def test_explicit_members_lose_a_variable_and_a_degree(self):
        (lam, mu), (lam2, mu2) = _GRID8[2], _GRID8[4]
        assert (parse("z1 + z2").scale(lam) + parse("z1 - z2").scale(mu)).degree_in(1) == 0
        f, g = parse("z1^2 - 3*z1*z2 + 1"), parse("z1 + 2*z2 - 1")
        assert (f.scale(lam2) + g.scale(mu2)).degree == 1

    @staticmethod
    def _check(f, g, K, budget, grid=_GRID8, witness=True):
        if not f and not g:
            return
        rep = pencil_hko_check(f, g, K, grid=grid, n_samples=budget, rng=budget)
        for e in rep.entries:
            member = f.scale(e.lam) + g.scale(e.mu)
            if e.zero:
                assert not member
                continue
            v = falsify_k_stability(member, K, n_samples=budget, rng=budget)
            got = e.verdict
            assert (got.status, got.samples, got.certificate) == (v.status, v.samples, v.certificate)
            if witness and v.witness is not None:
                np.testing.assert_allclose(got.witness, v.witness, rtol=1e-9,
                                           atol=1e-9 * np.max(np.abs(v.witness)))


class TestPencilWeightRows:
    """The members are weight rows on the monomials of supp f ∪ supp g.

    Each row is exactly the coefficients of f.scale(lam) + g.scale(mu) on
    that support, trimmed in the same order, so the 45-degree cancellation
    (lam - mu = 1.1e-16) and the 90-degree member (lam = 6e-17) keep the
    same exact zeros, and a zero row is a zero entry.  ``_search`` is
    replaced by a recorder, so no draw is made.
    """

    @settings(max_examples=30)
    @given(_real_pencil_pairs(), st.sampled_from([None, _GRID8]))
    def test_rows_are_the_trimmed_member_coefficients(self, pair, grid):
        self._check(*pair, grid)

    @pytest.mark.parametrize("f,g,names,K", [
        ("z1 + z2", "z1 - z2", ("z1", "z2"), Orthant(2)),
        ("z1^2 - 3*z1*z2 + 1", "z1 + 2*z2 - 1", ("z1", "z2"), Orthant(2)),
        ("z1 + z2", "-z1 - z2", ("z1", "z2"), Orthant(2)),
    ])
    def test_explicit_pairs(self, f, g, names, K):
        self._check(parse(f, var_names=names), parse(g, var_names=names), K, _GRID8)

    def test_members_are_never_built(self, monkeypatch):
        # Only f + ig and g + if scale a polynomial, not the 32 members.
        f, g = parse("z1^2 + z2"), parse("z1*z2 - 1")
        factors, scale = [], MultiPoly.scale
        monkeypatch.setattr(MultiPoly, "scale", lambda p, c: factors.append(c) or scale(p, c))
        pencil_hko_check(f, g, Orthant(2), n_samples=600)
        assert factors == [1j, 1j]

    @staticmethod
    def _check(f, g, K, grid):
        if not f and not g:
            return
        seen = []

        def record(basis, W, *rest):
            seen.append((basis, W))
            return [constab.Verdict(NOT_FALSIFIED)] * len(W)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(constab, "_search", record)
            rep = pencil_hko_check(f, g, K, grid=grid, n_samples=1)
        basis, W = seen[0]
        support = sorted(set(f.terms) | set(g.terms))
        assert [b.terms for b in basis] == [{e: 1.0} for e in support]
        rows = iter(W)
        for e in rep.entries:
            member = f.scale(e.lam) + g.scale(e.mu)
            assert e.zero == (not member)
            if not e.zero:
                assert np.array_equal(next(rows), [member.coefficient(t) for t in support])
        assert next(rows, None) is None


# ---------------------------------------------------------------------------
# wronskian_certificate
# ---------------------------------------------------------------------------


class TestWronskian:
    def test_coordinate_pair_fails_with_disproof_points(self):
        # W_{e1}(z2, z1) = 0*z1 - z2*1 = -z2: positive whenever z2 < 0.
        rep = wronskian_certificate(
            parse("z2", var_names=("z1", "z2")), parse("z1", var_names=("z1", "z2")),
            Orthant(2), n_points=800, rng=0,
        )
        assert not rep.holds_all
        failing = [d for d in rep.directions if not d.holds]
        assert failing
        for d in failing:
            assert d.max_violation > 0.0
            assert len(d.disproof_points) >= 1

    def test_constant_numerator_passes(self):
        # W(1, z1) = 0*z1 - 1*1 = -1 everywhere.
        rep = wronskian_certificate(
            parse("1", var_names=("z1",)), parse("z1"), Orthant(1), n_points=500, rng=0
        )
        assert rep.holds_all

    def test_equal_pair_passes(self):
        f = parse("z1*z2 + z1")
        rep = wronskian_certificate(f, f, Orthant(2), n_points=500, rng=0)
        assert rep.holds_all

    def test_interlacing_style_pair_passes(self):
        # W_v(1, z1+z2) = -(v1 + v2) < 0 for interior v.
        rep = wronskian_certificate(
            parse("1", var_names=("z1", "z2")), parse("z1 + z2"),
            Orthant(2), n_points=500, rng=0,
        )
        assert rep.holds_all

    def test_polyhedral_cone_uses_generators(self):
        K = Polyhedral([[1.0, 0.0], [1.0, 1.0]])
        rep = wronskian_certificate(
            parse("1", var_names=("z1", "z2")), parse("z1 + z2"), K, n_points=400, rng=0
        )
        assert rep.holds_all
        dirs = np.array([d.direction for d in rep.directions])
        assert dirs.shape == (2, 2)

    def test_psd_cone_samples_interior_directions(self):
        f = parse("1", var_names=("z11", "z12", "z22"))
        g = parse("z11 + z22", var_names=("z11", "z12", "z22"))
        rep = wronskian_certificate(f, g, PSD(2), n_points=400, rng=0, n_directions=4)
        assert len(rep.directions) == 4
        assert rep.holds_all


# ---------------------------------------------------------------------------
# decompose_check
# ---------------------------------------------------------------------------


class TestDecompose:
    def test_falsified_whole_skips_parts(self):
        h = parse("(z1 + i*z2)^2")
        rep = decompose_check(h, Orthant(2), n_samples=1_500, rng=0)
        assert rep.whole.status == FALSIFIED
        assert rep.real_part is None and rep.imag_part is None
        assert rep.consistent

    def test_real_input_checks_only_real_part(self):
        h = parse("z11*z22 - z12^2", var_names=("z11", "z12", "z22"))
        rep = decompose_check(h, PSD(2), n_samples=1_000, rng=0)
        assert rep.whole.status == NOT_FALSIFIED
        assert rep.real_part is not None and rep.real_part.status == NOT_FALSIFIED
        assert rep.imag_part is None
        assert rep.consistent

    def test_stable_complex_multiple_has_clean_parts(self):
        h = parse("(1 + i)*(z1 + z2 + 1)")
        rep = decompose_check(h, Orthant(2), n_samples=1_000, rng=0)
        assert rep.whole.status == NOT_FALSIFIED
        assert rep.real_part.status == NOT_FALSIFIED
        assert rep.imag_part.status == NOT_FALSIFIED
        assert rep.consistent


# ---------------------------------------------------------------------------
# imaginary_projection_sample
# ---------------------------------------------------------------------------


class TestImaginaryProjection:
    def test_linear_cloud_lies_on_hyperplane(self):
        cloud = imaginary_projection_sample(parse("z1 + z2 + 1"), n_points=400, rng=0)
        assert cloud.shape[0] >= 200
        assert cloud.shape[1] == 2
        assert np.max(np.abs(cloud[:, 0] + cloud[:, 1])) <= 1e-8

    def test_univariate_two_point_projection(self):
        cloud = imaginary_projection_sample(parse("z1^2 + 1"), n_points=200, rng=0)
        assert cloud.shape[0] >= 100
        assert np.max(np.abs(np.abs(cloud[:, 0]) - 1.0)) <= 1e-8

    def test_quadric_cloud_on_plane_union(self):
        cloud = imaginary_projection_sample(parse("(z1 + z3)^2 - z2^2"), n_points=400, rng=0)
        assert cloud.shape[0] >= 200
        d1 = np.abs(cloud[:, 0] - cloud[:, 1] + cloud[:, 2])
        d2 = np.abs(cloud[:, 0] + cloud[:, 1] + cloud[:, 2])
        assert np.max(np.minimum(d1, d2)) <= 1e-8

    def test_requested_count_is_honored_when_available(self):
        cloud = imaginary_projection_sample(parse("z1 + z2 + 1"), n_points=150, rng=0)
        assert cloud.shape[0] == 150

    def test_stops_once_the_cloud_is_full(self, monkeypatch):
        # A 2,048-draw block solves its fibers of one degree, here both
        # coordinates', in one batch; that block already holds 10 points,
        # so no second block is drawn.
        rows = []
        solve = constab._roots_batch
        monkeypatch.setattr(constab, "_roots_batch", lambda c: rows.append(c.shape[0]) or solve(c))
        cloud = imaginary_projection_sample(parse("z1 + z2 + 1"), n_points=10, rng=0)
        assert cloud.shape == (10, 2)
        assert rows == [constab._BLOCK]

    def test_small_cloud_is_a_prefix_of_a_large_one(self):
        f = parse("z1 + z2 + 1")
        small = imaginary_projection_sample(f, n_points=150, rng=3)
        large = imaginary_projection_sample(f, n_points=2_000, rng=3)
        assert np.array_equal(small, large[:150])

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            imaginary_projection_sample(parse("4", var_names=("z1",)))

    def test_deterministic(self):
        a = imaginary_projection_sample(parse("z1^2 + 1"), n_points=100, rng=5)
        b = imaginary_projection_sample(parse("z1^2 + 1"), n_points=100, rng=5)
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# specialize_stability_check
# ---------------------------------------------------------------------------


class TestSpecialization:
    def test_monomial_specialization_survives(self):
        v = specialize_stability_check(
            parse("z1*z2"), [0], [0.0], [1.0], Orthant(1), Orthant(1),
            n_samples=500, rng=0,
        )
        assert v.status == NOT_FALSIFIED

    def test_linear_specialization_survives(self):
        v = specialize_stability_check(
            parse("z1 + z2"), [0], [1.0], [1.0], Orthant(1), Orthant(1),
            n_samples=500, rng=0,
        )
        assert v.status == NOT_FALSIFIED

    def test_lifted_pair_specializes_cleanly(self):
        # h = g + w f over K x R>=0 with a stable construction; pinning
        # w to 0.7 + i must stay clean over the base cone.
        base = parse("z1 + z2 + 1", var_names=("z1", "z2", "w"))
        g = base * parse("z1 + z2 + 2", var_names=("z1", "z2", "w"))
        w = parse("w", var_names=("z1", "z2", "w"))
        h = g + w * base
        v = specialize_stability_check(
            h, [2], [0.7], [1.0], Orthant(1), Orthant(2), n_samples=800, rng=0
        )
        assert v.status == NOT_FALSIFIED

    def test_unstable_specialization_is_caught(self):
        # f = z2*(z1 - z3): pin z2 to 1 + i; the remaining factor is the
        # sign-split linear form z1 - z3.
        f = parse("z2*(z1 - z3)")
        v = specialize_stability_check(
            f, [1], [1.0], [1.0], Orthant(1), Orthant(2), n_samples=2_000, rng=0
        )
        assert v.status == FALSIFIED

    def test_rejects_non_interior_shift(self):
        with pytest.raises(ValueError):
            specialize_stability_check(
                parse("z1*z2"), [0], [0.0], [0.0], Orthant(1), Orthant(1)
            )

    @pytest.mark.parametrize("b", [0.0, -1e-10])
    def test_zero_or_negative_shift_is_rejected_at_any_scale(self, b):
        with pytest.raises(ValueError, match="interior"):
            specialize_stability_check(
                parse("z1 + z2 + z3"), [0], [0.0], [b], Orthant(1), Orthant(2)
            )

    @pytest.mark.parametrize("b", [1e-10, 1e-13])
    def test_small_interior_shift_is_accepted(self, b):
        # Every b > 0 is interior to the orthant: the test is relative to ||b||.
        v = specialize_stability_check(
            parse("z1 + z2 + z3"), [0], [0.0], [b], Orthant(1), Orthant(2), n_samples=500, rng=0
        )
        assert v.status == NOT_FALSIFIED

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError):
            specialize_stability_check(
                parse("z1*z2"), [0, 0], [0.0, 0.0], [1.0, 1.0],
                Orthant(2), Orthant(1),
            )

    def test_rejects_cone_size_mismatch(self):
        with pytest.raises(ValueError):
            specialize_stability_check(
                parse("z1*z2"), [0], [0.0], [1.0], Orthant(2), Orthant(1)
            )


# ---------------------------------------------------------------------------
# Cross-procedure properties
# ---------------------------------------------------------------------------


class TestCrossChecks:
    def test_linear_oracle_sample(self):
        # A small in-line version of the exact-vs-sampling agreement sweep.
        rng = np.random.default_rng(2024)
        K = Orthant(3)
        for trial in range(20):
            a = np.round(rng.normal(0.0, 1.0, 3), 3)
            if np.min(np.abs(a)) < 0.1:
                continue
            b = float(np.round(rng.normal(), 3))
            text_terms = [f"({a[j]})*z{j + 1}" for j in range(3)]
            f = parse(" + ".join(text_terms) + f" + ({b})")
            exact = linear_k_stability(f, K)
            sampled = falsify_k_stability(f, K, n_samples=4_000, rng=trial)
            if exact.status == CERTIFIED_STABLE:
                assert sampled.status == NOT_FALSIFIED
            else:
                assert sampled.status == FALSIFIED
                _assert_valid_witness(sampled, f, K)

    def test_product_cone_falsification(self):
        # Mixed cone: orthant x PSD(2). z1 - z11 splits signs across the
        # blocks (positive on the first, negative on the diagonal entry).
        K = product(Orthant(1), PSD(2))
        names = ("z1", "z11", "z12", "z22")
        f = parse("z1 - z11", var_names=names)
        v = falsify_k_stability(f, K, n_samples=2_000, rng=0)
        assert v.status == FALSIFIED
        _assert_valid_witness(v, f, K)

    def test_verdict_residual_matches_reevaluation(self):
        f = parse("z1^2 - z2^2")
        v = falsify_k_stability(f, Orthant(2), n_samples=1_000, rng=0)
        assert v.status == FALSIFIED
        assert abs(v.residual - abs(complex(f(np.asarray(v.witness))))) <= 1e-12


# ---------------------------------------------------------------------------
# Golden values of the sampling engine
# ---------------------------------------------------------------------------

LINE_CERT = "zero on a sampled line with interior imaginary direction"
NON_REAL_CERT = "restriction along an interior direction has a non-real root"
REAL_ZERO_CERT = "vanishes at a real interior point (not hyperbolic there)"
MATRIX_VARS = ("z11", "z12", "z22")


class TestEngineGolden:
    """(status, samples, certificate) pinned for each probe of both modes.

    A refactor of the engine must reproduce the same first witness (draw
    index and probe) and the same clean budgets.
    """

    @pytest.mark.parametrize(
        "search,text,names,K,rng,expect",
        [
            (falsify_k_stability, "z1^2 + z2^2", None, Orthant(2), 0,
             (FALSIFIED, 1, LINE_CERT)),
            (falsify_k_stability, "(z1 + z3)^2 - z2^2", None, Orthant(3), 0,
             (FALSIFIED, 2, "zero on the z2 coordinate fiber with interior imaginary part")),
            (falsify_k_stability, "(z11 + z22)^2 - z12^2", MATRIX_VARS, PSD(2), 0,
             (NOT_FALSIFIED, 2_000, None)),
            (hyperbolicity_check, "z1^2 + z2^2", None, Orthant(2), 0,
             (FALSIFIED, 1, NON_REAL_CERT)),
            (hyperbolicity_check, "z1 - z2", None, Orthant(2), 9,
             (FALSIFIED, 1, REAL_ZERO_CERT)),
            (hyperbolicity_check, "z11*z22 - z12^2", MATRIX_VARS, PSD(2), 0,
             (NOT_FALSIFIED, 2_000, None)),
        ],
    )
    def test_first_witness(self, search, text, names, K, rng, expect):
        f = parse(text, var_names=names) if names else parse(text)
        v = search(f, K, n_samples=2_000, rng=rng)
        assert (v.status, v.samples, v.certificate) == expect
        if v.status == FALSIFIED:
            _assert_valid_witness(v, f, K)

    def test_imaginary_projection_cloud(self):
        cloud = imaginary_projection_sample(parse("z1*z2 + z3 + 1"), n_points=500, rng=4)
        assert cloud.shape == (500, 3)
        np.testing.assert_allclose(
            cloud[:3],
            [
                [-10.437781995894898, -0.28126262128113266, 0.6640238611174549],
                [0.26650097807032613, -0.9605972343341973, -1.1241154309974886],
                [-1.6649911959925014, -1.1536781859518648, 0.9936366011400666],
            ],
            rtol=1e-12,
        )


# ---------------------------------------------------------------------------
# Draw blocks and the Bezoutian screen
# ---------------------------------------------------------------------------


class TestDrawBlocks:
    @pytest.mark.parametrize("K", [Orthant(3), PSD(2), product(Orthant(1), PSD(2)), _WEDGE])
    @pytest.mark.parametrize("budget", [600, 2_048, 2_500])
    def test_blocks_are_prefixes_of_full_blocks(self, K, budget):
        sigma, margin, size = 2.0, 1e-3, constab._BLOCK
        got = list(constab._blocks(7, K.dim, K, sigma, budget, margin))
        assert [lo for lo, _, _ in got] == list(range(0, budget, size))
        for bi, (lo, x, y) in enumerate(got):
            gen = np.random.default_rng((7, bi))
            full_x = gen.normal(0.0, sigma, (size, K.dim))
            full_y = K.interior_from_normals(gen.standard_normal((size, K.draw_dim)), margin)
            take = min(budget - lo, size)
            assert np.array_equal(x, full_x[:take])
            assert np.array_equal(y, full_y[:take])


@st.composite
def _planted_roots(draw, real):
    """Degree 3-6 roots around a centre, scaled by 10^[-6, 6].

    Complex: |Im| = 10^[-13, 1], with none, one or all of the roots above
    the axis.  Real: real roots, with none, one or d // 2 conjugate pairs
    of |Im| = 10^[-13, 1] in front.  Either way root 1 may sit within
    10^[-13, -2] of root 0 in real part (a clustered pair, which may
    straddle the axis).  Returns (roots, number of off-axis roots), the
    latter counting upper roots (complex) or roots in pairs (real).
    """
    d = draw(st.integers(3, 6))
    re = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    im = 10.0 ** np.array(draw(st.lists(st.floats(-13.0, 1.0), min_size=d, max_size=d)))
    if draw(st.booleans()):
        re[1] = re[0] + 10.0 ** draw(st.floats(-13.0, -2.0))
    if real:
        n_off = 2 * draw(st.sampled_from([0, 1, d // 2]))
        im[:n_off:2] *= -1.0
        im[1:n_off:2] = -im[:n_off:2]
        re[1:n_off:2] = re[:n_off:2]
        im[n_off:] = 0.0
    else:
        n_off = draw(st.sampled_from([0, 1, d]))
        im[n_off:] *= -1.0
    centre = draw(st.one_of(st.just(0.0), st.floats(-300.0, 300.0)))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    return scale * (centre + re + 1j * im), n_off


def _scalar_roots(row):
    try:
        return roots(UniPoly(row))
    except ArithmeticError:
        return np.zeros(0, dtype=complex)


class TestBezoutScreen:
    """A row the screen clears has no root its probe predicate would keep.

    Gated on the planted roots and on the scalar ``roots`` that confirms
    candidates, not on ``_roots_batch``, whose Aberth iterates carry their
    own forward error near the axis.
    """

    @settings(max_examples=400)
    @given(_planted_roots(real=False), st.floats(0.0, 2.0 * np.pi))
    def test_cleared_complex_row_has_no_upper_root(self, planted, phase):
        r, n_upper = planted
        row = np.exp(1j * phase) * np.poly(r)[::-1]
        if _clears_lower(_STABILITY.line.pairs(row[np.newaxis, :]))[0]:
            assert n_upper == 0
            assert not np.any(_upper(_scalar_roots(row), DEFAULT_TOL))

    @settings(max_examples=400)
    @given(_planted_roots(real=True), st.sampled_from([-1.0, 1.0]))
    def test_cleared_real_row_is_real_rooted(self, planted, sign):
        r, n_pairs = planted
        row = sign * np.poly(r).real[::-1].astype(complex)
        if _clears_lower(_HYPERBOLICITY.line.pairs(row[np.newaxis, :]))[0]:
            assert n_pairs == 0
            assert not np.any(_HYPERBOLICITY.line.ok(_scalar_roots(row), DEFAULT_TOL))

    def test_cleared_rows_hold_nan_and_the_rest_are_solved(self):
        planted = ([-1j, 2 - 1j, -3 - 2j, 1 - 0.5j], [1j, 2 - 1j, -3 - 2j, 1 - 0.5j])
        rows = np.array([np.poly(r)[::-1] for r in planted])
        z = constab._screened_roots(rows, np.asarray)
        assert np.all(np.isnan(z[0]))
        assert np.array_equal(z[1], _roots_batch(rows[1:])[0])
        # From degree 3 rows are screened: the cubic below has every root
        # under the axis, as row 0 does, and is cleared.  Degree <= 2 rows,
        # and probes without a screen, are always solved.
        cubic = np.poly(planted[0][:3])[::-1][np.newaxis, :]
        assert np.all(np.isnan(constab._screened_roots(cubic, np.asarray)))
        quadratic = np.poly(planted[0][:2])[::-1][np.newaxis, :]
        assert _clears_lower(quadratic)[0]
        assert np.array_equal(constab._screened_roots(quadratic, np.asarray), _roots_batch(quadratic))
        assert not np.any(np.isnan(constab._screened_roots(rows[:, 2:], np.asarray)))
        assert np.array_equal(constab._screened_roots(rows, None), _roots_batch(rows))

    def test_non_finite_row_is_kept_and_gets_nan_roots(self):
        row = np.array([[np.inf, 3.0, 1j, 1.0]])
        with np.errstate(invalid="ignore", over="ignore"):
            z = constab._screened_roots(row, constab._below_pairs)
        assert np.array_equal(row, [[np.inf, 3.0, 1j, 1.0]])
        assert np.all(np.isnan(z))

    def test_complex_rows_skip_the_real_rooted_screen(self):
        row = np.poly([1.0, 2.0, 3.0])[::-1].astype(complex)
        assert _HYPERBOLICITY.line.pairs(row[np.newaxis, :]) is not None
        assert _HYPERBOLICITY.line.pairs((1j * row)[np.newaxis, :]) is None

    def test_screen_spares_batched_roots_on_a_stable_product(self, monkeypatch):
        # Unscreened, each draw solves one line row and one fiber row of
        # degree 4: 8,192 rows for 4,096 draws.
        rows = []
        solve = constab._roots_batch
        monkeypatch.setattr(constab, "_roots_batch", lambda c: rows.append(c.shape[0]) or solve(c))
        f = parse(
            "(z1 + 2*z2 + i)*(3*z1 + z2 + 0.5 + 2*i)*(z1 + z2 - 1 + 0.5*i)*(2*z1 + z2 + 1 + i)"
        )
        v = falsify_k_stability(f, Orthant(2), n_samples=4_096, rng=3)
        assert (v.status, v.samples) == (NOT_FALSIFIED, 4_096)
        assert sum(rows) < 8_192 // 2

    def test_screen_spares_batched_roots_on_a_stable_cubic_product(self, monkeypatch):
        # The cubic twin: each draw's line and fiber rows have degree 3,
        # 8,192 rows for 4,096 draws unscreened, and every root below the axis.
        rows = []
        solve = constab._roots_batch
        monkeypatch.setattr(constab, "_roots_batch", lambda c: rows.append(c.shape[0]) or solve(c))
        f = parse("(z1 + 2*z2 + i)*(3*z1 + z2 + 0.5 + 2*i)*(z1 + z2 - 1 + 0.5*i)")
        v = falsify_k_stability(f, Orthant(2), n_samples=4_096, rng=3)
        assert (v.status, v.samples) == (NOT_FALSIFIED, 4_096)
        assert sum(rows) < 8_192 // 2


# ---------------------------------------------------------------------------
# The expansion layer: restriction rows, batch values and fiber rows
# ---------------------------------------------------------------------------


def _bits(a):
    """The IEEE bits of a complex array: equal bits, not merely equal values."""
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


class TestExpansionRowIndependence:
    """A draw's expansion does not depend on the other draws of its block.

    The expansion kernels run draws-last, one operation per Horner step
    over the whole block, so a draw's restriction row, batch value and
    fiber coefficient rows must be the bits it gets alone, in any chunk
    and in the full block (as ``TestBatchRowIndependence`` asks of the
    batched roots).
    """

    @staticmethod
    def _case(deg):
        """Two polynomials of degree ``deg`` in 4 variables and 60 draws.

        One has real coefficients, the other complex ones; both hold a
        constant and a top-degree term.  Some draws have exact-zero
        coordinates, one a zero direction, so signed zeros and vanishing
        top coefficients occur.
        """
        gen = np.random.default_rng(70 + deg)
        names = ("z1", "z2", "z3", "z4")
        polys = []
        for complex_coeffs in (False, True):
            terms = {(0, 0, 0, 0): 1.5, (deg, 0, 0, 0): -0.5}
            for _ in range(8):
                e = np.bincount(gen.integers(0, 4, gen.integers(1, deg + 1)), minlength=4)
                terms[tuple(e)] = complex(gen.normal(), gen.normal() if complex_coeffs else 0.0)
            polys.append(MultiPoly(names, terms))
        X, Y = gen.normal(size=(60, 4)), gen.normal(size=(60, 4))
        X[::5, 0] = 0.0
        Y[::3, 2] = 0.0
        Y[7] = 0.0
        return polys, X, Y

    @staticmethod
    def _chunked(fn, n, chunk):
        return [fn(slice(i, i + chunk)) for i in range(0, n, chunk)]

    @pytest.mark.parametrize("deg", range(1, 7))
    def test_restriction_rows(self, deg):
        polys, X, Y = self._case(deg)
        for p in polys:
            full = p.restrict_line(X, Y)
            assert full.shape == (60, deg + 1) and full.flags.writeable
            for chunk in (1, 7, 25):
                parts = self._chunked(lambda s: p.restrict_line(X[s], Y[s]), 60, chunk)
                assert np.array_equal(_bits(np.concatenate(parts)), _bits(full))

    @pytest.mark.parametrize("deg", range(1, 7))
    def test_batch_values(self, deg):
        polys, X, Y = self._case(deg)
        Z = X + 1j * Y
        for p in polys:
            full = p(Z)
            for chunk in (1, 7, 25):
                parts = self._chunked(lambda s: p(Z[s]), 60, chunk)
                assert np.array_equal(_bits(np.concatenate(parts)), _bits(full))

    @pytest.mark.parametrize("deg", range(1, 7))
    def test_fiber_rows(self, deg):
        polys, X, Y = self._case(deg)
        V = X + 1j * Y
        active = (0, 1, 2, 3)
        keys = [tuple(p.degree_in(k) for p in polys) for k in active]

        def per_draw(s):
            lo = s.start or 0
            return {lo + int(r): (int(k), F[:, i]) for ks, rows, F in
                    constab._fiber_rows(polys, active, keys, lo, V[s])
                    for i, (k, r) in enumerate(zip(ks, rows))}

        full = per_draw(slice(0, 60))
        assert sorted(full) == list(range(60))
        for chunk in (1, 7, 25):
            parts = {}
            for part in self._chunked(per_draw, 60, chunk):
                parts.update(part)
            assert sorted(parts) == sorted(full)
            for row, (k, F) in full.items():
                assert parts[row][0] == k
                assert np.array_equal(_bits(parts[row][1]), _bits(F))


class TestHornerPlanPerSearch:
    def test_each_polynomial_compiles_its_plan_once_per_search(self, monkeypatch):
        # The searched polynomial's one program is compiled on the first
        # block and runs its line and fiber expansions on every block.
        builds = []
        compile_plan = poly._horner_plan
        monkeypatch.setattr(poly, "_horner_plan",
                            lambda items, n: builds.append(n) or compile_plan(items, n))

        def search(n_samples):
            builds.clear()
            # A fresh polynomial each time, with no zero in the orthant's tube.
            f = parse("(z1 + 2*z2 + i)*(z2 + z3 + 1 + 2*i)*(z1 + z3 + 3*i)")
            v = falsify_k_stability(f, Orthant(3), n_samples=n_samples, rng=5)
            assert (v.status, v.samples) == (NOT_FALSIFIED, n_samples)
            return len(builds)

        one_block, three_blocks = search(constab._BLOCK), search(3 * constab._BLOCK)
        assert one_block == three_blocks == 1


class TestBasisLayout:
    """Both probes lay out their basis rows by one helper, ``_laid_out``."""

    def test_rows_are_zero_padded_to_the_widest(self):
        gen = np.random.default_rng(5)
        rows = [gen.normal(size=(7, w)) + 1j * gen.normal(size=(7, w)) for w in (3, 1, 4, 2)]
        out = constab._laid_out([[r] for r in rows])
        assert out.shape == (4, 7, 4) and out.dtype == complex
        for o, r in zip(out, rows):
            assert np.array_equal(_bits(o[:, : r.shape[1]]), _bits(r))
            assert not _bits(o[:, r.shape[1] :]).any()  # +0.0, bit for bit

    def test_blocks_are_written_down_the_draw_axis(self):
        gen = np.random.default_rng(6)
        parts = [[gen.normal(size=(n, w)) + 0j for n, w in zip((3, 5), ws)] for ws in ((2, 4), (1, 3))]
        out = constab._laid_out(parts)
        assert out.shape == (2, 8, 4)
        for o, (a, b) in zip(out, parts):
            assert np.array_equal(_bits(o[:3, : a.shape[1]]), _bits(a))
            assert np.array_equal(_bits(o[3:, : b.shape[1]]), _bits(b))
            assert not _bits(o[:3, a.shape[1] :]).any() and not _bits(o[3:, b.shape[1] :]).any()

    def test_line_and_fiber_rows_are_laid_out_alike(self, monkeypatch):
        # Member z1*z2 (stable on the orthant) on the basis [z1*z2, z2^3]:
        # line rows of widths 3 and 4; the member has degree 1 in z1 and in
        # z2, so both fibers are one group: z1-fiber rows of widths 2 and 1,
        # then z2-fiber rows of widths 2 and 4, 32 draws each.
        shapes, orig = [], constab._laid_out
        monkeypatch.setattr(constab, "_laid_out",
                            lambda parts: shapes.append([[p.shape for p in ps] for ps in parts]) or orig(parts))
        basis = [parse("z1*z2"), parse("z2^3", var_names=("z1", "z2"))]
        v, = constab._search(basis, np.array([[1.0, 0.0]]), Orthant(2), 64, 0, DEFAULT_TOL, _STABILITY)
        assert (v.status, v.samples) == (NOT_FALSIFIED, 64)
        assert shapes == [[[(64, 3)], [(64, 4)]], [[(32, 2), (32, 2)], [(32, 1), (32, 4)]]]


class TestFiberGroups:
    """A batch's fibers are laid out per degree group, not per coordinate.

    ``_fiber_rows`` yields one ``(ks, rows, F)`` per group of active
    coordinates with equal keys (the live members' degrees in them).  Every
    draw appears once, on the coordinate its index picks, in
    coordinate-major order, and its rows are the bits ``as_univariate_in``
    gives it alone, zero-padded to the group's width.
    """

    @staticmethod
    def _check(basis, active, keys, lo, V, got):
        seen = np.concatenate([rows for _, rows, _ in got])
        assert sorted(seen.tolist()) == list(range(V.shape[0]))
        assert len({keys[active.index(ks[0])] for ks, _, _ in got}) == len(got)
        for ks, rows, F in got:
            pos = [active.index(k) for k in ks.tolist()]
            assert len({keys[p] for p in pos}) == 1
            assert [active[(lo + r) % len(active)] for r in rows.tolist()] == ks.tolist()
            assert sorted(zip(pos, rows.tolist())) == list(zip(pos, rows.tolist()))
            assert F.shape[:2] == (len(basis), rows.size)
            for i, (k, r) in enumerate(zip(ks.tolist(), rows.tolist())):
                for j, b in enumerate(basis):
                    want = b.as_univariate_in(k, V[[r]])[0]
                    assert np.array_equal(_bits(F[j, i, : want.size]), _bits(want))
                    assert not _bits(F[j, i, want.size :]).any()

    @pytest.mark.parametrize("lo,n", [(0, 64), (64, 1_984), (7, 5), (2, 1)])
    def test_mixed_degrees_make_one_group_each(self, lo, n):
        f = parse("z1^3*z2 + z2^2 + z3")
        active = (0, 1, 2)
        keys = [f.degree_in(k) for k in active]
        V = np.random.default_rng(lo + n).normal(size=(n, 3)) + 1j
        got = list(constab._fiber_rows([f], active, keys, lo, V))
        assert len(got) == min(n, 3)
        self._check([f], active, keys, lo, V, got)

    def test_search_groups_a_pencil_by_its_members_degrees(self, monkeypatch):
        # Members f: degrees (2, 2, 1), g: (1, 1, 2), the others (2, 2, 2):
        # z1 and z2 share a group, z3 is one alone.
        calls, orig = [], constab._fiber_rows
        monkeypatch.setattr(constab, "_fiber_rows", lambda basis, active, keys, lo, V: calls.append(
            (basis, active, keys, lo, V, list(orig(basis, active, keys, lo, V)))) or iter(calls[-1][-1]))
        f, g = parse("z1^2 + z2^2 + z3 + 3"), parse("z1 + z2 + z3^2 + 1")
        pencil_hko_check(f, g, Orthant(3), grid=[(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)], n_samples=100, rng=1)
        pencil = [c for c in calls if len(c[0]) > 1]
        basis, active, keys, lo, V, got = pencil[0]  # all three members live
        assert (active, keys, lo) == ((0, 1, 2), [(2, 1, 2), (2, 1, 2), (1, 2, 2)], 0)
        assert [sorted(set(ks.tolist())) for ks, _, _ in got] == [[0, 1], [2]]
        for basis, active, keys, lo, V, got in pencil:
            self._check(basis, active, keys, lo, V, got)


class TestBudgets:
    """A draw or point budget is an integer of at least 1 at every sampling entry point."""

    BAD = [-5, -1, 0, True, 2.0]

    @pytest.mark.parametrize("n", BAD)
    def test_falsifier_rejects_budget_below_one(self, n):
        with pytest.raises(ValueError, match="n_samples"):
            falsify_k_stability(parse("z1 - z2"), Orthant(2), n_samples=n, rng=0)

    @pytest.mark.parametrize("n", BAD)
    def test_hyperbolicity_rejects_budget_below_one(self, n):
        with pytest.raises(ValueError, match="n_samples"):
            hyperbolicity_check(parse("z1^2 + z2^2"), Orthant(2), n_samples=n, rng=0)

    @pytest.mark.parametrize("n", BAD)
    def test_pencil_rejects_budget_below_one(self, n):
        f, g = parse("z1 - z2"), parse("z1 + 3*z2")
        with pytest.raises(ValueError, match="n_samples"):
            pencil_hko_check(f, g, Orthant(2), n_samples=n, rng=0)

    @pytest.mark.parametrize("n", BAD)
    def test_wronskian_rejects_point_and_direction_counts_below_one(self, n):
        # 500 points disprove W(z1 - z2, z1 + 3 z2) <= 0; no points must not certify it
        f, g = parse("z1 - z2"), parse("z1 + 3*z2")
        assert not wronskian_certificate(f, g, Orthant(2), n_points=500, rng=0).holds_all
        with pytest.raises(ValueError, match="n_points"):
            wronskian_certificate(f, g, Orthant(2), n_points=n, rng=0)
        names = ("z11", "z12", "z22")
        f, g = parse("z11 - z22", var_names=names), parse("z11 + 3*z22", var_names=names)
        with pytest.raises(ValueError, match="n_directions"):
            wronskian_certificate(f, g, PSD(2), rng=0, n_directions=n)

    @pytest.mark.parametrize("n", BAD)
    def test_imaginary_projection_rejects_point_count_below_one(self, n):
        with pytest.raises(ValueError, match="n_points"):
            imaginary_projection_sample(parse("z1 + z2 + 1"), n_points=n, rng=0)

    def test_budget_of_one_draw_is_spent(self):
        v = falsify_k_stability(parse("z1 + z2 + i"), Orthant(2), n_samples=1, rng=0)
        assert (v.status, v.samples) == (NOT_FALSIFIED, 1)


def _with_first_coefficient(p, c):
    """p with its first term's coefficient replaced by c."""
    terms = dict(p.terms)
    terms[next(iter(terms))] = c
    return MultiPoly(p.var_names, terms)


NON_FINITE = [float("nan"), float("inf"), -float("inf")]


class TestNonFiniteInputs:
    """A non-finite coefficient, box or tolerance raises ``ValueError``.

    Unchecked, NaN and inf coefficients gave ``not_falsified`` and a clean
    Wronskian report (every comparison with NaN is false), and an infinite
    box reached the generator's ``uniform``.
    """

    @pytest.mark.parametrize("c", NON_FINITE)
    def test_single_polynomial_entry_points_reject(self, c):
        quadric = _with_first_coefficient(parse("z1^2 + z2^2"), c)
        for call in (lambda: falsify_k_stability(quadric, Orthant(2), n_samples=64),
                     lambda: hyperbolicity_check(quadric, Orthant(2), n_samples=64),
                     lambda: decompose_check(quadric, Orthant(2), n_samples=64),
                     lambda: linear_k_stability(_with_first_coefficient(parse("z1"), c), Orthant(1)),
                     lambda: imaginary_projection_sample(_with_first_coefficient(parse("z1 + z2 + 1"), c))):
            with pytest.raises(ValueError, match="finite"):
                call()

    @pytest.mark.parametrize("c", NON_FINITE)
    @pytest.mark.parametrize("side", [0, 1])
    def test_pair_entry_points_reject_either_side(self, c, side):
        pair = [parse("z1"), parse("z1")]
        pair[side] = _with_first_coefficient(pair[side], c)
        for call in (lambda: wronskian_certificate(*pair, Orthant(1)),
                     lambda: pencil_hko_check(*pair, Orthant(1), n_samples=64),
                     lambda: hb_lift_check(*pair, Orthant(1), n_samples=64)):
            with pytest.raises(ValueError, match="finite"):
                call()

    @pytest.mark.parametrize("box", [(-np.inf, 2.0), (-2.0, np.inf), (np.nan, 2.0), (-1e308, 1e308), (2.0, 2.0)])
    def test_imaginary_projection_rejects_a_box_that_is_not_finite_and_increasing(self, box):
        with pytest.raises(ValueError, match="box"):
            imaginary_projection_sample(parse("z1 + z2 + 1"), box=box)

    @pytest.mark.parametrize("override", [{"residual_tol": float("nan")}, {"sample_margin": float("nan")},
                                          {"residual_tol": -1.0}, {"real_root_im_tol": float("inf")}])
    def test_tolerances_are_finite_and_nonnegative(self, override):
        with pytest.raises(ValueError, match=next(iter(override))):
            DEFAULT_TOL.with_overrides(**override)
        with pytest.raises(ValueError, match=next(iter(override))):
            ToleranceProfile(**override)
        assert DEFAULT_TOL.with_overrides(coeff_zero_tol=0.0).coeff_zero_tol == 0.0
        assert imaginary_projection_sample(parse("z1 + z2 + 1"), n_points=1, rng=0).shape == (1, 2)
