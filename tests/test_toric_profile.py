import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starktoric import elliptic, toric_profile
from starktoric.errors import DomainError, NumericsError
from starktoric.periods import OscillatorSelector, _kernel_arg, _tau_lphi, tau1, tau2
from starktoric.quadrature import integrate
from starktoric.toric_profile import (
    CERTIFICATE_SCHEMA,
    moment_image,
    profile_sample,
    profile_second_derivative,
    verify_convexity,
)

PLUS, MINUS = OscillatorSelector.PLUS, OscillatorSelector.MINUS
FOUR_PI = 4.0 * math.pi


def action(eps, c, sel):
    """T(c) = int_0^c tau of the selected factor at one slice, as the image forms it."""
    cs = np.array([float(c)])
    return float(toric_profile._actions(eps, _kernel_arg(eps, cs, sel), cs)[0][0])


def test_action_zero_slice_is_exact_zero():
    # T1(0) at c = 2 and T2(0) at c = 0
    assert moment_image(0.05, 2.0).x == 0.0
    assert moment_image(0.05, 0.0).y == 0.0
    assert action(0.05, 0.0, PLUS) == 0.0
    assert action(0.05, 0.0, MINUS) == 0.0


def test_action_constant_period_limit():
    # vanishing field: both oscillators are harmonic, T(c) -> 2 pi c
    val = moment_image(1e-6, 1.0).x
    assert abs(val - 2.0 * math.pi) < 1e-3 * 2.0 * math.pi


def test_action_derivative_is_period():
    eps, c, h = 0.05, 1.0, 1e-4
    for sel, period in ((PLUS, tau1), (MINUS, tau2)):
        fd = (action(eps, c + h, sel) - action(eps, c - h, sel)) / (2.0 * h)
        assert fd == pytest.approx(period(eps, c), rel=1e-6, abs=0)


def test_action_is_strictly_increasing():
    vals = [moment_image(0.05, c).y for c in (0.0, 0.5, 1.0, 1.5, 2.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_action_preconditions():
    with pytest.raises(DomainError, match="not below 1/16"):
        moment_image(0.2, 1.0)
    with pytest.raises(DomainError):
        moment_image(0.05, 2.5)


def test_moment_image_endpoints_exact():
    assert moment_image(0.05, 0.0).y == 0.0
    assert moment_image(0.05, 2.0).x == 0.0


def test_moment_image_ball_limit():
    pt = moment_image(1e-6, 0.7)
    assert abs(pt.x + pt.y - FOUR_PI) < 1e-3


def test_profile_slope_values():
    # vanishing field: the image degenerates to the line of slope -1
    assert np.max(np.abs(profile_sample(1e-6, 11).slopes + 1.0)) <= 1e-4
    # samples run from c = 2 down to c = 0, and the slope is -tau2(c)/tau1(2 - c)
    slopes = profile_sample(0.05, 21).slopes
    expected = -tau2(0.05, 0.0) / tau1(0.05, 2.0)
    assert slopes[-1] == pytest.approx(expected, rel=1e-13, abs=0)
    assert np.all(slopes < 0.0)


def test_second_derivative_positive_on_grid():
    cs = np.linspace(0.0, 2.0, 21)
    vals = profile_second_derivative(0.05, cs)
    assert np.all(vals > 0.0)


def test_second_derivative_degenerate_limit():
    val = profile_second_derivative(1e-6, 1.0)
    assert 0.0 < val < 1e-4


def test_profile_sample_two_points():
    prof = profile_sample(0.05, 2)
    assert prof.xs[0] == 0.0 and prof.cs[0] == 2.0
    assert prof.ys[-1] == 0.0 and prof.cs[-1] == 0.0


def test_profile_sample_ball_limit():
    prof = profile_sample(1e-6, 64)
    assert np.max(np.abs(prof.xs + prof.ys - FOUR_PI)) < 1e-3
    assert np.all(prof.second_derivs > 0.0)
    assert np.all(prof.second_derivs <= 1e-3)


def test_profile_sample_monotone_and_convex():
    prof = profile_sample(0.05, 256)
    xs, ys = prof.xs, prof.ys
    assert np.all(np.diff(xs) > 1e-12)
    assert np.all(np.diff(ys) < 0.0)
    assert np.all(prof.second_derivs > 0.0)
    # secant test: every middle point lies strictly below its neighbours' chord
    chord = 0.5 * (ys[:-2] + ys[2:])
    assert np.all(ys[1:-1] < chord)


def test_profile_slope_matches_sampled_curve():
    prof = profile_sample(0.05, 201)
    xs, ys = prof.xs, prof.ys
    for i in range(2, len(xs) - 2):
        t = xs[i - 2 : i + 3] - xs[i]
        scale = np.max(np.abs(t))
        coef = np.polynomial.polynomial.polyfit(t / scale, ys[i - 2 : i + 3], deg=4)
        fd = coef[1] / scale
        assert abs(fd - prof.slopes[i]) <= 1e-5 * abs(prof.slopes[i])


def test_second_derivative_matches_sampled_curve():
    prof = profile_sample(0.05, 201)
    xs, ys = prof.xs, prof.ys
    for i in range(2, len(xs) - 2):
        t = xs[i - 2 : i + 3] - xs[i]
        scale = np.max(np.abs(t))
        coef = np.polynomial.polynomial.polyfit(t / scale, ys[i - 2 : i + 3], deg=4)
        fd = 2.0 * coef[2] / scale**2
        assert abs(fd - prof.second_derivs[i]) <= 1e-4 * prof.second_derivs[i]


@pytest.mark.parametrize("eps", [1e-13, 1e-3, 1.0 / 64.0, 0.05, 0.0624999])
def test_sampled_derivatives_match_the_pointwise_ones(eps):
    # the sample takes the periods at grid[i] and grid[n-1-i], the pointwise
    # values at 2 - c and c: the same bits at the ends, rounding inside
    prof = profile_sample(eps, 201)
    args = toric_profile._factor_args(eps, 2.0 - prof.cs, prof.cs)
    slope = toric_profile._derivatives(eps, *toric_profile._periods(eps, args)[:2])[0]
    for got, want in ((prof.slopes, slope),
                      (prof.second_derivs, profile_second_derivative(eps, prof.cs))):
        assert np.array_equal(got[[0, -1]], want[[0, -1]])
        np.testing.assert_allclose(got, want, rtol=1e-12)
    # f' is the negative period ratio
    np.testing.assert_allclose(prof.slopes, -tau2(eps, prof.cs) / tau1(eps, 2.0 - prof.cs),
                               rtol=1e-12)


@pytest.mark.parametrize("part, broken", [(0, "abscissae are not strictly increasing"),
                                          (1, "ordinates are not strictly decreasing")])
def test_a_profile_that_breaks_its_invariants_is_refused(monkeypatch, part, broken):
    # the sampled x (part 0) or y (part 1) made constant: no longer strictly monotone
    actions = toric_profile._actions

    def flattened(eps, x, c, periods=None):
        t, rem = actions(eps, x, c, periods)
        n = t.size // 2
        t[part * n:(part + 1) * n] = 1.0
        return t, rem

    monkeypatch.setattr(toric_profile, "_actions", flattened)
    for call in (profile_sample, verify_convexity):
        with pytest.raises(NumericsError, match=f"^profile {broken}$"):
            call(0.05, 11)


def test_profile_sample_validation():
    with pytest.raises(DomainError):
        profile_sample(0.05, 1)
    # the 2n kernel arguments would be more float64s than numpy can index
    with pytest.raises(DomainError, match="than numpy can index"):
        profile_sample(0.05, 2**59)
    with pytest.raises(DomainError, match="not below 1/16"):
        profile_sample(0.2, 16)


@pytest.mark.parametrize("eps", [0.05, 0.0624])
def test_certificate_passes(eps):
    cert = verify_convexity(eps, 201, 1e-4)
    assert cert.passed
    assert cert.min_f_second > 0.0
    assert cert.max_fd_residual <= 1e-4
    assert cert.fd_checked > 0.75 * cert.fd_total
    assert cert.schema == CERTIFICATE_SCHEMA


def test_certificate_coarse_grid_still_passes():
    # no five-point stencil fits: the cross-check is vacuous
    for n in (3, 4):
        cert = verify_convexity(0.05, n, 1e-4)
        assert cert.passed
        assert cert.fd_total == 0 and cert.fd_checked == 0
        assert math.isnan(cert.max_fd_residual)
        assert cert.to_dict()["max_fd_residual"] is None


def test_certificate_unreachable_tolerance_fails():
    cert = verify_convexity(0.05, 201, 1e-18)
    assert not cert.passed


@pytest.mark.parametrize("tol", [math.inf, 0.0, -1e-4, math.nan])
def test_certificate_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(DomainError, match="tolerance must be positive and finite"):
        verify_convexity(0.05, 51, tol)


def test_certificate_regime_error():
    with pytest.raises(DomainError, match="not below 1/16"):
        verify_convexity(0.2, 51, 1e-4)


def test_certificate_dict_roundtrip():
    cert = verify_convexity(0.04, 51, 1e-4)
    d = cert.to_dict()
    assert d["schema"] == 2
    assert sorted(d) == sorted([
        "schema", "eps", "samples", "fd_tol", "fd_checked", "fd_total",
        "min_f_second", "max_fd_residual", "verdict", "c_grid",
    ])
    assert d["verdict"] == "pass"
    assert d["samples"] == 51
    assert len(d["c_grid"]) == 51


@pytest.mark.parametrize("c", [-0.1, 2.5, math.nan])
@pytest.mark.parametrize(
    "call",
    [
        lambda c: moment_image(0.05, 2.0 - c).x,  # T1(c)
        lambda c: moment_image(0.05, c),
        lambda c: profile_second_derivative(0.05, c),
        lambda c: profile_second_derivative(0.05, np.array([1.0, c])),
    ],
    ids=["action_T", "moment_image", "second", "second_array"],
)
def test_slice_outside_the_bounded_surface_is_rejected(call, c):
    with pytest.raises(DomainError, match=r"slice energy must lie in \[0, 2\]"):
        call(c)


# --- the actions against independent oracles ---------------------------------


def _mp_actions(eps, c, stiff):
    """T = 2 pi c 2F1(1/4, 3/4; 2; x) and T - 2 pi c (1 + 3x/32) by mpmath.

    The working precision grows with the cancellation of the remainder,
    so both keep at least 60 digits.
    """
    x = (-8 if stiff else 8) * mp.mpf(eps) * mp.mpf(c)
    extra = 0 if x == 0 else max(0, -2 * int(mp.floor(mp.log10(abs(x)))))
    with mp.workdps(60 + extra):
        x = (-8 if stiff else 8) * mp.mpf(eps) * mp.mpf(c)
        t = 2 * mp.pi * mp.mpf(c) * mp.hyp2f1(mp.mpf(1) / 4, mp.mpf(3) / 4, 2, x)
        return t, t - 2 * mp.pi * mp.mpf(c) * (1 + 3 * x / 32)


def _close(got, want, rtol):
    # below the normal range a double cannot keep relative precision
    return abs(got - want) <= rtol * abs(want) + np.finfo(float).tiny


_QUARTER = 1.0 / 32.0  # 8 eps c = 1/4 at c = 1, the edge of the series branch


@settings(max_examples=300, deadline=None)
@given(
    eps=st.floats(0.0, 0.0625, exclude_min=True, exclude_max=True)
    | st.floats(0.0624, 0.0625, exclude_max=True)
    | st.floats(0.0, 1e-6, exclude_min=True),
    c=st.floats(0.0, 2.0) | st.floats(1.9, 2.0),
    stiff=st.booleans(),
)
@example(eps=_QUARTER, c=1.0, stiff=False)
@example(eps=_QUARTER, c=1.0, stiff=True)
@example(eps=math.nextafter(_QUARTER, 0.0), c=1.0, stiff=False)
@example(eps=math.nextafter(_QUARTER, 0.0), c=1.0, stiff=True)
@example(eps=math.nextafter(_QUARTER, 1.0), c=1.0, stiff=False)
@example(eps=math.nextafter(_QUARTER, 1.0), c=1.0, stiff=True)
@example(eps=math.nextafter(0.0625, 0.0), c=2.0, stiff=False)
def test_actions_match_hypergeometric_oracle(eps, c, stiff):
    cs = np.array([c])
    x = (-8.0 if stiff else 8.0) * eps * cs
    got = toric_profile._actions(eps, x, cs)
    # with the periods passed in, as the profile passes them, the same bits
    assert np.array_equal(got, toric_profile._actions(eps, x, cs, _tau_lphi(x)))
    (t,), (rem,) = got
    want_t, want_rem = _mp_actions(eps, c, stiff)
    # the series is exact to rounding; (16/3) c (1 - x) tau lphi inherits
    # the AGM's few-ulp error in tau and lphi
    series = 8.0 * eps * c <= 0.25
    assert _close(t, want_t, 1e-15 if series else 5e-15)
    assert _close(rem, want_rem, 1e-15 if series else 1e-12)


@pytest.mark.parametrize("eps", [1e-8, 1e-3, 0.04, 0.0624999])
@pytest.mark.parametrize("c", [0.3, 1.0, 1.7, 2.0])
@pytest.mark.parametrize("sel, period", [(PLUS, tau1), (MINUS, tau2)], ids=["tau1", "tau2"])
def test_action_matches_quadrature_of_period(eps, c, sel, period):
    want = integrate(lambda b: period(eps, b), 0.0, c)
    assert action(eps, c, sel) == pytest.approx(want, rel=1e-13, abs=0)


def _mp_second_derivative(eps, c):
    # tau = 2 pi F(x) with F = 2F1(1/4, 3/4; 1; x) and lphi = F'/F, at the
    # periods' arguments a = 8 eps c (tau2) and b = -8 eps (2 - c) (tau1) as
    # doubles: near the separatrix f'' amplifies their rounding like
    # 1/(1 - a) (2.1e-14 at eps = 0.0624, c = 1.998), which no later step
    # can undo.
    # lphi(a) - lphi(b) = O(eps) needs about log10(1/eps) guard digits.
    a = 8.0 * (eps * c)
    b = -8.0 * (eps * (2.0 - c))
    with mp.workdps(30 + max(0, -math.floor(math.log10(eps)))):
        def f(x):
            return mp.hyp2f1(mp.mpf(1) / 4, mp.mpf(3) / 4, 1, x)

        def lphi(x):
            return mp.mpf(3) / 16 * mp.hyp2f1(mp.mpf(5) / 4, mp.mpf(7) / 4, 2, x) / f(x)

        return +(f(a) / (2 * mp.pi * f(b) ** 2) * 8 * mp.mpf(eps) * (lphi(a) - lphi(b)))


_SIXTY_FOURTH = 1.0 / 64.0  # 16 eps = 1/4: the last eps whose periods all come from the series


@settings(max_examples=200, deadline=None)
@given(
    eps=st.floats(0.0, 0.0625, exclude_min=True, exclude_max=True)
    | st.floats(-300.0, -100.0).map(lambda e: 10.0**e)
    | st.floats(-17.0, -1.8).map(lambda e: 10.0**e)
    | st.sampled_from(
        [math.nextafter(_SIXTY_FOURTH, 0.0), _SIXTY_FOURTH, math.nextafter(_SIXTY_FOURTH, 1.0)]
    )
    | st.floats(0.0624, 0.0625, exclude_max=True),
    c=st.floats(0.0, 2.0) | st.sampled_from([0.0, 2.0]) | st.floats(1.9, 2.0),
)
@example(eps=1e-4, c=1.0)
@example(eps=1e-300, c=0.0)
@example(eps=1e-154, c=2.0)
@example(eps=5e-324, c=1.0)
@example(eps=_SIXTY_FOURTH, c=0.0)
@example(eps=math.nextafter(_SIXTY_FOURTH, 1.0), c=2.0)
@example(eps=math.nextafter(0.0625, 0.0), c=2.0)
def test_second_derivative_matches_hypergeometric_oracle(eps, c):
    # f'' ~ 3.5 eps^2 leaves the normal doubles below eps ~ 1e-154: _close's floor
    assert _close(profile_second_derivative(eps, c), _mp_second_derivative(eps, c), 1e-14)


def test_series_coefficients_are_the_rationals_correctly_rounded():
    # f_{k+1} = f_k (k + 1/4)(k + 3/4) / (k + 1)^2 (DLMF 15.2.1)
    f = Fraction(1)
    for k in range(toric_profile._TOP + 1):
        nxt = f * Fraction((4 * k + 1) * (4 * k + 3), 16 * (k + 1) ** 2)
        for got, want in ((toric_profile._D[k], f), (toric_profile._N[k], (k + 1) * nxt),
                          (toric_profile._ACTION[k], f / (k + 1))):
            # the nearest double: no neighbour is closer to the rational
            assert all(abs(Fraction(got) - want) <= abs(Fraction(nb) - want)
                       for nb in (math.nextafter(got, 0.0), math.nextafter(got, 1.0)))
        f = nxt


@pytest.mark.parametrize(
    "eps, degree",
    [(5e-324, 2), (1e-30, 2), (1e-8, 4), (1e-3, 11), (_SIXTY_FOURTH, 30), (0.05, 30)],
)
def test_series_degree_is_fixed_by_eps(eps, degree):
    # d = 2 keeps the remainder's x^2 term however small eps is
    assert toric_profile._degree(eps) == degree


@pytest.mark.parametrize("d", range(2, 30))
def test_truncated_series_keep_the_whole_table_to_rounding(monkeypatch, d):
    # just below the eps where (16 eps)^(d-1) = 2^-56 and the degree steps up
    # from d, the dropped tails are largest: the periods, brackets and the
    # actions' remainders still agree with the whole 30-degree table to a few ulps
    eps = 2.0 ** (-56.0 / (d - 1)) / 16.0 * (1.0 - 1e-9)
    assert toric_profile._degree(eps) == d
    c = np.linspace(0.0, 2.0, 41)
    args = toric_profile._factor_args(eps, 2.0 - c, c)
    cs = np.concatenate((2.0 - c, c))

    def evaluate():
        return (*toric_profile._series_periods(eps, args), *toric_profile._actions(eps, args, cs))

    short = evaluate()
    monkeypatch.setattr(toric_profile, "_degree", lambda eps: toric_profile._TOP)
    for got, want in zip(short, evaluate()):
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


# --- the certificate ---------------------------------------------------------

SWEEP_EPS = (
    [1e-154, 1e-100, 1e-30, 1e-16]
    + [10.0**k for k in range(-12, -1)]
    + [0.03, 0.06, 0.0624, 0.0624999]
)


@pytest.mark.parametrize("n", [201, 2001])
@pytest.mark.parametrize("eps", SWEEP_EPS)
def test_certificate_resolves_log_sweep(eps, n):
    cert = verify_convexity(eps, n)
    assert cert.passed, (cert.fd_checked, cert.max_fd_residual)
    if eps <= 0.05:
        assert cert.fd_checked == cert.fd_total
    elif eps < 0.06:
        assert cert.fd_checked >= 0.9 * cert.fd_total
    assert cert.fd_total == n - 4


def _scale_second_derivative(monkeypatch, factor):
    exact = toric_profile._derivatives

    def scaled(*args):
        slope, second = exact(*args)
        return slope, second * factor

    monkeypatch.setattr(toric_profile, "_derivatives", scaled)


@pytest.mark.parametrize("n", [201, 2001])
@pytest.mark.parametrize("eps", SWEEP_EPS)
def test_certificate_rejects_scaled_second_derivative(monkeypatch, eps, n):
    _scale_second_derivative(monkeypatch, 1.0 + 1e-3)
    assert not verify_convexity(eps, n).passed


@pytest.mark.parametrize("eps", [eps for eps in SWEEP_EPS if eps <= 0.05])
def test_certificate_at_tol_1e_6_rejects_a_1e_5_scaled_second_derivative(monkeypatch, eps):
    # the exact f'' passes this tolerance, and a relative error of 1e-5 does not
    assert verify_convexity(eps, 201, tol=1e-6).passed
    _scale_second_derivative(monkeypatch, 1.0 + 1e-5)
    assert not verify_convexity(eps, 201, tol=1e-6).passed


@pytest.fixture
def agm_calls(monkeypatch):
    calls = []
    agm = elliptic._agm

    def counted(m, cm=None):
        calls.append(m.size)
        return agm(m, cm)

    monkeypatch.setattr(elliptic, "_agm", counted)
    return calls


def test_certificate_runs_one_agm_per_period_argument(agm_calls):
    # up to eps = 1/64 every period argument lies in |x| <= 1/4, and the
    # series give the periods, f' and f'' with no AGM at all
    for eps in (1e-8, 1e-3, _SIXTY_FOURTH):
        verify_convexity(eps, 2001)
        moment_image(eps, 1.0)
        profile_second_derivative(eps, [0.0, 1.0, 2.0])
        profile_second_derivative(eps, 2.0)
        assert agm_calls == []
    # above it, the actions, f' and f'' of both factors share one AGM pass
    # over the 2n period arguments
    for eps in (0.05, 0.0624999):
        agm_calls.clear()
        verify_convexity(eps, 2001)
        assert agm_calls == [2 * 2001]


def test_image_and_derivatives_run_one_agm_for_both_factors(agm_calls):
    # |x| = 0.4 > 1/4 for both factors: the image takes both actions off the series
    moment_image(0.05, 1.0)
    profile_second_derivative(0.05, [[0.5, 1.5], [1.0, 2.0]])
    profile_second_derivative(0.05, 1.0)
    assert agm_calls == [2, 8, 2]


@pytest.mark.parametrize(
    "eps, c, calls",
    [(1e-3, 2.0, 0), (_QUARTER, 1.0, 0), (math.nextafter(_QUARTER, 1.0), 1.0, 1), (0.05, 2.0, 1)],
)
@pytest.mark.parametrize("sel", [PLUS, MINUS], ids=["plus", "minus"])
def test_action_runs_agm_only_off_the_series(agm_calls, eps, c, sel, calls):
    action(eps, c, sel)
    assert len(agm_calls) == calls


@pytest.mark.parametrize("eps", [1e-17, 1e-30, 1e-200, 5e-324])
@pytest.mark.parametrize("n", [5, 201])
def test_certificate_is_warning_free_at_tiny_eps(eps, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = verify_convexity(eps, n)
    second = toric_profile._sample(eps, n)[0].second_derivs
    assert cert.fd_checked == cert.fd_total
    if eps > 1e-154:
        # f'' ~ 3.5 eps^2 is a normal double, and the cross-check resolves it
        assert np.all(second > 0.0)
        assert math.isfinite(cert.max_fd_residual)
        assert cert.passed
    else:
        # the documented floor: f'' underflows to 0, a zero analytic value
        # counts as an infinite residual, and the certificate fails
        assert np.all(second == 0.0)
        assert cert.max_fd_residual == math.inf
        assert cert.verdict == "fail"


def _reference_certificate(eps, n, tol=1e-4):
    # the cross-check one sample at a time, in Python floats
    profile, rem = toric_profile._sample(eps, n)
    r1, r = rem.tolist()
    second = profile.second_derivs.tolist()
    grid = np.linspace(0.0, 2.0, n).tolist()
    h = 2.0 / (n - 1)

    def f_second(s, d1_r1, d2_r1, d1_r, d2_r):
        x_s = 2.0 * math.pi - 3.0 * math.pi * eps * s + d1_r1
        x_ss = -3.0 * math.pi * eps + d2_r1
        g_s = -6.0 * math.pi * eps + d1_r
        return (d2_r * x_s - g_s * x_ss) / x_s**3

    def three(v, i):
        return (v[i + 1] - v[i - 1]) / (2.0 * h), (v[i + 1] - 2.0 * v[i] + v[i - 1]) / h**2

    def five(v, i):
        m2, m1, c0, p1, p2 = v[i - 2 : i + 3]
        return ((m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * h),
                (16.0 * (m1 + p1) - 30.0 * c0 - (m2 + p2)) / (12.0 * h**2))

    max_resid, checked = -math.inf, 0
    for i in range(2, n - 2):
        lo = f_second(grid[i], *three(r1, i), *three(r, i))
        hi = f_second(grid[i], *five(r1, i), *five(r, i))
        if abs(hi - lo) > 1e-3 * abs(hi):
            continue
        checked += 1
        max_resid = max(max_resid, abs(hi - second[i]) / abs(second[i]))
    min_f_second = min(second)
    verdict = (
        "pass"
        if min_f_second > 0.0 and (checked == 0 or max_resid <= tol)
        else "fail"
    )
    return {
        "verdict": verdict,
        "fd_checked": checked,
        "fd_total": max(0, n - 4),
        "max_fd_residual": np.float64(np.nan if checked == 0 else max_resid).tobytes(),
        "min_f_second": np.float64(min_f_second).tobytes(),
    }


@pytest.mark.parametrize(
    "eps, n",
    [(eps, n) for eps in (1e-7, 1e-6, 1e-3, 0.05, 0.0624999) for n in (3, 201)]
    + [(1e-6, 2001)],
)
def test_batched_certificate_is_bit_identical(eps, n):
    # the vectorized stencils against the per-sample reference above
    cert = verify_convexity(eps, n)
    assert {
        "verdict": cert.verdict,
        "fd_checked": cert.fd_checked,
        "fd_total": cert.fd_total,
        "max_fd_residual": np.float64(cert.max_fd_residual).tobytes(),
        "min_f_second": np.float64(cert.min_f_second).tobytes(),
    } == _reference_certificate(eps, n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 9])
def test_stencils_take_samples_two_to_n_minus_three(n):
    # rows i^2 and (n + i)^2: both stencils are exact on quadratics, with
    # first derivatives 2i and 2(n + i) and second derivative 2; no
    # centre fits in fewer than five samples
    v = np.arange(2.0 * n).reshape(2, n) ** 2
    centres = np.arange(2, n - 2)
    for d1, d2 in toric_profile._stencils(v, 1.0):
        assert d1.tolist() == [(2.0 * centres).tolist(), (2.0 * (n + centres)).tolist()]
        assert d2.tolist() == [[2.0] * len(centres)] * 2


@pytest.mark.parametrize("eps, n", [(1e-6, 2001), (0.05, 2001)])
def test_stacked_stencils_match_polyfit(eps, n):
    # the fixed 3- and 5-point weights are the derivatives at the centre of
    # the polynomial through the stencil's samples
    _, rem = toric_profile._sample(eps, n)
    grid = np.linspace(0.0, 2.0, n)
    h = 2.0 / (n - 1)
    for hw, got in zip((1, 2), toric_profile._stencils(rem, h)):
        for i in [*range(2, n - 2, 99), n - 3]:
            sl = slice(i - hw, i + hw + 1)
            for row, v in enumerate(rem):
                coef = np.polynomial.polynomial.polyfit((grid[sl] - grid[i]) / h, v[sl], 2 * hw)
                want = (coef[1] / h, 2.0 * coef[2] / h**2)
                for d in range(2):
                    # each amplifies the samples' rounding by up to 1/h^2, differently
                    assert got[d][row, i - 2] == pytest.approx(want[d], rel=1e-7, abs=0)
