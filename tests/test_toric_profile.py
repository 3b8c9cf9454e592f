import math
import re

import numpy as np
import pytest

from starktoric import toric_profile
from starktoric.errors import DomainError, RegimeError, ToleranceNotMet
from starktoric.periods import OscillatorSelector, tau1, tau2
from starktoric.quadrature import DEFAULT_QUADRATURE, QuadratureSpec, integrate
from starktoric.toric_profile import (
    CERTIFICATE_SCHEMA,
    action_T,
    moment_image,
    profile_sample,
    profile_second_derivative,
    profile_slope,
    verify_convexity,
)

PLUS, MINUS = OscillatorSelector.PLUS, OscillatorSelector.MINUS
FOUR_PI = 4.0 * math.pi


def test_action_zero_slice_is_exact_zero():
    assert action_T(0.05, 0.0, PLUS) == 0.0
    assert action_T(0.05, 0.0, MINUS) == 0.0


def test_action_constant_period_limit():
    # vanishing field: both oscillators are harmonic, T(c) -> 2 pi c
    val = action_T(1e-6, 1.0, PLUS)
    assert abs(val - 2.0 * math.pi) < 1e-3 * 2.0 * math.pi


def test_action_derivative_is_period():
    eps, c, h = 0.05, 1.0, 1e-4
    for sel, period in ((PLUS, tau1), (MINUS, tau2)):
        fd = (action_T(eps, c + h, sel) - action_T(eps, c - h, sel)) / (2.0 * h)
        assert fd == pytest.approx(period(eps, c), rel=1e-6)


def test_action_is_strictly_increasing():
    vals = [action_T(0.05, c, MINUS) for c in (0.0, 0.5, 1.0, 1.5, 2.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_action_preconditions():
    with pytest.raises(RegimeError):
        action_T(0.2, 1.0, PLUS)
    with pytest.raises(DomainError):
        action_T(0.05, 2.5, PLUS)


def test_moment_image_endpoints_exact():
    assert moment_image(0.05, 0.0).y == 0.0
    assert moment_image(0.05, 2.0).x == 0.0


def test_moment_image_ball_limit():
    pt = moment_image(1e-6, 0.7)
    assert abs(pt.x + pt.y - FOUR_PI) < 1e-3


def test_profile_slope_values():
    # vanishing field: the image degenerates to the line of slope -1
    assert profile_slope(1e-6, 0.8) == pytest.approx(-1.0, abs=1e-4)
    expected = -tau2(0.05, 0.0) / tau1(0.05, 2.0)
    assert profile_slope(0.05, 0.0) == pytest.approx(expected, rel=1e-13)
    assert profile_slope(0.05, 1.3) < 0.0


def test_second_derivative_positive_on_grid():
    cs = np.linspace(0.0, 2.0, 21)
    vals = profile_second_derivative(0.05, cs)
    assert np.all(vals > 0.0)


def test_second_derivative_degenerate_limit():
    val = profile_second_derivative(1e-6, 1.0)
    assert 0.0 < val < 1e-4


def test_profile_sample_two_points():
    prof = profile_sample(0.05, 2)
    assert prof.samples[0].x == 0.0 and prof.samples[0].c == 2.0
    assert prof.samples[-1].y == 0.0 and prof.samples[-1].c == 0.0


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


def test_profile_sample_validation():
    with pytest.raises(DomainError):
        profile_sample(0.05, 1)
    with pytest.raises(RegimeError):
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
    cert = verify_convexity(0.05, 3, 1e-4)
    assert cert.passed
    assert cert.fd_total == 0 and cert.fd_checked == 0
    assert math.isnan(cert.max_fd_residual)
    assert cert.to_dict()["max_fd_residual"] is None


def test_certificate_unreachable_tolerance_fails():
    cert = verify_convexity(0.05, 201, 1e-18)
    assert not cert.passed


def test_certificate_regime_error():
    with pytest.raises(RegimeError):
        verify_convexity(0.2, 51, 1e-4)


def test_certificate_dict_roundtrip():
    cert = verify_convexity(0.04, 51, 1e-4)
    d = cert.to_dict()
    assert d["schema"] == 1
    assert d["verdict"] == "pass"
    assert d["samples"] == 51
    assert len(d["c_grid"]) == 51


# Reference: the per-panel algorithm the blocked one must reproduce bit for
# bit (one adaptive integral per panel, one polyfit per stencil).


def _reference_actions(eps, grid, period, spec):
    out = np.zeros(len(grid))
    for i in range(1, len(grid)):
        out[i] = out[i - 1] + integrate(
            lambda b: period(eps, b), grid[i - 1], grid[i], spec
        )
    return out


def _reference_profile(eps, n, spec=DEFAULT_QUADRATURE):
    grid = np.linspace(0.0, 2.0, n)
    xs = _reference_actions(eps, grid, tau1, spec)
    ys = _reference_actions(eps, grid, tau2, spec)[::-1]
    return xs, ys


def _polyfit_second(xs, ys, i, hw):
    sl = slice(i - hw, i + hw + 1)
    t = xs[sl] - xs[i]
    scale = np.max(np.abs(t))
    coef = np.polynomial.polynomial.polyfit(t / scale, ys[sl], deg=2 * hw)
    return 2.0 * coef[2] / scale**2


def _reference_certificate(eps, n, tol=1e-4):
    xs, ys = _reference_profile(eps, n)
    second = profile_second_derivative(eps, 2.0 - np.linspace(0.0, 2.0, n))
    max_resid, checked = -np.inf, 0
    for i in range(2, n - 2):
        fd_hi = _polyfit_second(xs, ys, i, 2)
        fd_lo = _polyfit_second(xs, ys, i, 1)
        if abs(fd_hi - fd_lo) > 1e-3 * abs(fd_hi):
            continue
        checked += 1
        max_resid = max(max_resid, abs(fd_hi - second[i]) / abs(second[i]))
    min_f_second = float(np.min(second))
    verdict = (
        "pass"
        if min_f_second > 0.0 and (checked == 0 or max_resid <= tol)
        else "fail"
    )
    return xs, ys, {
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
    # below eps ~ 2e-6 the 0.1% stencil gate works at rounding level, so a
    # one-ulp drift in the sampled curve flips verdicts
    ref_xs, ref_ys, ref_cert = _reference_certificate(eps, n)
    prof = profile_sample(eps, n)
    assert prof.xs.tobytes() == ref_xs.tobytes()
    assert prof.ys.tobytes() == ref_ys.tobytes()
    cert = verify_convexity(eps, n)
    assert {
        "verdict": cert.verdict,
        "fd_checked": cert.fd_checked,
        "fd_total": cert.fd_total,
        "max_fd_residual": np.float64(cert.max_fd_residual).tobytes(),
        "min_f_second": np.float64(cert.min_f_second).tobytes(),
    } == ref_cert


def test_unconverged_panels_fall_back_to_integrate(monkeypatch):
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15)
    calls = []

    def counting(f, a, b, s):
        calls.append((a, b))
        return integrate(f, a, b, s)

    monkeypatch.setattr(toric_profile, "integrate", counting)
    prof = profile_sample(0.0624, 5, spec)
    assert calls
    ref_xs, ref_ys = _reference_profile(0.0624, 5, spec)
    assert prof.xs.tobytes() == ref_xs.tobytes()
    assert prof.ys.tobytes() == ref_ys.tobytes()


def test_fallback_reports_unmet_tolerance():
    spec = QuadratureSpec(abs_tol=1e-16, rel_tol=1e-16, max_refinements=2)
    with pytest.raises(ToleranceNotMet) as ref:
        _reference_profile(0.0624, 5, spec)
    with pytest.raises(ToleranceNotMet, match=re.escape(str(ref.value))):
        profile_sample(0.0624, 5, spec)


@pytest.mark.parametrize("eps, n", [(1e-6, 2001), (0.05, 2001)])
def test_stacked_stencils_match_polyfit(eps, n):
    # every stencil value, not just the ones that decide the certificate
    prof = profile_sample(eps, n)
    xs, ys = prof.xs, prof.ys
    for hw in (1, 2):
        centers = np.arange(2, n - 2)
        got = toric_profile._stencil_second(xs, ys, centers, hw)
        want = np.array([_polyfit_second(xs, ys, i, hw) for i in centers])
        assert got.tobytes() == want.tobytes()
