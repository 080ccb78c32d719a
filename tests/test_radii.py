"""Certification engine tests.

Frozen hand-checkable polynomial instances, soundness of the verified
sign check against exact rational evaluation, monotonicity of the
accepted radius under bound enlargement, and the bisection of the radius
grid against a scan of every grid point.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourbody import radii
from fourbody.interval import Interval
from fourbody.radii import (
    Certificate,
    NKBounds,
    NoNegativeRadius,
    content_digest,
    poly_eval_iv,
    radii_newton,
    verify_negative,
)

from oracles import grid_scan


def quadratic_bounds(Y, Z0, Z1, Z2, r_star=None):
    return NKBounds(
        Y=Interval.point(Y),
        Z0=Interval.point(Z0),
        Z1=Interval.point(Z1),
        Z2=(Interval.point(Z2),),
        r_star=r_star,
    )


# frozen instance: P(r) = r^2 - 0.8 r + 0.1, roots near 0.155 and 0.645
BASIC = quadratic_bounds(0.1, 0.0, 0.2, 1.0)


def test_verify_negative_accepts_inside_well():
    assert verify_negative(BASIC.polynomial(), 0.2)
    value = poly_eval_iv(BASIC.polynomial(), 0.2)
    assert value.hi < -0.019 and value.lo > -0.021


def test_verify_negative_rejects_outside_well():
    assert not verify_negative(BASIC.polynomial(), 0.15)
    value = poly_eval_iv(BASIC.polynomial(), 0.15)
    assert value.lo > 0.002


def test_newton_basic_certificate():
    cert = radii_newton(BASIC, stage="unit")
    assert 0.15 < cert.r0 < 0.65
    assert cert.r_max is not None and cert.r0 <= cert.r_max < 0.65
    assert cert.derivative_invertible
    assert cert.kind == "newton"
    assert cert.stage == "unit"
    assert cert.recheck()


def test_newton_zero_residual_gives_tiny_radius():
    cert = radii_newton(quadratic_bounds(0.0, 0.0, 0.0, 1.0))
    assert cert.r0 == 1e-15
    assert cert.recheck()


def test_newton_contraction_failure():
    bad = quadratic_bounds(0.01, 0.6, 0.5, 1.0)
    with pytest.raises(NoNegativeRadius) as err:
        radii_newton(bad)
    assert err.value.poly == bad.polynomial()


def test_newton_respects_domain_cap():
    # without a cap the well (0.155, 0.645) is reachable; capping below it
    # must fail even though the polynomial has negative values beyond
    capped = quadratic_bounds(0.1, 0.0, 0.2, 1.0, r_star=0.1)
    with pytest.raises(NoNegativeRadius):
        radii_newton(capped)
    loose = quadratic_bounds(0.1, 0.0, 0.2, 1.0, r_star=0.5)
    cert = radii_newton(loose)
    assert cert.r0 < 0.5 and cert.r_max < 0.5
    assert cert.r_star == 0.5


def test_bounds_reject_negative_inputs():
    with pytest.raises(ValueError):
        quadratic_bounds(-0.1, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        quadratic_bounds(0.1, 0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        quadratic_bounds(0.1, 0.0, 0.0, 1.0, r_star=-1.0)


def dyadic(rng, scale=4):
    # exactly representable float with a known Fraction shadow
    num = rng.randint(-(1 << 30), 1 << 30)
    return num / float(1 << (30 - scale))


def exact_eval(coeffs, r):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc


def test_verify_negative_sound_against_rational_shadow():
    rng = random.Random(20240814)
    accepts = 0
    for _ in range(1000):
        deg = rng.randint(0, 5)
        floats = [dyadic(rng) for _ in range(deg + 1)]
        shadow = [Fraction(c) for c in floats]
        r0 = abs(dyadic(rng, scale=0))
        coeffs = [Interval.point(c) for c in floats]
        if verify_negative(coeffs, r0):
            accepts += 1
            assert exact_eval(shadow, Fraction(r0)) < 0
    assert accepts > 100  # the check is not vacuously conservative


def test_verify_negative_sound_with_interval_coefficients():
    # with r >= 0 the worst case over coefficient boxes is every upper end
    rng = random.Random(77)
    for _ in range(500):
        deg = rng.randint(0, 4)
        los = [dyadic(rng) for _ in range(deg + 1)]
        widths = [abs(dyadic(rng, scale=-8)) for _ in range(deg + 1)]
        coeffs = [Interval(lo, lo + w) for lo, w in zip(los, widths)]
        r0 = abs(dyadic(rng, scale=0))
        if verify_negative(coeffs, r0):
            worst = [Fraction(c.hi) for c in coeffs]
            assert exact_eval(worst, Fraction(r0)) < 0


def test_monotonicity_under_bound_enlargement():
    rng = random.Random(5151)
    compared = 0
    for _ in range(200):
        Y = rng.uniform(0.0, 0.05)
        Z0 = rng.uniform(0.0, 0.5)
        Z1 = rng.uniform(0.0, 0.5)
        Z2 = rng.uniform(0.1, 2.0)
        try:
            base = radii_newton(quadratic_bounds(Y, Z0, Z1, Z2))
        except NoNegativeRadius:
            continue
        bumped = quadratic_bounds(Y + 0.01, Z0 + 0.02, Z1, Z2)
        try:
            worse = radii_newton(bumped)
        except NoNegativeRadius:
            compared += 1
            continue
        assert worse.r0 >= base.r0
        assert worse.r_max <= base.r_max
        compared += 1
    assert compared > 50


def test_certificate_json_roundtrip():
    cert = radii_newton(BASIC, stage="unit", inputs_digest=content_digest([1, 2]))
    blob = json.dumps(cert.to_json_obj(), sort_keys=True)
    back = Certificate.from_json_obj(json.loads(blob))
    assert back == cert
    assert back.recheck()
    # the digest is stable across equivalent encodings
    assert content_digest({"b": 1, "a": 2}) == content_digest({"a": 2, "b": 1})


def test_scan_is_deterministic():
    a = radii_newton(BASIC, stage="unit")
    b = radii_newton(BASIC, stage="unit")
    assert a == b
    assert json.dumps(a.to_json_obj()) == json.dumps(b.to_json_obj())


# nonnegative bounds, subnormal ones included, below where P overflows
bound = st.floats(0.0, 1e100)
contraction = st.one_of(bound, st.floats(0.0, 1.0))


@given(Y=bound, Z0=contraction, Z1=contraction,
       Z2=st.lists(bound, max_size=2), r_star=st.one_of(st.none(), st.floats(1e-300, 1.0)))
@settings(max_examples=400, deadline=None)
def test_bisection_returns_the_scan_certificate(Y, Z0, Z1, Z2, r_star):
    # P is convex, so its verified grid points are one run, and bisecting
    # for the ends of that run gives the certificate of a scan over every
    # point, or fails where the scan does
    poly = NKBounds(Y=Y, Z0=Z0, Z1=Z1, Z2=tuple(Z2), r_star=r_star).polynomial()
    upper = 1.0 if r_star is None else r_star
    args = (poly, upper, r_star, "unit", "newton", "d", True)
    try:
        want = grid_scan(*args)
    except NoNegativeRadius as exc:
        with pytest.raises(NoNegativeRadius) as got:
            radii._scan(*args)
        assert got.value.poly == exc.poly
        return
    assert radii._scan(*args) == want
