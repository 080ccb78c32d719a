"""Vectorized kernels against the scalar reference and rational oracles."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourbody.interval import ComplexInterval, IntervalDomainError
from fourbody.ivarray import (
    CArr,
    _up_in_place,
    carr_conv,
    cconv_mr,
    cmat_abs_up,
    cmm,
    mm_up_nonneg,
    up_sum,
)
from fourbody.seqspace import FourierSeq
from oracles import carr_conv_reference, cconv_mr_pair, conv_exact, widen, width

rng = np.random.default_rng(20260814)


def random_carr(n, scale=1.0, width=1e-12):
    mid = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale
    w = np.abs(rng.standard_normal(n)) * width
    base = CArr.point(mid)
    return widen(base, w)


def carr_points(a: CArr):
    """Exact rational corner points of every entry (lo corners)."""
    return [
        [(Fraction(a.rl[i]), Fraction(a.il[i])) for i in range(len(a))],
        [(Fraction(a.rh[i]), Fraction(a.ih[i])) for i in range(len(a))],
    ]


def contains_rational(a: CArr, pts) -> bool:
    for i, (re, im) in enumerate(pts):
        if not (Fraction(a.rl[i]) <= re <= Fraction(a.rh[i])):
            return False
        if not (Fraction(a.il[i]) <= im <= Fraction(a.ih[i])):
            return False
    return True


def test_carr_ops_match_scalar():
    a = random_carr(17)
    b = random_carr(17)
    for op, sop in [
        (lambda x, y: x.add(y), lambda x, y: x + y),
        (lambda x, y: x.sub(y), lambda x, y: x - y),
        (lambda x, y: x.mul(y), lambda x, y: x * y),
    ]:
        r = op(a, b)
        for i in range(17):
            s = sop(a.at(i), b.at(i))
            # vectorized result must contain the sharp scalar result
            assert r.at(i).re.contains(s.re)
            assert r.at(i).im.contains(s.im)
            # and not be more than a few ulps wider
            assert width(r.at(i).re) <= width(s.re) + 8 * max(1e-300, abs(s.re.mid)) * 2**-50


def test_carr_conv_contains_exact():
    for _ in range(25):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        a = random_carr(n, width=0.0)
        b = random_carr(m, width=0.0)
        ar = [(Fraction(a.rl[i]), Fraction(a.il[i])) for i in range(n)]
        br = [(Fraction(b.rl[i]), Fraction(b.il[i])) for i in range(m)]
        exact = conv_exact(ar, br)
        r = carr_conv(a, b)
        assert contains_rational(r, exact)


def test_carr_conv_widths_stay_small():
    a = random_carr(59, scale=2.0, width=1e-14)
    b = random_carr(59, scale=2.0, width=1e-14)
    r = carr_conv(a, b)
    rad = r.rad()
    assert rad.max() < 1e-10


def test_point_box_has_zero_radius():
    # the midpoint of a point box is exact, so its radius is exactly 0 (it
    # read 3.85e-162, the rounded-up square root of nothing)
    c = FourierSeq.point([0.3 + 0.1j, 1.0, 2e-5j], 1.5).c
    assert c.rad().tobytes() == np.zeros(3).tobytes()
    # a box that is a point in one component only keeps its radius
    box = CArr([0.3, 1.0], [0.3, 1.0], [0.1, -2.0], [0.1 + 2.0**-40, -2.0])
    rad = box.rad()
    assert rad[0] >= 2.0**-41 and rad[1] == 0.0


def random_disc(n):
    """A disc array of length n: midpoints over a few scales with some
    exact (and negative) zeros, and a radius lane that is None, all zero or
    positive."""
    m = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** int(rng.integers(-3, 3))
    m[rng.random(n) < 0.15] = complex(-0.0, -0.0)
    kind = int(rng.integers(3))
    r = None if kind == 0 else np.abs(rng.standard_normal(n)) * 1e-9 * (kind - 1)
    return m, r


def disc_point(m, r, corner):
    """Exact rational points of a disc array: its midpoints (corner None),
    or m + r (s 3/5 + t 4/5 i) on each disc's boundary for corner = (s, t)."""
    pts = [(Fraction(z.real), Fraction(z.imag)) for z in m]
    if corner is None or r is None:
        return pts
    s, t = corner
    return [(x + s * Fraction(3, 5) * Fraction(ri), y + t * Fraction(4, 5) * Fraction(ri))
            for (x, y), ri in zip(pts, r)]


def test_cconv_mr_against_five_convolutions():
    # the one-pair kernel keeps the midpoint of the reference (five
    # convolutions, `cconv_mr_pair`) bit for bit, encloses the exact product
    # at points of the discs and is neither looser nor tighter than it
    for trial in range(24):
        (am, ar), (bm, br) = (random_disc(2 * int(rng.integers(0, 5)) + 1) for _ in range(2))
        zm, zr = cconv_mr(am, ar, bm, br)
        wm, wr = cconv_mr_pair(am, ar, bm, br)
        assert zm.tobytes() == wm.tobytes(), trial
        assert (zr <= wr * (1.0 + 1e-9)).all(), (trial, zr / wr)
        # (below the subnormals the reference's rounding adds whole ulps of _ETA)
        normal = wr > 1e-300
        assert (zr[normal] >= wr[normal] * (1.0 - 1e-9)).all(), (trial, zr / wr)
        # a radius lane of zeros is the same as None
        zeros = [np.zeros(len(am)), np.zeros(len(bm))]
        again = cconv_mr(am, zeros[0] if ar is None else ar, bm, zeros[1] if br is None else br)
        assert [v.tobytes() for v in again] == [zm.tobytes(), zr.tobytes()]
        for corner in (None, (1, 1), (1, -1), (-1, 1), (-1, -1)):
            exact = conv_exact(disc_point(am, ar, corner), disc_point(bm, br, corner))
            for k, (re, im) in enumerate(exact):
                dre, dim = re - Fraction(zm[k].real), im - Fraction(zm[k].imag)
                assert dre * dre + dim * dim <= Fraction(zr[k]) ** 2, (trial, corner, k)


def scalar_matmul(A, B):
    """Reference interval matmul using scalar ComplexInterval arithmetic."""
    n, m = len(A), len(A[0])
    p = len(B[0])
    out = [[ComplexInterval(0.0) for _ in range(p)] for _ in range(n)]
    for i in range(n):
        for j in range(p):
            acc = ComplexInterval(0.0)
            for k in range(m):
                acc = acc + A[i][k] * B[k][j]
            out[i][j] = acc
    return out


def test_cmm_contains_exact_sample_products():
    # sample concrete matrices inside the disc intervals, multiply exactly
    # over rationals, and check the enclosure contains the exact product
    n = 6
    Am = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Bm = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Ar = np.abs(rng.standard_normal((n, n))) * 1e-13
    Br = np.abs(rng.standard_normal((n, n))) * 1e-13
    cm, cr = cmm(Am, Ar, Bm, Br)
    for trial in range(4):
        # perturb each entry by at most its radius (real direction, exact)
        da = (rng.uniform(-1, 1, (n, n))) * Ar
        db = (rng.uniform(-1, 1, (n, n))) * Br
        A = [
            [(Fraction(Am[i, k].real) + Fraction(da[i, k]), Fraction(Am[i, k].imag)) for k in range(n)]
            for i in range(n)
        ]
        B = [
            [(Fraction(Bm[k, j].real) + Fraction(db[k, j]), Fraction(Bm[k, j].imag)) for j in range(n)]
            for k in range(n)
        ]
        for i in range(n):
            for j in range(n):
                re = Fraction(0)
                im = Fraction(0)
                for k in range(n):
                    re += A[i][k][0] * B[k][j][0] - A[i][k][1] * B[k][j][1]
                    im += A[i][k][0] * B[k][j][1] + A[i][k][1] * B[k][j][0]
                dre = re - Fraction(cm[i, j].real)
                dim = im - Fraction(cm[i, j].imag)
                # |exact - mid|^2 <= cr^2 (exact rational comparison)
                assert dre * dre + dim * dim <= Fraction(cr[i, j]) ** 2


def test_mm_up_nonneg_dominates():
    a = np.abs(rng.standard_normal((30, 30)))
    b = np.abs(rng.standard_normal(30))
    r = mm_up_nonneg(a, b)
    for i in range(0, 30, 7):
        exact = sum(Fraction(a[i, k]) * Fraction(b[k]) for k in range(30))
        assert Fraction(r[i]) >= exact


def test_up_sum_dominates():
    v = rng.standard_normal(1000) * 1e3
    s = up_sum(np.abs(v))
    exact = sum(Fraction(abs(x)) for x in v)
    assert Fraction(s) >= exact


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_carr_conv_hypothesis(n, m):
    a = random_carr(n, width=1e-15)
    b = random_carr(m, width=1e-15)
    # corner-sample rational sequences from inside the intervals
    ar = [(Fraction(a.rl[i]), Fraction(a.ih[i])) for i in range(n)]
    br = [(Fraction(b.rh[i]), Fraction(b.il[i])) for i in range(m)]
    exact = conv_exact(ar, br)
    r = carr_conv(a, b)
    assert contains_rational(r, exact)


def test_widen_and_contains():
    a = random_carr(10, width=0.0)
    mid = a.mid()
    w = widen(a, 1e-10)
    for z in (mid + 0.9e-10, mid - 0.9e-10j):
        assert ((w.rl <= z.real) & (z.real <= w.rh)
                & (w.il <= z.imag) & (z.imag <= w.ih)).all()


def test_cmm_makes_no_missing_radius_lane():
    # a missing radius lane is zero and is left out, not made as an N x N
    # array of zeros: the product holds one N x N array, |am|, at a time,
    # and its bits are those of the product with the zero lane
    n = 423
    gen = np.random.default_rng(7)
    am = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    r = np.abs(gen.standard_normal(n)) * 1e-13
    tracemalloc.start()
    try:
        got = cmm(am, None, v, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n
    want = cmm(am, np.zeros((n, n)), v, r)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_cmat_abs_up_dominates():
    # m >= |am| + ar exactly: (m - ar)^2 >= re^2 + im^2 over the rationals;
    # the second input rounds to 1.0 unless the sum is rounded up
    cases = [
        (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)),
         np.abs(rng.standard_normal((8, 8))) * 1e-10),
        (np.array([[2.0**-60]], dtype=complex), np.array([[1.0]])),
    ]
    for Am, Ar in cases:
        m = cmat_abs_up(Am, Ar)
        for mv, z, r in zip(m.ravel(), Am.ravel(), Ar.ravel()):
            gap = Fraction(float(mv)) - Fraction(float(r))
            assert gap >= 0
            assert gap * gap >= Fraction(z.real) ** 2 + Fraction(z.imag) ** 2


# -- the batched convolution against the per-coefficient loop, bit for bit


def assert_same_bits(got: CArr, want: CArr):
    for lane in ("rl", "rh", "il", "ih"):
        g, w = getattr(got, lane), getattr(want, lane)
        assert g.shape == w.shape, lane
        assert np.array_equal(g, w), lane
        assert np.array_equal(np.signbit(g), np.signbit(w)), lane


# one scale puts products of two entries below the normal range
_SCALES = (1.0, 1e3, 1e-3, 1e-160)
_KINDS = ("zero", "signed_zero", "point", "interval", "half_zero")
_mant = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False,
                  allow_subnormal=False)


@st.composite
def endpoint_entry(draw):
    kind = draw(st.sampled_from(_KINDS))
    if kind == "zero":
        return (0.0, 0.0, 0.0, 0.0)
    if kind == "signed_zero":
        return tuple(draw(st.sampled_from((0.0, -0.0))) for _ in range(4))
    scale = draw(st.sampled_from(_SCALES))
    x, y = draw(_mant) * scale, draw(_mant) * scale
    if kind == "point":
        return (x, x, y, y)
    if kind == "half_zero":
        return (x, x, 0.0, 0.0) if draw(st.booleans()) else (0.0, 0.0, y, y)
    xr, yr = draw(_mant) * scale, draw(_mant) * scale
    return (min(x, xr), max(x, xr), min(y, yr), max(y, yr))


@st.composite
def endpoint_carr(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    if n and draw(st.integers(min_value=0, max_value=5)) == 0:
        return CArr.zeros(n)
    entries = [draw(endpoint_entry()) for _ in range(n)]
    return CArr(*np.array(entries, dtype=float).reshape(n, 4).T)


@given(st.lists(st.tuples(endpoint_carr(), endpoint_carr()), min_size=1,
                max_size=6))
@settings(max_examples=200, deadline=None)
def test_carr_conv_matches_reference_bits(pairs):
    for a, b in pairs:
        assert_same_bits(carr_conv(a, b), carr_conv_reference(a, b))


def test_carr_conv_named_cases():
    point = CArr.point(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    wide = random_carr(4, width=1e-3)
    zero_rows = CArr(point.rl.copy(), point.rh.copy(), point.il.copy(), point.ih.copy())
    for lane in (zero_rows.rl, zero_rows.rh, zero_rows.il, zero_rows.ih):
        lane[[0, 3]] = 0.0
    zero_rows.rl[1] = zero_rows.rh[1] = -0.0
    tiny = CArr.point((rng.standard_normal(5) + 1j * rng.standard_normal(5)) * 1e-160)
    pairs = [
        (point, wide),                      # n > m: the operands swap
        (wide, point),
        (zero_rows, wide),                  # point-zero rows of a
        (wide, CArr.zeros(7)),              # all-zero b
        (tiny, tiny),                       # subnormal products
        (tiny, wide),
        (CArr.zeros(0), point),             # empty operand
        (point, CArr.zeros(0)),
    ]
    mags = np.abs(tiny.mul(tiny).rl)
    assert ((mags > 0.0) & (mags < 2.2e-308)).any()
    for a, b in pairs:
        assert_same_bits(carr_conv(a, b), carr_conv_reference(a, b))


def test_carr_conv_overflow_raises():
    big = CArr.point(np.array([1e200, -1e200j, 3e199]))
    with np.errstate(over="ignore", invalid="ignore"):
        for conv in (carr_conv, carr_conv_reference):
            with pytest.raises(IntervalDomainError):
                conv(big, big)


def test_carr_conv_long_operands():
    # operands of about 40 x 300 entries reach a second block of shifts;
    # every kind of entry (signed zeros, point-zero lanes, half-zero
    # intervals, points, boxes) and of operand (all points, one box, none)
    # meets the per-coefficient loop byte for byte
    def long_carr(n, kinds):
        entries = []
        for k in rng.choice(kinds, n):
            x, y = rng.standard_normal(2) * rng.choice((1.0, 1e-3, 1e-160))
            dx, dy = np.abs(rng.standard_normal(2)) * 1e-9
            entries.append({
                "zero": (0.0, 0.0, 0.0, 0.0),
                "signed_zero": tuple(rng.choice((0.0, -0.0), 4)),
                "point": (x, x, y, y),
                "real": (x, x, rng.choice((0.0, -0.0)), 0.0),
                "imag": (0.0, -0.0, y, y),
                "half_zero": (min(x, 0.0), max(x, 0.0), min(y, -0.0), max(y, -0.0)),
                "box": (x - dx, x + dx, y - dy, y + dy),
            }[k])
        return CArr(*np.array(entries, dtype=float).reshape(n, 4).T)

    every = ("zero", "signed_zero", "point", "real", "imag", "half_zero", "box")
    points = ("zero", "signed_zero", "point", "real", "imag")
    pairs = [
        (long_carr(40, every), long_carr(300, every)),
        (long_carr(300, every), long_carr(41, every)),     # the operands swap
        (long_carr(39, points), long_carr(299, every)),    # a is a point
        (long_carr(40, every), long_carr(301, points)),    # b is a point
        (long_carr(38, points), long_carr(302, points)),   # both are
        (long_carr(40, ("box",)), long_carr(300, ("box",))),
        (long_carr(7, every), CArr.zeros(300)),            # all-zero b
    ]
    # products whose lower end rounds to +0.0: sums of two add -0.0 to -0.0
    # in the -lo lanes, with and without point-zero lanes
    tiny = 2.0 ** -537
    pairs += [(CArr.point(np.full(40, tiny)), CArr.point(np.full(300, tiny))),
              (CArr.point(np.full(40, 4 * tiny + tiny * 1j)),
               CArr.point(np.full(300, tiny + tiny * 1j)))]
    for a, b in pairs:
        assert_same_bits(carr_conv(a, b), carr_conv_reference(a, b))


def test_carr_conv_overflowing_sum_raises():
    # every product is finite, the sums of two of them are not, at either
    # end; the kernels and the reference they are tested against all raise
    ones = CArr.point(np.ones(40))
    for top in (1e308, -1e308):
        big = CArr.point(np.full(300, top) + 1j * np.full(300, top / 2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntervalDomainError):
                carr_conv(ones, big)
            with pytest.raises(IntervalDomainError):
                carr_conv_reference(ones, big)


# -- the kernel's integer ulp step against numpy.nextafter, bit for bit


_MAX = np.finfo(float).max
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, _MAX, -_MAX, 1.0, -1.0, 2.2250738585072014e-308)


def test_ulp_step_is_nextafter():
    # carr_conv rounds only by this step, up on [-lo, hi]; the
    # reference convolution rounds by nextafter through ri_add and CArr.mul,
    # so this is what ties both to IEEE
    x = rng.standard_normal(5000) * 10.0 ** rng.integers(-320, 300, 5000)
    x[:len(_SPECIAL)] = _SPECIAL
    x = np.concatenate([x, np.zeros(50), np.full(50, -0.0)]).reshape(2, 3, -1)
    with np.errstate(over="ignore"):
        up, dn = np.nextafter(x, np.inf), np.nextafter(x, -np.inf)
    got_up, got_dn = x.copy(), -x
    _up_in_place(got_up)
    _up_in_place(got_dn)
    assert got_up.tobytes() == up.tobytes()
    assert (-got_dn).tobytes() == dn.tobytes()
