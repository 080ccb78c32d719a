"""Weighted coefficient spaces and their rigorous algebra.

A sequence is a two-sided complex Fourier window a = (a_k), |k| <= K-1,
with norm sum_k |a_k| nu^|k|: the space l^1_nu, a Banach algebra under
discrete convolution.  Taylor layers live only in the jets' float and
norm lanes (`numerics.FloatArith` and `stages`); here every object is one
Fourier window.

All norms and products return rigorous enclosures built on the interval
kernels in ivarray; nothing here rounds to nearest.
"""

from __future__ import annotations

import math

import numpy as np

from .interval import (
    ComplexInterval,
    Interval,
    IntervalDomainError,
    mul_down,
    mul_up,
)
from .ivarray import (
    CArr,
    carr_conv,
    up_sum,
    zero_masked_up,
)


class WeightMismatch(ValueError):
    """Operands live in spaces with different weights nu."""


# -- nu weight tables ----------------------------------------------------

_WCACHE: dict = {}


def nu_weights(nu: float, n: int):
    """Directed enclosures (w_dn, w_up) of nu^e for e = 0..n-1."""
    key = (nu, n)
    hit = _WCACHE.get(key)
    if hit is not None:
        return hit
    w_dn = np.empty(n)
    w_up = np.empty(n)
    lo = hi = 1.0
    for e in range(n):
        w_dn[e] = lo
        w_up[e] = hi
        lo = mul_down(lo, nu)
        hi = mul_up(hi, nu)
    _WCACHE[key] = (w_dn, w_up)
    return w_dn, w_up


def _check_nu(nu: float) -> float:
    nu = float(nu)
    if not nu >= 1.0:
        raise ValueError("weight nu must satisfy nu >= 1")
    return nu


# -- two-sided Fourier windows -------------------------------------------


class FourierSeq:
    """Finite window of complex Fourier coefficients a_k, |k| <= K-1.

    Entries are rectangular complex intervals stored densely in ascending k.
    A sequence is called real-symmetric when a_k = conj(a_{-k}) holds
    entrywise; such coefficients represent real-valued functions.
    """

    __slots__ = ("c", "nu")

    def __init__(self, c: CArr, nu: float):
        if len(c) % 2 != 1:
            raise ValueError("window length must be odd (symmetric in k)")
        self.c = c
        self.nu = _check_nu(nu)

    # -- construction ----------------------------------------------------

    @classmethod
    def zeros(cls, K: int, nu: float) -> "FourierSeq":
        if K < 1:
            raise ValueError("K must be >= 1")
        return cls(CArr.zeros(2 * K - 1), nu)

    @classmethod
    def point(cls, coeffs, nu: float) -> "FourierSeq":
        """Exact coefficients in ascending k order (odd length)."""
        return cls(CArr.point(np.asarray(coeffs, dtype=complex)), nu)

    # -- indexing ----------------------------------------------------------

    @property
    def K(self) -> int:
        return (len(self.c) + 1) // 2

    def at(self, k: int) -> ComplexInterval:
        i = k + self.K - 1
        if 0 <= i < len(self.c):
            return self.c.at(i)
        return ComplexInterval(Interval.point(0.0), Interval.point(0.0))

    def is_point(self) -> bool:
        c = self.c
        return bool(np.array_equal(c.rl, c.rh) and np.array_equal(c.il, c.ih))

    def k_values(self):
        K = self.K
        return np.arange(-(K - 1), K)

    # -- algebra -----------------------------------------------------------

    def _align(self, o: "FourierSeq"):
        if self.nu != o.nu:
            raise WeightMismatch("nu mismatch: %r vs %r" % (self.nu, o.nu))
        K = max(self.K, o.K)
        return include(self, K), include(o, K)

    def add(self, o: "FourierSeq") -> "FourierSeq":
        a, b = self._align(o)
        return FourierSeq(a.c.add(b.c), self.nu)

    def sub(self, o: "FourierSeq") -> "FourierSeq":
        a, b = self._align(o)
        return FourierSeq(a.c.sub(b.c), self.nu)

    def neg(self) -> "FourierSeq":
        return FourierSeq(self.c.neg(), self.nu)

    def scale(self, z) -> "FourierSeq":
        """Multiply by a scalar (complex or ComplexInterval or Interval)."""
        if isinstance(z, Interval):
            z = ComplexInterval(z, Interval.point(0.0))
        if isinstance(z, ComplexInterval):
            return FourierSeq(self.c.mul_civ(z), self.nu)
        return FourierSeq(self.c.mul_scalar(complex(z)), self.nu)

    def conj_reflect(self) -> "FourierSeq":
        """b with b_k = conj(a_{-k}); fixed points are real-symmetric."""
        return FourierSeq(self.c.reverse().conj(), self.nu)

    def dtheta(self) -> "FourierSeq":
        """Termwise derivative in the angle: a_k -> i k a_k."""
        k = self.k_values().astype(float)
        ik = CArr(np.zeros_like(k), np.zeros_like(k), k, k.copy())
        return FourierSeq(self.c.mul(ik), self.nu)

    # -- norms ---------------------------------------------------------------

    def norm_upper(self) -> float:
        """Upper bound of the norm sum_k |a_k| nu^|k|."""
        _, w_up = nu_weights(self.nu, self.K)
        mags = self.c.mag()
        hi = up_sum(zero_masked_up(mags * w_up[np.abs(self.k_values())], mags))
        if not math.isfinite(hi):
            raise IntervalDomainError("non-finite sequence norm")
        return hi

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self):
        """nu, support and entries [k, rl, rh, il, ih], each float as hex.  A
        point sequence, whose lanes agree bit for bit (-0.0 is not 0.0),
        formats each float once."""
        c, K = self.c, self.K
        ks = range(1 - K, K)
        if c.rl.tobytes() == c.rh.tobytes() and c.il.tobytes() == c.ih.tobytes():
            re, im = ([x.hex() for x in lane.tolist()] for lane in (c.rl, c.il))
            entries = [[k, r, r, i, i] for k, r, i in zip(ks, re, im)]
        else:
            rows = np.array([c.rl, c.rh, c.il, c.ih]).T.tolist()
            entries = [[k, rl.hex(), rh.hex(), il.hex(), ih.hex()]
                       for k, (rl, rh, il, ih) in zip(ks, rows)]
        return {"nu": float(self.nu).hex(), "support": K, "entries": entries}

    @classmethod
    def from_json_obj(cls, obj) -> "FourierSeq":
        K = int(obj["support"])
        out = cls.zeros(K, float.fromhex(obj["nu"]))
        for k, rlo, rhi, ilo, ihi in obj["entries"]:
            if not abs(int(k)) < K:
                raise ValueError("mode %d outside the support %d" % (int(k), K))
            i = int(k) + K - 1
            out.c.rl[i] = float.fromhex(rlo)
            out.c.rh[i] = float.fromhex(rhi)
            out.c.il[i] = float.fromhex(ilo)
            out.c.ih[i] = float.fromhex(ihi)
        return cls(CArr(out.c.rl, out.c.rh, out.c.il, out.c.ih), out.nu)

    def __repr__(self):
        return "FourierSeq(K=%d, nu=%g, |a|<=%g)" % (self.K, self.nu, self.norm_upper())


def conv(a: FourierSeq, b: FourierSeq) -> FourierSeq:
    """Discrete convolution (a*b)_k = sum_i a_i b_{k-i}."""
    if a.nu != b.nu:
        raise WeightMismatch("nu mismatch: %r vs %r" % (a.nu, b.nu))
    return FourierSeq(carr_conv(a.c, b.c), a.nu)


def project(a: FourierSeq, M: int) -> FourierSeq:
    """pi_M: truncate to the window |k| < M."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if M >= a.K:
        return include(a, M)
    cut = a.K - M
    return FourierSeq(a.c.slice(slice(cut, len(a.c) - cut)), a.nu)


def include(a: FourierSeq, M: int) -> FourierSeq:
    """iota_M: pad with exact zeros out to the window |k| < M."""
    if M < a.K:
        raise ValueError("inclusion target smaller than support")
    pad = M - a.K
    if pad == 0:
        return a
    return FourierSeq(a.c.pad(pad, pad), a.nu)

