"""Weighted coefficient spaces and their rigorous algebra.

Two sequence families share the same weighted-l1 geometry:

* two-sided complex Fourier windows a = (a_k), |k| <= K-1, with norm
  sum_k |a_k| nu^|k| (a Banach algebra under discrete convolution),
* order-capped grids of Fourier windows indexed by alpha = (m, n) in N^2,
  normed by the sum of the layer norms (Taylor in two variables on top of
  Fourier), again an algebra under the Cauchy-convolution product.

All norms and products return rigorous enclosures built on the interval
kernels in ivarray; nothing here rounds to nearest.  Ball elements pair a
finite center with a norm-radius and stand for every sequence within that
distance.
"""

from __future__ import annotations

import math

import numpy as np

from .interval import (
    ComplexInterval,
    Interval,
    IntervalDomainError,
    add_up,
    mul_down,
    mul_up,
)
from .ivarray import (
    CArr,
    carr_conv,
    down_sum,
    up_sum,
    zero_masked_up,
    _dn,
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

    def norm(self) -> Interval:
        """Enclosure of sum_k |a_k| nu^|k|."""
        hi = self.norm_upper()
        w_dn, _ = nu_weights(self.nu, self.K)
        e = np.abs(self.k_values())
        lo = down_sum(np.maximum(_dn(self.c.mig() * w_dn[e]), 0.0))
        return Interval(min(lo, hi), hi)

    def norm_upper(self) -> float:
        """Upper bound of sum_k |a_k| nu^|k|, the upper end of `norm`."""
        _, w_up = nu_weights(self.nu, self.K)
        mags = self.c.mag()
        hi = up_sum(zero_masked_up(mags * w_up[np.abs(self.k_values())], mags))
        if not math.isfinite(hi):
            raise IntervalDomainError("non-finite sequence norm")
        return hi

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self):
        entries = []
        for i, k in enumerate(self.k_values()):
            entries.append([
                int(k),
                float(self.c.rl[i]).hex(), float(self.c.rh[i]).hex(),
                float(self.c.il[i]).hex(), float(self.c.ih[i]).hex(),
            ])
        return {"nu": float(self.nu).hex(), "support": self.K, "entries": entries}

    @classmethod
    def from_json_obj(cls, obj) -> "FourierSeq":
        K = int(obj["support"])
        out = cls.zeros(K, float.fromhex(obj["nu"]))
        for k, rlo, rhi, ilo, ihi in obj["entries"]:
            i = int(k) + K - 1
            out.c.rl[i] = float.fromhex(rlo)
            out.c.rh[i] = float.fromhex(rhi)
            out.c.il[i] = float.fromhex(ilo)
            out.c.ih[i] = float.fromhex(ihi)
        return cls(CArr(out.c.rl, out.c.rh, out.c.il, out.c.ih), out.nu)

    def __repr__(self):
        return "FourierSeq(K=%d, nu=%g, |a|<=%g)" % (self.K, self.nu, self.norm().hi)


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


# -- Fourier-Taylor grids ---------------------------------------------------


class FourierTaylorSeq:
    """Finite table alpha = (m, n) -> FourierSeq, all sharing one nu.

    Conjugate symmetry means a_{(m,n)} equals the conj-reflection of
    a_{(n,m)}; grids with that property parameterize real objects over
    complex-conjugate variables.
    """

    __slots__ = ("entries", "nu")

    def __init__(self, entries: dict, nu: float):
        self.nu = _check_nu(nu)
        clean = {}
        for (m, n), seq in sorted(entries.items()):
            m, n = int(m), int(n)
            if m < 0 or n < 0:
                raise ValueError("Taylor orders must be nonnegative")
            if seq.nu != self.nu:
                raise WeightMismatch("layer nu differs from grid nu")
            clean[(m, n)] = seq
        self.entries = clean

    @classmethod
    def zeros(cls, nu: float) -> "FourierTaylorSeq":
        return cls({}, nu)

    def layer(self, m: int, n: int) -> FourierSeq:
        seq = self.entries.get((m, n))
        if seq is None:
            return FourierSeq.zeros(1, self.nu)
        return seq

    def order(self) -> int:
        return max((m + n for (m, n) in self.entries), default=0)

    def with_layer(self, m: int, n: int, seq: FourierSeq) -> "FourierTaylorSeq":
        d = dict(self.entries)
        d[(m, n)] = seq
        return FourierTaylorSeq(d, self.nu)

    def add(self, o: "FourierTaylorSeq") -> "FourierTaylorSeq":
        if self.nu != o.nu:
            raise WeightMismatch
        d = dict(self.entries)
        for key, seq in o.entries.items():
            d[key] = seq if key not in d else d[key].add(seq)
        return FourierTaylorSeq(d, self.nu)

    def sub(self, o: "FourierTaylorSeq") -> "FourierTaylorSeq":
        return self.add(o.neg())

    def neg(self) -> "FourierTaylorSeq":
        return FourierTaylorSeq({k: s.neg() for k, s in self.entries.items()}, self.nu)

    def scale(self, z) -> "FourierTaylorSeq":
        return FourierTaylorSeq({k: s.scale(z) for k, s in self.entries.items()}, self.nu)

    def truncate(self, cap: int) -> "FourierTaylorSeq":
        return FourierTaylorSeq(
            {k: s for k, s in self.entries.items() if k[0] + k[1] <= cap}, self.nu
        )

    def norm(self) -> Interval:
        his = []
        los = []
        for seq in self.entries.values():
            nm = seq.norm()
            his.append(nm.hi)
            los.append(nm.lo)
        if not his:
            return Interval.point(0.0)
        hi = up_sum(np.array(his))
        lo = max(down_sum(np.array(los)), 0.0)
        return Interval(min(lo, hi), hi)

    def norm_upper(self) -> float:
        return self.norm().hi

    def to_json_obj(self):
        return {
            "nu": float(self.nu).hex(),
            "layers": [
                [m, n, seq.to_json_obj()] for (m, n), seq in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "FourierTaylorSeq":
        nu = float.fromhex(obj["nu"])
        entries = {
            (int(m), int(n)): FourierSeq.from_json_obj(s) for m, n, s in obj["layers"]
        }
        return cls(entries, nu)

    def __repr__(self):
        return "FourierTaylorSeq(order<=%d, layers=%d, nu=%g)" % (
            self.order(), len(self.entries), self.nu,
        )


def ft_conv(b: FourierTaylorSeq, c: FourierTaylorSeq, cap: int | None = None) -> FourierTaylorSeq:
    """Cauchy-convolution product: convolve layers over all alpha splits."""
    if b.nu != c.nu:
        raise WeightMismatch
    out: dict = {}
    for (m1, n1), s1 in b.entries.items():
        for (m2, n2), s2 in c.entries.items():
            key = (m1 + m2, n1 + n2)
            if cap is not None and key[0] + key[1] > cap:
                continue
            p = conv(s1, s2)
            prev = out.get(key)
            out[key] = p if prev is None else prev.add(p)
    return FourierTaylorSeq(out, b.nu)


# -- ball elements -----------------------------------------------------------


class BallElement:
    """center + closed norm-ball of the given radius in the center's space."""

    __slots__ = ("center", "radius")

    def __init__(self, center, radius: float):
        radius = float(radius)
        if not (radius >= 0.0 and np.isfinite(radius)):
            raise ValueError("radius must be finite and >= 0")
        self.center = center
        self.radius = radius

    def norm_upper(self) -> float:
        return add_up(self.center.norm().hi, self.radius)

    def __repr__(self):
        return "BallElement(%r, r=%g)" % (self.center, self.radius)
