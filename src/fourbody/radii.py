"""A-posteriori certification engines.

Two classical contraction arguments reduced to verified polynomial sign
checks.  The Newton-like form takes bounds Y (residual), Z0 (defect of the
approximate inverse), Z1 (neglected-tail derivative), and Z2(r) (Lipschitz
bound on the derivative over an r-ball) and asks for a radius r0 with

    P(r0) = Z2(r0) r0^2 + (Z0 + Z1 - 1) r0 + Y < 0,

which yields a unique true zero within r0 of the numerical one and the
invertibility of the derivative there (hence transversality downstream).
The fixed-point form asks for Z(r0) - r0 + Y < 0 below a domain cap r_star.

All evaluations are interval-arithmetic; a radius is accepted only when the
upper end of the enclosure of P(r0) is strictly negative.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .interval import Interval

__all__ = [
    "NoNegativeRadius",
    "NKBounds",
    "Certificate",
    "poly_eval_iv",
    "verify_negative",
    "radii_newton",
    "content_digest",
]

GRID_POINTS = 64
GRID_FLOOR = 1e-15


class NoNegativeRadius(RuntimeError):
    """No candidate radius produced a verified negative polynomial value."""

    def __init__(self, message: str, poly=None):
        super().__init__(message)
        self.poly = tuple(poly) if poly is not None else None


def _as_iv_coeff(c) -> Interval:
    if isinstance(c, Interval):
        return c
    return Interval.point(float(c))


@dataclass(frozen=True)
class NKBounds:
    """Bound tuple for the Newton-like contraction argument.

    Z2 is a polynomial in the radius, given by its coefficients in
    ascending powers; a plain constant bound is the 1-tuple (Z2,).
    """

    Y: Interval
    Z0: Interval
    Z1: Interval
    Z2: tuple
    r_star: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "Y", _as_iv_coeff(self.Y))
        object.__setattr__(self, "Z0", _as_iv_coeff(self.Z0))
        object.__setattr__(self, "Z1", _as_iv_coeff(self.Z1))
        object.__setattr__(
            self, "Z2", tuple(_as_iv_coeff(c) for c in self.Z2)
        )
        for name in ("Y", "Z0", "Z1"):
            if getattr(self, name).hi < 0.0:
                raise ValueError("%s bound must be nonnegative" % name)
        for c in self.Z2:
            if c.hi < 0.0:
                raise ValueError("Z2 coefficients must be nonnegative")
        if self.r_star is not None and not self.r_star > 0.0:
            raise ValueError("r_star must be positive")

    def polynomial(self) -> tuple:
        """Coefficients of P(r), ascending powers of r."""
        linear = self.Z0 + self.Z1 - 1.0
        return (self.Y, linear) + tuple(self.Z2)


@dataclass(frozen=True)
class Certificate:
    """Verified negative-radius record.

    poly keeps the interval coefficients of P so the defining inequality
    can be re-verified from the certificate alone.
    """

    stage: str
    kind: str
    r0: float
    poly: tuple
    r_star: float | None = None
    r_max: float | None = None
    derivative_invertible: bool = False
    inputs_digest: str = ""

    def recheck(self) -> bool:
        if self.r_star is not None and not self.r0 < self.r_star:
            return False
        return verify_negative(self.poly, self.r0)

    def to_json_obj(self):
        return {
            "stage": self.stage,
            "kind": self.kind,
            "r0": self.r0.hex(),
            "poly": [c.hex_pair() for c in self.poly],
            "r_star": None if self.r_star is None else self.r_star.hex(),
            "r_max": None if self.r_max is None else self.r_max.hex(),
            "derivative_invertible": self.derivative_invertible,
            "inputs_digest": self.inputs_digest,
        }

    @classmethod
    def from_json_obj(cls, obj) -> "Certificate":
        return cls(
            stage=obj["stage"],
            kind=obj["kind"],
            r0=float.fromhex(obj["r0"]),
            poly=tuple(Interval.from_hex_pair(p) for p in obj["poly"]),
            r_star=None if obj["r_star"] is None else float.fromhex(obj["r_star"]),
            r_max=None if obj["r_max"] is None else float.fromhex(obj["r_max"]),
            derivative_invertible=bool(obj["derivative_invertible"]),
            inputs_digest=obj["inputs_digest"],
        )


def poly_eval_iv(coeffs, r) -> Interval:
    """Horner evaluation with interval coefficients at an interval point."""
    r = r if isinstance(r, Interval) else Interval.point(float(r))
    acc = Interval.point(0.0)
    for c in reversed(tuple(coeffs)):
        acc = acc * r + _as_iv_coeff(c)
    return acc


def verify_negative(coeffs, r0) -> bool:
    """True only when the enclosure of P(r0) lies strictly below zero."""
    return poly_eval_iv(coeffs, r0).hi < 0.0


def _candidate_grid(upper: float):
    return np.geomspace(GRID_FLOOR, upper, GRID_POINTS)


def _scan(poly, upper: float, cap: float | None, stage: str, kind: str,
          digest: str, invertible: bool) -> Certificate:
    grid = _candidate_grid(upper)
    accepted = [
        float(r)
        for r in grid
        if (cap is None or r < cap) and verify_negative(poly, float(r))
    ]
    if not accepted:
        raise NoNegativeRadius(
            "no verified radius for stage %r" % stage, poly=poly
        )
    return Certificate(
        stage=stage,
        kind=kind,
        r0=accepted[0],
        poly=tuple(poly),
        r_star=cap,
        r_max=accepted[-1],
        derivative_invertible=invertible,
        inputs_digest=digest,
    )


def radii_newton(b: NKBounds, stage: str = "", inputs_digest: str = "") -> Certificate:
    """Smallest verified radius for the Newton-like polynomial.

    Success implies a unique zero in the r0-ball around the numerical
    solution and invertibility of the derivative there; the certificate
    records that consequence.
    """
    poly = b.polynomial()
    upper = b.r_star if b.r_star is not None else 1.0
    return _scan(
        poly, upper, b.r_star, stage, "newton", inputs_digest, invertible=True
    )


def content_digest(obj) -> str:
    """Stable content hash of a JSON-serializable object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
