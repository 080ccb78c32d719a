"""The jet table of one invariant manifold: the (m, n) it holds, the names
of its stages, its digests and its JSON.

A table of order N_t holds centres and a radius for each alpha = (m, n) with
m + n <= N_t.  A stage certifies alpha when m >= n (`solved`); the mirror
(n, m) holds the conjugate reflection of its centres, (R h)_k = conj(h_-k),
with the same radius, because the orbit is real (`JetTable.write` writes
both, `JetTable.mirrored` checks them).  A stage's name has three forms,
each hashed into a digest, each built by one function and read back by
`stage_alpha`: its key in `certs` and `digests` (`stage_key`), its
certificate's tag (`cert_tag`) and the stage field of its inputs digest
(`digest_stage`).  Each inputs digest chains the certificate digest of the
stage below: order 0's for order 1, order 1's for a jet (`prev_digest`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

import numpy as np

from .interval import ComplexInterval, Interval
from .ivarray import _up
from .radii import Certificate, content_digest
from .seqspace import FourierSeq
from . import model

__all__ = ["JetTable", "solved", "mirror", "source", "digest_stage", "stage_key", "cert_tag",
           "stage_alpha", "inputs_digest", "order0_digest", "rescale_jets"]


def mirror(alpha) -> tuple:
    """(n, m) for alpha = (m, n): its centres are the conjugate reflection of
    alpha's, with the same radius."""
    return (alpha[1], alpha[0])


def source(alpha) -> tuple:
    """The solved alpha whose stage certifies alpha: alpha when m >= n,
    otherwise its mirror."""
    return tuple(alpha) if alpha[0] >= alpha[1] else mirror(alpha)


def solved(p: int) -> list:
    """The alpha of order p that a stage certifies, m falling."""
    return sorted({source((m, p - m)) for m in range(p + 1)}, reverse=True)


def digest_stage(alpha, kind: str = "") -> str:
    """The stage field of alpha's inputs digest: order0, order1 or jet:m,n; kind is unread."""
    m, n = source(alpha)
    return "order%d" % m if m + n < 2 else "jet:%d,%d" % (m, n)


def stage_key(alpha, kind: str) -> str:
    """The key in `certs` and `digests` of alpha's stage: order0, order1 or jet:m,n:kind."""
    name = digest_stage(alpha)
    return name if sum(alpha) < 2 else name + ":" + kind


def cert_tag(alpha, kind: str) -> str:
    """The tag of alpha's certificate: order1:kind for order 1, otherwise its key."""
    return digest_stage(alpha) + ":" + kind if sum(alpha) == 1 else stage_key(alpha, kind)


def stage_alpha(name: str, kind: str, form=stage_key) -> tuple:
    """The solved alpha whose name in form (`stage_key`, `cert_tag` or
    `digest_stage`) and kind is name; ValueError if form builds no such name."""
    found = re.match(r"\D*(\d+)(?:,(\d+))?", name)
    if found:
        alpha = (int(found[1]), int(found[2] or 0))
        if source(alpha) == alpha and form(alpha, kind) == name:
            return alpha
    raise ValueError("no stage of a %s table is named %r" % (kind, name))


def inputs_digest(alpha, kind: str, prev: str, centers, bundle=()) -> str:
    """The inputs_digest of the certificate of order 1 (alpha = (1, 0)) or of
    jet alpha: its kind, the digest of the stage below it and its centers;
    for order 1, bundle is (lambda, k0, xi0)."""
    obj = {"stage": digest_stage(alpha), "kind": kind, "prev": prev,
           "coeffs": [s.to_json_obj() for s in centers]}
    if bundle:
        lam, k0, xi0 = bundle
        obj.update({"k0": k0, "xi0": float(xi0).hex(),
                    "lambda": [float(lam.real).hex(), float(lam.imag).hex()]})
    return content_digest(obj)


def order0_digest(sol, cfg) -> str:
    """The inputs_digest of order 0's certificate: the orbit sol (a
    `stages.OrbitSolution`) and the masses and positions of cfg."""
    return content_digest({
        "stage": digest_stage((0, 0)),
        "omega": float(sol.omega).hex(),
        "K": sol.K,
        "nu": float(sol.nu).hex(),
        "anchor": [[float(t).hex() for t in sol.anchor.u0],
                   [float(t).hex() for t in sol.anchor.u1]],
        "cfg": {"masses": [m.hex_pair() for m in cfg.masses],
                "positions": [[c.hex_pair() for c in cfg.position(j)] for j in range(3)]},
        "y": [[float(t.real).hex(), float(t.imag).hex()] for t in sol.y],
        "coeffs": [s.to_json_obj() for s in sol.seqs()],
    })


@dataclass
class JetTable:
    """Certified Fourier-Taylor data for one invariant manifold."""

    kind: str
    omega: float
    K: int
    nu: float
    N_t: int
    k0: int
    xi0: float
    anchor: model.PhaseAnchor
    y_bar: tuple
    lambda_bar: float
    lambda1: ComplexInterval | None = None
    gamma_scale: float = 1.0
    orders: dict = field(default_factory=dict)
    radii: dict = field(default_factory=dict)
    certs: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    ctx_cache: object = field(default=None, repr=False, compare=False)

    def re_lambda_mig(self) -> float:
        """Lower bound of |Re lambda| over the certified enclosure."""
        return self.lambda1.re.mig()

    def E_total(self) -> Interval:
        acc = Interval.point(0.0)
        for r in sorted(self.radii.values()):
            acc = acc + Interval.point(float(r))
        return acc

    def complete(self) -> bool:
        want = {beta for p in range(self.N_t + 1) for alpha in solved(p)
                for beta in (alpha, mirror(alpha))}
        return want <= set(self.orders) and want <= set(self.radii)

    def write(self, alpha, centers, r: float, cert: Certificate):
        """File the result of alpha's stage: its centers, radius r and
        certificate, with the certificate's digest, under its key; the mirror
        of alpha gets the conjugate reflection of the centers and the same r."""
        key = stage_key(alpha, self.kind)
        self.orders[alpha], self.radii[alpha] = tuple(centers), r
        self.certs[key] = cert
        self.digests[key] = content_digest(cert.to_json_obj())
        if mirror(alpha) != alpha:
            self.orders[mirror(alpha)] = tuple(s.conj_reflect() for s in centers)
            self.radii[mirror(alpha)] = r

    def mirrored(self, alpha) -> bool:
        """Whether the mirror of alpha holds the conjugate reflection of
        alpha's centers, with the same radius.  The centers compare as
        numbers: the reflection of a mode 0 with imaginary part 0.0 has -0.0,
        which a rescale of the mirror makes 0.0."""
        if mirror(alpha) == alpha:
            return True
        a = [s.conj_reflect() for s in self.orders.get(alpha, ())]
        b = self.orders.get(mirror(alpha), ())
        return self.radii.get(alpha) == self.radii.get(mirror(alpha)) and len(a) == len(b) and all(
            x.nu == y.nu and np.array_equal([x.c.rl, x.c.rh, x.c.il, x.c.ih],
                                            [y.c.rl, y.c.rh, y.c.il, y.c.ih])
            for x, y in zip(a, b))

    def prev_digest(self, alpha) -> str:
        """The certificate digest that the inputs digest of alpha's stage
        chains: order 0's for order 1, order 1's for a jet; "" if absent."""
        return self.digests.get(stage_key((0, 0) if sum(alpha) == 1 else (1, 0),
                                          self.kind), "")

    def to_json_obj(self):
        return {
            "kind": self.kind,
            "omega": float(self.omega).hex(),
            "K": self.K,
            "nu": float(self.nu).hex(),
            "N_t": self.N_t,
            "k0": self.k0,
            "xi0": float(self.xi0).hex(),
            "anchor": [[float(t).hex() for t in self.anchor.u0],
                       [float(t).hex() for t in self.anchor.u1]],
            "y_bar": [[float(t.real).hex(), float(t.imag).hex()] for t in self.y_bar],
            "lambda_bar": [float(self.lambda_bar).hex(), (0.0).hex()],
            "lambda1": None if self.lambda1 is None else list(self.lambda1.hex_quad()),
            "gamma_scale": float(self.gamma_scale).hex(),
            "orders": {"%d,%d" % a: [s.to_json_obj() for s in seqs]
                       for a, seqs in sorted(self.orders.items())},
            "radii": {"%d,%d" % a: float(r).hex()
                      for a, r in sorted(self.radii.items())},
            "certs": {k: v.to_json_obj() for k, v in sorted(self.certs.items())},
            "digests": dict(sorted(self.digests.items())),
        }

    @classmethod
    def from_json_obj(cls, obj) -> "JetTable":
        def key(sk):
            m, n = sk.split(",")
            return (int(m), int(n))
        lam1 = obj["lambda1"]
        lam_re, lam_im = (float.fromhex(t) for t in obj["lambda_bar"])
        if lam_im != 0.0:
            raise ValueError("lambda_bar %r is not real" % obj["lambda_bar"])
        return cls(
            kind=obj["kind"],
            omega=float.fromhex(obj["omega"]),
            K=int(obj["K"]),
            nu=float.fromhex(obj["nu"]),
            N_t=int(obj["N_t"]),
            k0=int(obj["k0"]),
            xi0=float.fromhex(obj["xi0"]),
            anchor=model.PhaseAnchor(
                tuple(float.fromhex(t) for t in obj["anchor"][0]),
                tuple(float.fromhex(t) for t in obj["anchor"][1])),
            y_bar=tuple(complex(float.fromhex(a), float.fromhex(b))
                        for a, b in obj["y_bar"]),
            lambda_bar=lam_re,
            lambda1=None if lam1 is None else ComplexInterval.from_hex_quad(lam1),
            gamma_scale=float.fromhex(obj["gamma_scale"]),
            orders={key(sk): tuple(FourierSeq.from_json_obj(s) for s in seqs)
                    for sk, seqs in obj["orders"].items()},
            radii={key(sk): float.fromhex(r) for sk, r in obj["radii"].items()},
            certs={k: Certificate.from_json_obj(v) for k, v in obj["certs"].items()},
            digests=dict(obj["digests"]),
        )

    def digest(self) -> str:
        return content_digest(self.to_json_obj())


def rescale_jets(jet: JetTable, gamma: float) -> JetTable:
    """Scale every order-p layer and radius by gamma^p (eigenfunction rescale)."""
    gamma = float(gamma)
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    if gamma == 1.0:
        return replace(jet, orders=dict(jet.orders), radii=dict(jet.radii),
                       certs=dict(jet.certs), digests=dict(jet.digests))
    g = Interval.point(gamma)
    orders, radii = {}, {}
    for alpha, seqs in jet.orders.items():
        p = alpha[0] + alpha[1]
        if p == 0:
            orders[alpha] = seqs
            if alpha in jet.radii:
                radii[alpha] = jet.radii[alpha]
            continue
        gp = g.pow_int(p)
        orders[alpha] = tuple(s.scale(gp) for s in seqs)
        if alpha in jet.radii:
            radii[alpha] = float(_up(jet.radii[alpha] * gp.hi))
    return replace(jet, gamma_scale=jet.gamma_scale * gamma,
                   orders=orders, radii=radii,
                   certs=dict(jet.certs), digests=dict(jet.digests))


def _strip_unvalidated(jet: JetTable) -> JetTable:
    orders = {a: s for a, s in jet.orders.items() if a in jet.radii}
    return replace(jet, orders=orders, radii=dict(jet.radii),
                   certs=dict(jet.certs), digests=dict(jet.digests))
