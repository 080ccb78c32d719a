"""The `fourbody` command, also run as `python -m fourbody`.

    fourbody recheck TABLE.json

reads a jet table saved as the JSON of `JetTable.to_json_obj`, re-verifies
the radii polynomial of every certificate (`Certificate.recheck`) and
checks that the digest the table chains for each stage is the digest of
that stage's certificate.  It prints one line per stage.  Each radius
and certificate must have the other (order0 with (0,0), order1 with (1,0)
and (0,1), jet:m,n:kind with (m,n) and its mirror (n,m)), and a radius must
be at least its certificate's r0 times gamma_scale^|alpha|; a radius that
is missing, uncertified or too small gets a FAIL line of its own.  The
table does not record which jets were certified before a rescale, so this
is a necessary condition only.

The centers of order 1 and of each jet (m,n) must have the certificate's
`table.inputs_digest`, and the mirror (n,m) must be their conjugate
reflection with the same radius ("centers" or "mirror" on the stage's line
if not).  Centers that are not points fail, except in a rescaled table,
which scaled them after certification (a note line).  Order 0 is not tied
to its centers: that needs cfg, which the table does not hold.  The command
exits with 1 when any check fails, 2 when the file cannot be read as a table.

The `table` module owns the stage names and the mirror rule.  A stage
whose name is not one that the table's writer gives a stage of its kind
names no centers, and fails "centers".
"""

from __future__ import annotations

import argparse
import json
import sys

from .interval import Interval, mul_down
from .radii import content_digest
from .table import JetTable, inputs_digest, mirror, stage_alpha, stage_key

__all__ = ["main", "recheck"]


def recheck(path: str) -> int:
    """Recheck every stage of the table at path; the exit status."""
    try:
        with open(path, encoding="utf-8") as fh:
            table = JetTable.from_json_obj(json.load(fh))
    except (OSError, ValueError, LookupError, TypeError, ArithmeticError) as exc:
        print("fourbody recheck: cannot read %s: %s" % (path, exc), file=sys.stderr)
        return 2
    misses = 0
    for stage in sorted(set(table.certs) | set(table.digests)):
        cert = table.certs.get(stage)
        if cert is None:
            print("FAIL %s  no certificate" % stage)
            misses += 1
            continue
        checks = [("recheck", cert.recheck()),
                  ("digest", table.digests.get(stage) == content_digest(cert.to_json_obj())),
                  *_center_checks(table, stage, cert)]
        if ("centers", None) in checks:
            print("note %s  centers scaled after certification, not checked" % stage)
        failed = [name for name, ok in checks if ok is not None and not ok]
        misses += bool(failed)
        print("%s %s  r0=%.3e%s" % ("FAIL" if failed else "ok  ", stage, cert.r0,
                                    "  " + " ".join(failed) if failed else ""))
    for line in _radius_misses(table):
        print(line)
        misses += 1
    return 1 if misses else 0


def _center_checks(table, stage: str, cert) -> list:
    """("centers", ok) and ("mirror", ok) of an order-1 or jet stage (m,n):
    its centers are the ones certified (ok is None if a rescale scaled them
    since), and (n,m) is their conjugate reflection with the same radius."""
    try:
        alpha = stage_alpha(stage, table.kind)
    except ValueError:
        return [("centers", False)]
    if alpha == (0, 0):
        return []
    centers = table.orders.get(alpha, ())
    ok = None if centers and table.gamma_scale != 1.0 else False
    if centers and all(s.is_point() for s in centers):
        bundle = (table.lambda_bar, table.k0, table.xi0) if sum(alpha) == 1 else ()
        ok = inputs_digest(alpha, table.kind, table.prev_digest(alpha), centers,
                           bundle) == cert.inputs_digest
    return [("centers", ok), ("mirror", table.mirrored(alpha))]


def _radius_misses(table) -> list:
    """A FAIL line for each radius that a certificate lacks, and for each
    that names no certificate or lies below that certificate's
    r0 * gamma_scale^|alpha|, rounded down."""
    lines = []
    for stage in sorted(table.certs):
        try:
            alpha = stage_alpha(stage, table.kind)
        except ValueError:
            continue  # the stage's own line fails it
        lines += ["FAIL radius %d,%d  missing for %s" % (*beta, stage)
                  for beta in sorted({alpha, mirror(alpha)}) if beta not in table.radii]
    for alpha, r in sorted(table.radii.items()):
        p = sum(alpha)
        stage = stage_key(alpha, table.kind)
        cert = table.certs.get(stage)
        if cert is None:
            lines.append("FAIL radius %d,%d  no certificate %s" % (*alpha, stage))
            continue
        floor = mul_down(cert.r0, Interval.point(table.gamma_scale).pow_int(p).lo)
        if not r >= floor:
            lines.append("FAIL radius %d,%d  r=%.3e below %s r0*gamma^%d=%.3e"
                         % (*alpha, r, stage, p, floor))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fourbody")
    commands = parser.add_subparsers(dest="command", required=True)
    cmd = commands.add_parser("recheck", help="re-verify the certificates of a saved jet table")
    cmd.add_argument("table", help="JSON file of JetTable.to_json_obj")
    args = parser.parse_args(argv)
    return recheck(args.table)


if __name__ == "__main__":
    sys.exit(main())
