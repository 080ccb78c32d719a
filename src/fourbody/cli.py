"""The `fourbody` command.

    fourbody recheck TABLE.json

reads a jet table saved as the JSON of `JetTable.to_json_obj`, re-verifies
the radii polynomial of every certificate (`Certificate.recheck`) and
checks that the digest the table chains for each stage is the digest of
that stage's certificate.  It prints one line per stage and exits with 1
when any stage fails, 2 when the file cannot be read as a table.
"""

from __future__ import annotations

import argparse
import json
import sys

from .radii import content_digest
from .stages import JetTable

__all__ = ["main", "recheck"]


def recheck(path: str) -> int:
    """Recheck every stage of the table at path; the exit status."""
    try:
        with open(path, encoding="utf-8") as fh:
            table = JetTable.from_json_obj(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print("fourbody recheck: cannot read %s: %s" % (path, exc), file=sys.stderr)
        return 2
    misses = 0
    for stage in sorted(set(table.certs) | set(table.digests)):
        cert = table.certs.get(stage)
        if cert is None:
            print("FAIL %s  no certificate" % stage)
            misses += 1
            continue
        failed = [name for name, ok in (
            ("recheck", cert.recheck()),
            ("digest", table.digests.get(stage) == content_digest(cert.to_json_obj())),
        ) if not ok]
        misses += bool(failed)
        print("%s %s  r0=%.3e%s" % ("FAIL" if failed else "ok  ", stage, cert.r0,
                                    "  " + " ".join(failed) if failed else ""))
    return 1 if misses else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fourbody")
    commands = parser.add_subparsers(dest="command", required=True)
    cmd = commands.add_parser("recheck", help="re-verify the certificates of a saved jet table")
    cmd.add_argument("table", help="JSON file of JetTable.to_json_obj")
    args = parser.parse_args(argv)
    return recheck(args.table)


if __name__ == "__main__":
    sys.exit(main())
