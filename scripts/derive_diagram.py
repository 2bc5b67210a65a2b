#!/usr/bin/env python3
"""Derive the central-simple-module arrow diagram of power-sum family
members and write it as DOT or JSON.

Example: start from the two depth-five members with three power sums,

    python3 scripts/derive_diagram.py --member 5,3,3 --member 5,8,3 \
        --format dot -o diagram.dot

Every arrow is recomputed from scratch: the colon chain of each member is
computed, and the arrow of module j goes to the member the paper's formula
names, A_(n-1)(a-1, j-1), when the one module certificate
(csm.cyclic_presentation) holds: module j is presented cyclically by
e_(j-1), and its annihilator is that member, lifted by xn.  The arrows
come from citree.tree (member_csm_arrows); the diagram and its rendering
from citree.draw.

Exit status follows the citree command line's contract: 0 when every
arrow is certified, 1 when some arrow is not, 2 for bad input or a file
that cannot be written (one "error: ..." line on stderr), 3 when the
derivation raised (one "internal error: ..." line).
"""

import argparse
import errno
import os
import sys
from pathlib import Path

# run from a plain checkout: this checkout's src/ comes first, as in perfbench
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# the command line's one exception rule maps a raise to exit 2 or 3
from citree.cli import guarded  # noqa: E402
from citree.polyring import InvalidInput  # noqa: E402
from citree.draw import csm_diagram, export_dot, export_json  # noqa: E402
from citree.tree import family_member  # noqa: E402


def _member(text: str):
    """argparse type for --member: three integers N,A,M; the member is
    built (and certified) only after the output path is checked."""
    try:
        n, a, m = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected three integers N,A,M, got {text!r}") from None
    return n, a, m


def _check_writable(path: str):
    """Raise the OSError that writing path would raise when its directory is
    missing or not writable, or path is a directory; creates nothing, so a
    refused output costs no derivation and leaves no file behind."""
    target = Path(path)
    directory = target.absolute().parent
    if target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not directory.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(directory))
    if not os.access(directory, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(directory))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--member", action="append", required=True, type=_member,
                        metavar="N,A,M", help="family member, e.g. 4,7,3")
    parser.add_argument("--format", choices=["dot", "json"], default="dot")
    parser.add_argument("-o", "--output", help="file path; stdout otherwise")
    args = parser.parse_args(argv)

    def derive():
        if args.output:
            _check_writable(args.output)
        # a triple outside the family is bad input; any other raise is a bug
        try:
            members = [family_member(*triple) for triple in args.member]
        except InvalidInput as exc:
            parser.error(f"argument --member: {exc}")
        graph = csm_diagram(members)
        text = export_dot(graph) if args.format == "dot" else export_json(graph)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        if not graph["passed"]:
            print("warning: some arrows were not certified", file=sys.stderr)
            return 1
        return 0

    return guarded(derive)


if __name__ == "__main__":
    sys.exit(main())
