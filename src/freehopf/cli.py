"""Command-line frontend.

Subcommands operate on one algebra configuration given by the flags
--n, --variant (free | bij | ord:<d>), and --field (q | f<p>), which are
written after the subcommand name:

    freehopf mul "x[1,2;0]" "x[2,2;1]" --n 2 --variant free --field q
    freehopf dr --r 0,1 --variant ord:1 --field f2 --expect true
    freehopf suite examples --json

Exit codes: 1 for a failed axioms, confluence, or suite run, or for an
--expect mismatch; 2 for usage or input errors; 0 otherwise.  Verdict
commands (dr, subcoalgebra, scan, primitives, grouplikes, comap) exit 0
whatever their answer; pass --expect to gate on it.
"""

import argparse
import json
import os
import re
import sys

from .analysis import (
    Subspace,
    alternating_span,
    find_grouplikes,
    find_primitives,
    is_subcoalgebra,
    scan_matrix_subcoalgebras,
    verify_coalgebra_map,
)
from .fields import Field
from .hopf import FreeHopfAlgebra
from .parsing import (
    ParseError,
    element_to_obj,
    images_from_obj,
    parse_element,
    span_from_obj,
    tensor_to_obj,
)
from .rewrite import check_confluence
from .suites import SUITE_NAMES, run_suite


def _common_flags(sub):
    sub.add_argument("--n", type=int, default=2, help="matrix size (default 2)")
    sub.add_argument("--variant", default="free",
                     help="free | bij | ord:<d> (default free)")
    sub.add_argument("--field", default="q", help="q | f<p> (default q)")
    sub.add_argument("--maxlen", type=int, default=2,
                     help="maximum word length for basis-wide operations")
    sub.add_argument("--levels", default=None, metavar="A..B",
                     help="inclusive level window for the free/bij variants")
    sub.add_argument("--expect", default=None,
                     help="expected primary result; exit 1 on mismatch")
    sub.add_argument("--json", action="store_true", dest="as_json",
                     help="emit the JSON report instead of text")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="freehopf",
        description="Exact computations in free Hopf algebras on matrix coalgebras.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("mul", help="product of two elements")
    p.add_argument("left")
    p.add_argument("right")
    _common_flags(p)

    p = subs.add_parser("delta", help="coproduct of an element")
    p.add_argument("element")
    _common_flags(p)

    p = subs.add_parser("counit", help="counit of an element")
    p.add_argument("element")
    _common_flags(p)

    p = subs.add_parser("antipode", help="antipode power of an element")
    p.add_argument("element")
    p.add_argument("--power", type=int, default=1)
    _common_flags(p)

    p = subs.add_parser("axioms", help="verify the Hopf axioms on a basis window")
    _common_flags(p)

    p = subs.add_parser("confluence", help="resolve all rewriting ambiguities")
    _common_flags(p)

    p = subs.add_parser("subcoalgebra", help="is the span of a JSON file a subcoalgebra")
    p.add_argument("--span", required=True, metavar="FILE")
    _common_flags(p)

    p = subs.add_parser("dr", help="is the alternating-word span a subcoalgebra")
    p.add_argument("--r", required=True, metavar="R1,R2,...")
    _common_flags(p)

    p = subs.add_parser("scan", help="search a level span for matrix subcoalgebras")
    p.add_argument("--r", required=True, metavar="R1,R2,...")
    p.add_argument("--mode", choices=("candidate", "exhaustive"), default="candidate")
    _common_flags(p)

    p = subs.add_parser("primitives", help="basis of the primitive space")
    _common_flags(p)

    p = subs.add_parser("grouplikes", help="grouplike elements inside a span")
    p.add_argument("--span", required=True, metavar="FILE")
    _common_flags(p)

    p = subs.add_parser("comap", help="verify a matrix-coalgebra map family")
    p.add_argument("--images", required=True, metavar="FILE")
    _common_flags(p)

    p = subs.add_parser("suite", help="run a named verification suite")
    p.add_argument("name", choices=SUITE_NAMES)
    _common_flags(p)

    return parser


# A value that starts with a sign, such as the element "-x[1,1;0]", the
# level window "-1..1" or the level sequence "-1,0", looks to argparse like
# an unknown option.  The CLI has no single-dash option but -h, so each such
# token is passed with a leading space, which argparse reads as a value,
# and the space is taken off again after parsing.  Flags keep their names
# and abbreviations ("--lev -1..1").
_SIGNED_VALUE = re.compile(r"-\s*[\dx]")


def _parse_args(parser, argv):
    shielded = [" " + tok if _SIGNED_VALUE.match(tok) else tok for tok in argv]
    args = parser.parse_args(shielded)
    added = set(shielded) - set(argv)
    for name, value in vars(args).items():
        if value in added:
            setattr(args, name, value[1:])
    return args


def _algebra(args):
    return FreeHopfAlgebra(args.n, args.variant, Field.from_token(args.field))


def _levels(args, default):
    if args.levels is None:
        return default
    text = args.levels
    if ".." not in text:
        raise ValueError("--levels expects the form A..B, got %r" % text)
    lo, hi = text.split("..", 1)
    return (int(lo), int(hi))


def _rvec(args):
    return tuple(int(t) for t in args.r.split(","))


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON document in %s is nested too deeply" % path) from None


def _verdict_payload(H, verdict, extra=None):
    out = {"config": H.describe()}
    out.update(verdict.describe())
    if extra:
        out.update(extra)
    return out


def _run(args):
    """Returns (primary string, payload dict, text lines, exit code sans --expect)."""
    cmd = args.command
    _levels(args, None)  # malformed --levels is an input error for any command
    if cmd == "suite":
        overrides = {
            "n": args.n, "variant": args.variant, "field": args.field,
            "maxlen": args.maxlen,
            "levels": _levels(args, None),
        }
        report = run_suite(args.name, **overrides)
        lines = ["name\texpected\tactual\tpass"]
        for case in report["cases"]:
            lines.append("%s\t%s\t%s\t%s" % (
                case["name"], case["expected"], case["actual"],
                "pass" if case["pass"] else "FAIL",
            ))
        lines.append("suite %s: %s" % (report["suite"],
                                       "PASS" if report["pass"] else "FAIL"))
        primary = "pass" if report["pass"] else "fail"
        return primary, report, lines, 0 if report["pass"] else 1

    H = _algebra(args)

    if cmd == "mul":
        r = parse_element(args.left, H) * parse_element(args.right, H)
        return str(r), element_to_obj(r), [str(r)], 0
    if cmd == "delta":
        t = parse_element(args.element, H).coproduct()
        return str(t), tensor_to_obj(t), [str(t)], 0
    if cmd == "counit":
        c = parse_element(args.element, H).counit()
        payload = {"config": H.describe(), "value": str(c)}
        return str(c), payload, [str(c)], 0
    if cmd == "antipode":
        r = parse_element(args.element, H).antipode(power=args.power)
        payload = element_to_obj(r)
        payload["power"] = args.power
        return str(r), payload, [str(r)], 0
    if cmd == "axioms":
        report = H.verify_axioms(args.maxlen, _levels(args, (0, 2)))
        lines = ["%s\t%d" % (k, v) for k, v in report["failures"].items()]
        lines.append("axioms: %s" % ("OK" if report["ok"] else "FAIL"))
        primary = "true" if report["ok"] else "false"
        return primary, report, lines, 0 if report["ok"] else 1
    if cmd == "confluence":
        report = check_confluence(H.n, H.domain, _levels(args, (0, 6)))
        payload = report.describe()
        lines = [
            "ambiguities\t%d" % report.total,
            "unresolved\t%d" % len(report.unresolved),
            "confluence: %s" % ("OK" if report.ok else "FAIL"),
        ]
        primary = "true" if report.ok else "false"
        return primary, payload, lines, 0 if report.ok else 1
    if cmd == "subcoalgebra":
        els = span_from_obj(H, _load_json(args.span))
        V = Subspace(H, els)
        v = is_subcoalgebra(V)
        payload = _verdict_payload(H, v, {"dim": V.dim})
        primary = "true" if v.ok else "false"
        return primary, payload, [primary], 0
    if cmd == "dr":
        seq = _rvec(args)
        v = is_subcoalgebra(alternating_span(H, seq))
        payload = _verdict_payload(H, v, {"r": list(seq)})
        primary = "true" if v.ok else "false"
        return primary, payload, [primary], 0
    if cmd == "scan":
        report = scan_matrix_subcoalgebras(H, _rvec(args), mode=args.mode)
        payload = report.describe()
        primary = "true" if report.contains_alternating else "false"
        lines = [
            "ambient_dim\t%d" % report.ambient_dim,
            "subspaces\t%s" % report.subspace_count,
        ]
        if report.core_dim is not None:
            lines.append("core_dim\t%d" % report.core_dim)
        lines += [
            "found\t%d" % len(report.found),
            "contains_alternating\t%s" % primary,
        ]
        return primary, payload, lines, 0
    if cmd == "primitives":
        els = find_primitives(H, args.maxlen, _levels(args, (0, 2)))
        payload = {
            "config": H.describe(),
            "count": len(els),
            "elements": [str(e) for e in els],
        }
        return str(len(els)), payload, [str(len(els))] + [str(e) for e in els], 0
    if cmd == "grouplikes":
        els = span_from_obj(H, _load_json(args.span))
        found = find_grouplikes(Subspace(H, els))
        payload = {
            "config": H.describe(),
            "count": len(found),
            "elements": [str(e) for e in found],
        }
        return str(len(found)), payload, [str(len(found))] + [str(e) for e in found], 0
    if cmd == "comap":
        images = images_from_obj(H, _load_json(args.images))
        ok = verify_coalgebra_map(H, images)
        primary = "true" if ok else "false"
        payload = {"config": H.describe(), "ok": ok}
        return primary, payload, [primary], 0
    raise ValueError("unknown command %r" % cmd)


def _print_lines(lines):
    """Print to stdout.  If the reader has gone (as with `| head`), the rest
    of the output, and the flush at exit, go to devnull."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(parser, argv)
    try:
        primary, payload, lines, code = _run(args)
    except (ParseError, ValueError, OverflowError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.as_json:
        lines = [json.dumps(payload, indent=2, sort_keys=True, default=str)]
    _print_lines(lines)
    if args.expect is not None:
        return 0 if primary.lower() == args.expect.strip().lower() else 1
    return code


if __name__ == "__main__":
    sys.exit(main(argv=None))
