"""Batch front-end.  Every command prints one JSON document on stdout.

Exit codes: 0 success, 1 a verified claim was empirically falsified,
2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from .classify import (
    FormDescriptor, classify_connected_door, construct_topology, recognize_form)
from .core import (
    CAPS, ClaimFalsified, DomainError, check_cap, mask_from_points, parse_family,
    points_of)
from .search import census, compare_with_golden, enumerate_solutions, enumerate_topologies
from .topology import (
    Topology, lemma1_check, occ_satisfied, space_report, validate_topology)
from .valuations import parse_value
from .verify import VERIFIERS

FORM_NAMES = {
    "excluded-point": "ExcludedPoint",
    "included-point": "IncludedPoint",
    "ultrafilter": "UltrafilterType",
    "form1a": "Form1A",
    "form1b": "Form1B",
    "form2": "Form2",
    "form3": "Form3",
    "t2": "T2Shape",
}


def _point(token: str) -> int:
    """One point of --A, read as `int` reads it."""
    try:
        return int(token)
    except ValueError:
        raise DomainError(f"--A point {token!r} is not an integer") from None


def _descriptor_from_args(args) -> FormDescriptor:
    kind = FORM_NAMES[args.form]
    A = None
    if args.A is not None:
        A = mask_from_points([_point(x) for x in args.A.split(",") if x != ""], args.n)
    elif kind == "T2Shape" and args.p is not None and 0 <= args.p < args.n <= CAPS["ground set"]:
        # A = {p} only for a p in range: the range checks name p itself.
        A = 1 << args.p
    return FormDescriptor(kind, a=args.a, b=args.b, seed=args.seed,
                          A=A, p=args.p, q=args.q)


def _family_arg(args) -> Topology:
    """The topology that --family names on --n points."""
    try:
        subsets = json.loads(args.family)
    except RecursionError:  # the decoder recurses once per nesting level
        raise DomainError("family is nested too deeply") from None
    return validate_topology(parse_family(args.n, subsets))


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="doorlab",
        description="Finite verification engine for connected door topologies "
                    "and set-equation solutions.")
    ap.add_argument("--out", help="write the JSON result to a file")
    sub = ap.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("construct", help="build a named topology form")
    c.add_argument("--form", required=True, choices=sorted(FORM_NAMES))
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--a", type=int)
    c.add_argument("--b", type=int)
    c.add_argument("--p", type=int)
    c.add_argument("--q", type=int)
    c.add_argument("--seed", type=int)
    c.add_argument("--A", help="comma list of points")

    k = sub.add_parser("check", help="validate a family and report its properties")
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--family", required=True,
                   help="JSON array of point lists, e.g. '[[],[0],[0,1]]'")

    cl = sub.add_parser("classify", help="classify a topology against the named forms")
    cl.add_argument("--n", type=int, required=True)
    cl.add_argument("--family", required=True)

    s = sub.add_parser("solve", help="enumerate solutions of a set equation")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--values", required=True, help="comma list, e.g. '-1,0,1'")
    s.add_argument("--equation", choices=("eq1", "eq2"), default="eq1")
    s.add_argument("--mode", choices=("brute", "modular"), default="brute")

    e = sub.add_parser("enumerate", help="enumerate topologies by predicate")
    e.add_argument("--what", required=True,
                   choices=("topologies", "connected-door", "occ-door"))
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--mode", choices=("auto", "raw_scan", "closure_dfs"),
                   default="auto")

    v = sub.add_parser("verify-theorem", help="run one empirical claim check")
    v.add_argument("--id", required=True, choices=sorted(VERIFIERS))

    r = sub.add_parser("report", help="counts report, compared against goldens")
    r.add_argument("--n", type=int, required=True)
    return ap


def run(argv: list[str]) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _run_verb(args)
    except OSError as exc:  # e.g. an unwritable --out path
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_verb(args) -> int:
    try:
        if args.verb == "construct":
            result = construct_topology(_descriptor_from_args(args), args.n)
            _emit(result.to_json(), args.out)

        elif args.verb == "check":
            top = _family_arg(args)
            doc = {"topology": top.to_json(), "report": space_report(top).to_json()}
            occ, witness = occ_satisfied(top)
            doc["occ"] = occ
            if witness is not None:
                doc["occ_witness"] = [points_of(m) for m in witness]
            if doc["report"]["connected_door"]:
                doc["lemma1"] = lemma1_check(top)[0]
            _emit(doc, args.out)

        elif args.verb == "classify":
            top = _family_arg(args)
            doc: dict = {"forms": recognize_form(top).to_json()}
            if space_report(top).connected_door:
                doc["connected_door"] = classify_connected_door(top).to_json()
            _emit(doc, args.out)

        elif args.verb == "solve":
            values = [parse_value(v) for v in args.values.split(",")]
            equation = "eq1_disjoint" if args.equation == "eq1" else "eq2"
            sols = enumerate_solutions(args.n, values, equation, args.mode)
            _emit({"n": args.n, "equation": args.equation, "mode": args.mode,
                   "count": len(sols),
                   "solutions": [f.to_json() for f in sols]}, args.out)

        elif args.verb == "enumerate":
            if args.what == "topologies":
                tops, rep = enumerate_topologies(args.n, args.mode)
                _emit({"report": rep.to_json(),
                       "topologies": [t.to_hex() for t in tops]}, args.out)
            else:
                occ = args.what == "occ-door"
                if occ:
                    check_cap("occ-door enumeration", args.n)
                lists = census(args.n, args.mode)[1]
                tops = lists.get("occ_door" if occ else "connected_door")
                if tops is None:  # the census has no OCC list below four points
                    _emit({"note": "OCC is vacuous below four points", "n": args.n}, args.out)
                else:
                    _emit({"n": args.n, "count": len(tops),
                           "topologies": [t.to_json() for t in tops]}, args.out)

        elif args.verb == "verify-theorem":
            report = VERIFIERS[args.id]()
            _emit(report, args.out)
            if not report["ok"]:
                return 1

        elif args.verb == "report":
            doc = compare_with_golden(args.n)
            _emit(doc, args.out)
            if not doc["match"]:
                return 1

    except ClaimFalsified as exc:
        _emit({"claim_falsified": exc.claim, "witness": exc.witness}, args.out)
        return 1
    # Every doorlab error but ClaimFalsified is a ValueError, as is JSONDecodeError.
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    # A reader that stops early (`doorlab ... | head`) ends the process the
    # way it ends a Unix filter, not through the OSError handler of `run`.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
