"""Exhaustive enumeration at desk scale: all topologies on a labeled ground
set, the door / connected-door / OCC filters over them, and all solutions of
the two set equations, each available through at least two independent
routes (raw scan vs one-point extension, brute scan vs modular
parameters)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

from .classify import classify_connected_door, form_bits
from .core import (
    CAPS, CapabilityError, ClaimFalsified, check_cap, complement_family,
    full_mask, points_of, subsets_word, supersets_word)
from .topology import (
    Topology,
    is_topology_bits,
    occ_satisfied,
    space_report,
)
from .valuations import (
    EC_ZERO,
    ExactComplex,
    SetFunction,
    ec,
    induced_family,
    int_codes,
)


@dataclass(frozen=True)
class EnumerationReport:
    n: int
    mode: str
    total_scanned: int
    counts: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "total_scanned": self.total_scanned,
            "counts": dict(sorted(self.counts.items())),
        }


def _raw_scan(n: int) -> tuple[list[int], int]:
    """Every family word b in range(2^(2^n)) that is a topology, in
    ascending order, checked on all candidates at once (bit-slicing, after
    Biham, FSE 1997): bit b of the lane word of mask s is set when family
    word b holds s.  Word b is itself a subset of the 2^n masks, so the lane
    of s is the word of the supersets of {s} on those 2^n points.

    A candidate is a topology when it holds the empty set and X, and for
    every pair u < v it holds both u | v and u & v whenever it holds u and
    v; these are the axioms `_axiom_witness` checks, pair by pair.  Each is
    one operation on the lane words that decides it for every candidate at
    once, so their conjunction is exactly the set of topologies.  A pair
    with u within v is skipped: its union and meet are v and u themselves."""
    space = 1 << (1 << n)
    has = [supersets_word(1 << n, 1 << s) for s in range(1 << n)]
    ok = has[0] & has[full_mask(n)]
    for u in range(1 << n):
        for v in range(u + 1, 1 << n):
            if u & ~v:
                ok &= ~(has[u] & has[v]) | (has[u | v] & has[u & v])
    # Bit b of ok is character b of its reversed binary string.
    lanes = format(ok, "b")[::-1]
    words = []
    b = lanes.find("1")
    while b >= 0:
        words.append(b)
        b = lanes.find("1", b + 1)
    return words, space


def _closure_dfs(n: int, door_traces: bool = False) -> tuple[list[int], int]:
    """Every topology on n points, grown by the one-point extension from
    the one on a point (Alexandroff, "Diskrete Räume", 1937), and their count.

    A topology W on {0..k} is fixed by its trace T on {0..k-1}, the open set
    u of T of the points whose least open set in W misses k, and the open
    set a = U_k minus k.  W holds the s in T within u and s + {k} for the s
    in T holding a, and a lies in U_b for each b outside u.  Conversely each
    such (T, u, a) gives a topology with trace T (a member of T not within u
    holds some U_b, so holds a) whose u and a read back as chosen: each
    topology comes out exactly once.  The mode keeps its name "closure_dfs",
    which the JSON reports print, as `visited` still counts each topology once.

    With `door_traces`, the last level builds only the children of door
    traces, and counts the others without building them: T & sub[cap] holds
    their a for each u.  A subspace of a door space is door, so the children
    built hold every door topology on n points.
    """
    words, skipped = [3], 0
    for k in range(1, n):
        full, shift, nxt = full_mask(k), 1 << k, []
        every, last = (1 << shift) - 1, door_traces and k == n - 1
        # Per mask m: the subsets of m, and the supersets of m shifted onto
        # the masks holding k, so (t << shift) & sup[a] = (t & supersets) << shift.
        sub = [subsets_word(m) for m in range(shift)]
        sup = [supersets_word(k, m) << shift for m in range(shift)]
        for t in words:
            opens, high = points_of(t), t << shift
            # U_x is the numerically least member holding x; caps[s] is the meet of U_x, x in s.
            mins, covered = [0] * k, 0
            for m in opens:
                for x in points_of(m & ~covered):
                    mins[x] = m
                if (covered := covered | m) == full:
                    break
            caps = [full]
            for x in range(k):
                caps += [c & mins[x] for c in caps]
            build = not last or t | complement_family(k, t) == every
            for u in opens:
                cap = caps[full & ~u]
                if build:
                    low = t & sub[u]
                    nxt += [low | (high & sup[a]) for a in opens if not a & ~cap]
                else:
                    skipped += (t & sub[cap]).bit_count()
        words = nxt
    return words, len(words) + skipped


def _words(n: int, mode: str, door_traces: bool) -> tuple[list[int], EnumerationReport]:
    """The topology words on n points in ascending order, and the report,
    which counts every topology.  With `door_traces` the closure DFS keeps
    only the words that may be door (see `_closure_dfs`)."""
    if mode == "auto":
        mode = "raw_scan" if n <= CAPS["raw_scan"] else "closure_dfs"
    if mode not in ("raw_scan", "closure_dfs"):
        raise CapabilityError(f"unknown enumeration mode {mode!r}")
    check_cap(mode, n)
    words, scanned = _raw_scan(n) if mode == "raw_scan" else _closure_dfs(n, door_traces)
    count = len(words) if mode == "raw_scan" else scanned
    words.sort()
    report = EnumerationReport(
        n=n, mode=mode, total_scanned=scanned, counts={"topologies": count})
    return words, report


def topology_words(n: int, mode: str = "auto") -> tuple[list[int], EnumerationReport]:
    """Every topology on n points as its family word, in ascending order."""
    return _words(n, mode, False)


def enumerate_topologies(n: int, mode: str = "auto") -> tuple[list[Topology], EnumerationReport]:
    words, report = topology_words(n, mode)
    return [Topology(n, b) for b in words], report


def census(n: int, mode: str = "auto") -> tuple[EnumerationReport, dict[str, list[Topology]]]:
    """Classify every topology on n points once: the door, connected-door
    and (n >= 4) door + OCC lists, each in enumeration order.  The paper's
    claims about them are checked on the way: door + OCC implies connected
    door, there are 2n connected door spaces (two on two points), and each
    is an excluded-point or included-point topology.  Only door words, which
    with their complement words hold every subset, reach `space_report`: its
    cross-check fails on no other word, as open xor closed implies door.
    The closure DFS hands that filter only the children of door traces."""
    words, rep = _words(n, mode, True)
    every = (1 << (1 << n)) - 1
    door = [Topology(n, b) for b in words if b | complement_family(n, b) == every]
    lists: dict[str, list[Topology]] = {"door": door, "connected_door": []}
    if n >= 4:
        lists["occ_door"] = []
    for t in door:
        r = space_report(t)
        if n >= 4 and occ_satisfied(t)[0]:
            lists["occ_door"].append(t)
            if not r.connected_door:
                raise ClaimFalsified("door + OCC implies connected door",
                                     {"n": n, "hex": t.to_hex()})
        if r.connected_door:
            lists["connected_door"].append(t)
    if n >= 2:
        out = lists["connected_door"]
        expected = 2 if n == 2 else 2 * n
        if len(out) != expected:
            raise ClaimFalsified("connected-door count",
                                 {"n": n, "count": len(out), "expected": expected})
        for t in out:
            labels = classify_connected_door(t).labels
            if not all(d.kind in ("ExcludedPoint", "IncludedPoint") for d in labels):
                raise ClaimFalsified("connected door spaces are point topologies",
                                     {"n": n, "hex": t.to_hex()})
    return rep, lists


def enumerate_occ_door(n: int, mode: str = "auto"):
    """Door topologies satisfying OCC; each must be connected-door once the
    space has more than three points."""
    check_cap("occ-door enumeration", n)
    lists = census(n, mode)[1]  # refuses a bad mode at every n
    if n < 4:
        return {"note": "OCC is vacuous below four points", "n": n}
    return lists["occ_door"]


def _brute_solutions(n: int, codes: list[int], first: int) -> list[tuple[int, ...]]:
    """Depth-first assignment in mask order from `first`, pruned at each
    mask m by f(A) + f(B) = f(m) + f(empty) on the disjoint proper pairs
    with union m.  With first = 1 the empty set stays at code 0, so this is
    disjoint additivity; with first = 0 it is the whole valuation identity:
    f - f(empty) is then disjoint additive, hence a valuation, and so is f."""
    top = 1 << n
    code_set = set(codes)
    assigned = [0] * top
    out: list[tuple[int, ...]] = []

    def consistent(m: int, cand: int) -> bool:
        a = (m - 1) & m
        while a:
            b = m & ~a
            if a <= b and assigned[a] + assigned[b] != cand + assigned[0]:
                return False
            a = (a - 1) & m
        return True

    def dfs(m: int) -> None:
        if m == top:
            if set(assigned[first:]) == code_set:
                out.append(tuple(assigned))
            return
        for cand in codes:
            assigned[m] = cand
            if consistent(m, cand):
                dfs(m + 1)

    dfs(first)
    return out


def _modular_solutions(n: int, codes: list[int], first: int) -> list[tuple[int, ...]]:
    """Solutions via the weight parameterization: disjoint-additive
    solutions (first = 1) are point-weight sums, valuation solutions
    (first = 0) add a constant.  Each candidate is summed on the codes, one
    add per mask, and range-tested against the code set."""
    code_set = set(codes)
    out: list[tuple[int, ...]] = []
    # first = 0 takes each value as the constant f(empty); first = 1 has none.
    for k in codes if first == 0 else [0]:
        steps = [x - k for x in codes]
        for picks in product(steps, repeat=n):
            f = [k]
            for step in picks:
                f += [x + step for x in f]
            if set(f[first:]) == code_set:
                out.append(tuple(f))
    return out


def enumerate_solutions(
    n: int,
    values: list[ExactComplex],
    equation: str = "eq1_disjoint",
    mode: str = "brute",
) -> list[SetFunction]:
    """Every function on the subsets of n points (eq2) or the nonempty ones
    (eq1_disjoint) onto `values` that solves the equation, found by one
    route on integer codes.  Each code tuple is decoded through one table,
    code 0 being the zero value eq1 leaves at the empty set, and the
    solutions come in ascending order of their value tuples, each value
    ordered by `ExactComplex.sort_key`."""
    if equation not in ("eq1_disjoint", "eq2"):
        raise CapabilityError(f"unknown equation {equation!r}")
    if len(set(values)) != len(values) or len(values) not in (2, 3):
        raise CapabilityError("value set must have 2 or 3 distinct members")
    if mode not in ("brute", "modular"):
        raise CapabilityError(f"unknown solution mode {mode!r}")
    check_cap(f"{mode} solution scan", n)
    codes = int_codes(values)
    route = _brute_solutions if mode == "brute" else _modular_solutions
    found = route(n, codes, 0 if equation == "eq2" else 1)
    decode = {0: EC_ZERO, **dict(zip(codes, values))}
    rank = {c: i for i, c in enumerate(sorted(decode, key=lambda c: decode[c].sort_key()))}
    found.sort(key=lambda t: [rank[c] for c in t])
    return [SetFunction(n, equation == "eq2", tuple(decode[c] for c in t)) for t in found]


def induced_topology_survey(n: int, mode: str = "brute") -> dict:
    """Every valuation solution onto {-1, 0, 1}, with each designated value
    in {-1, 1}, either fails the axioms or lands exactly in the set of
    Form1A / Form1B / Form3 instances.  Instances needing free ultrafilters
    never appear."""
    values = [ec(-1), ec(0), ec(1)]
    sols = enumerate_solutions(n, values, "eq2", mode)
    realizers: dict[int, int] = {}
    for f in sols:
        for v in (ec(1), ec(-1)):
            fam = induced_family(f, v)
            if is_topology_bits(n, fam.bits):
                realizers[fam.bits] = realizers.get(fam.bits, 0) + 1
    induced = realizers.keys()
    expected = form_bits(n, ("Form1A", "Form1B", "Form3"))
    return {
        "n": n,
        "mode": mode,
        "solutions": len(sols),
        "induced_topologies": len(induced),
        "matches_forms": induced == expected,
        "form2_instances": len(induced - expected),
        "realizer_counts": {format(b, "x"): c for b, c in sorted(realizers.items())},
    }


def counts_report(n: int) -> dict:
    check_cap("counts report", n)
    rep, lists = census(n)
    out = {k: len(v) for k, v in lists.items()}
    out.update(rep.counts, n=n, mode=rep.mode, total_scanned=rep.total_scanned)
    if n == 1:
        out["degenerate"] = True
    return out


GOLDEN_DIR = Path(__file__).parent / "goldens" / "v1"


def load_golden(n: int) -> dict:
    return json.loads((GOLDEN_DIR / f"counts_n{n}.json").read_text())


def compare_with_golden(n: int) -> dict:
    """The counts report against every key of the golden file; "mismatch"
    names the first differing key in sorted order."""
    fresh = counts_report(n)
    golden = load_golden(n)
    mismatch = [k for k in sorted(golden) if fresh.get(k) != golden[k]]
    doc = {"n": n, "golden": golden, "report": fresh, "match": not mismatch}
    return {**doc, "mismatch": mismatch[0]} if mismatch else doc
