"""Exhaustive enumeration at desk scale: all topologies on a labeled ground
set, the door / connected-door / OCC filters over them, and all solutions of
the two set equations, each available through at least two independent
routes (raw scan vs closure DFS, brute scan vs modular parameters)."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

from .classify import classify_connected_door, construct_topology, descriptors
from .core import (
    CAPS, CapabilityError, ClaimFalsified, Family, check_cap, check_ground, full_mask,
    popcount)
from .topology import (
    Topology,
    is_topology_bits,
    occ_satisfied,
    space_report,
)
from .valuations import (
    EC_ZERO,
    ExactComplex,
    ModularParams,
    SetFunction,
    ec,
    induced_family,
    int_codes,
    modular_compose,
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
    space = 1 << (1 << n)
    base = 1 | (1 << full_mask(n))
    return [b for b in range(space) if b & base == base and is_topology_bits(n, b)], space


def _closure_dfs(n: int) -> tuple[list[int], int]:
    """Orderly generation of all families containing the empty set and X
    that are closed under pairwise union and intersection.  Each closed
    family has a unique increasing canonical generator chain; a branch is
    pruned when closure creates a new element below the current generator.

    For a sublattice L of 2^X holding the empty set and X, the sublattice
    generated by L and m is {a | (b & m) : a, b in L}: it holds L and m, and
    is closed by distributivity.  Each u & m != m, u in L, is a proper
    subset of m and so lies below m; the branch is pruned if L lacks one.
    If L has them all, each a | (b & m) is in L or is a | m >= m, so nothing
    new lies below m and the closure is L together with {u | m : u in L}.

    The test needs only the n minimal open sets U_x of L (Alexandroff): each
    u in L is the union of U_x over x in u, so u & m is the union of the
    sets U_x & m.  If every U_x & m is in L or equals m, so is every u & m,
    as L is closed under union and any term equal to m makes the union m.
    The U_x are members themselves, so the prune fires exactly when some
    U_x & m is neither in L nor m.  In the child, U_x & m is the least set
    holding x for x in m (it lies in L or is m, and every u | m holds m),
    and U_x stays least for x outside m (u | m holding x holds U_x).
    """
    full = full_mask(n)
    results: list[int] = []
    visited = 0

    def dfs(bits: int, members: list[int], mins: list[int], last: int) -> None:
        nonlocal visited
        visited += 1
        results.append(bits)
        for m in range(last + 1, full):
            if (bits >> m) & 1:
                continue
            for u in mins:
                t = u & m
                if t != m and not (bits >> t) & 1:
                    break
            else:
                new_bits, mem = bits, list(members)
                for u in members:
                    y = u | m
                    if not (new_bits >> y) & 1:
                        new_bits |= 1 << y
                        mem.append(y)
                dfs(new_bits, mem,
                    [u & m if (m >> x) & 1 else u for x, u in enumerate(mins)], m)

    dfs(1 | (1 << full), [0, full], [full] * n, 0)
    return results, visited


def enumerate_topologies(
    n: int, mode: str = "auto"
) -> tuple[list[Topology], EnumerationReport]:
    if mode == "auto":
        mode = "raw_scan" if n <= CAPS["raw_scan"] else "closure_dfs"
    if mode not in ("raw_scan", "closure_dfs"):
        raise CapabilityError(f"unknown enumeration mode {mode!r}")
    check_cap(mode, n)
    check_ground(n)
    bits_list, scanned = _raw_scan(n) if mode == "raw_scan" else _closure_dfs(n)
    bits_list.sort()
    tops = [Topology(n, Family(n, b)) for b in bits_list]
    report = EnumerationReport(
        n=n, mode=mode, total_scanned=scanned,
        counts={"topologies": len(tops)})
    return tops, report


def census(
    n: int, mode: str = "auto"
) -> tuple[EnumerationReport, dict[str, list[Topology]]]:
    """Classify every topology on n points once: the door, connected-door
    and (n >= 4) door + OCC lists, each in enumeration order.  The paper's
    claims about them are checked on the way: door + OCC implies connected
    door, there are 2n connected door spaces (two on two points), and each
    is an excluded-point or included-point topology."""
    tops, rep = enumerate_topologies(n, mode)
    lists: dict[str, list[Topology]] = {
        "topologies": tops, "door": [], "connected_door": []}
    if n >= 4:
        lists["occ_door"] = []
    for t in tops:
        r = space_report(t)
        if r.door:
            lists["door"].append(t)
            if n >= 4 and occ_satisfied(t)[0]:
                lists["occ_door"].append(t)
                if not r.connected_door:
                    raise ClaimFalsified("door + OCC implies connected door",
                                         {"n": n, "hex": t.opens.to_hex()})
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
                                     {"n": n, "hex": t.opens.to_hex()})
    return rep, lists


def enumerate_occ_door(n: int, mode: str = "auto"):
    """Door topologies satisfying OCC; each must be connected-door once the
    space has more than three points."""
    check_cap("occ-door enumeration", n)
    check_ground(n)
    if n < 4:
        return {"note": "OCC is vacuous below four points", "n": n}
    return census(n, mode)[1]["occ_door"]


def _canonical_solution_order(sols: list[SetFunction]) -> list[SetFunction]:
    return sorted(
        sols, key=lambda f: tuple(v.sort_key() for v in f.values))


def _brute_solutions(
    n: int, values: list[ExactComplex], equation: str
) -> list[SetFunction]:
    """Depth-first assignment in mask order, pruned by the equation on every
    pair below the current mask.  The pairs are identities of at most four
    terms, so they run on the integer codes of `values`; each solution is
    built from the original values."""
    top = 1 << n
    codes = int_codes(values)
    code_set = set(codes)
    first = 0 if equation == "eq2" else 1
    assigned = [0] * top
    chosen: list[ExactComplex] = [EC_ZERO] * top
    out: list[SetFunction] = []

    def consistent(m: int, cand: int) -> bool:
        if equation == "eq1_disjoint":
            if popcount(m) < 2:
                return True
            a = (m - 1) & m
            while a:
                b = m & ~a
                if a <= b and assigned[a] + assigned[b] != cand:
                    return False
                a = (a - 1) & m
            return True
        # eq2: every pair with union m, both proper
        a = (m - 1) & m
        while a:
            need = m & ~a
            s = a
            while True:
                b = need | s
                if b != m and a <= b:
                    if assigned[a] + assigned[b] != cand + assigned[a & s]:
                        return False
                if s == 0:
                    break
                s = (s - 1) & a
            a = (a - 1) & m
        return True

    def dfs(m: int) -> None:
        if m == top:
            if set(assigned[first:]) == code_set:
                out.append(SetFunction(n, equation == "eq2", tuple(chosen)))
            return
        for cand, value in zip(codes, values):
            assigned[m] = cand
            chosen[m] = value
            if consistent(m, cand):
                dfs(m + 1)

    dfs(first)
    return _canonical_solution_order(out)


def _modular_solutions(
    n: int, values: list[ExactComplex], equation: str
) -> list[SetFunction]:
    """Solutions via the weight parameterization: disjoint-additive
    solutions are point-weight sums, valuation solutions add a constant."""
    value_set = set(values)
    if equation == "eq1_disjoint":
        cases = [(EC_ZERO, values, False)]
    else:
        cases = [(c, [v - c for v in values], True) for c in values]
    out: list[SetFunction] = []
    for c, choices, includes_empty in cases:
        for weights in product(choices, repeat=n):
            f = modular_compose(ModularParams(n, c, weights), includes_empty)
            if {f.values[m] for m in f.domain()} == value_set:
                out.append(f)
    return _canonical_solution_order(out)


def enumerate_solutions(
    n: int,
    values: list[ExactComplex],
    equation: str = "eq1_disjoint",
    mode: str = "brute",
) -> list[SetFunction]:
    if equation not in ("eq1_disjoint", "eq2"):
        raise CapabilityError(f"unknown equation {equation!r}")
    if len(set(values)) != len(values) or len(values) not in (2, 3):
        raise CapabilityError("value set must have 2 or 3 distinct members")
    if mode not in ("brute", "modular"):
        raise CapabilityError(f"unknown solution mode {mode!r}")
    check_cap(f"{mode} solution scan", n)
    check_ground(n)
    if mode == "brute":
        return _brute_solutions(n, values, equation)
    return _modular_solutions(n, values, equation)


def three_valued_form_bits(n: int) -> set[int]:
    """Family bitsets of every Form1A / Form1B / Form3 instance with
    principal seeds."""
    return {construct_topology(d, n).opens.bits
            for d in descriptors(n, ("Form1A", "Form1B", "Form3"))}


def induced_topology_survey(n: int, mode: str = "brute") -> dict:
    """Every valuation solution onto {-1, 0, 1}, with each designated value
    in {-1, 1}, either fails the axioms or lands exactly in the set of
    Form1A / Form1B / Form3 instances.  Instances needing free ultrafilters
    never appear."""
    values = [ec(-1), ec(0), ec(1)]
    sols = enumerate_solutions(n, values, "eq2", mode)
    induced: set[int] = set()
    realizers: dict[int, int] = {}
    for f in sols:
        for v in (ec(1), ec(-1)):
            fam = induced_family(f, v)
            if is_topology_bits(n, fam.bits):
                induced.add(fam.bits)
                realizers[fam.bits] = realizers.get(fam.bits, 0) + 1
    expected = three_valued_form_bits(n)
    return {
        "n": n,
        "mode": mode,
        "solutions": len(sols),
        "induced_topologies": len(induced),
        "matches_forms": induced == expected,
        "form2_instances": len(induced - expected),
        "realizer_counts": {format(b, "x"): c for b, c in sorted(realizers.items())},
    }


def counts_report(n: int, mode: str = "auto") -> dict:
    check_cap("counts report", n)
    rep, lists = census(n, mode)
    out = {k: len(v) for k, v in lists.items()}
    out.update(n=n, mode=rep.mode, total_scanned=rep.total_scanned)
    if n == 1:
        out["degenerate"] = True
    return out


def golden_dir() -> Path:
    env = os.environ.get("DOORLAB_GOLDEN_DIR")
    if env:
        return Path(env)
    return Path(__file__).parent / "goldens" / "v1"


def load_golden(n: int) -> dict | None:
    path = golden_dir() / f"counts_n{n}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def compare_with_golden(n: int) -> dict:
    fresh = counts_report(n)
    golden = load_golden(n)
    stable_keys = ("topologies", "door", "connected_door", "occ_door")
    if golden is None:
        return {"n": n, "golden": None, "report": fresh, "match": None}
    match = all(
        fresh.get(k) == golden.get(k) for k in stable_keys if k in golden)
    return {"n": n, "golden": golden, "report": fresh, "match": match}
