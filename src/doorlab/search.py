"""Exhaustive enumeration at desk scale: all topologies on a labeled ground
set, the door / connected-door / OCC filters over them, and all solutions of
the two set equations, each available through at least two independent
routes (raw scan vs closure DFS, brute scan vs modular parameters)."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
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
    elapsed: float = 0.0

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
    """
    full = full_mask(n)
    results: list[int] = []
    visited = 0

    def close_with(bits: int, members: list[int], m: int) -> tuple[int, list[int]] | None:
        new_bits = bits | (1 << m)
        mem = list(members)
        queue = [m]
        while queue:
            x = queue.pop()
            for u in mem:
                for y in (u | x, u & x):
                    if not (new_bits >> y) & 1:
                        if y < m:
                            return None
                        new_bits |= 1 << y
                        queue.append(y)
            mem.append(x)
        return new_bits, mem

    def dfs(bits: int, members: list[int], last: int) -> None:
        nonlocal visited
        visited += 1
        results.append(bits)
        for m in range(last + 1, full):
            if (bits >> m) & 1:
                continue
            nxt = close_with(bits, members, m)
            if nxt is not None:
                dfs(nxt[0], nxt[1], m)

    dfs(1 | (1 << full), [0, full], 0)
    return results, visited


def enumerate_topologies(
    n: int, mode: str = "auto"
) -> tuple[list[Topology], EnumerationReport]:
    if mode == "auto":
        mode = "raw_scan" if n <= CAPS["raw_scan"] else "closure_dfs"
    start = time.monotonic()
    if mode not in ("raw_scan", "closure_dfs"):
        raise CapabilityError(f"unknown enumeration mode {mode!r}")
    check_cap(mode, n)
    check_ground(n)
    bits_list, scanned = _raw_scan(n) if mode == "raw_scan" else _closure_dfs(n)
    bits_list.sort()
    tops = [Topology(n, Family(n, b)) for b in bits_list]
    report = EnumerationReport(
        n=n, mode=mode, total_scanned=scanned,
        counts={"topologies": len(tops)},
        elapsed=time.monotonic() - start)
    return tops, report


def enumerate_connected_door(n: int, mode: str = "auto") -> list[Topology]:
    tops, _ = enumerate_topologies(n, mode)
    out = [t for t in tops if space_report(t).connected_door]
    if n >= 2:
        expected = 2 if n == 2 else 2 * n
        if len(out) != expected:
            raise ClaimFalsified("connected-door count",
                                 {"n": n, "count": len(out), "expected": expected})
        for t in out:
            labels = classify_connected_door(t).labels
            if not all(d.kind in ("ExcludedPoint", "IncludedPoint") for d in labels):
                raise ClaimFalsified("connected door spaces are point topologies",
                                     {"n": n, "hex": t.opens.to_hex()})
    return out


def enumerate_occ_door(n: int, mode: str = "auto"):
    """Door topologies satisfying OCC; each must be connected-door once the
    space has more than three points."""
    check_cap("occ-door enumeration", n)
    check_ground(n)
    if n < 4:
        return {"note": "OCC is vacuous below four points", "n": n}
    tops, _ = enumerate_topologies(n, mode)
    out = []
    for t in tops:
        rep = space_report(t)
        if rep.door and occ_satisfied(t)[0]:
            out.append(t)
            if not rep.connected_door:
                raise ClaimFalsified("door + OCC implies connected door",
                                     {"n": n, "hex": t.opens.to_hex()})
    return out


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
    out: list[SetFunction] = []

    def try_weights(c: ExactComplex, weights: list[ExactComplex], includes_empty: bool):
        f = modular_compose(ModularParams(n, c, tuple(weights)), includes_empty)
        if {f.values[m] for m in f.domain()} == value_set:
            out.append(f)

    def rec(weights: list[ExactComplex], choices: list[ExactComplex], c: ExactComplex,
            includes_empty: bool) -> None:
        if len(weights) == n:
            try_weights(c, weights, includes_empty)
            return
        for w in choices:
            weights.append(w)
            rec(weights, choices, c, includes_empty)
            weights.pop()

    if equation == "eq1_disjoint":
        rec([], list(values), EC_ZERO, False)
    else:
        for c in values:
            rec([], [v - c for v in values], c, True)
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
    tops, rep = enumerate_topologies(n, mode)
    door = 0
    connected_door = 0
    occ_door = 0
    for t in tops:
        r = space_report(t)
        if r.door:
            door += 1
            if n >= 4 and occ_satisfied(t)[0]:
                occ_door += 1
        if r.connected_door:
            connected_door += 1
    out = {
        "n": n,
        "mode": rep.mode,
        "total_scanned": rep.total_scanned,
        "topologies": len(tops),
        "door": door,
        "connected_door": connected_door,
    }
    if n >= 4:
        out["occ_door"] = occ_door
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
