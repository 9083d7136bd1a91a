"""Record the outputs the benchmark gate compares against.

    python3 perfbench/record.py

Run from the repository root on the commit whose outputs are the reference.
It writes, under ``perfbench/golden/``:

- ``verify.json``: each verifier's report as ``doorlab verify-theorem``
  prints it;
- ``enumerate.json``: the enumeration report and a digest of the hex list
  of all topologies on 4 and on 6 points;
- ``cli_pool.json``: the command pool of ``cli-batch``, one list per
  stratum, with each command's stdout digest and size.

The pool is generated from a fixed seed.  Each stratum states the exit code
its commands must have, worked out here independently of the program (for
families, by this file's own axiom check), and recording stops if the
program disagrees.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import CliBatch, GOLDEN_DIR, sha256  # noqa: E402

POOL_SEED = 1809
POOL_FACTOR = 4

# stratum -> (commands per batch, expected exit code)
#
# A synthetic coverage mix, not measured usage.  The weights are chosen so:
# - the two strata that reach the raw-scan thread pool (n = 4 in auto mode,
#   with the default ``--workers``) are 60 of the 108 commands, so the
#   median command latency falls about ten commands inside them and moves
#   when that path changes;
# - every other verb appears often enough for a per-verb median (at least
#   four commands), and each input-validation path with exit 2 appears;
# - the n = 5 strata, which take the closure-DFS route and are the slowest
#   commands (about 0.5 s against 0.15-0.2 s), are few, so they do not
#   dominate the batch's wall time.
STRATA = {
    "report-n4": (30, 0),
    "enumerate-cd-n4": (30, 0),
    "construct": (8, 0),
    "construct-invalid": (2, 2),
    "check": (8, 0),
    "check-invalid": (3, 2),
    "classify": (6, 0),
    "classify-invalid": (2, 2),
    "solve-small": (4, 0),
    "solve-n4": (5, 0),
    "verify-fast": (6, 0),
    "enumerate-cd-n5": (2, 0),
    "report-n5": (2, 0),
}

VALUE_SETS = ["0,1", "1,2", "-1,1", "-1,0,1", "0,1,2", "0,1,3", "1,2,3",
              "0,1/2", "0,i", "-2,0,2"]


def is_topology(n: int, fam: set[int]) -> bool:
    full = (1 << n) - 1
    return (0 in fam and full in fam
            and all(u | v in fam and u & v in fam for u in fam for v in fam))


def closure(n: int, gens: list[int]) -> set[int]:
    fam = {0, (1 << n) - 1, *gens}
    while True:
        new = {op for u in fam for v in fam for op in (u | v, u & v)} - fam
        if not new:
            return fam
        fam |= new


def family_arg(fam: set[int]) -> str:
    subsets = [[p for p in range(m.bit_length()) if (m >> p) & 1] for m in sorted(fam)]
    return json.dumps(subsets, separators=(",", ":"))


def random_topology(rng: random.Random, n: int) -> set[int]:
    return closure(n, [rng.randrange(1 << n) for _ in range(rng.randint(1, 3))])


def random_non_topology(rng: random.Random, n: int) -> set[int]:
    while True:
        fam = set(random_topology(rng, n))
        if rng.random() < 0.5:
            fam.discard(rng.choice(sorted(fam)))
        else:
            fam.add(rng.randrange(1 << n))
        if not is_topology(n, fam):
            return fam


def gen_construct(rng: random.Random) -> list[str]:
    n = rng.randint(3, 5)
    pts = list(range(n))
    form = rng.choice(["excluded-point", "included-point", "ultrafilter",
                       "form1a", "form1b", "form3", "t2"])
    argv = ["construct", "--form", form, "--n", str(n)]
    if form in ("excluded-point", "included-point"):
        return argv + ["--a", str(rng.choice(pts))]
    if form == "ultrafilter":
        return argv + ["--seed", str(rng.choice(pts))]
    if form in ("form1a", "form1b"):
        a, s = rng.sample(pts, 2)
        return argv + ["--a", str(a), "--seed", str(s)]
    if form == "form3":
        a, b = rng.sample(pts, 2)
        return argv + ["--a", str(a), "--b", str(b)]
    inside = sorted(rng.sample(pts, rng.randint(1, n - 1)))
    outside = [p for p in pts if p not in inside]
    return argv + ["--A", ",".join(map(str, inside)),
                   "--p", str(rng.choice(inside)), "--q", str(rng.choice(outside))]


def gen_construct_invalid(rng: random.Random) -> list[str]:
    n = rng.randint(3, 5)
    kind = rng.choice(["form2", "out-of-range", "seed-is-a", "p-outside"])
    if kind == "form2":
        return ["construct", "--form", "form2", "--n", str(n), "--A", "0"]
    if kind == "out-of-range":
        form = rng.choice(["excluded-point", "included-point"])
        return ["construct", "--form", form, "--n", str(n), "--a", str(n)]
    if kind == "seed-is-a":
        a = rng.randrange(n)
        return ["construct", "--form", rng.choice(["form1a", "form1b"]), "--n", str(n),
                "--a", str(a), "--seed", str(a)]
    return ["construct", "--form", "t2", "--n", str(n), "--A", "0", "--p", "1", "--q", "2"]


def gen_family_cmd(verb: str, valid: bool):
    def gen(rng: random.Random) -> list[str]:
        n = rng.randint(2, 4) if verb == "check" else rng.randint(3, 4)
        if valid:
            fam = random_topology(rng, n)
        else:
            fam = random_non_topology(rng, n)
        return [verb, "--n", str(n), "--family", family_arg(fam)]
    return gen


def gen_solve(ns: tuple[int, ...]):
    def gen(rng: random.Random) -> list[str]:
        return ["solve", "--n", str(rng.choice(ns)),
                f"--values={rng.choice(VALUE_SETS)}",
                "--equation", rng.choice(["eq1", "eq2"]),
                "--mode", rng.choice(["brute", "modular"])]
    return gen


GENERATORS = {
    "construct": gen_construct,
    "construct-invalid": gen_construct_invalid,
    "check": gen_family_cmd("check", True),
    "check-invalid": gen_family_cmd("check", False),
    "classify": gen_family_cmd("classify", True),
    "classify-invalid": gen_family_cmd("classify", False),
    "solve-small": gen_solve((2, 3)),
    "solve-n4": gen_solve((4,)),
    "enumerate-cd-n4": lambda rng: ["enumerate", "--what", "connected-door", "--n", "4"],
    "enumerate-cd-n5": lambda rng: ["enumerate", "--what", "connected-door", "--n", "5"],
    "report-n4": lambda rng: ["report", "--n", "4"],
    "report-n5": lambda rng: ["report", "--n", "5"],
    "verify-fast": lambda rng: ["verify-theorem", "--id",
                                rng.choice(["thm2", "thm4", "thm3"])],
}


def record_cli_pool() -> dict:
    rng = random.Random(POOL_SEED)
    runner = CliBatch(ROOT, 0, pool={})
    pool = {}
    for name, (count, expect_exit) in STRATA.items():
        seen: dict[str, list[str]] = {}
        for _ in range(POOL_FACTOR * count * 5):
            argv = GENERATORS[name](rng)
            seen.setdefault(json.dumps(argv), argv)
            if len(seen) == POOL_FACTOR * count:
                break
        commands = []
        slowest = 0.0
        for argv in seen.values():
            res = runner.run_command({"argv": argv})
            if res["exit"] != expect_exit:
                raise SystemExit(f"{name}: {argv} exited {res['exit']}, want {expect_exit}")
            slowest = max(slowest, res["latency_s"])
            commands.append({"argv": argv, "sha256": sha256(res["out"]),
                             "bytes": res["stdout_bytes"]})
        pool[name] = {"count": count, "expect_exit": expect_exit, "commands": commands}
        print(f"{name}: {len(commands)} commands, slowest {slowest:.3f} s",
              file=sys.stderr)
    return pool


def record_verify() -> dict:
    from doorlab.verify import VERIFIERS
    return {vid: json.dumps(fn(), indent=2, sort_keys=True) for vid, fn in VERIFIERS.items()}


def record_enumerate() -> dict:
    from doorlab.search import enumerate_topologies
    out = {}
    for n in (4, 6):
        tops, rep = enumerate_topologies(n, "closure_dfs")
        out[str(n)] = {
            "report": json.dumps(rep.to_json(), sort_keys=True),
            "hex_sha256": sha256("\n".join(t.opens.to_hex() for t in tops).encode()),
        }
    return out


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, make in (("cli_pool.json", record_cli_pool),
                       ("verify.json", record_verify),
                       ("enumerate.json", record_enumerate)):
        (GOLDEN_DIR / name).write_text(json.dumps(make(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {name}", file=sys.stderr)


if __name__ == "__main__":
    main()
