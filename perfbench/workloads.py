"""The three benchmark workloads and the correctness gate they share.

All three run in one process, closed loop, one client: the next operation
starts only when the previous one has finished.  An op is one verifier
call, one enumeration-and-count check, or one CLI command.

- ``verify-all``: the ten verifiers in registry order, in-process.  The
  paper's end product; most of its time is exact arithmetic in
  ``valuations``.
- ``enumerate-n6``: closure-DFS enumeration of all 209,527 topologies on six
  points, a space report for each, OCC for the door ones, and the hex form
  of every topology.  The largest scale ``search`` and ``topology`` reach;
  ``valuations`` does no work here.
- ``cli-batch``: a seeded, synthetic coverage mix of short
  ``python -m doorlab.cli`` commands, run one after another.  Process
  start-up, import and the raw-scan thread pool weigh most here; the
  weights are explained with ``STRATA`` in ``record.py``.

``verify-all`` and ``enumerate-n6`` take no input, so the seed has no effect
on them.  ``cli-batch`` draws its commands from a recorded pool with the
seed; the program sees only the generated argv.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Known answers held by the benchmark itself, independent of the recorded
# outputs: (topologies, door, connected door, door with OCC) per ground-set
# size.  Connected door spaces number 2n (2 on two points); on four or more
# points door + OCC coincides with connected door.
KNOWN_COUNTS = {
    2: (4, 3, 2, None),
    3: (29, 13, 6, None),
    4: (355, 45, 8, 8),
    5: (6942, 131, 10, 10),
    6: (209527, 343, 12, 12),
}

FAST_VERIFIERS = ("thm2", "thm4", "thm3")


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / name).read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def connected_door_count(n: int) -> int:
    return 2 if n == 2 else 2 * n


class Gate:
    """Counts ops and wrong answers.  Every failed check stays counted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{op}: {'; '.join(problems)}")


@dataclass
class PassResult:
    """One pass over a workload.  ``latencies_s`` holds one entry per
    user-level command: each CLI command in ``cli-batch``, the whole pass in
    the in-process workloads, whose user waits on all of it."""

    wall_s: float
    cpu_s: float
    latencies_s: list[float]
    peak_rss_mb: float | None = None
    commands: list[dict] = field(default_factory=list)


def _run_op(gate: Gate, op: str, fn) -> None:
    """Run one op and gate it; an exception is a failed op, not a crash."""
    try:
        problems = fn()
    except Exception:  # the benchmark must keep counting after a failure
        problems = ["raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
    gate.record(op, problems)


class VerifyAll:
    seed_used = False

    def __init__(self, ids: tuple[str, ...] | None = None,
                 expected: dict | None = None) -> None:
        from doorlab.verify import VERIFIERS
        self.ids = tuple(VERIFIERS) if ids is None else ids
        self.expected = expected if expected is not None else load_golden("verify.json")

    @staticmethod
    def known_answer_problems(vid: str, report: dict) -> list[str]:
        problems = []
        if vid == "thm1-classification":
            for n, row in report["per_n"].items():
                if row["count"] != connected_door_count(n):
                    problems.append(f"{row['count']} connected door spaces on {n} points")
        elif vid == "occ-converse":
            for n, row in report["per_n"].items():
                if not row["door_occ"] == row["connected_door"] == connected_door_count(n):
                    problems.append(f"door+OCC / connected door {row} on {n} points")
        elif vid == "lemmas-1-2":
            want = sum(connected_door_count(n) for n in range(2, 6))
            if report["checked"] != want:
                problems.append(f"checked {report['checked']} spaces, want {want}")
        elif vid == "infrastructure":
            totals = report["details"]["topology_totals"]
            for n, got in totals.items():
                if n in KNOWN_COUNTS and got != KNOWN_COUNTS[n][0]:
                    problems.append(f"{got} topologies on {n} points")
        return problems

    def run_pass(self, tracer, gate: Gate) -> PassResult:
        from doorlab.verify import VERIFIERS
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for vid in self.ids:
            def op(vid=vid):
                with tracer.span(f"verify.{vid}"):
                    report = VERIFIERS[vid]()
                problems = []
                if json.dumps(report, indent=2, sort_keys=True) != self.expected[vid]:
                    problems.append("report differs from the recorded output")
                if report.get("ok") is not True:
                    problems.append("ok is not true")
                return problems + self.known_answer_problems(vid, report)
            _run_op(gate, f"verify {vid}", op)
        wall = time.perf_counter() - wall0
        return PassResult(wall, time.process_time() - cpu0, [wall])


class EnumerateN6:
    seed_used = False

    def __init__(self, n: int = 6, expected: dict | None = None) -> None:
        self.n = n
        self.expected = (expected if expected is not None
                         else load_golden("enumerate.json")[str(n)])

    def run_pass(self, tracer, gate: Gate) -> PassResult:
        from doorlab import search, topology
        wall0, cpu0 = time.perf_counter(), time.process_time()

        def op():
            tops, rep = search.enumerate_topologies(self.n, "closure_dfs")
            door = connected_door = occ_door = 0
            with tracer.span("bench.predicates"):
                for t in tops:
                    r = topology.space_report(t)
                    if r.door:
                        door += 1
                        if topology.occ_satisfied(t)[0]:
                            occ_door += 1
                    if r.connected_door:
                        connected_door += 1
            with tracer.span("core.serialize"):
                hexes = [t.opens.to_hex() for t in tops]

            got = (len(tops), door, connected_door, occ_door)
            problems = []
            if got != KNOWN_COUNTS[self.n]:
                problems.append(f"counts {got}, want {KNOWN_COUNTS[self.n]}")
            if len(set(hexes)) != len(hexes):
                problems.append("duplicate topologies")
            if json.dumps(rep.to_json(), sort_keys=True) != self.expected["report"]:
                problems.append("enumeration report differs from the recorded output")
            if sha256("\n".join(hexes).encode()) != self.expected["hex_sha256"]:
                problems.append("topology hex list differs from the recorded output")
            return problems

        _run_op(gate, f"enumerate n={self.n}", op)
        wall = time.perf_counter() - wall0
        return PassResult(wall, time.process_time() - cpu0, [wall])


class CliBatch:
    """Commands drawn per stratum from the recorded pool.  Each stratum
    contributes a fixed number of commands, so the cost of a batch hardly
    depends on the seed; the seed picks the commands and their order."""

    seed_used = True

    def __init__(self, root: Path, seed: int, per_stratum: int | None = None,
                 pool: dict | None = None) -> None:
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        pool = pool if pool is not None else load_golden("cli_pool.json")
        rng = random.Random(seed)
        batch = []
        for name in sorted(pool):
            stratum = pool[name]
            count = stratum["count"] if per_stratum is None else per_stratum
            for _ in range(count):
                batch.append(dict(rng.choice(stratum["commands"]),
                                  expect_exit=stratum["expect_exit"]))
        rng.shuffle(batch)
        self.batch = batch

    @staticmethod
    def known_answer_problems(cmd: dict, out: bytes) -> list[str]:
        argv = cmd["argv"]
        verb = argv[0]
        if verb == "enumerate" and "connected-door" in argv:
            doc = json.loads(out)
            want = connected_door_count(doc["n"])
            if doc["count"] != want or len(doc["topologies"]) != want:
                return [f"{doc['count']} connected door spaces on {doc['n']} points"]
        if verb == "report":
            doc = json.loads(out)
            rep = doc["report"]
            got = (rep["topologies"], rep["door"], rep["connected_door"],
                   rep.get("occ_door"))
            if got != KNOWN_COUNTS[doc["n"]] or doc["match"] is not True:
                return [f"report counts {got}, match {doc['match']}"]
        return []

    def run_command(self, cmd: dict) -> dict:
        argv = [sys.executable, "-m", "doorlab.cli", *cmd["argv"]]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        with proc.stdout, proc.stderr:
            out = proc.stdout.read()
            err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)  # per-child CPU time and peak RSS
        latency = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"verb": cmd["argv"][0], "latency_s": latency, "exit": proc.returncode,
                "out": out, "err": err, "stdout_bytes": len(out),
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_mb": usage.ru_maxrss / 1024}

    def gate_command(self, cmd: dict, res: dict) -> list[str]:
        problems = []
        if res["exit"] != cmd["expect_exit"]:
            problems.append(f"exit {res['exit']}, want {cmd['expect_exit']}")
        if sha256(res["out"]) != cmd["sha256"]:
            problems.append("stdout differs from the recorded output")
        if res["exit"] == 2 and not res["err"].strip():
            problems.append("exit 2 without an error message")
        if res["exit"] == 0 and not problems:
            problems += self.known_answer_problems(cmd, res["out"])
        return problems

    def run_pass(self, tracer, gate: Gate) -> PassResult:
        records = []
        wall0 = time.perf_counter()
        for cmd in self.batch:
            def op(cmd=cmd):
                res = self.run_command(cmd)
                records.append(res)
                return self.gate_command(cmd, res)
            _run_op(gate, "doorlab " + " ".join(cmd["argv"]), op)
        wall = time.perf_counter() - wall0
        for r in records:
            del r["out"], r["err"]
        return PassResult(wall, sum(r["cpu_s"] for r in records),
                          [r["latency_s"] for r in records],
                          peak_rss_mb=max((r["maxrss_mb"] for r in records), default=0.0),
                          commands=records)
