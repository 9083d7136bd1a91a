"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py               # about half a minute
    python3 perfbench/selftest.py --full-trace  # adds the traced-count check
                                                # on the full workloads

Run from the repository root.  It checks that:

- each workload, at a tiny size, prints every metric named in
  BENCHMARK.json with its unit, untraced and traced, and passes its gate;
- the gate counts a deliberately wrong expected answer as a failed op, in
  every workload;
- call counts repeat exactly between two traced runs of the same seed;
- without the program next to it, the benchmark exits non-zero and prints
  no result.

``--full-trace`` repeats the traced-count check on the full ``verify-all``
and ``enumerate-n6`` workloads and prints the counts that characterise
them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import CliBatch, EnumerateN6, Gate, VerifyAll, load_golden  # noqa: E402

FAILURES: list[str] = []


def check(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in bench.WORKLOADS:
            result, _, _ = bench.run(name, 7, 0, trace, tiny=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{name} trace={int(trace)}: metric names and units")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{name} trace={int(trace)}: every value is a number")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name} trace={int(trace)}: gate passes ({result['attempted']} ops)")
            if not trace:
                check(all(result["metrics"][k]["value"] > 0 for k in want),
                      f"{name}: every end-to-end metric is above 0")


def gate_failures(workload) -> int:
    gate = Gate()
    workload.run_pass(NullTracer, gate)
    return gate.failed


def check_gate_flags_wrong_answers() -> None:
    reports = load_golden("verify.json")
    wrong = dict(reports, thm2=reports["thm2"].replace('"ok": true', '"ok": false'))
    check(gate_failures(VerifyAll(ids=("thm2", "thm4"), expected=wrong)) == 1,
          "verify-all: a wrong recorded report is one failed op")

    golden = load_golden("enumerate.json")["4"]
    check(gate_failures(EnumerateN6(4, dict(golden, hex_sha256="0" * 64))) == 1,
          "enumerate: a wrong recorded hex digest is one failed op")
    known = workloads.KNOWN_COUNTS[4]
    workloads.KNOWN_COUNTS[4] = (known[0] + 1, *known[1:])
    try:
        check(gate_failures(EnumerateN6(4, golden)) == 1,
              "enumerate: a wrong known topology count is one failed op")
    finally:
        workloads.KNOWN_COUNTS[4] = known

    pool = load_golden("cli_pool.json")
    cmd = pool["report-n4"]["commands"][0]
    bad = {
        "wrong-digest": {"count": 1, "expect_exit": 0,
                         "commands": [dict(cmd, sha256="0" * 64)]},
        "wrong-exit": {"count": 1, "expect_exit": 2, "commands": [cmd]},
        "right": {"count": 1, "expect_exit": 0, "commands": [cmd]},
    }
    check(gate_failures(CliBatch(ROOT, 3, pool=bad)) == 2,
          "cli-batch: a wrong digest and a wrong exit code are two failed ops")


def traced_counts(name: str, tiny: bool) -> dict:
    _, record, _ = bench.run(name, 11, 0, True, tiny=tiny)
    metrics = record["result"]["metrics"]
    counts = {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}
    return dict(counts, **record["counters"])


def check_trace_counts_repeat(tiny: bool) -> dict:
    out = {}
    for name in ("verify-all", "enumerate-n6"):
        first, second = traced_counts(name, tiny), traced_counts(name, tiny)
        check(first == second, f"{name}{' tiny' if tiny else ''}: traced counts repeat exactly")
        out[name] = first
    return out


def check_fails_without_program() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"without the program: exit {proc.returncode}, no result printed")


def main() -> int:
    ap = argparse.ArgumentParser(description="self-test of the doorlab benchmark")
    ap.add_argument("--full-trace", action="store_true")
    args = ap.parse_args()
    check_metric_names()
    check_gate_flags_wrong_answers()
    check_trace_counts_repeat(tiny=True)
    check_fails_without_program()
    if args.full_trace:
        counts = check_trace_counts_repeat(tiny=False)
        va, en = counts["verify-all"], counts["enumerate-n6"]
        print(f"enumerate-n6: search.closure_dfs_nodes={en['search.closure_dfs_nodes']} "
              f"topology.space_report_calls={en['topology.space_report_calls']}")
        print(f"verify-all: valuations.valuation_on_algebra_calls="
              f"{va['valuations.valuation_on_algebra_calls']}, returning True "
              f"{va['valuations.valuation_on_algebra_true']}")
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
