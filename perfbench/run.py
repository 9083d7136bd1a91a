"""doorlab benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 36 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
same checkout; nothing is built.  Workloads are described in
``workloads.py`` and in ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics: passes over the workload are
repeated while another pass fits in ``--seconds`` (at least one), and the
median pass is reported.  ``--trace 1`` runs one untraced pass and then one
traced pass, and reports the per-layer metrics of the traced pass and the
difference of the two as ``trace_overhead_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted`` (ops), ``failed`` (ops with a wrong answer) and ``metrics``.
The lines before it record the machine, the Python version, the commit and
the seed, and list the metrics.  Failed ops are listed on stderr.  A copy of
the result, and for a traced run every span, is written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from spans import NullTracer, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    FAST_VERIFIERS,
    CliBatch,
    EnumerateN6,
    Gate,
    VerifyAll,
)

WORKLOADS = ("verify-all", "enumerate-n6", "cli-batch")
SETUP_REPEATS = 21
IMPORT_REPEATS = 7
CLI_VERBS = ("construct", "check", "classify", "solve", "enumerate",
             "verify-theorem", "report")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "cmd_p50_ms": "ms", "cmd_p90_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    from doorlab.verify import VERIFIERS
    units = {f"verify.{vid}_s": "s" for vid in VERIFIERS}
    units.update({
        "valuations.valuation_on_algebra_s": "s",
        "valuations.valuation_on_algebra_calls": "count",
        "valuations.valuation_hit_ratio": "ratio",
        "valuations.satisfies_valuation_s": "s",
        "valuations.satisfies_valuation_calls": "count",
        "valuations.ie3_s": "s",
        "valuations.modular_compose_s": "s",
        "topology.space_report_s": "s",
        "topology.space_report_calls": "count",
        "topology.is_topology_bits_s": "s",
        "topology.is_topology_bits_calls": "count",
        "topology.occ_satisfied_s": "s",
        "topology.validate_topology_s": "s",
        "topology.lemma1_check_s": "s",
        "search.closure_dfs_s": "s",
        "search.closure_dfs_nodes": "count",
        "search.raw_scan_s": "s",
        "search.raw_scan_candidates": "count",
        "search.raw_scan_yield": "ratio",
        "search.enumerate_solutions_s": "s",
        "search.solutions_found": "count",
        "search.counts_report_s": "s",
        "filters.s": "s",
        "filters.calls": "count",
        "classify.s": "s",
        "classify.calls": "count",
        "core.serialize_s": "s",
        "cli.import_s": "s",
    })
    units.update({f"cli.{verb}_ms": "ms" for verb in CLI_VERBS})
    units.update({"cli.stdout_bytes": "bytes", "cli.exit2_count": "count",
                  "trace_overhead_s": "s"})
    return units


def nearest_rank(values: list[float], q: float) -> float:
    """The smallest sample with at least a share q of the samples at or
    below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def child_wall_s(code: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


def setup_samples(count: int) -> list[float]:
    """Wall times of fresh interpreters importing the whole program, which
    every CLI command pays.  One untimed import first writes the bytecode
    cache."""
    child_wall_s("import doorlab.cli")
    return [child_wall_s("import doorlab.cli") for _ in range(count)]


def import_s() -> float:
    """Import time of doorlab.cli alone: fresh interpreter with the import
    minus fresh interpreter without it, medians of each."""
    child_wall_s("import doorlab.cli")
    with_import = [child_wall_s("import doorlab.cli") for _ in range(IMPORT_REPEATS)]
    bare = [child_wall_s("pass") for _ in range(IMPORT_REPEATS)]
    return statistics.median(with_import) - statistics.median(bare)


def machine_record() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    src = ROOT / "src" / "doorlab"
    for path in sorted(p for p in src.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def make_workload(name: str, seed: int, tiny: bool = False):
    if name == "verify-all":
        return VerifyAll(ids=FAST_VERIFIERS if tiny else None)
    if name == "enumerate-n6":
        return EnumerateN6(n=4 if tiny else 6)
    return CliBatch(ROOT, seed, per_stratum=1 if tiny else None)


def measure(workload, gate: Gate, seconds: float) -> list:
    """Closed loop: repeat passes while another one is expected to end
    within the budget."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(workload.run_pass(NullTracer, gate))
        elapsed = time.perf_counter() - t0
        if elapsed + max(p.wall_s for p in passes) > seconds:
            return passes


def end_to_end_metrics(passes: list, setup: float) -> dict:
    latencies = [x for p in passes for x in p.latencies_s]
    if passes[0].peak_rss_mb is not None:
        peak = max(p.peak_rss_mb for p in passes)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": setup,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": peak,
        "cmd_p50_ms": 1000 * nearest_rank(latencies, 0.5),
        "cmd_p90_ms": 1000 * nearest_rank(latencies, 0.9),
    }


def per_layer_metrics(summary: dict, counts: dict, traced, untraced) -> dict:
    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    from doorlab.verify import VERIFIERS
    m: dict = {f"verify.{vid}_s": summary.get(f"verify.{vid}", {}).get("total_s", 0.0)
               for vid in VERIFIERS}
    voa = "valuations.valuation_on_algebra"
    m[voa + "_s"] = self_s(voa)
    m[voa + "_calls"] = calls(voa)
    m["valuations.valuation_hit_ratio"] = ratio(counts.get(voa + "_true", 0), calls(voa))
    m["valuations.satisfies_valuation_s"] = self_s("valuations.satisfies_valuation")
    m["valuations.satisfies_valuation_calls"] = calls("valuations.satisfies_valuation")
    m["valuations.ie3_s"] = self_s("valuations.ie3")
    m["valuations.modular_compose_s"] = self_s("valuations.modular_compose")
    for fn in ("space_report", "is_topology_bits", "occ_satisfied",
               "validate_topology", "lemma1_check"):
        m[f"topology.{fn}_s"] = self_s(f"topology.{fn}")
    m["topology.space_report_calls"] = calls("topology.space_report")
    m["topology.is_topology_bits_calls"] = calls("topology.is_topology_bits")
    m["search.closure_dfs_s"] = self_s("search.closure_dfs")
    m["search.closure_dfs_nodes"] = counts.get("search.closure_dfs_nodes", 0)
    m["search.raw_scan_s"] = self_s("search.raw_scan")
    candidates = counts.get("search.raw_scan_candidates", 0)
    m["search.raw_scan_candidates"] = candidates
    m["search.raw_scan_yield"] = ratio(counts.get("search.raw_scan_found", 0), candidates)
    m["search.enumerate_solutions_s"] = self_s("search.enumerate_solutions")
    m["search.solutions_found"] = counts.get("search.enumerate_solutions_found", 0)
    m["search.counts_report_s"] = self_s("search.counts_report")
    for layer in ("filters", "classify"):
        rows = [row for name, row in summary.items() if name.startswith(layer + ".")]
        m[f"{layer}.s"] = sum((row["self_s"] for row in rows), 0.0)
        m[f"{layer}.calls"] = sum(row["calls"] for row in rows)
    m["core.serialize_s"] = self_s("core.serialize")
    m["cli.import_s"] = import_s()
    for verb in CLI_VERBS:
        lat = [c["latency_s"] for c in traced.commands if c["verb"] == verb]
        m[f"cli.{verb}_ms"] = 1000 * statistics.median(lat) if lat else 0.0
    m["cli.stdout_bytes"] = sum(c["stdout_bytes"] for c in traced.commands)
    m["cli.exit2_count"] = sum(c["exit"] == 2 for c in traced.commands)
    m["trace_overhead_s"] = traced.wall_s - untraced.wall_s
    return m


def layer_table(summary: dict, counts: dict) -> list[str]:
    lines = [f"{'span':44} {'calls':>9} {'total_s':>11} {'self_s':>11}"]
    layers: dict[str, list] = {}
    for name, row in sorted(summary.items()):
        lines.append(f"{name:44} {row['calls']:9d} {row['total_s']:11.4f} "
                     f"{row['self_s']:11.4f}")
        layer = layers.setdefault(name.split(".", 1)[0], [0, 0.0])
        layer[0] += row["calls"]
        layer[1] += row["self_s"]
    lines.append(f"{'layer':44} {'calls':>9} {'':>11} {'self_s':>11}")
    for layer, (n_calls, self_time) in sorted(layers.items()):
        lines.append(f"{layer:44} {n_calls:9d} {'':>11} {self_time:11.4f}")
    lines.append(f"{'counter':44} {'value':>9}")
    lines += [f"{key:44} {value:9d}" for key, value in sorted(counts.items())]
    return lines


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> tuple[dict, dict, list[str]]:
    """Returns (result, record, report lines); ``result`` is the final JSON
    line and ``record`` adds what the run was made on."""
    import doorlab.cli  # noqa: F401  (imports every layer)

    workload = make_workload(workload_name, seed, tiny)
    gate = Gate()
    lines: list[str] = []
    record = {"workload": workload_name, "seed": seed, "seed_used": workload.seed_used,
              "seconds": seconds, "trace": int(trace), "tiny": tiny,
              "machine": machine_record()}
    if trace:
        untraced = workload.run_pass(NullTracer, gate)
        tracer = Tracer()
        with tracer.installed():
            with tracer.span("bench.pass"):
                traced = workload.run_pass(tracer, gate)
        summary = tracer.summary()
        metrics = per_layer_metrics(summary, tracer.counts, traced, untraced)
        units = per_layer_units()
        lines += layer_table(summary, tracer.counts)
        tracer.write(OUT_DIR / f"spans-{workload_name}-seed{seed}.tsv")
        record["passes"] = 2
        record["counters"] = dict(sorted(tracer.counts.items()))
    else:
        # Half the set-ups before the passes and half after, so that their
        # median samples the host over the whole run, as wall_s does.
        setups = setup_samples(SETUP_REPEATS // 2 + 1)
        passes = measure(workload, gate, seconds)
        setups += setup_samples(SETUP_REPEATS // 2)
        metrics = end_to_end_metrics(passes, statistics.median(setups))
        units = END_TO_END_UNITS
        record["passes"] = len(passes)
        latencies = [x for p in passes for x in p.latencies_s]
        record["cmd_latency_samples"] = len(latencies)
    record.update(ops=gate.attempted, ops_failed=gate.failed, problems=gate.problems)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record["result"] = result
    lines += [f"{k:44} {metrics[k]!r:>24} {units[k]}" for k in units]
    return result, record, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "doorlab" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'doorlab'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    result, record, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for problem in record["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print("# " + json.dumps({k: v for k, v in record.items()
                             if k not in ("problems", "result")}, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
