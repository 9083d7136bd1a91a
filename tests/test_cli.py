import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import doorlab.filters as filters
import doorlab.search as search
from doorlab import verify
from doorlab.classify import UnconstructibleError, construct_topology, f_from_form, form_bits
from doorlab.cli import _descriptor_from_args, build_parser, run
from doorlab.core import DomainError
from doorlab.valuations import ec, induced_word

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env():
    """The environment for a subprocess that imports doorlab from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_excluded_point(capsys):
    code, out, _ = capture(capsys, [
        "construct", "--form", "excluded-point", "--n", "4", "--a", "3"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["opens"]) == 9


def test_construct_form3(capsys):
    code, out, _ = capture(capsys, [
        "construct", "--form", "form3", "--n", "4", "--a", "0", "--b", "1"])
    assert code == 0
    assert json.loads(out)["opens"] == [[], [2], [3], [2, 3], [0, 1, 2, 3]]


def test_construct_form2_is_usage_error(capsys):
    code, _, err = capture(capsys, [
        "construct", "--form", "form2", "--n", "4"])
    assert code == 2
    assert "free ultrafilters" in err


def test_check_sierpinski(capsys):
    code, out, _ = capture(capsys, [
        "check", "--n", "2", "--family", "[[],[0],[0,1]]"])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["connected_door"] is True
    assert doc["lemma1"] is True


def test_check_discrete_space_names_its_occ_witness(capsys):
    # Four open and closed singletons are the first OCC witness.
    family = json.dumps([[p for p in range(4) if m >> p & 1] for m in range(16)])
    code, out, _ = capture(capsys, ["check", "--n", "4", "--family", family])
    assert code == 0
    doc = json.loads(out)
    assert doc["occ"] is False
    assert doc["occ_witness"] == [[0], [1], [2], [3]]
    assert "lemma1" not in doc


def test_check_invalid_family(capsys):
    code, _, err = capture(capsys, [
        "check", "--n", "2", "--family", "[[],[0],[1]]"])
    assert code == 2
    assert "missing" in err


@pytest.mark.parametrize("family", ["5", "[null]", "[[0.5]]", '[[0,"a"]]', "[[true]]", '{"a":1}'])
def test_check_malformed_family_is_usage_error(capsys, family):
    code, out, err = capture(capsys, ["check", "--n", "2", "--family", family])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "0", "--values", "0,1"],
    ["solve", "--n", "-2", "--values", "0,1", "--mode", "modular"],
    ["enumerate", "--what", "topologies", "--n", "-1"],
    ["enumerate", "--what", "occ-door", "--n", "0"],
])
def test_ground_set_below_one_point_is_usage_error(capsys, argv):
    code, out, err = capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert "ground set size" in err


@pytest.mark.parametrize("verb", ["check", "classify"])
def test_deeply_nested_family_is_usage_error(verb):
    """The JSON decoder recurses once per nesting level; a family nested
    past the recursion limit is refused like any malformed family."""
    family = "[" * 5000 + "]" * 5000
    proc = subprocess.run(
        [sys.executable, "-m", "doorlab.cli", verb, "--n", "2", "--family", family],
        capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: family is nested too deeply\n"


@pytest.mark.parametrize("verb", ["check", "classify"])
def test_family_member_holding_a_list_is_nested_too_deeply(capsys, verb):
    # Refused by the parser, not by the decoder's depth limit, which
    # differs between Python versions.
    argv = [verb, "--n", "2", "--family", "[[[0]]]"]
    assert capture(capsys, argv) == (2, "", "error: family is nested too deeply\n")


def test_classify_exits_1_when_a_connected_door_space_has_no_finite_type(
        monkeypatch, capsys):
    monkeypatch.setattr("doorlab.classify.descriptors", lambda n, kinds: [])
    code, out, _ = capture(capsys, [
        "classify", "--n", "3", "--family", "[[],[0],[0,1],[0,2],[0,1,2]]"])
    assert code == 1
    assert json.loads(out) == {"claim_falsified": "connected door space has a finite type",
                               "witness": {"n": 3, "hex": "ab"}}


def test_classify_form3(capsys):
    code, out, _ = capture(capsys, [
        "classify", "--n", "4", "--family", "[[],[2],[3],[2,3],[0,1,2,3]]"])
    assert code == 0
    doc = json.loads(out)
    kinds = {d["kind"] for d in doc["forms"]["labels"]}
    assert "Form3" in kinds


def test_solve_two_valued(capsys):
    code, out, _ = capture(capsys, [
        "solve", "--n", "3", "--values", "0,1", "--equation", "eq1"])
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_verify_theorem_exit_zero(capsys):
    code, out, _ = capture(capsys, ["verify-theorem", "--id", "thm2"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_enumerate_cap_exceeded(capsys):
    code, _, err = capture(capsys, [
        "enumerate", "--what", "connected-door", "--n", "7"])
    assert code == 2
    assert "n = 6" in err


@pytest.mark.parametrize("argv, job", [
    (["report", "--n", "7"], "counts report"),
    (["enumerate", "--what", "occ-door", "--n", "7"], "occ-door enumeration"),
])
def test_six_point_caps_refuse_seven(capsys, argv, job):
    code, out, err = capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {job} caps at n = 6\n"


def test_occ_door_refuses_past_its_cap_then_outside_the_ground_set(capsys):
    for n, message in (("7", "occ-door enumeration caps at n = 6"),
                       ("0", "ground set size 0 outside [1, 10]")):
        code, out, err = capture(capsys, ["enumerate", "--what", "occ-door", "--n", n])
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("mode", ["raw_scan", "closure_dfs"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_occ_door_below_four_points_is_note(capsys, n, mode):
    code, out, err = capture(
        capsys, ["enumerate", "--what", "occ-door", "--n", str(n), "--mode", mode])
    assert (code, err) == (0, "")
    assert out == f'{{\n  "n": {n},\n  "note": "OCC is vacuous below four points"\n}}\n'


def test_occ_door_enumeration_at_six_points(capsys):
    code, out, _ = capture(capsys, ["enumerate", "--what", "occ-door", "--n", "6"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["count"], len(doc["topologies"])) == (6, 12, 12)


def test_report_matches_golden(capsys):
    code, out, _ = capture(capsys, ["report", "--n", "3"])
    assert code == 0
    assert json.loads(out)["match"] is True


def test_report_drifted_golden_exits_1(tmp_path, monkeypatch, capsys):
    # The gate compares every key of the golden, not only the four counts.
    shipped = SRC / "doorlab" / "goldens" / "v1"
    for path in shipped.glob("counts_n*.json"):
        (tmp_path / path.name).write_text(path.read_text())
    for n, key, value in ((4, "mode", "closure_dfs"), (3, "total_scanned", 257)):
        path = tmp_path / f"counts_n{n}.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    monkeypatch.setattr(search, "GOLDEN_DIR", tmp_path)
    for n, key in ((4, "mode"), (3, "total_scanned")):
        code, out, _ = capture(capsys, ["report", "--n", str(n)])
        doc = json.loads(out)
        assert (code, doc["match"], doc["mismatch"]) == (1, False, key)
    code, out, _ = capture(capsys, ["report", "--n", "2"])
    assert (code, "mismatch" in json.loads(out)) == (0, False)


def test_report_missing_golden_exits_2(tmp_path, monkeypatch, capsys):
    # A missing golden is an error, not a report without a verdict.
    monkeypatch.setattr(search, "GOLDEN_DIR", tmp_path)
    code, out, err = capture(capsys, ["report", "--n", "3"])
    assert (code, out) == (2, "")
    assert "counts_n3.json" in err


def test_output_determinism_across_runs(capsys):
    outputs = []
    for _ in range(3):
        code, out, _ = capture(capsys, [
            "enumerate", "--what", "topologies", "--n", "3",
            "--mode", "raw_scan"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_out_file(tmp_path, capsys):
    path = tmp_path / "result.json"
    code = run(["--out", str(path),
                "construct", "--form", "included-point", "--n", "3", "--a", "0"])
    assert code == 0
    doc = json.loads(path.read_text())
    assert [0] in doc["opens"]


def test_unwritable_out_is_usage_error(tmp_path):
    # A directory that does not exist: open() raises FileNotFoundError.
    target = tmp_path / "missing" / "x.json"
    proc = subprocess.run(
        [sys.executable, "-m", "doorlab.cli", "--out", str(target),
         "check", "--n", "1", "--family", "[[],[0]]"],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_closed_stdout_ends_like_a_unix_filter():
    # The n = 5 hex list is larger than a pipe buffer, so the process is
    # still writing when the reader closes its end.
    with subprocess.Popen(
            [sys.executable, "-m", "doorlab.cli",
             "enumerate", "--what", "topologies", "--n", "5"],
            env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=120)
    assert proc.returncode == -signal.SIGPIPE
    assert err == b""


MISSING_CASES = [
    ("excluded-point", [], "a"),
    ("included-point", [], "a"),
    ("ultrafilter", [], "seed"),
    ("form1a", ["--seed", "1"], "a"),
    ("form1a", ["--a", "0"], "seed"),
    ("form1b", ["--seed", "1"], "a"),
    ("form1b", ["--a", "0"], "seed"),
    ("form3", ["--b", "1"], "a"),
    ("form3", ["--a", "0"], "b"),
    ("t2", [], "A"),
    ("t2", ["--A", "0", "--q", "1"], "p"),
    ("t2", ["--p", "0"], "q"),
]
OUT_OF_RANGE_CASES = [
    ("excluded-point", ["--a", "3"], "a"),
    ("included-point", ["--a", "3"], "a"),
    ("included-point", ["--a", "-1"], "a"),
    ("ultrafilter", ["--seed", "5"], "seed"),
    ("form1a", ["--a", "3", "--seed", "1"], "a"),
    ("form1a", ["--a", "0", "--seed", "7"], "seed"),
    ("form1b", ["--a", "0", "--seed", "-1"], "seed"),
    ("form3", ["--a", "0", "--b", "7"], "b"),
    ("t2", ["--A", "0", "--p", "0", "--q", "3"], "q"),
    ("t2", ["--A", "0", "--p", "0", "--q", "-1"], "q"),
    ("t2", ["--p", "5", "--q", "1"], "p"),
    ("t2", ["--A", "0", "--p", "3", "--q", "1"], "p"),
]
CONFLICT_CASES = [
    ("form1a", ["--a", "0", "--seed", "0"], "seed must be a point distinct from a"),
    ("form3", ["--a", "1", "--b", "1"], "need distinct points a, b"),
    ("t2", ["--A", "0", "--p", "0", "--q", "0"], "q must lie outside A"),
]


@pytest.mark.parametrize("form, params, missing", MISSING_CASES)
def test_construct_missing_parameter_is_named(capsys, form, params, missing):
    code, out, err = capture(capsys, [
        "construct", "--form", form, "--n", "3", *params])
    assert code == 2
    assert out == ""
    assert err == f"error: parameter {missing} missing\n"


@pytest.mark.parametrize("form, params, name", OUT_OF_RANGE_CASES)
def test_construct_out_of_range_parameter_is_named(capsys, form, params, name):
    code, out, err = capture(capsys, [
        "construct", "--form", form, "--n", "3", *params])
    assert code == 2
    assert out == ""
    assert err == f"error: parameter {name} out of range\n"


@pytest.mark.parametrize("form, params, message", CONFLICT_CASES)
def test_construct_in_range_conflict_keeps_its_message(capsys, form, params, message):
    code, out, err = capture(capsys, [
        "construct", "--form", form, "--n", "3", *params])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("form, params, message", [
    *[(f, p, f"parameter {name} missing") for f, p, name in MISSING_CASES],
    *[(f, p, f"parameter {name} out of range") for f, p, name in OUT_OF_RANGE_CASES],
    *CONFLICT_CASES,
    ("form2", [], "unconstructible: free ultrafilters do not exist on finite sets"),
])
def test_f_from_form_refuses_what_construct_refuses(form, params, message):
    args = build_parser().parse_args(["construct", "--form", form, "--n", "3", *params])
    d = _descriptor_from_args(args)
    errors = []
    for build in (construct_topology, f_from_form):
        with pytest.raises((DomainError, UnconstructibleError)) as exc:
            build(d, 3)
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0] == errors[1]
    assert errors[0][1] == message


def test_solve_huge_exponent_is_refused_before_expanding():
    # Fraction would build 10**9999999 (seconds of work) before failing.
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "doorlab.cli", "solve", "--n", "2", "--values=1e9999999,0"],
        env=src_env(), capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: exponent of value '1e9999999' exceeds 4300\n"


@pytest.mark.parametrize("value", ["1e4300", "1e4300i", pytest.param("9" * 4301, id="nines")])
def test_solve_value_beyond_digit_limit_is_named(capsys, value):
    # 10**4300 has 4,301 digits: parsed, it would only fail in the JSON output
    # with Python's own message, which names no value.
    code, out, err = capture(capsys, ["solve", "--n", "2", f"--values={value},0"])
    assert code == 2
    assert out == ""
    assert err == f"error: value '{value}' has more than 4300 digits\n"


@pytest.mark.parametrize("value,re", [
    ("0e99999", "0"), ("1000e-4302", "1/1" + "0" * 4299)])
def test_solve_value_not_exponent_decides_refusal(capsys, value, re):
    # A zero mantissa is 0 at any exponent, and 1000e-4302 is 1e-4299, whose
    # denominator has 4,300 digits: both parse, and print.
    code, out, _ = capture(
        capsys, ["solve", "--n", "2", "--equation", "eq2", f"--values={value},1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert {v["re"] for s in doc["solutions"] for v in s["values"]} == {re, "1"}


def test_solve_reads_zero_padded_values(capsys):
    # Zero padding leaves the value alone, so the limit ignores it.
    padded = ["0" * 5000, "1." + "0" * 5000]
    code, out, _ = capture(
        capsys, ["solve", "--n", "2", "--equation", "eq2", f"--values={','.join(padded)}"])
    assert code == 0
    assert out == capture(capsys, ["solve", "--n", "2", "--equation", "eq2", "--values=0,1"])[1]


@pytest.mark.parametrize("value", ["1e99999", "1e999999999999"])
def test_solve_far_exponent_is_refused_at_once(capsys, value):
    # No power of ten is built: 10**999999999999 would not fit in memory.
    start = time.perf_counter()
    code, out, err = capture(capsys, ["solve", "--n", "2", f"--values={value},1"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == f"error: exponent of value '{value}' exceeds 4300\n"


def test_solve_reads_exponent_values(capsys):
    code, out, _ = capture(capsys, ["solve", "--n", "2", "--values", "0,1e-3i"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    assert {(v["re"], v["im"]) for s in doc["solutions"] for v in s["values"]} == {
        ("0", "0"), ("0", "1/1000")}


@pytest.mark.parametrize("params", [
    ["--A", "0", "--p", "-1", "--q", "1"],
    ["--p", "-1", "--q", "1"],
])
def test_construct_t2_negative_p_is_named(capsys, params):
    code, out, err = capture(capsys, [
        "construct", "--form", "t2", "--n", "3", *params])
    assert code == 2
    assert out == ""
    assert err == "error: p must lie in A\n"
    assert "negative shift count" not in err


@pytest.mark.parametrize("n", ["22", "0", "-1"])
def test_construct_ground_set_checked_first(n):
    # At n = 22 a family word has 2^22 bits: the range check must come
    # before any word is built.
    proc = subprocess.run(
        [sys.executable, "-m", "doorlab.cli",
         "construct", "--form", "excluded-point", "--n", n, "--a", "0"],
        env=src_env(), capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: ground set size {n} outside [1, 10]\n"


@pytest.mark.parametrize("n", ["7", "8", "10"])
def test_construct_past_the_enumeration_caps_round_trips(n):
    # construct, check and classify take every n up to the ground set
    # bound.
    def doorlab(*argv):
        proc = subprocess.run([sys.executable, "-m", "doorlab.cli", *argv],
                              env=src_env(), capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stderr) == (0, "")
        return json.loads(proc.stdout)

    top = doorlab("construct", "--form", "excluded-point", "--n", n, "--a", "0")
    family = json.dumps(top["opens"])
    doc = doorlab("classify", "--n", n, "--family", family)
    assert doc["connected_door"]["labels"] == [{"kind": "ExcludedPoint", "a": 0}]
    doc = doorlab("check", "--n", n, "--family", family)
    assert doc["topology"] == top
    assert (doc["report"]["connected_door"], doc["occ"], doc["lemma1"]) == (True,) * 3


@pytest.mark.parametrize("token, code, err", [
    ("x", 2, "error: --A point 'x' is not an integer\n"),
    ("1.5", 2, "error: --A point '1.5' is not an integer\n"),
    ("1_0", 2, "error: point 10 out of range for ground set of size 3\n"),
    (" 1", 0, ""),
    ("+1", 0, ""),
])
def test_construct_reads_A_points_as_int_does(capsys, token, code, err):
    argv = ["construct", "--form", "t2", "--n", "3", "--p", "1", "--q", "2", "--A"]
    out = capture(capsys, [*argv, "1"])[1] if code == 0 else ""
    assert capture(capsys, [*argv, token]) == (code, out, err)


def test_construct_t2_takes_A_from_p_up_to_the_ground_set_bound(capsys):
    argv = ["construct", "--form", "t2", "--n", "10", "--p", "9", "--q", "0"]
    code, out, _ = capture(capsys, argv)
    assert code == 0
    assert capture(capsys, [*argv, "--A", "9"]) == (0, out, "")


def test_unknown_option_rejected(capsys):
    code = run(["solve", "--n", "3", "--values", "0,1", "--frobnicate"])
    assert code == 2


def test_workers_option_removed(capsys):
    code = run(["--workers", "2", "enumerate", "--what", "topologies", "--n", "2"])
    assert code == 2


def test_falsified_claim_exits_1_with_witness_under_O():
    # Claim checks must run even when asserts are stripped.  Patching the
    # enumerator to find nothing falsifies the connected-door count.
    script = (
        "import sys\n"
        "import doorlab.search as search\n"
        "search._words = lambda n, mode, door_traces: ([], None)\n"
        "from doorlab.cli import run\n"
        "sys.exit(run(['enumerate', '--what', 'connected-door', '--n', '4']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {
        "claim_falsified": "connected-door count",
        "witness": {"n": 4, "count": 0, "expected": 8},
    }


def test_thm2_exits_1_on_a_solution_that_is_not_additive(monkeypatch, capsys):
    # One {0, 1} solution flipped at {0, 1} stays two-valued but is no longer
    # disjoint additive: a falsified claim, not a domain error.
    original = verify.solution_codes

    def flipped(n, values, equation, mode):
        sols = original(n, values, equation, mode)
        if values == [ec(0), ec(1)]:
            codes = list(sols[0])
            codes[0b011] = 1 - codes[0b011]
            sols[0] = tuple(codes)
        return sols

    monkeypatch.setattr(verify, "solution_codes", flipped)
    assert verify.verify_theorem2()["ok"] is False
    assert run(["verify-theorem", "--id", "thm2"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


# The first {-1, 0, 1} solution of thm4 with its first nonzero code negated:
# it keeps its count, but its induced word at 1 is no Form1A word.
NEGATED_FAULT = """
from doorlab import verify
from doorlab.valuations import ec
original = verify.solution_codes

def negated(n, values, equation, mode):
    sols = original(n, values, equation, mode)
    if values == [ec(-1), ec(0), ec(1)]:
        f = list(sols[0])
        m = next(m for m, c in enumerate(f) if c)
        f[m] = -f[m]
        sols[0] = tuple(f)
    return sols
"""


def test_thm4_exits_1_on_a_solution_with_no_form1a_word_under_O(monkeypatch, capsys):
    fault: dict = {}
    exec(NEGATED_FAULT, fault)
    first = fault["negated"](4, [ec(-1), ec(0), ec(1)], "eq1_disjoint", "brute")[0]
    assert induced_word(first, 1) not in form_bits(4, ("Form1A",))
    monkeypatch.setattr(verify, "solution_codes", fault["negated"])
    assert verify.verify_theorem4()["ok"] is False
    assert run(["verify-theorem", "--id", "thm4"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False
    script = NEGATED_FAULT + (
        "import sys\n"
        "verify.solution_codes = negated\n"
        "from doorlab.cli import run\n"
        "sys.exit(run(['verify-theorem', '--id', 'thm4']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["ok"] is False


def test_thm4_exits_1_when_the_symmetric_values_are_not_shaped(monkeypatch, capsys):
    original = verify.classify_value_shape

    def other(values):
        return {"shape": "Other"} if values == [ec(-1), ec(0), ec(1)] else original(values)

    monkeypatch.setattr(verify, "classify_value_shape", other)
    assert verify.verify_theorem4()["ok"] is False
    assert run(["verify-theorem", "--id", "thm4"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_thm4_exits_1_when_a_t2shape_word_is_missing(monkeypatch, capsys):
    # The least T2Shape word on four points is induced at 2 by a {0, 1, 2}
    # solution; without it that solution's word is no T2Shape word.
    original = verify.form_bits
    dropped = min(form_bits(4, ("T2Shape",)))
    sols = search.solution_codes(4, [ec(0), ec(1), ec(2)], "eq1_disjoint", "brute")
    assert dropped in {induced_word(f, 2) for f in sols}

    def short(n, kinds):
        words = original(n, kinds)
        return words - {dropped} if (n, kinds) == (4, ("T2Shape",)) else words

    monkeypatch.setattr(verify, "form_bits", short)
    assert verify.verify_theorem4()["ok"] is False
    assert run(["verify-theorem", "--id", "thm4"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_thm3_exits_1_when_the_two_routes_disagree(monkeypatch, capsys):
    # The brute scan on four points loses its last solution: the modular
    # route's count no longer matches it.
    original = search.solution_codes

    def short(n, values, equation, mode):
        sols = original(n, values, equation, mode)
        return sols[:-1] if (n, mode) == (4, "brute") else sols

    monkeypatch.setattr(search, "solution_codes", short)
    report = verify.verify_theorem3()
    assert report["ok"] is False
    assert report["cross_check"]["n4"] == report["n4"]["solutions"] - 1
    assert run(["verify-theorem", "--id", "thm3"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


# The first valuation on each power set becomes the cardinality function.
CARDINALITY_FAULT = """
from doorlab import verify
original = verify.two_valued_valuations

def with_cardinality(sigma):
    sols = original(sigma)
    if len(sigma) == 1 << sigma.n:
        sols[0] = {m: m.bit_count() for m in sols[0]}
    return sols
"""


def test_relative_exits_1_on_a_three_valued_valuation_under_O(monkeypatch, capsys):
    fault: dict = {}
    exec(CARDINALITY_FAULT, fault)
    monkeypatch.setattr(verify, "two_valued_valuations", fault["with_cardinality"])
    assert verify.verify_relative()["ok"] is False
    assert run(["verify-theorem", "--id", "relative-s1-s3"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False
    script = CARDINALITY_FAULT + (
        "import sys\n"
        "verify.two_valued_valuations = with_cardinality\n"
        "from doorlab.cli import run\n"
        "sys.exit(run(['verify-theorem', '--id', 'relative-s1-s3']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["ok"] is False


def test_relative_names_the_principal_filter_claim(monkeypatch, capsys):
    monkeypatch.setattr(filters, "is_ultrafilter", lambda fam, sigma: False)
    assert run(["verify-theorem", "--id", "relative-s1-s3"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["claim_falsified"] == "the principal filter at each atom is an ultrafilter"
    assert set(out["witness"]) == {"sigma", "atom"}


# One fault per verifier without a test above: (module attribute of `verify`,
# wrapper of the real function).  Each breaks one sub-check of its verifier.
def doubled_labels_on_three_points(original):
    def patched(t):
        lab = original(t)
        return replace(lab, labels=lab.labels * 2) if t.n == 3 else lab
    return patched


def lemma1_fails_on_five_points(original):
    return lambda t: (False, (1, 2, 0)) if t.n == 5 else original(t)


def last_occ_door_word_dropped_on_five_points(original):
    def patched(n, *args):
        rep, lists = original(n, *args)
        if n == 5:
            lists = {**lists, "occ_door": lists["occ_door"][:-1]}
        return rep, lists
    return patched


def ie3_negated_on_the_zero_function(original):
    return lambda n, codes: original(n, codes) != (not any(codes))


def last_closure_dfs_word_dropped_on_four_points(original):
    def patched(n, mode="auto"):
        words, rep = original(n, mode)
        return (words[:-1] if (n, mode) == (4, "closure_dfs") else words), rep
    return patched


VERIFIER_FAULTS = {
    "thm1-classification": ("classify_connected_door", doubled_labels_on_three_points),
    "lemmas-1-2": ("lemma1_check", lemma1_fails_on_five_points),
    "occ-converse": ("census", last_occ_door_word_dropped_on_five_points),
    "remarks": ("check_inclusion_exclusion3", ie3_negated_on_the_zero_function),
    "infrastructure": ("topology_words", last_closure_dfs_word_dropped_on_four_points),
}


@pytest.mark.parametrize("vid", sorted(VERIFIER_FAULTS))
def test_verifier_exits_1_on_an_injected_fault(monkeypatch, capsys, vid):
    name, wrap = VERIFIER_FAULTS[vid]
    monkeypatch.setattr(verify, name, wrap(getattr(verify, name)))
    assert verify.VERIFIERS[vid]()["ok"] is False
    assert run(["verify-theorem", "--id", vid]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_every_verifier_has_a_fault_test():
    tested = {"thm2", "thm4", "thm3", "part2-constructions", "relative-s1-s3"}
    assert tested | set(VERIFIER_FAULTS) == set(verify.VERIFIERS)


def filter_check_failing_on(fractional):
    """`increasing_filter_check` reporting a failure on the integer-valued
    functions (constants and scan solutions) or on the rational-weight
    samples: the two loops of `verify_remarks`, one each."""
    original = verify.increasing_filter_check

    def patched(f):
        rep = original(f)
        hit = any(v.re.denominator > 1 for v in f.values) == fractional
        return {**rep, "ok": False} if hit else rep
    return patched


@pytest.mark.parametrize("fractional", [False, True])
def test_remarks_exits_1_when_a_preimage_is_no_filter(monkeypatch, capsys, fractional):
    monkeypatch.setattr(verify, "increasing_filter_check", filter_check_failing_on(fractional))
    assert verify.verify_remarks()["ok"] is False
    assert run(["verify-theorem", "--id", "remarks"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_infrastructure_exits_1_when_the_solution_routes_disagree(monkeypatch, capsys):
    # The modular route loses its last eq2 solution on four points.
    original = verify.solution_codes

    def short(n, values, equation, mode):
        sols = original(n, values, equation, mode)
        return sols[:-1] if (n, equation, mode) == (4, "eq2", "modular") else sols

    monkeypatch.setattr(verify, "solution_codes", short)
    report = verify.verify_infrastructure()
    assert report["ok"] is False
    assert report["details"]["mode_agreement_solutions"] is False
    assert run(["verify-theorem", "--id", "infrastructure"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False
