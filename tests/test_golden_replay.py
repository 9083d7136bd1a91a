"""Replay the benchmark's recorded outputs (`perfbench/golden/`) in-process:
every pooled CLI command, every verifier report and the recorded
enumerations must reproduce their bytes.  The files are only read."""

import hashlib
import json
from pathlib import Path

import pytest

from doorlab.cli import run
from doorlab.search import enumerate_topologies
from doorlab.verify import VERIFIERS

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


def load(name):
    return json.loads((GOLDEN / name).read_text())


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


CLI_POOL = load("cli_pool.json")
VERIFY = load("verify.json")
ENUMERATE = load("enumerate.json")


def test_golden_files_cover_the_recorded_pool():
    assert sum(len(stratum["commands"]) for stratum in CLI_POOL.values()) == 159
    assert set(VERIFY) == set(VERIFIERS)
    assert set(ENUMERATE) == {"4", "6"}


@pytest.mark.parametrize("stratum", sorted(CLI_POOL))
def test_cli_pool_commands_reproduce_their_stdout(capsys, stratum):
    expect_exit = CLI_POOL[stratum]["expect_exit"]
    wrong = []
    for cmd in CLI_POOL[stratum]["commands"]:
        code = run(cmd["argv"])
        out = capsys.readouterr().out
        if (code, sha256(out)) != (expect_exit, cmd["sha256"]):
            wrong.append((cmd["argv"], code))
    assert wrong == []


@pytest.mark.parametrize("vid", list(VERIFIERS))
def test_verifier_report_reproduces_its_recorded_json(vid):
    assert json.dumps(VERIFIERS[vid](), indent=2, sort_keys=True) == VERIFY[vid]


@pytest.mark.parametrize("n", sorted(ENUMERATE))
def test_enumeration_reproduces_its_report_and_hex_list(n):
    tops, rep = enumerate_topologies(int(n), "closure_dfs")
    assert json.dumps(rep.to_json(), sort_keys=True) == ENUMERATE[n]["report"]
    assert sha256("\n".join(t.opens.to_hex() for t in tops)) == ENUMERATE[n]["hex_sha256"]
