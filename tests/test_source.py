import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "doorlab"


def test_no_assert_in_src():
    """Claim checks raise real errors, so they still run under python -O."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert list(SRC.glob("*.py"))
    assert found == []
