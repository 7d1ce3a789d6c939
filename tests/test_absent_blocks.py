"""An absent memory block is a zero-row history and zero weights, never None."""
import ast
from pathlib import Path

import memoplate

PACKAGE = Path(memoplate.__file__).parent

# the histories, their weights, steppers and reconstructions: arrays or
# objects that exist for every block, empty when the block is absent
NEVER_NONE = {"eta", "xi", "w_mu", "w_nu", "w_beta", "eta_t", "xi_t", "eta_hat", "xi_hat"}


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def none_tests() -> list[str]:
    """``x is None`` / ``x is not None`` tests on a NEVER_NONE name, as
    "file:line"."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + node.comparators
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Is, ast.IsNot)):
                    continue
                for value, other in ((left, right), (right, left)):
                    if (isinstance(other, ast.Constant) and other.value is None
                            and _name(value) in NEVER_NONE):
                        found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_none_test_on_a_memory_block():
    assert none_tests() == []
