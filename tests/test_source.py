"""The library source keeps to 79-character lines, and runs no code it
builds at run time."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "convderiv"
LIMIT = 79


def test_source_lines_fit_the_limit():
    files = [path for path in sorted(SOURCE.rglob("*"))
             if path.is_file() and "__pycache__" not in path.parts]
    assert files
    long = [f"{path.relative_to(SOURCE)}:{number}: {len(line)} characters"
            for path in files
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > LIMIT]
    assert not long, "\n".join(long)


def test_source_calls_no_exec_eval_or_compile():
    # a rule is evaluated by walking its program, never as generated
    # source; re.compile and other attribute calls are not these builtins
    files = sorted(SOURCE.rglob("*.py"))
    assert files
    calls = [f"{path.relative_to(SOURCE)}:{node.lineno}: {node.func.id}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id in ("exec", "eval", "compile")]
    assert not calls, "\n".join(calls)
