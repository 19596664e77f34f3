"""The library source keeps to 79-character lines, runs no code it builds
at run time, imports the standard library and numpy only, and raises no
rule's values to a power with numpy's own power functions."""

import ast
import sys
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


def test_source_imports_the_standard_library_and_numpy_only():
    # numpy is the one declared dependency; relative imports stay inside
    # the package
    allowed = sys.stdlib_module_names | {"numpy"}
    files = sorted(SOURCE.rglob("*.py"))
    assert files
    foreign = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.relative_to(SOURCE)}:{node.lineno}: {name}"
                        for name in names
                        if name.split(".")[0] not in allowed]
    assert not foreign, "\n".join(foreign)


def test_rules_never_call_numpys_power():
    # np.power and np.float_power round some powers otherwise than
    # Python's float ** int: with numpy 2.4.6 on an AVX-512 x86-64, on 32
    # of the 10^5 values of 3^(-n) and on 5,087 of those of (1/(n+1))^3,
    # so the block evaluator would lose the bits of the scalar rule
    path = SOURCE / "rules.py"
    uses = [f"rules.py:{node.lineno}: np.{node.attr}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and node.attr in ("power", "float_power")]
    assert not uses, "\n".join(uses)
