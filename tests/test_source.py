"""The library source keeps to 79-character lines."""

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
