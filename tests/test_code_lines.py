"""``scripts/code_lines.py``: code lines per package, or for one file."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

#: Three code lines: ``def f(x):`` and the two lines of the return.
SOURCE = '''"""Module docstring,
over two lines."""

# a comment
def f(x):
    """Docstring."""

    return (x +
            1)  # trailing comment
'''


def _run(*args, cwd):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], cwd=cwd, capture_output=True,
        text=True, timeout=60,
    )


def test_a_file_argument_prints_that_files_count(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(SOURCE)
    result = _run(str(path), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [str(path), "3"]


def test_a_source_root_prints_per_package_counts_and_a_missing_path_fails(tmp_path):
    package = tmp_path / "src" / "pkg" / "sub"
    package.mkdir(parents=True)
    (package / "a.py").write_text(SOURCE)
    (tmp_path / "src" / "pkg" / "b.py").write_text("x = 1\n")
    result = _run("src", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["pkg", "1", "pkg.sub", "3", "total", "4"]
    missing = _run("nope", cwd=tmp_path)
    assert missing.returncode != 0 and "nope" in missing.stderr
