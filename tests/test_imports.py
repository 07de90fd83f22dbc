"""Every name a module of the package imports is used in that module, the
package imports nothing beyond the standard library and numpy, and a fresh
process running a command line call loads only its subcommand's layers."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cubekit"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read; ``__future__`` imports and
    names listed in ``__all__`` count as used."""
    tree = ast.parse(source)
    bound = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(bound - used)


def test_unused_imports_are_found():
    src = "import os, sys as system\nfrom a.b import c, d as e\nprint(os, e)\n"
    assert unused_imports(src) == ["c", "system"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def foreign_imports(source: str) -> list[str]:
    """Top-level names of imported modules that are neither in the standard
    library nor numpy nor this package (relative imports are the package)."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "cubekit"}
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return sorted(found - allowed)


def test_foreign_imports_are_found():
    src = "import os, numpy.linalg\nfrom scipy.sparse import csr_matrix\nfrom . import median\n"
    assert foreign_imports(src) == ["scipy"]
    assert foreign_imports("def f():\n    import networkx as nx\n") == ["networkx"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_stdlib_and_numpy_are_imported(path):
    assert foreign_imports(path.read_text()) == []


LAYERS = ("median", "diagnostics", "racg", "smallcancel", "polygonal", "formats")


def run_fresh(*argvs) -> tuple[list, set[str]]:
    """Exit codes of ``cli.main`` on each argv, run in one fresh interpreter,
    and the modules of this package and of numpy loaded by then."""
    script = (
        "import contextlib, io, sys\n"
        "from cubekit import cli\n"
        "codes = []\n"
        f"for argv in {list(argvs)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        try:\n"
        "            codes.append(cli.main(argv))\n"
        "        except SystemExit as e:\n"
        "            codes.append(e.code)\n"
        "print(codes)\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] in ('cubekit', 'numpy')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    codes, modules = proc.stdout.splitlines()[-2:]
    return ast.literal_eval(codes), set(modules.split())


def loaded_layers(modules: set[str]) -> set[str]:
    return {layer for layer in LAYERS if f"cubekit.{layer}" in modules}


def test_cli_import_version_help_and_usage_errors_load_no_layer():
    codes, modules = run_fresh(
        ["--version"], ["--help"], ["diag", "grid", "--help"], ["poly", "bogus"]
    )
    assert codes == [0, 0, 0, 2]
    assert modules == {"cubekit", "cubekit.cli", "cubekit.errors"}


def test_cli_import_loads_no_dataclasses():
    # the report is a plain dict, so the command line's own import stays small
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cubekit.cli; print('dataclasses' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_sc_check_loads_no_numpy(tmp_path):
    path = tmp_path / "g.pres"
    path.write_text("generators a b\nparam n = 1,2,3\nrelator (a^n b^n)^5\n")
    codes, modules = run_fresh(["--json", "sc", "check", str(path)])
    assert codes == [0]
    assert loaded_layers(modules) == {"smallcancel", "formats"}
    assert not any(m.split(".")[0] == "numpy" for m in modules)


def test_median_check_loads_only_median_and_formats(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text("".join(f"vertex {v}\n" for v in "abcd") + "edge a b\nedge b c\nedge c d\nedge d a\n")
    codes, modules = run_fresh(["--json", "median", "check", str(path)])
    assert codes == [0]
    assert loaded_layers(modules) == {"median", "formats"}


def test_racg_loads_numpy_only_for_balls(tmp_path):
    path = tmp_path / "c4.graph"
    path.write_text("".join(f"vertex {v}\n" for v in "abcd") + "edge a b\nedge b c\nedge c d\nedge d a\n")
    p = str(path)
    codes, modules = run_fresh(
        ["--json", "racg", "nf", p, "a", "b", "c", "a"], ["--json", "racg", "squares", p],
        ["--json", "racg", "jdecomp", p], ["--json", "racg", "relhyp", p],
        ["--json", "racg", "contracting", p],
    )
    assert codes == [0, 0, 0, 1, 0]
    assert loaded_layers(modules) == {"racg", "formats"}
    assert not any(m.split(".")[0] == "numpy" for m in modules)
    codes, modules = run_fresh(["--json", "racg", "ball", p, "-r", "2"])
    assert codes == [0]
    assert loaded_layers(modules) == {"racg", "formats", "median"}
