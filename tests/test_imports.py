"""Import graph: the package and every subcommand run on numpy alone, the
third-party modules it imports are its declared dependencies, no module
imports a name it never uses, and every name a module exports exists."""

import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _scipy_modules(code: str, cwd) -> list[str]:
    """scipy modules loaded after running `code` in a fresh interpreter."""
    probe = code + ("\nimport json, sys\n"
                    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy(tmp_path):
    assert _scipy_modules("import enhq.cli", tmp_path) == []


def test_inequality_import_loads_no_scipy(tmp_path):
    assert _scipy_modules("import enhq.inequality", tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["rotsym", "--N", "6", "--t-end", "0.01"],
    ["dynamics", "--hbar", "0", "--t-end", "0.5"],
    ["dynamics", "--hbar", "0"],
    ["dynamics", "--hbar", "1", "--beta", "2"],
    ["dynamics", "--model", "oscillator"],
    ["wcp", "--family", "affine"],
    ["dynamics", "--model", "oscillator", "--t-end", "1"],
    ["dynamics", "--hbar", "0.5", "--beta", "2", "--p0=-2", "--t-end", "1"],
    ["wcp"],
    ["metric", "--family", "affine"],
    ["metric"],
    ["metric", "--family", "spin", "--s", "1.5"],
    ["inequality"],
    ["selftest"],
])
def test_scipy_free_subcommands(tmp_path, argv):
    # C', affine surfaces and the affine metric are exact Gamma moments, the
    # canonical and spin spectra are numpy's eigh, and the inequality's
    # Gamma(a, x) is its own series and continued fraction
    code = f"from enhq.cli import run\nassert run({argv!r}) == 0"
    assert _scipy_modules(code, tmp_path) == []


def _third_party_imports() -> set[str]:
    """Top-level modules that src/enhq imports from outside the standard library."""
    names = set()
    for path in (SRC / "enhq").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "enhq"}


def test_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert _third_party_imports() == {re.match(r"[A-Za-z0-9_.-]+", d)[0] for d in deps}


def _unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # names listed in __all__ are exported, so used
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    unused = [u for path in sorted((SRC / "enhq").glob("*.py")) for u in _unused_imports(path)]
    assert unused == []


def test_every_all_entry_resolves():
    # tracers and star-imports read every entry, so a stale one breaks them
    missing = []
    for path in sorted((SRC / "enhq").glob("*.py")):
        mod = importlib.import_module("enhq" if path.stem == "__init__" else f"enhq.{path.stem}")
        missing += [f"{mod.__name__}.{name}" for name in getattr(mod, "__all__", ())
                    if not hasattr(mod, name)]
    assert missing == []
