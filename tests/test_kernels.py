"""The compiled stepping kernels: built lazily into a private per-user
cache, and replaced by the Python loops, with the same tables, wherever
they cannot be built."""

import os
import pathlib
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from enhq import kernels
from enhq.cli import run

ROOT = pathlib.Path(__file__).resolve().parents[1]
ARGVS = [
    ["dynamics", "--hbar", "1", "--beta", "2", "--p0=-1.5", "--t-end", "1", "--stride", "7"],
    ["dynamics", "--hbar", "0", "--p0=-1.2", "--t-end", "3"],
    ["rotsym", "--N", "6", "--t-end", "0.5"],
]


def _have_compiler() -> bool:
    return shutil.which(kernels._compiler()[0]) is not None


def _tables(tmp_path, name):
    """The bytes of every table the ARGVS write, and their stderr."""
    tables = []
    for k, argv in enumerate(ARGVS):
        out = tmp_path / f"{name}-{k}"
        assert run(["--out", str(out), *argv]) == 0
        tables += [p.read_bytes() for p in sorted(out.iterdir()) if p.suffix == ".csv"]
    return tables


def _running(pid: int) -> bool:
    """Whether process pid exists and is no zombie."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_the_kernels_build_where_a_compiler_is():
    if not _have_compiler():
        pytest.skip("no C compiler: every run steps on the Python loops")
    assert kernels.load() is not None


def test_import_builds_and_loads_nothing(tmp_path):
    # a fresh interpreter with an empty home: importing creates no cache
    # and maps no library; the first run builds and loads it
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("needs /proc to read the process's mapped libraries")
    code = "\n".join([
        "import pathlib",
        "import enhq.cli, enhq.dynamics",
        "def state():",
        "    maps = pathlib.Path('/proc/self/maps').read_text()",
        "    print(pathlib.Path.home().joinpath('.cache').exists(), 'kernels-' in maps)",
        "state()",
        "from enhq.dynamics import integrate, toy_gravity_flow",
        "integrate(toy_gravity_flow(), (-1.0, 1.0), 0.5)",
        "state()",
    ])
    env = {**os.environ, "HOME": str(tmp_path), "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[:2] == ["False", "False"]
    if _have_compiler():
        assert done.stdout.split()[2:] == ["True", "True"]


@pytest.mark.parametrize("broken", ["missing compiler", "failing build", "unwritable cache"])
def test_unbuilt_kernels_fall_back_to_the_same_tables(tmp_path, monkeypatch, capsys, broken):
    compiled = _tables(tmp_path, "compiled")
    cache = tmp_path / "cache"
    if broken == "missing compiler":
        monkeypatch.setattr(kernels, "_compiler", lambda: [str(tmp_path / "no-such-cc")])
    elif broken == "failing build":
        source = kernels._source()
        monkeypatch.setattr(kernels, "_source", lambda: source + b"\n#error broken\n")
    else:
        cache = tmp_path / "a-file" / "cache"  # no directory can be made there
        cache.parent.write_text("")
    monkeypatch.setattr(kernels, "load", lambda: kernels.build(cache))
    assert kernels.build(cache) is None
    capsys.readouterr()
    assert _tables(tmp_path, "fallback") == compiled
    assert "Traceback" not in capsys.readouterr().err
    if cache.is_dir():
        assert list(cache.iterdir()) == []  # no library and no temporary file


def test_build_timeout_leaves_no_process_and_no_file(tmp_path, monkeypatch):
    # the compiler and a child of its own outlive the timeout; both are killed
    pids = tmp_path / "pids"
    slow = tmp_path / "slow-cc"
    slow.write_text(f"#!/bin/sh\nsleep 60 &\necho $! $$ > {pids}\nexec sleep 60\n")
    slow.chmod(0o755)
    monkeypatch.setattr(kernels, "_compiler", lambda: [str(slow)])
    monkeypatch.setattr(kernels, "BUILD_TIMEOUT_S", 2.0)
    cache = tmp_path / "cache"
    start = time.monotonic()
    assert kernels.build(cache) is None
    assert time.monotonic() - start < 30
    assert list(cache.iterdir()) == []
    pid_list = [int(x) for x in pids.read_text().split()]
    deadline = time.monotonic() + 10
    while any(map(_running, pid_list)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, pid_list))


def test_changed_source_builds_a_new_library(tmp_path, monkeypatch):
    if not _have_compiler():
        pytest.skip("no C compiler")
    cache = tmp_path / "cache"
    assert kernels.build(cache) is not None
    (first,) = cache.iterdir()
    built = first.stat().st_mtime_ns
    assert kernels.build(cache) is not None  # the same source is built once
    assert list(cache.iterdir()) == [first] and first.stat().st_mtime_ns == built
    source = kernels._source()
    monkeypatch.setattr(kernels, "_source", lambda: source + b"\n/* changed */\n")
    assert kernels.build(cache) is not None
    assert len(list(cache.iterdir())) == 2


def test_cache_is_private(tmp_path):
    if not _have_compiler():
        pytest.skip("no C compiler")
    home = pathlib.Path.home().resolve()
    default = kernels._cache_dir().resolve()
    assert default.is_relative_to(home) and not default.is_relative_to(ROOT)
    cache = tmp_path / "new" / "cache"
    assert kernels.build(cache) is not None
    (lib,) = cache.iterdir()
    for path in (cache, lib):
        st = path.stat()
        assert st.st_uid == os.getuid() and not st.st_mode & 0o077


def test_shared_places_are_refused(tmp_path):
    # nothing is built in, or loaded from, a directory that others can
    # write to, nor is a library that others can write to loaded
    if not _have_compiler():
        pytest.skip("no C compiler")
    own = tmp_path / "own"
    assert kernels.build(own) is not None
    (lib,) = own.iterdir()
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o777)
    shutil.copy(lib, shared / lib.name)  # a library planted where the build would look
    assert kernels.build(shared) is None
    assert [p.name for p in shared.iterdir()] == [lib.name]
    lib.chmod(0o666)
    assert kernels.build(own) is None


def test_bulks_refuse_what_a_c_long_cannot_hold():
    lib = kernels.load()
    if lib is None:
        pytest.skip("no compiled kernels here")
    state = (0.0, 1e-12, 5e-5, 1e-12, 1e-4, 0.0, 0.0, -1.0, 1.0, 1.0, 1.0, 1.0)
    kept = ([], [], [])
    for left, stride in ((1, 2**64 + 3), (2**63, 1), (0, 1), (1, 6)):
        with pytest.raises(ValueError, match="bad bulk"):
            lib.toy_gravity_bulk(kept, 4, left, stride, *state)
    with pytest.raises(ValueError, match="plane must be"):
        lib.newton_bulk(np.zeros((3, 2, 2)), 1, 3, 1.0, 0.0, 1.0, 1e-4, 1e-8, 2e-8, 1e-13, 100)
