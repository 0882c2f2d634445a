"""Compiled stepping kernels of `enhq.dynamics`, loaded through ctypes.

`kernels.c`, shipped beside this module, holds toy gravity's bulk of exact
midpoint steps and rotsym's bulk of Newton plane steps, each the Python
loop of the same name in `dynamics` written in C with every float
operation in the same order, so that both give the same bits.  `load()`
builds the library on its first call, not at import: with the compiler
Python was built with (sysconfig's CC) and the fixed FLAGS alone, into
a cache directory of the user's own, under a name keyed by the sha256 of
the source, the compiler and the flags, so a changed source builds a new
library and an unchanged one is built once.  Where there is no compiler,
the build fails or times out, or the cache is not private or not
writable, `load()` returns None and `dynamics` steps its Python loops.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

import numpy as np

# each double operation rounded once, as Python rounds it: no fused
# multiply-add (-ffp-contract=off) and never -ffast-math
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
BUILD_TIMEOUT_S = 120.0


def _source() -> bytes:
    """The C source, read as package data, so an installed enhq builds it too."""
    from importlib import resources

    return resources.files(__package__).joinpath("kernels.c").read_bytes()


def _compiler() -> list[str]:
    """The C compiler command Python was built with."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _cache_dir() -> Path:
    """The per-user cache of built libraries, outside any checkout."""
    return Path.home() / ".cache" / "enhq"


def _sha256():
    """The interpreter's own sha256 constructor, as `random` takes its
    sha512: hashlib would map OpenSSL's libcrypto, 3.5 MB of resident
    memory.  The module is `_sha2` from CPython 3.12 on and `_sha256`
    before, so it is named at run time, each version trying both."""
    import importlib

    for name in ("_sha2", "_sha256"):
        try:
            return importlib.import_module(name).sha256
        except ImportError:
            pass
    from hashlib import sha256

    return sha256


def _private(path: Path) -> bool:
    """Whether path is the user's own and no one else can write to it."""
    st = path.stat()
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


@functools.cache
def load() -> Kernels | None:
    """The kernels from the default cache, built on the first call; None
    where they cannot be built or loaded."""
    try:
        cache = _cache_dir()
    except RuntimeError:  # no home directory
        return None
    return build(cache)


def build(cache: Path) -> Kernels | None:
    """The kernels from the library in cache, built first if it is missing.

    A failed or timed-out build leaves no compiler process and no
    temporary file behind, and returns None, as does a cache directory or
    library that another user owns or can write to: no library is loaded
    from a place someone else could plant it.
    """
    if os.name != "posix":
        return None
    import signal
    import subprocess
    import tempfile

    try:
        source, compiler = _source(), _compiler()
        key = _sha256()(b"\0".join([source, " ".join(compiler).encode(), " ".join(FLAGS).encode()]))
        lib = cache / f"kernels-{key.hexdigest()[:32]}.so"
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not _private(cache):
            return None
        if not lib.exists():
            fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=cache)
            os.close(fd)
            try:
                # a new session, so that a timeout kills the compiler's own
                # children too
                with subprocess.Popen([*compiler, *FLAGS, "-x", "c", "-", "-o", tmp],
                                      stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL, start_new_session=True) as cc:
                    try:
                        cc.communicate(source, timeout=BUILD_TIMEOUT_S)
                    except subprocess.TimeoutExpired:
                        os.killpg(cc.pid, signal.SIGKILL)
                        cc.wait()
                if cc.returncode != 0:
                    return None
                os.chmod(tmp, 0o600)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        if not _private(lib):
            return None
        import ctypes

        return Kernels(ctypes.CDLL(str(lib)))
    except OSError:
        return None


class Kernels:
    """The library's two kernels behind the signatures of the Python loops
    `dynamics._toy_gravity_bulk` and `dynamics._newton_bulk`.  Each call
    has its own buffers, so runs may step on several threads at once."""

    def __init__(self, lib):
        import ctypes

        double_p, long_ = ctypes.POINTER(ctypes.c_double), ctypes.c_long
        self._double, self._long = ctypes.c_double, long_
        self._toy = lib.toy_gravity_bulk
        self._toy.argtypes = (double_p, long_, long_, long_, ctypes.c_void_p,
                              ctypes.POINTER(long_))
        self._toy.restype = long_
        self._newton = lib.newton_bulk
        self._newton.argtypes = (ctypes.c_void_p, long_, double_p, long_)
        self._newton.restype = long_

    def toy_gravity_bulk(self, kept, n, left, stride, *state):
        """`dynamics._toy_gravity_bulk` in C; left and stride must lie in
        [1, n + 1], which a C long holds."""
        if not (1 <= n and 1 <= left <= n + 1 and 1 <= stride <= n + 1 and len(state) == 12):
            raise ValueError(f"bad bulk: n = {n}, left = {left}, stride = {stride}")
        s = (self._double * 13)(*state)
        rows = np.empty((3, n))
        m = self._long()
        i = self._toy(s, n, left, stride, rows.ctypes.data, m)
        m = m.value
        for buf, row in zip(kept, rows):
            buf.frombytes(row[:m].tobytes())
        return (i, m, s[12], *s[5:12])

    def newton_bulk(self, plane, first, n, gpp, gpq, gqq, dt, k0, w, tol, max_iter):
        """`dynamics._newton_bulk` in C."""
        if not (plane.dtype == np.float64 and plane.flags.c_contiguous
                and plane.shape[1:] == (2, 2) and 1 <= first and first + n <= len(plane)):
            raise ValueError("plane must be a C-contiguous float64 (T, 2, 2) array "
                             "holding rows first - 1 .. first + n - 1")
        par = (self._double * 7)(gpp, gpq, gqq, dt, k0, w, tol)
        return self._newton(plane.ctypes.data + (first - 1) * 32, n, par, max_iter)
