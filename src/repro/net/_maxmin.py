"""Build and load the fabric's compiled max-min kernel, ``_maxmin.c``.

The kernel is compiled on first use with the C compiler that ``sysconfig``
reports (falling back to ``cc``) and cached as
``__pycache__/_maxmin.<hash>.so`` next to this file, or under the per-user
cache directory when that one is not writable.  The hash covers the source
and the flags, so an edited kernel is rebuilt and an unchanged one never is.
The flags keep the floating point strict (DESIGN.md §4n): ``-ffp-contract=off``
forbids fused multiply-adds, and ``-ffast-math`` is never used.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import tempfile
from pathlib import Path

__all__ = ["CFLAGS", "SOURCE", "build", "load"]

SOURCE = Path(__file__).with_name("_maxmin.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_P, _INT, _DOUBLE = ctypes.c_void_p, ctypes.c_int, ctypes.c_double
_INTS, _DOUBLES = ctypes.POINTER(_INT), ctypes.POINTER(_DOUBLE)
#: name: (restype, argtypes) of every kernel function.
_SIGNATURES = {
    "mm_new": (_P, [_INT, _DOUBLES, _DOUBLE]),
    "mm_free": (None, [_P]),
    "mm_add_path": (_INT, [_P, _INTS, _INT]),
    "mm_activate": (_INT, [_P, _DOUBLE, _INT, _DOUBLE]),
    "mm_set_bandwidth": (None, [_P, _INT, _DOUBLE]),
    "mm_progress": (None, [_P, _DOUBLE]),
    "mm_reallocate": (_DOUBLE, [_P]),
    "mm_finish": (_INT, [_P, _DOUBLE]),
    "mm_finished": (_INTS, [_P]),
    "mm_n_active": (_INT, [_P]),
    "mm_active": (None, [_P, _INTS, _DOUBLES, _DOUBLES]),
}


def compiler() -> list[str]:
    """The C compiler command: ``sysconfig``'s ``CC``, else ``cc``."""
    import shlex  # compile-time only, so kept out of every start-up
    import sysconfig

    configured = shlex.split(sysconfig.get_config_var("CC") or "")
    for command in (configured, ["cc"]):
        if command and shutil.which(command[0]):
            return command
    raise RuntimeError(
        "repro.net needs a C compiler to build its max-min kernel "
        f"({SOURCE.name}), but neither {' '.join(configured) or 'CC'!r} "
        "(sysconfig CC) nor 'cc' is on PATH"
    )


def cache_dir() -> Path:
    """``__pycache__`` beside the kernel source, else the per-user cache."""
    local = SOURCE.parent / "__pycache__"
    try:
        local.mkdir(exist_ok=True)
        if os.access(local, os.W_OK):
            return local
    except OSError:
        pass
    user = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "repro"
    user.mkdir(parents=True, exist_ok=True)
    return user


def build(source: Path = SOURCE, directory: Path | None = None) -> Path:
    """The shared library built from ``source``, compiling only when no
    library for this source and these flags is cached in ``directory``."""
    digest = hashlib.sha256(source.read_bytes() + " ".join(CFLAGS).encode()).hexdigest()
    directory = directory or cache_dir()
    target = directory / f"{source.stem}.{digest[:16]}.so"
    if target.exists():
        return target
    import subprocess  # compile-time only

    command = compiler()
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{target.name}.")
    os.close(fd)
    try:
        done = subprocess.run(
            [*command, *CFLAGS, "-o", tmp, str(source)], capture_output=True, text=True
        )
        if done.returncode:
            raise RuntimeError(
                f"compiling {source} with {' '.join(command)} failed:\n{done.stderr}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


@functools.cache
def load() -> ctypes.PyDLL:
    """The kernel, built if needed; its functions keep the GIL held."""
    lib = ctypes.PyDLL(str(build()))
    for name, (restype, argtypes) in _SIGNATURES.items():
        function = getattr(lib, name)
        function.restype = restype
        function.argtypes = argtypes
    return lib
