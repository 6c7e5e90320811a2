"""Build and load the fabric's compiled max-min kernel, ``_maxmin.c``.

The kernel is a CPython extension module with one type, ``Kernel``: the
fluid state of one fabric's flows, its max-min solve and its completion
scan, behind methods that take and return only ints and floats (DESIGN.md
§4n).  It is compiled on first use with the C compiler that ``sysconfig``
reports (falling back to ``cc``) against this interpreter's headers
(``Python.h``, e.g. from ``python3-dev``), and cached as
``__pycache__/_maxmin.<hash><EXT_SUFFIX>`` next to this file, or under the
per-user cache directory when that one is not writable.  ``EXT_SUFFIX`` is
this interpreter's extension suffix, the first of
``importlib.machinery.EXTENSION_SUFFIXES``, read there rather than from
``sysconfig``, whose import would cost every process ~1.5 ms and ~0.25 MB
of memory just to find the cached module.  The hash
covers the source, the flags and that suffix, so an edited kernel or
another Python version is rebuilt and an unchanged one never is.
The flags keep the floating point strict: ``-ffp-contract=off`` forbids
fused multiply-adds, and ``-ffast-math`` is never used.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import tempfile
from importlib import machinery, util
from pathlib import Path
from types import ModuleType

__all__ = ["CFLAGS", "SOURCE", "build", "load"]

SOURCE = Path(__file__).with_name("_maxmin.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


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
    """The extension module built from ``source``, compiling only when no
    module for this source, these flags and this interpreter's extension
    suffix is cached in ``directory``."""
    suffix = machinery.EXTENSION_SUFFIXES[0]
    key = source.read_bytes() + " ".join(CFLAGS).encode() + suffix.encode()
    directory = directory or cache_dir()
    target = directory / f"{source.stem}.{hashlib.sha256(key).hexdigest()[:16]}{suffix}"
    if target.exists():
        return target
    import subprocess  # compile-time only
    import sysconfig

    include = sysconfig.get_path("include")
    if not os.path.exists(os.path.join(include, "Python.h")):
        raise RuntimeError(
            f"repro.net needs the Python headers to build its max-min kernel "
            f"({source.name}), but there is no Python.h in {include}; install "
            "the Python development package (e.g. python3-dev)"
        )
    command = compiler()
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{target.name}.")
    os.close(fd)
    try:
        done = subprocess.run(
            [*command, *CFLAGS, f"-I{include}", "-o", tmp, str(source)],
            capture_output=True, text=True,
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
def load() -> ModuleType:
    """The kernel module, built if needed; ``load().Kernel`` is its type."""
    path = str(build())
    loader = machinery.ExtensionFileLoader(__name__, path)
    module = util.module_from_spec(util.spec_from_file_location(__name__, path, loader=loader))
    loader.exec_module(module)
    return module
