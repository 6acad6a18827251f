"""Build-on-first-use loader of the compiled hop chain (``_core.c``).

:func:`load_core` returns the extension module, compiling it when no build of
*this* source for *this* interpreter exists yet.  A build lives in a directory
named after ``sha256(source, Python version, EXT_SUFFIX, compiler flags)`` —
so an edited ``_core.c``, another interpreter or other flags never load a
stale binary, and nothing ever needs invalidating by hand — under

* ``src/repro/simulation/soa/_build/`` (ignored by git) when the package
  directory is writable, else
* ``<tempdir>/repro-soa-<uid>/``, which must be a real directory owned by the
  current user with mode 0700, or it is refused: a shared object is code.

Concurrent first builds (pool workers, two test processes) are safe: each
compiles to a unique temporary name and publishes with :func:`os.replace`, so
a loader sees either no file or a complete one, and the loser of the race
merely overwrites an identical file.  A compile into the source tree removes
the builds of every other key beside it (earlier versions of the source): a
process that already loaded one keeps its mapping.

Where the build fails — no compiler, no ``Python.h``, a compile error —
:class:`CoreUnavailable` carries the reason (the compiler's stderr included),
and ``create_engine("soa", …)`` falls back to the ``object`` engine.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import stat
import sys
import tempfile
from pathlib import Path
from types import ModuleType
from typing import List, Union

__all__ = ["CoreUnavailable", "load_core"]

SOURCE = Path(__file__).with_name("_core.c")
MODULE_NAME = "repro.simulation.soa._core"
COMPILER = "cc"
FLAGS = ("-O2", "-shared", "-fPIC")
EXT_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]
COMPILE_TIMEOUT_S = 300


class CoreUnavailable(ImportError):
    """The compiled core could not be built or loaded; the message says why."""


#: What the first :func:`load_core` of this process found: the module, or why
#: there is none (one build attempt per process, like any import).
_loaded: Union[ModuleType, CoreUnavailable, None] = None


def load_core() -> ModuleType:
    """The ``_core`` extension module, built first if need be."""
    global _loaded
    if _loaded is None:
        try:
            _loaded = _import(_build())
        except CoreUnavailable as exc:
            _loaded = exc
    if isinstance(_loaded, CoreUnavailable):
        raise _loaded
    return _loaded


def _build_key(source: bytes) -> str:
    digest = hashlib.sha256(source)
    for part in (sys.version, EXT_SUFFIX, COMPILER, *FLAGS):
        digest.update(b"\0" + part.encode())
    return digest.hexdigest()[:20]


def _private_temp_dir() -> Path:
    """The per-user cache under the temp dir, created 0700 — or refused."""
    path = Path(tempfile.gettempdir()) / f"repro-soa-{os.getuid()}"
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    info = os.lstat(path)
    if (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid != os.getuid()
        or stat.S_IMODE(info.st_mode) != 0o700
    ):
        raise CoreUnavailable(
            f"refusing the build cache {path}: it must be a directory owned by "
            f"uid {os.getuid()} with mode 0700"
        )
    return path


def _compile_command(output: Path) -> List[str]:
    import sysconfig

    paths = sysconfig.get_paths()
    includes = dict.fromkeys((paths["include"], paths["platinclude"]))
    return [COMPILER, *FLAGS, *(f"-I{path}" for path in includes), str(SOURCE), "-o", str(output)]


def _compile(target: Path) -> None:
    """Compile ``_core.c`` to ``target`` (complete or absent, never partial)."""
    import subprocess

    try:
        handle, temporary = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    except OSError as exc:
        raise CoreUnavailable(f"cannot write to {target.parent}: {exc}") from exc
    os.close(handle)
    try:
        try:
            done = subprocess.run(
                _compile_command(Path(temporary)),
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                timeout=COMPILE_TIMEOUT_S,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise CoreUnavailable(f"cannot run the C compiler {COMPILER!r}: {exc}") from exc
        if done.returncode != 0:
            raise CoreUnavailable(
                f"{COMPILER} failed on {SOURCE.name} (exit {done.returncode}):\n{done.stdout}"
            )
        # ``mkstemp`` made it 0600; whoever may read the tree may load it.
        os.chmod(temporary, 0o755)
        # Concurrent builders each publish a complete file; the last one wins
        # and a process that already mapped an earlier one keeps its inode.
        os.replace(temporary, target)
    finally:
        try:
            os.unlink(temporary)
        except FileNotFoundError:
            pass


def _build() -> Path:
    """The shared object of the current source, compiled if it is not there."""
    try:
        source = SOURCE.read_bytes()
    except OSError as exc:
        raise CoreUnavailable(f"cannot read {SOURCE}: {exc}") from exc
    key = _build_key(source)
    name = f"_core{EXT_SUFFIX}"
    target = SOURCE.with_name("_build") / key / name
    if target.exists():
        return target
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        in_tree = os.access(target.parent, os.W_OK)
    except OSError:
        in_tree = False
    if not in_tree:
        try:
            target = _private_temp_dir() / key / name
            target.parent.mkdir(exist_ok=True)
        except OSError as exc:
            raise CoreUnavailable(f"no writable build directory: {exc}") from exc
    if not target.exists():
        _compile(target)
        if in_tree:  # the builds of earlier sources beside it are stale
            with contextlib.suppress(OSError):
                for entry in target.parent.parent.iterdir():
                    if entry.name != key and entry.is_dir():
                        shutil.rmtree(entry, ignore_errors=True)
    return target


def _import(path: Path) -> ModuleType:
    loader = importlib.machinery.ExtensionFileLoader(MODULE_NAME, str(path))
    spec = importlib.util.spec_from_file_location(MODULE_NAME, str(path), loader=loader)
    try:
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    except ImportError as exc:
        raise CoreUnavailable(f"cannot load {path}: {exc}") from exc
    return module
