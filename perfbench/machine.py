"""The machine and software a result was measured on."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size and kind != "Instruction":
            out[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return out


def _openblas() -> dict:
    """OpenBLAS build string and thread count, asked of the library numpy loaded."""
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    info["threads"] = get_threads()
                    info["config"] = get_config().decode()
                    return info
    return info


def _git_commit(root: Path) -> str:
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(root / ".git" / ref)
    if commit:
        return commit
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_info(root: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas(),
        "blas_env": {k: os.environ.get(k, "unset (library default)") for k in _BLAS_ENV},
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    }
