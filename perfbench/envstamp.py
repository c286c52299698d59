"""Environment stamp recorded with every benchmark result."""

import ctypes
import hashlib
import importlib.util
import os
import platform
import subprocess
from pathlib import Path


def _git_commit(root: Path):
    # The ceiling keeps git from reporting an enclosing repository when
    # the checkout itself is not a git tree.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(package: Path) -> str:
    """SHA-256 over the package's Python sources, in path order; it
    identifies the code measured when the checkout is not a git tree."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas() -> dict:
    import numpy as np
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    info["threads"] = None
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    libs = sorted({line.split()[-1] for line in maps
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                info["library"] = Path(lib).name
                return info
    return info


def _cache_bytes(level: int):
    try:
        value = os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE")
        if value > 0:
            return int(value)
    except (ValueError, OSError):
        pass
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.exists() else ():
        try:
            if int((index / "level").read_text()) != level or \
                    (index / "type").read_text().strip() == "Instruction":
                continue
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
        return int(text.rstrip("KM")) * scale
    return None


def collect(root: Path) -> dict:
    """Stamp of the code and machine; call after heconet is imported."""
    import numpy as np
    from heconet import kernels
    return {
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root / "src" / "heconet"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_using_numba": bool(kernels.USING_NUMBA),
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
    }
