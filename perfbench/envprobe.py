"""Print, as one JSON object, the library stack a fixnet operation runs on.

Run it with the same interpreter and environment as the operations:

    python3 perfbench/envprobe.py

It imports numpy and scipy.linalg the way fixnet does, then asks every
OpenBLAS library mapped into this process for its version string and its
effective thread count.
"""

import ctypes
import json
import platform

import numpy
import scipy
import scipy.linalg  # noqa: F401  (maps scipy's own OpenBLAS)


# (thread count, version string) entry points, with and without the 64-bit
# integer suffix that numpy's bundled OpenBLAS uses.
_SYMBOLS = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_get_config{suffix}")
            for suffix in ("64_", "") for prefix in ("scipy_openblas", "openblas")]


def _openblas_libraries():
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            name = path.rsplit("/", 1)[-1]
            if "openblas" in name and ".so" in name:
                paths.add(path)
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for threads_name, config_name in _SYMBOLS:
            if not (hasattr(lib, threads_name) and hasattr(lib, config_name)):
                continue
            threads, config = getattr(lib, threads_name), getattr(lib, config_name)
            threads.argtypes, threads.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            found.append({
                "library": path.rsplit("/", 1)[-1],
                "config": config().decode().strip(),
                "threads": threads(),
            })
            break
    return found


if __name__ == "__main__":
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_libraries(),
    }, sort_keys=True))
