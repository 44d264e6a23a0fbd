"""The compiled arithmetic of netblocks.f_mult (_kernel.c), built on
first use.

The library is compiled with the system C compiler, from the bytes the
key was taken of, into the package's __pycache__ directory, under a name
keyed by the CRC-32 of the source, the flags and the machine, so an
edited source or another machine gets a new file.  A process compiles
into a temporary directory beside it and renames the library into place,
so concurrent first uses each find a whole library.  The flags turn off
contraction into fused multiply-adds and every fast-math rewrite, and
name no -march, so each C operation is the IEEE operation numpy
performs.

library() returns the loaded library, or None when it cannot be had: no
compiler, a directory that cannot be written, a failed load.  Then f_mult
keeps its numpy path, which gives the same bits, for the rest of the
process.  This module imports subprocess and tempfile only to compile.
"""

import ctypes
import functools
import os
import zlib

SOURCE = os.path.join(os.path.dirname(__file__), "_kernel.c")
FLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")
# Where the library is compiled; a test points it at a fresh directory.
CACHE_DIR = os.path.join(os.path.dirname(__file__), "__pycache__")


def _compile(source, path):
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as tmp:
        built = os.path.join(tmp, os.path.basename(path))
        proc = subprocess.run(["cc", *FLAGS, "-o", built, "-x", "c", "-"],
                              input=source, capture_output=True)
        if proc.returncode:
            raise OSError(f"cc exited with status {proc.returncode}")
        os.replace(built, path)


def _load():
    with open(SOURCE, "rb") as f:
        source = f.read()
    key = zlib.crc32(b"\0".join([source, *map(str.encode, FLAGS),
                                 os.uname().machine.encode()]))
    path = os.path.join(CACHE_DIR, f"_kernel-{key:08x}.so")
    if not os.path.exists(path):
        os.makedirs(CACHE_DIR, exist_ok=True)
        _compile(source, path)
    lib = ctypes.CDLL(path)
    ptr, size, real = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_double
    lib.fm_halves.argtypes = [ptr, ptr, ptr, ptr, size, real]
    lib.fm_combine.argtypes = [ptr, ptr, ptr, size, real, real, real, real]
    lib.fm_halves.restype = lib.fm_combine.restype = None
    return lib


@functools.cache
def library():
    """The compiled kernel, or None where it cannot be built or loaded;
    resolved once per process."""
    try:
        return _load()
    except (OSError, AttributeError):  # no cc, no write access, a bad load
        return None
