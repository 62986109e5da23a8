"""Numba acceleration switch.

Hot kernels are written once in numba-compatible numpy style and compiled
with ``@maybe_njit``. Setting the environment variable
``PANOLOC_DISABLE_NUMBA=1`` (or numba being absent) selects the pure-Python
path for every kernel. Compiled kernels keep a reference to their original
function in ``.py_func``, so both paths stay callable for benchmarking and
cross-checking regardless of the flag.
"""

import os

__all__ = ["ACCEL_MODE", "NUMBA_ENABLED", "maybe_njit"]

_disable = os.environ.get("PANOLOC_DISABLE_NUMBA", "").strip().lower()
_DISABLED = _disable in {"1", "true", "yes", "on"}

try:
    if _DISABLED:
        raise ImportError("numba disabled via PANOLOC_DISABLE_NUMBA")
    from numba import njit as _njit

    NUMBA_ENABLED = True
    ACCEL_MODE = "numba"
except ImportError:
    NUMBA_ENABLED = False
    ACCEL_MODE = "numba disabled" if _DISABLED else "numba missing"


def maybe_njit(*args, **kwargs):
    """``numba.njit`` when acceleration is on, identity decorator otherwise.

    The undecorated function remains reachable as ``fn.py_func`` in both
    modes.
    """
    if NUMBA_ENABLED:
        return _njit(*args, **kwargs)

    def _decorate(func):
        func.py_func = func
        return func

    return _decorate
