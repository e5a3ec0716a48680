"""A dropped copy of the package is freed.

``bench/harness.py`` imports the package afresh for each set-up.  Nothing
global may keep a dropped copy alive: ``typing`` caches every subscripted
form built at import time, such as ``Union[A, B]``, and through its
classes it would keep every module of that copy resident for good.
"""

import gc
import importlib
import sys
import weakref


def _package_modules():
    return {k: v for k, v in sys.modules.items() if k == "cyclechain" or k.startswith("cyclechain.")}


def _fresh_copy_class():
    """A weak reference to CycleSum of a fresh copy of the package, dropped
    again before returning; the modules imported before are restored."""
    saved = _package_modules()
    for k in saved:
        del sys.modules[k]
    try:
        importlib.import_module("cyclechain.cli")
        importlib.import_module("cyclechain.selftest")
        ref = weakref.ref(sys.modules["cyclechain.cycles"].CycleSum)
    finally:
        for k in _package_modules():
            del sys.modules[k]
        sys.modules.update(saved)
    return ref


def test_a_dropped_copy_of_the_package_is_freed():
    ref = _fresh_copy_class()
    gc.collect()
    assert ref() is None
