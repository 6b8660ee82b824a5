"""scipy's compiled extension modules, loaded without the packages around
them.

The package calls two of scipy's extension modules: the HiGHS binding
`scipy.optimize._highspy._core` (in `solver`) and the sparse-matrix kernels
`scipy.sparse._sparsetools` (in `model`). `load` loads one from scipy's
install directly, as the import system would, but without running the
`__init__.py` of `scipy.optimize` or `scipy.sparse`. Importing those
packages pulls in `scipy.linalg`, `scipy.special`, `scipy.fft`,
`scipy.spatial` and, through scipy's array-API layer, `numpy.f2py` and
`numpy.testing`: more than half of the start-up time and memory of a process
that uses none of them. Each module is registered under its own name, so a
later `import scipy.optimize` or `import scipy.sparse` in the same process
reuses it rather than loading the extension again.
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import scipy


def load(name: str):
    """The extension module `name`, a dotted name under `scipy`, loaded
    without importing its package; the module already loaded if there is
    one."""
    if name in sys.modules:
        return sys.modules[name]
    where = os.path.join(scipy.__path__[0], *name.split(".")[1:-1])
    spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"collsched needs scipy>=1.17, whose extension module {name} "
                          f"is not in {where}")
    module = module_from_spec(spec)
    # Registered before it runs, as the import system does, so that a later
    # import of its package finds this module: one module, one set of types
    # in the process (a pybind11 module cannot be initialised twice).
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module
