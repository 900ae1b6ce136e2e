"""scipy's compiled modules, loaded without their packages' `__init__`.

The package calls scipy's raw LAPACK and BLAS wrappers (`_flapack`,
`_fblas`) and its sparse matvec kernels (`_sparsetools`).  The public
imports of those run `scipy.linalg`'s or `scipy.sparse`'s package import
first, which loads scipy's array-API layer with numpy's f2py, testing and
masked-array packages: about 0.17 s, half of a short CLI process, while
the extension modules themselves load in a few milliseconds.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import scipy


def extension(package: str, name: str):
    """The extension module scipy.<package>.<name>.

    One already imported is returned as it is.  Otherwise its file in
    scipy's install directory is loaded under its full name and put in
    sys.modules, so that a later `import scipy.<package>` takes the same
    module object.  Where the file is not found or does not load, the
    module is imported the public way.  Either route gives the one module
    of the process, and so the very routines scipy's packages export.
    """
    full = f"scipy.{package}.{name}"
    module = sys.modules.get(full)
    if module is not None:
        return module
    folder = Path(scipy.__file__).parent / package
    files = (folder / (name + suffix) for suffix in importlib.machinery.EXTENSION_SUFFIXES)
    try:
        path = next(path for path in files if path.is_file())
        spec = importlib.util.spec_from_file_location(full, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception:  # no such file, or a scipy laid out otherwise
        return importlib.import_module(full)
    return sys.modules.setdefault(full, module)


#: the modules scipy.linalg.lapack and scipy.linalg.blas export from
lapack = extension("linalg", "_flapack")
blas = extension("linalg", "_fblas")
