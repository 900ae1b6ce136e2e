"""scipy's compiled modules are loaded without their packages.

`ssqp._scipy.extension` loads `_flapack`, `_fblas` and `_sparsetools`
from their files, so that a CLI process on a dense path never imports
scipy.linalg or scipy.sparse, whose package imports cost about half of
its start.  These tests hold that guard, and check that either route,
the file or the public import, gives the very routines scipy's packages
export, and so the same iterates.
"""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.linalg.blas
import scipy.linalg.lapack
import scipy.sparse

from ssqp import _scipy, csr, diagnostics, spaces, subproblem

PACKAGE = Path(_scipy.__file__).resolve().parent


def _python(code: str) -> str:
    """stdout of a fresh interpreter running `code` with this ssqp."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


#: packages whose import a dense CLI process must not pay for
PACKAGES = ("scipy.linalg", "scipy.sparse", "scipy._lib._array_api")

DENSE_COMMANDS = {
    "list": ["list"],
    "solve": ["solve", "--benchmark", "degenerate-line"],
    "diagnose-offset": ["diagnose", "--benchmark", "degenerate-line",
                        "--start-offset=0.013,-0.021", "--grid=0.3,1.7,4.2"],
    "diagnose-eigencontrol": ["diagnose", "--benchmark", "eigencontrol-n49", "--n", "200"],
}


@pytest.mark.parametrize("argv", DENSE_COMMANDS.values(), ids=DENSE_COMMANDS.keys())
def test_dense_commands_import_no_scipy_package(argv):
    # scipy.sparse.linalg is a subpackage of scipy.sparse, so it is absent too
    assert _python(
        "import contextlib, io, sys, ssqp.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = ssqp.cli.main({argv!r})\n"
        "print(code, *(name in sys.modules for name in "
        f"{(*PACKAGES, 'scipy.linalg._flapack')!r}))"
    ) == "0 False False False True"


def _called_routines() -> set[tuple[str, str]]:
    """(module, name) of each routine `lapack.d...` and `blas.d...` the
    sources name (not a pattern such as `lapack.dsy*`)."""
    return {found for path in PACKAGE.glob("*.py")
            for found in re.findall(r"\b(lapack|blas)\.(d\w+)\b(?!\*)", path.read_text())}


def test_bound_routines_are_the_ones_scipy_linalg_exports():
    exports = {"lapack": scipy.linalg.lapack, "blas": scipy.linalg.blas}
    assert _scipy.lapack is sys.modules["scipy.linalg._flapack"]
    assert _scipy.blas is sys.modules["scipy.linalg._fblas"]
    assert subproblem.lapack is diagnostics.lapack is _scipy.lapack
    called = _called_routines()
    assert {("lapack", "dsyevr"), ("lapack", "dgbtrf"), ("blas", "dnrm2")} <= called
    for module, name in called:
        assert getattr(getattr(_scipy, module), name) is getattr(exports[module], name), name
    assert spaces.dpotrf is scipy.linalg.lapack.dpotrf
    assert spaces.dnrm2 is scipy.linalg.blas.dnrm2
    from scipy.sparse import _sparsetools

    kernels = csr._kernels()
    assert kernels is not None
    for (kind, block), kernel in kernels.items():
        assert kernel is getattr(_sparsetools, f"{kind}_matvec{'s' * block}")


def test_a_module_already_imported_is_not_loaded_again(monkeypatch):
    def load(*args, **kwargs):
        raise AssertionError("a second copy was loaded")

    monkeypatch.setattr(importlib.util, "spec_from_file_location", load)
    monkeypatch.setattr(importlib, "import_module", load)
    for package, name in (("linalg", "_flapack"), ("linalg", "_fblas"),
                          ("sparse", "_sparsetools")):
        assert _scipy.extension(package, name) is sys.modules[f"scipy.{package}.{name}"]


def test_scipy_linalg_imported_first_is_reused():
    assert _python(
        "import importlib.util, sys, scipy.linalg\n"
        "def load(*args, **kwargs):\n"
        "    raise AssertionError('a second copy was loaded')\n"
        "importlib.util.spec_from_file_location = load\n"
        "from ssqp import _scipy, spaces\n"
        "print(_scipy.lapack is scipy.linalg.lapack._flapack,\n"
        "      spaces.dpotrf is scipy.linalg.lapack.dpotrf,\n"
        "      spaces.dnrm2 is scipy.linalg.blas.dnrm2)"
    ) == "True True True"


#: a degenerate-line solve's history and a diagnose run's output, digested,
#: after whether `import ssqp` imported scipy.linalg
HISTORY = """
import contextlib, hashlib, io, sys
import ssqp, ssqp.cli
public = 'scipy.linalg' in sys.modules
bm = ssqp.get_benchmark('degenerate-line')
report = ssqp.run(bm.problem, *bm.default_start(), reference=bm.reference)
digest = hashlib.sha256()
for rec in report.history:
    digest.update(rec.z.coords.tobytes() + rec.lam.coeffs.tobytes())
    digest.update(repr((rec.rho, rec.kkt.total, rec.total_err, rec.order)).encode())
out = io.StringIO()
with contextlib.redirect_stdout(out):
    ssqp.cli.main(['diagnose', '--benchmark', 'degenerate-line',
                   '--start-offset=0.013,-0.021', '--grid=0.3,1.7,4.2'])
digest.update(out.getvalue().encode())
import scipy.linalg
from ssqp import spaces
same = (ssqp._scipy.lapack is scipy.linalg.lapack._flapack
        and spaces.dpotrf is scipy.linalg.lapack.dpotrf
        and spaces.dnrm2 is scipy.linalg.blas.dnrm2)
print(public, same, len(report.history), digest.hexdigest())
"""


def test_public_route_binds_the_same_routines_and_iterates():
    # no extension suffix: every file lookup fails, and the loader
    # imports the modules through their packages
    public = _python("import importlib.machinery\n"
                     "importlib.machinery.EXTENSION_SUFFIXES = []\n" + HISTORY).split()
    direct = _python(HISTORY).split()
    assert public[:2] == ["True", "True"]
    assert direct[:2] == ["False", "True"]
    assert int(direct[2]) > 2
    assert public[2:] == direct[2:]
