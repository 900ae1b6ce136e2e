"""Callback faults end as a defined failure, over generated inputs.

On degenerate-line with seeded SPD metrics, one callback (grad_f, G,
jac_G or hess_L) returns a faulty value from its j-th call on: a NaN or
an infinity, a short, long or transposed shape, an asymmetric Hessian,
or a sparse matrix holding a NaN.  grad_f, G and jac_G are called once
per iterate and hess_L once per subproblem, so the fault first shows at
iterate j.  The solve must end SubproblemFailure at index j with a
message naming the callback, every record it kept must have a finite
KKT residual, and nothing may escape `run`.  The same callback returning
its correct value as a nested list must still converge.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from ssqp.bench import make_degenerate_line
from ssqp.solver import SolverOptions, SolveStatus, run
from saddle_reference import spd

pytest.importorskip("hypothesis")  # declared in the `test` extra
from hypothesis import given, settings
from hypothesis import strategies as st

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

CALLBACKS = ("grad_f", "G", "jac_G", "hess_L")
#: faults every callback can return, and those only matrices can
FAULTS = ("nan", "inf", "-inf", "short", "long", "transposed")
MATRIX_FAULTS = {"jac_G": ("sparse-nan",), "hess_L": ("asymmetric", "sparse-nan")}


def _faulty(value: np.ndarray, fault: str, entry: int) -> np.ndarray | sp.csr_matrix:
    """`value` (a vector or a matrix) spoiled by `fault`."""
    bad = value.astype(float)
    flat = bad.reshape(-1)
    if fault in ("nan", "inf", "-inf"):
        flat[entry % flat.size] = float(fault)
        return bad
    if fault == "short":
        return bad[:-1]
    if fault == "long":
        return np.concatenate([bad, bad[:1]])
    if fault == "transposed":
        # a vector as a row; a matrix as the transpose of a long one
        return bad[None, :] if bad.ndim == 1 else np.concatenate([bad, bad[:1]]).T
    if fault == "asymmetric":
        bad[0, 1] += 1e-3 * max(1.0, np.abs(bad).max())
        return bad
    if fault == "sparse-nan":
        flat[entry % flat.size] = np.nan
        return sp.csr_matrix(bad)
    raise AssertionError(fault)


def _spoiled(bm, name: str, spoil, first: int):
    """bm.problem whose callback `name` returns spoil(value) from its
    call number `first` (0-based) on."""
    p = bm.problem
    good = getattr(p, name)
    calls = [0]

    def callback(*args):
        out = good(*args)
        calls[0] += 1
        if calls[0] <= first:
            return out
        if name == "grad_f":
            return p.Z.functional(spoil(out.coeffs))
        if name == "G":
            return p.Y.vector(spoil(out.coords))
        return spoil(np.asarray(out))

    return dataclasses.replace(p, **{name: callback})


@st.composite
def faults(draw):
    name = draw(st.sampled_from(CALLBACKS))
    fault = draw(st.sampled_from(FAULTS + MATRIX_FAULTS.get(name, ())))
    return name, fault, draw(st.integers(0, 3)), draw(st.integers(0, 2))


@PROPERTY
@given(fault=faults(), seed=st.integers(0, 2**32 - 1))
def test_faulty_callback_is_a_subproblem_failure(fault, seed):
    name, kind, entry, first = fault
    rng = np.random.default_rng(seed)
    bm = make_degenerate_line(spd(rng, 2), spd(rng, 2))
    p = _spoiled(bm, name, lambda v: _faulty(v, kind, entry), first)
    report = run(p, *bm.default_start(), SolverOptions())
    assert report.status is SolveStatus.SUBPROBLEM_FAILURE
    assert report.failure_index == first
    assert report.failure_message.startswith(f"callback {name} ")
    assert all(np.isfinite(r.kkt.total) for r in report.history)
    assert [r.k for r in report.history] in (list(range(first)),
                                            list(range(first + 1)))


@PROPERTY
@given(name=st.sampled_from(CALLBACKS), seed=st.integers(0, 2**32 - 1))
def test_nested_list_output_is_valid(name, seed):
    rng = np.random.default_rng(seed)
    bm = make_degenerate_line(spd(rng, 2), spd(rng, 2))
    expected = run(bm.problem, *bm.default_start(), SolverOptions())
    p = _spoiled(bm, name, lambda v: v.tolist(), 0)
    report = run(p, *bm.default_start(), SolverOptions())
    assert report.status is SolveStatus.CONVERGED
    assert len(report.history) == len(expected.history)
    assert report.history[-1].kkt.total == expected.history[-1].kkt.total
