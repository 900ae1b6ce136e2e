"""Every certified benchmark reference is a KKT point whose stored
multiplier lies in its own multiplier set, over generated parameters."""

import numpy as np
import pytest

from ssqp.bench import make_degenerate_line, make_eigencontrol
from ssqp.diagnostics import multiplier_distance

pytest.importorskip("hypothesis")  # declared in the `test` extra
from hypothesis import given, settings
from hypothesis import strategies as st

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


@st.composite
def eigencontrol_parameters(draw):
    n = draw(st.integers(3, 60))
    return {
        "n": n,
        "u_d_mode": draw(st.integers(1, min(n, 4))),
        "q_d": draw(st.none() | st.floats(-40.0, 10.0)),
        "u_d_amp": draw(st.just(0.0) | st.floats(-1.0, 1.0)),
        "alpha": 10.0 ** draw(st.floats(-1.0, 1.0)),
    }


@st.composite
def spd_2x2(draw):
    entries = draw(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
    A = np.reshape(entries, (2, 2))
    return A @ A.T + 0.1 * np.eye(2)


def assert_certified(bm):
    ref = bm.reference
    assert ref is not None, bm.notes
    kkt = bm.problem.kkt_residual(ref.z_star, ref.lambda_star)
    assert kkt.total <= 1e-9
    dist, _ = multiplier_distance(ref, ref.lambda_star)
    assert dist <= 1e-12 * (1.0 + ref.space_y.dual_norm(ref.lambda_star))


@PROPERTY
@given(eigencontrol_parameters())
def test_eigencontrol_reference_is_a_certified_kkt_point(params):
    assert_certified(make_eigencontrol(**params))


@PROPERTY
@given(spd_2x2(), spd_2x2())
def test_degenerate_line_reference_is_a_certified_kkt_point(mass_z, mass_y):
    assert_certified(make_degenerate_line(mass_z, mass_y))
