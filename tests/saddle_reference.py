"""Plain-numpy reference for the stabilized subproblem, shared by the
subproblem tests: Wright's (1998) classical form, with an explicit M_Y^{-1}
and np.linalg.solve, for one activity pattern A

    [[H,  J^T,            0   ]  [d  ]   [-g                      ]
     [J,  -rho M_Y^{-1},  -Y_A]  [l  ] = [-G - rho M_Y^{-1} lam_k ]
     [0,  -Y_A^T,         0   ]] [c_A]   [0                       ]

(c_i = 0 off A), and for a cone over all 2^m patterns.  It reads only the
blocks of a dense SaddleSystem.  Also here: the invariants of every
subproblem solution, and the seeded matrices the tests draw.
"""

from itertools import combinations

import numpy as np

#: A pattern is sign-feasible when c_i >= -SIGN_TOL and <l, y_i> <= SIGN_TOL.
#: The bound is absolute: one relative to the pattern's solution grows
#: with the huge entries a nearly singular pattern returns, and could
#: accept that pattern.
SIGN_TOL = 1e-9


def orthonormal(rng, n: int, k: int) -> np.ndarray:
    """k orthonormal columns from the QR factor of an n x n Gaussian draw."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q[:, :k]


def spd(rng, n: int) -> np.ndarray:
    """Random SPD matrix with eigenvalues in [0.5, 2]."""
    q = orthonormal(rng, n, n)
    m = (q * rng.uniform(0.5, 2.0, n)) @ q.T
    return 0.5 * (m + m.T)


def pattern_solve(sys, gens: np.ndarray | None = None, active=()):
    """(d, l, c) of the classical system bordered by the generators
    (columns of `gens`) on `active`; c has one entry per generator.
    Raises np.linalg.LinAlgError on an exactly singular pattern."""
    nz, ny = sys.spaceZ.dim, sys.spaceY.dim
    if gens is None:
        gens = np.zeros((ny, 0))
    idx = list(active)
    na = len(idx)
    YA = gens[:, idx]
    Minv = np.linalg.inv(sys.spaceY.mass)
    A = np.block([
        [sys.H, sys.J.T, np.zeros((nz, na))],
        [sys.J, -sys.rho * Minv, -YA],
        [np.zeros((na, nz)), -YA.T, np.zeros((na, na))],
    ])
    rhs = np.concatenate([-sys.g, -sys.Gval - sys.rho * Minv @ sys.lamk.coeffs,
                          np.zeros(na)])
    x = np.linalg.solve(A, rhs)
    c = np.zeros(gens.shape[1])
    c[idx] = x[nz + ny :]
    return x[:nz], x[nz : nz + ny], c


def enumerate_patterns(sys, gens: np.ndarray):
    """(d, l, c) of the first sign-feasible pattern, trying all 2^m by size
    and skipping singular ones; the subproblem solution is unique."""
    m = gens.shape[1]
    for size in range(m + 1):
        for active in combinations(range(m), size):
            try:
                d, l, c = pattern_solve(sys, gens, active)
            except np.linalg.LinAlgError:
                continue
            if (c >= -SIGN_TOL).all() and (gens.T @ l <= SIGN_TOL).all():
                return d, l, c
    raise AssertionError("no sign-feasible pattern")


def check_solution_invariants(sys, cone, sol):
    """The residual bounds every subproblem solution must satisfy."""
    d = sol.z_next.coords - sys.zk.coords
    l = sol.lam_next.coeffs
    g_scale = 1.0 + sys.spaceZ.dual_norm_arr(sys.g)
    stat = sys.spaceZ.dual_norm_arr(sys.g + sys.J.T @ l + sys.H @ d)
    assert stat <= 1e-9 * g_scale
    r = sys.Gval + sys.J @ d - sys.rho * sys.spaceY.solve_mass(l - sys.lamk.coeffs)
    if cone is None or cone.m == 0:
        assert sys.spaceY.norm_arr(r) <= 1e-9 * (1.0 + sys.spaceY.norm_arr(sys.Gval))
        return
    pairings = cone.generator_matrix.T @ l
    assert (pairings <= 1e-10).all()
    c, residual = cone.coords(sys.spaceY.vector(r))
    assert residual <= 1e-9
    assert (c >= -1e-10).all()
    assert np.abs(c * pairings).max() <= 1e-9
