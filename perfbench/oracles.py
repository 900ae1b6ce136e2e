"""Correctness oracles computed apart from ssqp, from closed forms or NNLS.

Nothing here imports ssqp: every reference value is derived from the
problem data the benchmark generated, so a wrong answer from the program
cannot also be the expected one.  Tolerances and their derivations are in
README.md ("Correctness checks").
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import nnls

#: Stopping tolerance the in-process workloads pass to the solver.
STOP_TOL = 1e-10
#: Error allowed after a converged solve: STOP_TOL times a margin of 100
#: over the local error-bound constant (error / KKT residual), which is
#: at most ~2 on these problems (README).
ERR_TOL = 100 * STOP_TOL
#: Stopping tolerance on cone-many: the KKT feasibility residual of ssqp
#: has a floor of about sqrt(eps) |G(z*)| ~ 1e-7 at solutions off the cone
#: vertex (it subtracts squared norms), so 1e-10 is met only by rounding
#: luck; 1e-6 stays ten times above that floor (README).
CONE_STOP_TOL = 1e-6
#: Cone instances: error allowed relative to 1 + |x*|, 100 x CONE_STOP_TOL.
CONE_ERR_TOL = 100 * CONE_STOP_TOL
#: Closed-form diagnostics: singular values (relative to the largest) and
#: coercivity margins (relative, plus the eigensolver's error bound).
DIAG_TOL = 1e-7


# -- degenerate-line: z* = 0, multipliers {lambda1 + lambda2 = -1} -------

def degenerate_line_errors(z, lam, mass_z, mass_y) -> tuple[float, float]:
    """|z - 0|_Z and the Y*-distance of lam to the line lambda1+lambda2 = -1.

    Minimizing |lam - mu|_{Y*} over 1^T mu = -1 gives mu = lam - t M_Y 1
    with t = (1^T lam + 1) / (1^T M_Y 1), at distance |t| sqrt(1^T M_Y 1).
    """
    z = np.asarray(z, dtype=float)
    ones = np.ones(2)
    err_z = float(np.sqrt(max(z @ mass_z @ z, 0.0)))
    dist = abs(float(ones @ lam) + 1.0) / float(np.sqrt(ones @ mass_y @ ones))
    return err_z, dist


# -- eigencontrol: u* = 0, q* = -(2/h^2)(1 - cos(pi h)), span{sin(pi x)} --

def fd_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues (2/h^2)(1 - cos(k pi h)), k = 1..n, of the n-point -u''."""
    h = 1.0 / (n + 1)
    k = np.arange(1, n + 1)
    return (2.0 / h**2) * (1.0 - np.cos(k * np.pi * h))


def eigencontrol_q_star(n: int) -> float:
    return -float(fd_eigenvalues(n)[0])


def _laplacian_apply(u: np.ndarray, h: float) -> np.ndarray:
    padded = np.concatenate([[0.0], u, [0.0]])
    return (2.0 * u - padded[:-2] - padded[2:]) / h**2


def eigencontrol_errors(z, lam, n: int) -> tuple[float, float]:
    """|z - z*|_Z in the H^2 x R metric and the Y*-distance to span{phi}.

    Z carries h (I + A^T A) on the state and 1 on the control; Y carries
    h I, so |l|_{Y*}^2 = l^T l / h and the Y*-projection onto span{phi}
    is the Euclidean one.
    """
    h = 1.0 / (n + 1)
    z = np.asarray(z, dtype=float)
    e_u = z[:n]
    e_q = z[n] - eigencontrol_q_star(n)
    Ae = _laplacian_apply(e_u, h)
    err_z = float(np.sqrt(h * (e_u @ e_u + Ae @ Ae) + e_q**2))
    phi = np.sin(np.pi * h * np.arange(1, n + 1))
    lam = np.asarray(lam, dtype=float)
    rem = lam - (lam @ phi) / (phi @ phi) * phi
    return err_z, float(np.linalg.norm(rem) / np.sqrt(h))


def eigencontrol_singular_values(n: int) -> np.ndarray:
    """Metric-whitened singular values of G'(z*), descending.

    G'(z*) = [A - lambda_1 I, 0]; whitening by the Z and Y metrics gives
    (A - lambda_1 I)(I + A^2)^{-1/2}, with values
    |lambda_k - lambda_1| / sqrt(1 + lambda_k^2).
    """
    lam = fd_eigenvalues(n)
    return np.sort(np.abs(lam - lam[0]) / np.sqrt(1.0 + lam**2))[::-1]


def _margin_tolerance(margins, a_norms, m_inv_norm: float) -> np.ndarray:
    """DIAG_TOL relative, plus the forward-error bound of a Cholesky-reduced
    symmetric-definite eigensolver, 10 eps |A|_2 |M^{-1}|_2 (Golub & Van
    Loan, Matrix Computations, 4th ed., sec. 8.7).  For small rho the
    second term dominates: |A| grows like 1/rho."""
    eps = np.finfo(float).eps
    return DIAG_TOL * np.abs(margins) + 10.0 * eps * np.asarray(a_norms) * m_inv_norm


def eigencontrol_margins(n: int, rhos, alpha: float = 1.0):
    """Coercivity margins at (z*, lambda = 0) for each rho, with tolerances.

    H + J^T M_Y J / rho is block diagonal: h I + (h/rho)(A - lambda_1)^2
    on the state, alpha on the control; against the Z metric the state
    block has eigenvalues (1 + (lambda_k - lambda_1)^2 / rho) / (1 + lambda_k^2).
    """
    h = 1.0 / (n + 1)
    lam = fd_eigenvalues(n)
    rhos = np.asarray(rhos, dtype=float)
    margins = np.array([
        min(alpha, float(np.min((1.0 + (lam - lam[0]) ** 2 / r) / (1.0 + lam**2))))
        for r in rhos
    ])
    a_norms = np.maximum(alpha, h * (1.0 + (lam[-1] - lam[0]) ** 2 / rhos))
    m_inv_norm = 1.0 / min(1.0, h * (1.0 + lam[0] ** 2))
    return margins, _margin_tolerance(margins, a_norms, m_inv_norm)


def degenerate_line_singular_values(x1: float) -> np.ndarray:
    """G'(x) = [[1, 0], [1 + 2 x1, 0]] in identity metrics."""
    return np.array([np.hypot(1.0, 1.0 + 2.0 * x1), 0.0])


def degenerate_line_margins(x1: float, rhos):
    """Margins at lambda = (-1/2, -1/2), with tolerances.

    H = diag(0, 1) and J^T J = diag(s^2, 0), so the margin is min(s^2/rho, 1).
    """
    s2 = 1.0 + (1.0 + 2.0 * x1) ** 2
    rhos = np.asarray(rhos, dtype=float)
    margins = np.minimum(s2 / rhos, 1.0)
    return margins, _margin_tolerance(margins, np.maximum(s2 / rhos, 1.0), 1.0)


# -- cone-many: x* by NNLS on H-whitened generators, lambda* = -H(x* - c) --

def cone_solution(H, generators, center) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x*, lambda*, weights) for min 1/2 |x - c|_H^2 over the cone.

    With H = L L^T, |Y w - c|_H = |L^T Y w - L^T c|, so the weights solve a
    nonnegative least-squares problem.  Stationarity H (x* - c) + lambda = 0
    with the identity constraint map makes lambda* unique.
    """
    L = np.linalg.cholesky(H)
    w, _ = nnls(L.T @ generators, L.T @ center)
    x = generators @ w
    return x, -H @ (x - center), w


def cone_errors(z, lam, H, mass_y, x_star, lam_star) -> tuple[float, float]:
    """Relative errors |z - x*|_H / (1 + |x*|_H) and the Y* analogue."""
    e = np.asarray(z, dtype=float) - x_star
    d = np.asarray(lam, dtype=float) - lam_star
    dual = lambda v: float(np.sqrt(max(v @ np.linalg.solve(mass_y, v), 0.0)))
    err_z = float(np.sqrt(max(e @ H @ e, 0.0)))
    return (err_z / (1.0 + float(np.sqrt(x_star @ H @ x_star))),
            dual(d) / (1.0 + dual(lam_star)))
