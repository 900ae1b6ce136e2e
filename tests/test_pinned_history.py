"""Pinned solve histories.

Each case is solved and its history compared, record by record, with
numbers captured from an earlier build: status, record count, and each
record's rho, KKT parts, true error and observed order.  A change meant
to leave the arithmetic alone must reproduce them.  The tolerance is
relative 1e-12 for values above 1e-14 and absolute 1e-14 below, so that
a BLAS with other kernels (another machine) still passes; bit equality
is checked by comparing the CLI's output between builds instead.
"""

import numpy as np
import pytest
import scipy.optimize

from ssqp.bench import get_benchmark, make_degenerate_line, make_eigencontrol
from ssqp.model import ConeSpec, ProblemDef
from ssqp.solver import Fixed, SolverOptions, run
from ssqp.spaces import Functional, InnerProductSpace, PrimalVec
from saddle_reference import spd


def _benchmark(name: str, opts: SolverOptions):
    bm = get_benchmark(name)
    return bm.problem, *bm.default_start(), opts, bm.reference


def _random_metric_line(seed: int):
    rng = np.random.default_rng(seed)
    bm = make_degenerate_line(spd(rng, 2), spd(rng, 2))
    return bm.problem, *bm.default_start(), SolverOptions(), bm.reference


def _random_cone(seed: int, dim: int = 12, m: int = 6):
    """min |x - c|_H^2 / 2 over x in cone(y_1..y_m), started near the
    NNLS solution; no reference."""
    rng = np.random.default_rng(seed)
    H, mass_y = spd(rng, dim), spd(rng, dim)
    L = np.linalg.cholesky(H)
    while True:
        gens = rng.standard_normal((dim, m))
        center = rng.standard_normal(dim)
        w, _ = scipy.optimize.nnls(L.T @ gens, L.T @ center)
        if w.max() > 1e-6:
            break
    Z, Y = InnerProductSpace(H), InnerProductSpace(mass_y)
    p = ProblemDef(
        Z, Y, ConeSpec(Y, tuple(Y.vector(g) for g in gens.T)),
        f=lambda z: 0.0,
        grad_f=lambda z: Functional(Z, H @ (z.coords - center)),
        G=lambda z: PrimalVec(Y, z.coords.copy()),
        jac_G=lambda z: np.eye(dim),
        hess_L=lambda z, lam: H,
    )
    dz = rng.standard_normal(dim)
    dz *= 0.1 / Z.norm_arr(dz)
    return p, Z.vector(gens @ w + dz), Y.zero_functional(), SolverOptions(), None


def _eigencontrol_low_modes(seed: int, n: int = 1000):
    """eigencontrol from a seeded smooth start: modes 1..4 of the state
    with 1/k weights plus a control shift, scaled to 0.3-0.7 of the
    certified radius in the Z metric, and a zero multiplier."""
    bm = make_eigencontrol(n=n)
    p = bm.problem
    rng = np.random.default_rng([seed, 1])
    x = np.arange(1, n + 1) / (n + 1)
    amp = rng.standard_normal(4) / np.arange(1, 5)
    u = sum(a * np.sin((k + 1) * np.pi * x) for k, a in enumerate(amp))
    off = np.concatenate([u, [rng.standard_normal()]])
    off *= rng.uniform(0.3, 0.7) * bm.certified_radius / p.Z.norm_arr(off)
    z0 = p.Z.vector(bm.reference.z_star.coords + off)
    return p, z0, p.Y.zero_functional(), SolverOptions(tol=1e-10), bm.reference


CASES = {
    "degenerate-line": lambda: _benchmark("degenerate-line", SolverOptions()),
    "degenerate-line-fixed": lambda: _benchmark(
        "degenerate-line", SolverOptions(rho_rule=Fixed(0.05))),
    "degenerate-line-metric-1": lambda: _random_metric_line(1),
    "degenerate-line-metric-2": lambda: _random_metric_line(2),
    "degenerate-line-metric-3": lambda: _random_metric_line(3),
    "cone-active": lambda: _benchmark("cone-active", SolverOptions()),
    "eigencontrol-n49": lambda: _benchmark("eigencontrol-n49", SolverOptions()),
    "cone-12-m6": lambda: _random_cone(7),
    "eigencontrol-n1000-low-modes": lambda: _eigencontrol_low_modes(7),
}


def history(case: str) -> tuple[str, list[tuple]]:
    """(status, [(rho, stationarity, feasibility, polar, total_err, order)])."""
    p, z0, lam0, opts, reference = CASES[case]()
    report = run(p, z0, lam0, opts, reference=reference)
    return report.status.value, [
        (r.rho, r.kkt.stationarity, r.kkt.feasibility, r.kkt.polar_violation,
         r.total_err, r.order)
        for r in report.history
    ]


def _close(got, want) -> bool:
    if want is None or got is None:
        return got is want
    if abs(want) > 1e-14:
        return abs(got - want) <= 1e-12 * abs(want)
    return abs(got - want) <= 1e-14


FIELDS = ("rho", "stationarity", "feasibility", "polar", "total_err", "order")

# captured from the solver before its per-iterate overhead was cut
PINNED = {
    'degenerate-line': ('Converged', [
        (0.2563639836158751, 0.10770329614269002, 0.14866068747318506, 0.0, 0.17677669529663712, None),
        (0.015765271633005725, 0.001458490955965619, 0.014306780677040106, 0.0, 0.011924119267001727, 1.8071724148741182),
        (0.00013702743373497943, 3.677056901452147e-05, 0.00010025686472045794, 0.0, 9.124934664508993e-05, 2.0711184246592116),
        (5.404575765276138e-09, 4.6405347342570735e-09, 7.640410310190646e-10, 0.0, 3.778645096291039e-09, None),
        (1e-14, 1.1102230246251565e-16, 1.729571515132823e-17, 0.0, 2.2834053995521585e-16, None),
    ]),
    'degenerate-line-fixed': ('Converged', [
        (0.05, 0.10770329614269002, 0.14866068747318506, 0.0, 0.17677669529663712, None),
        (0.05, 0.010849737162356932, 0.008411857643319394, 0.0, 0.01366671018271549, 1.4932899403713424),
        (0.05, 7.196668648701277e-05, 0.0003574739702460943, 0.0, 0.00029887007227866256, 1.3615225510827083),
        (0.05, 1.669736326981308e-08, 2.2607898925248777e-06, 0.0, 1.6409970521899257e-06, 1.3407613598622627),
        (0.05, 9.614531393253856e-14, 2.122044033995129e-09, 0.0, 1.5292723673818857e-09, 1.0455289149078093),
        (0.05, 0.0, 1.439019177616548e-12, 0.0, 1.0372439414698076e-12, None),
    ]),
    'degenerate-line-metric-1': ('Converged', [
        (0.27269069031321436, 0.10230541335371707, 0.17038527695949732, 0.0, 0.1699171693692101, None),
        (0.01482944481676224, 0.0001392911868700074, 0.014690153629892233, 0.0, 0.009677529008028, 1.6498979194402377),
        (0.00013984273397463868, 7.012754788253047e-05, 6.971518609210821e-05, 0.0, 8.560742353350716e-05, 2.0538357853571028),
        (8.012518306818311e-09, 3.6147055733699567e-09, 4.397812733448355e-09, 0.0, 5.193579996908275e-09, None),
        (1e-14, 0.0, 1.371861482459468e-17, 0.0, 7.195795199299875e-17, None),
    ]),
    'degenerate-line-metric-2': ('Converged', [
        (0.21763028499121606, 0.09100793821153912, 0.12662234677967696, 0.0, 0.2185941625931582, None),
        (0.013471779243012596, 0.000133624925119009, 0.013338154317893586, 0.0, 0.014485080425566533, 1.625559961896809),
        (0.0001745349807947076, 9.544868197229696e-05, 7.908629882241064e-05, 0.0, 0.00017572950824252693, 2.02822362405886),
        (2.1272847154944457e-08, 7.31710362965758e-09, 1.3955743525286879e-08, 0.0, 2.2835664016340846e-08, None),
        (1e-14, 2.6703019152539774e-16, 1.0289106932286137e-16, 0.0, 2.630544941844403e-16, None),
    ]),
    'degenerate-line-metric-3': ('Converged', [
        (0.2589741975373412, 0.10169448800897786, 0.15727970952836334, 0.0, 0.15964726625998144, None),
        (0.016058003627940187, 0.00133573920263814, 0.014722264425302046, 0.0, 0.009445849815294996, 1.678650437007836),
        (0.00015958403727304662, 6.062273247697022e-05, 9.896130479607642e-05, 0.0, 8.203361235488782e-05, 2.0869753286929584),
        (7.464438167282493e-09, 6.457919411369443e-09, 1.00651875591305e-09, 0.0, 4.094638912594737e-09, None),
        (1e-14, 0.0, 2.6108358642939487e-17, 0.0, 1.6370378019071515e-16, None),
    ]),
    'cone-active': ('Converged', [
        (1.0, 0.158113883008419, 0.85, 0.0, 1.85146931829632, None),
        (0.5, 0.0, 0.5, 0.0, 1.0, 1.7835207170908336),
        (0.16666666666666674, 0.0, 0.16666666666666674, 0.0, 0.3333333333333335, 1.771243749161418),
        (0.023809523809523947, 0.0, 0.023809523809523947, 0.0, 0.047619047619047894, 1.9328745047757554),
        (0.0005537098560355336, 0.0, 0.0005537098560355336, 0.0, 0.0011074197120710672, 1.9938910614018905),
        (3.0642493409338556e-07, 0.0, 3.0642493409338556e-07, 0.0, 6.128498681867711e-07, 1.9998855383478118),
        (9.392486788328824e-14, 0.0, 9.392486788328824e-14, 0.0, 1.8784973576657649e-13, None),
    ]),
    # re-captured when sparse saddle matrices moved from splu to the band
    # LU with a dense border: iterate 1 moved by 3e-16 (subproblem 0 has
    # condition estimate 6.4e5), record 1's KKT parts by up to 7.4e-10
    # relative; record 1's order re-captured again when the projector moved
    # to the band LU: its stencil reads record 2's error, 1.6e-15.  Each
    # total_err and order re-captured when eigencontrol declared its
    # multiplier directions: the distance to lambda* + span{phi} moved to
    # within 4e-21 of the closed form, from 8e-20 off before
    'eigencontrol-n49': ('Converged', [
        (0.006200526349554824, 0.0004622022238586006, 0.005738324125696224, 0.0, 0.010000000000000002, None),
        (1.1978206702640806e-07, 3.097071482686928e-08, 8.881135219953877e-08, 0.0, 2.489487599801811e-07, 1.77855277038689),
        (1e-14, 1.524533669734604e-17, 1.0498940014228076e-16, 0.0, 1.6137958537607408e-15, None),
    ]),
    'cone-12-m6': ('Converged', [
        (1.0, 2.471989376689469, 0.06311141550107802, 0.0, None, None),
        (1.0, 5.104086031781604e-16, 1.1886118431967385, 2.00751807871066e-15, None, 0.8144494554587854),
        (0.6413907433026579, 4.962044207602035e-16, 0.6413907433026574, 1.742251995112663e-15, None, 1.2333675314070156),
        (0.29969680165663526, 4.988955365348075e-16, 0.29969680165663476, 1.9263867559347717e-16, None, 1.4279291381873727),
        (0.10111984056108887, 9.361857510382444e-16, 0.10111984056108794, 1.2689993847835772e-15, None, 1.6087823471961789),
        (0.017609186449331488, 1.0813232592377663e-15, 0.017609186449330405, 0.0, None, 1.8552354045046484),
        (0.0006877577700828385, 9.291486796494968e-16, 0.0006877577700819094, 0.0, None, 1.9786011896185252),
        (1.1245116470455505e-06, 8.510041963373216e-16, 1.1245116461945462e-06, 2.1469249800953063e-15, None, 1.998333714716915),
        (3.0385327503372695e-12, 1.2742404523933694e-15, 3.037258509884876e-12, 0.0, None, None),
    ]),
    # captured before the sparse per-iterate maps on the CSR arrays; each
    # total_err and order re-captured when eigencontrol declared its
    # multiplier directions: record 1's distance moved to within 4e-23 of
    # the closed form, from 1.4e-19 off before
    'eigencontrol-n1000-low-modes': ('Converged', [
        (0.008214505114685848, 0.00017242651354258836, 0.00804207860114326, 0.0, 0.010013827772020869, None),
        (3.763173354107798e-08, 8.847448880244293e-11, 3.754325905227554e-08, 0.0, 4.991548500874705e-08, 1.3759567410997688),
        (1e-14, 1.72233512879732e-17, 1.765190984550734e-18, 0.0, 2.5258681357629394e-15, None),
    ]),
}


@pytest.mark.parametrize("case", list(CASES))
def test_history_matches_pinned(case):
    status, records = history(case)
    want_status, want_records = PINNED[case]
    assert status == want_status
    assert len(records) == len(want_records)
    for k, (got, want) in enumerate(zip(records, want_records)):
        for name, g, w in zip(FIELDS, got, want):
            assert _close(g, w), f"record {k} {name}: {g!r} != {w!r}"
