"""Twisted-saddle trial family: exact embedding identities, series
truncation orders, quadrature cross-checks, and the pitchfork amplitude.
The series (metric, line element, curvatures, length, energy, leading
orders) are the tests' own oracles, in helpers.

Independent oracles: central finite differences of the embedding for the
metric, the normal and the boundary derivatives, Gauss-Legendre
integration in r of the full second fundamental form for the closed-form
radial integrals and the disk quadratures, the full second fundamental
form for the boundary curvatures, cross products of the stacked boundary
derivatives for the scalar boundary integrands, full-period sums for the
symmetric quarters, Frenet analysis of sampled boundary points for the
curvature split, the Gauss-Bonnet route for the integrated Gaussian
curvature, and the one-family quadratures, byte for byte, for every row of
a block of families and of the table.
"""

import numpy as np
import pytest

from filmloop import saddle
from filmloop.diffgeo import gauss_bonnet_defect, planarity
from filmloop.mesh import MeshError, validate_mesh

from helpers import (boundary_curvature_series, boundary_curvatures_exact,
                     boundary_curve, boundary_derivatives, ds2_series,
                     energy_series, family_metric, family_normal,
                     frenet_analyze, gaussian_K_leading, int_abs_kn_leading,
                     kappa2_series, length_series, mean_abs_kn_leading,
                     _normal_sq, one_family_table_row,
                     reference_boundary_curvatures, reference_disk_integrals,
                     surface_derivs)

ORACLE_TS = [-0.3, 0.0, 0.05, 0.44, 0.87, 0.95]
QUARTER_TS = [0.0, 0.12, 0.44, 0.71, 0.87, 0.95]


def _quarter_and_full(fam, per_dphi):
    """per_dphi(fam, trig, |c'|^2, |c'|, N) summed over saddle's closed
    quarter, and by the PHI_PANELS-panel trapezoid rule over the period."""
    n = saddle.PHI_PANELS
    tr = saddle._trig(np.arange(n) * (2.0 * np.pi / n))
    sp2 = saddle._speed_sq(fam, tr)
    full = per_dphi(fam, tr, sp2, np.sqrt(sp2), saddle._boundary_normal(fam, tr))
    quarter = per_dphi(fam, saddle._trapezoid_quarter(n)[0], *fam._sample)
    return saddle._phi_sum(quarter), float(full.sum()) * (2.0 * np.pi / n)


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        saddle.SaddleFamily(R=0.0, t=0.1)
    with pytest.raises(ValueError):
        saddle.SaddleFamily(R=1.0, t=1.5)
    for R, t, field in ((np.nan, 0.1, "R"), (1.0, np.nan, "t"),
                        (np.inf, 0.2, "R")):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            saddle.SaddleFamily(R=R, t=t)
    saddle.SaddleFamily(R=1.0, t=-1.0)       # endpoints are allowed


def test_block_parameter_validation():
    # a block's columns are checked row by row, with one family's messages
    R, t = np.array([[1.0], [2.0]]), np.array([[0.1], [-1.0]])
    for bad, field, message in ((0.0, "R", "R must be positive"),
                                (1.5, "t", "t must lie in"),
                                (-np.inf, "R", "R must be finite"),
                                (np.nan, "t", "t must be finite")):
        cols = {"R": R.copy(), "t": t.copy()}
        cols[field][1, 0] = bad
        with pytest.raises(ValueError, match=f"^{message}"):
            saddle.SaddleFamily(**cols)
    with pytest.raises(ValueError, match="^R and t must have one shape"):
        saddle.SaddleFamily(R=R, t=t.ravel())
    saddle.SaddleFamily(R=R, t=t)


def test_metric_matches_finite_differences():
    fam = saddle.SaddleFamily(R=1.3, t=0.3)
    rng = np.random.default_rng(1)
    h = 1e-5
    worst = 0.0
    for r, p in zip(rng.uniform(0.1, 1.3, 30), rng.uniform(0, 2 * np.pi, 30)):
        xr = (saddle.family_point(fam, r + h, p)
              - saddle.family_point(fam, r - h, p)) / (2 * h)
        xp = (saddle.family_point(fam, r, p + h)
              - saddle.family_point(fam, r, p - h)) / (2 * h)
        g_rr, g_rp, g_pp = family_metric(fam, r, p)
        worst = max(worst, abs(g_rr - xr @ xr), abs(g_rp - xr @ xp),
                    abs(g_pp - xp @ xp))
    assert worst < 1e-8


def test_normal_matches_finite_differences():
    fam = saddle.SaddleFamily(R=1.3, t=0.3)
    rng = np.random.default_rng(1)
    h = 1e-5
    worst = 0.0
    for r, p in zip(rng.uniform(0.1, 1.3, 40), rng.uniform(0, 2 * np.pi, 40)):
        xr = (saddle.family_point(fam, r + h, p)
              - saddle.family_point(fam, r - h, p)) / (2 * h)
        xp = (saddle.family_point(fam, r, p + h)
              - saddle.family_point(fam, r, p - h)) / (2 * h)
        n = family_normal(fam, r, p)
        worst = max(worst,
                    np.abs(n - np.cross(xr, xp)).max() / np.linalg.norm(n))
    assert worst < 1e-8


@pytest.mark.parametrize("t", ORACLE_TS)
def test_radial_closed_forms_match_gauss_legendre(t):
    # per phi, the closed-form radial integrals of r sqrt(Q) and
    # -(2tab/R)^2 r Q^(-3/2) against 32-node Gauss-Legendre on the r panels
    # [0, 0.05, 0.2, 0.5, 1] R, graded toward Q's complex zero near r = 0
    # (one 96-node rule carries 4e-15 of rounding), and X = Q(R) = N^2.
    # Measured at most 7.6e-16 (X), 5.3e-16 (area) and 8.7e-16 (K) relative
    # over ORACLE_TS
    fam = saddle.SaddleFamily(R=1.3, t=t)
    rng = np.random.default_rng(7)
    phi = rng.uniform(0.0, 2.0 * np.pi, 200)
    xg, wg = np.polynomial.legendre.leggauss(32)
    cuts = fam.R * np.array([0.0, 0.05, 0.2, 0.5, 1.0])
    r = (cuts[:-1, None] + 0.5 * (xg + 1.0) * np.diff(cuts)[:, None]) \
        .reshape(-1, 1)
    w = (0.5 * np.diff(cuts)[:, None] * wg).ravel()
    q = _normal_sq(fam, r, phi)
    area = w @ (r * np.sqrt(q))
    int_K = -(2.0 * t * (1.0 + t**2) * (1.0 - t**2) / fam.R) ** 2 \
        * (w @ (r / (q * np.sqrt(q))))
    n = saddle._boundary_normal(fam, saddle._trig(phi))
    x = _normal_sq(fam, fam.R, phi)
    assert np.all(np.abs(n * n - x) <= 2e-15 * x)
    assert np.all(np.abs(saddle._area_dphi(fam, n) - area) <= 2e-15 * area)
    assert np.all(np.abs(saddle._K_dA_dphi(fam, n) - int_K)
                  <= 2e-15 * np.abs(int_K))
    # the oracle normal against the cross product of the derivatives
    r = rng.uniform(0.0, fam.R, 200)
    x_r, x_p, *_ = surface_derivs(fam, r, phi)
    n = np.cross(x_r, x_p)
    assert np.abs(family_normal(fam, r, phi) - n).max() \
        <= 1e-13 * np.linalg.norm(n, axis=-1).max()


@pytest.mark.parametrize("t", ORACLE_TS)
def test_disk_integrands_match_second_fundamental_form(t):
    # the disk quadratures against the graded Gauss-Legendre (r) x
    # 1024-panel trapezoid (phi) grid of |x_r x x_phi| and (LN - M^2) / |n|;
    # measured at most 1.7e-16 (area) and 3.3e-16 (K) relative over
    # ORACLE_TS, and both integrals of K are exactly 0 at t = 0
    fam = saddle.SaddleFamily(R=1.3, t=t)
    area, int_K = reference_disk_integrals(fam)
    assert abs(saddle.area_quadrature(fam) - area) <= 1e-15 * area
    assert abs(saddle.int_K_quadrature(fam) - int_K) <= 1e-15 * abs(int_K)


@pytest.mark.parametrize("t", ORACLE_TS)
def test_boundary_curvatures_match_second_fundamental_form(t):
    fam = saddle.SaddleFamily(R=1.3, t=t)
    phi = np.random.default_rng(8).uniform(0.0, 2.0 * np.pi, 200)
    kn, kg = boundary_curvatures_exact(fam, phi)
    kn_ref, kg_ref = reference_boundary_curvatures(fam, phi)
    kappa = np.hypot(kn_ref, kg_ref)
    assert np.all(np.abs(kn - kn_ref) <= 1e-13 * kappa)
    assert np.all(np.abs(kg - kg_ref) <= 1e-13 * kappa)


@pytest.mark.parametrize("t", ORACLE_TS + [0.98, saddle.TABLE_T_MAX])
def test_boundary_integrands_match_cross_products(t):
    # the scalar closed forms per dphi against the stacked-vector routes:
    # |c'|^2 = c'.c', kappa^2 |c'| = |c' x c''|^2 / |c'|^5, and kappa_n |c'|
    # and kappa_g |c'| from both curvature oracles
    fam = saddle.SaddleFamily(R=1.3, t=t)
    phi = np.random.default_rng(9).uniform(0.0, 2.0 * np.pi, 200)
    tr = saddle._trig(phi)
    c1, c2 = boundary_derivatives(fam, phi)
    sp2_ref = np.einsum("ij,ij->i", c1, c1)
    cross = np.cross(c1, c2)
    k2_ds_ref = np.einsum("ij,ij->i", cross, cross) / sp2_ref**2.5
    sp2 = saddle._speed_sq(fam, tr)
    sp = np.sqrt(sp2)
    assert np.all(np.abs(sp2 - sp2_ref) <= 1e-13 * sp2_ref)
    assert np.all(np.abs(saddle._kappa2_ds(fam, tr, sp2, sp) - k2_ds_ref)
                  <= 1e-13 * k2_ds_ref)
    n = saddle._boundary_normal(fam, tr)
    kn_ds = saddle._kappa_n_ds(fam, tr, sp, n)
    kg_ds = saddle._kappa_g_ds(fam, tr, sp2, n)
    for oracle in (boundary_curvatures_exact, reference_boundary_curvatures):
        kn, kg = oracle(fam, phi)
        scale = 1e-13 * np.hypot(kn, kg) * sp
        assert np.all(np.abs(kn_ds - kn * sp) <= scale)
        assert np.all(np.abs(kg_ds - kg * sp) <= scale)


@pytest.mark.parametrize("t", [0.05, 0.44, 0.98, saddle.TABLE_T_MAX])
def test_boundary_quadratures_match_cross_product_sums(t):
    # the same trapezoid and per-quarter Gauss-Legendre sums over the
    # stacked-vector curvatures
    fam = saddle.SaddleFamily(R=saddle.radius_for_length(2 * np.pi, t), t=t)
    n = saddle.PHI_PANELS
    phi = np.arange(n) * (2.0 * np.pi / n)
    sp = np.linalg.norm(boundary_derivatives(fam, phi)[0], axis=-1)
    kn, kg = boundary_curvatures_exact(fam, phi)
    bending = float(((kn**2 + kg**2) * sp).sum()) * (2.0 * np.pi / n)
    gauss_bonnet = 2.0 * np.pi - float((kg * sp).sum()) * (2.0 * np.pi / n)
    xg, wg = np.polynomial.legendre.leggauss(saddle.KN_QUARTER_NODES)
    phi = (np.arange(4)[:, None] + 0.5 * (xg + 1.0)) * (0.5 * np.pi)
    sp = np.linalg.norm(boundary_derivatives(fam, phi)[0], axis=-1)
    kn = boundary_curvatures_exact(fam, phi)[0]
    abs_kn = float(np.abs((kn * sp) @ wg).sum()) * (0.25 * np.pi)
    assert abs(saddle.bending_quadrature(fam) - bending) <= 1e-13 * bending
    assert abs(saddle.int_K_gauss_bonnet(fam) - gauss_bonnet) <= 1e-13
    assert abs(saddle.int_abs_kn_quadrature(fam) - abs_kn) <= 1e-13 * abs_kn


def test_boundary_line_element_and_curvature_are_exact():
    # the "series" line element and squared curvature close exactly, at any t
    phi = np.linspace(0.0, 2.0 * np.pi, 733, endpoint=False)
    for t in (0.05, 0.3, 0.7):
        fam = saddle.SaddleFamily(R=1.3, t=t)
        c1, c2 = boundary_derivatives(fam, phi)
        sp2 = np.einsum("ij,ij->i", c1, c1)
        cr = np.cross(c1, c2)
        k2 = np.einsum("ij,ij->i", cr, cr) / sp2**3
        assert np.abs(ds2_series(fam, phi) - sp2).max() < 1e-13 * sp2.max()
        assert np.abs(kappa2_series(fam, phi) - k2).max() < 1e-12 * k2.max()


def _count_samples(monkeypatch):
    """The families whose |c'|^2 is computed from here on, one entry a
    computation (the trapezoid sample computes it once)."""
    sampled = []
    speed_sq = saddle._speed_sq

    def counted(fam, tr):
        sampled.append(fam)
        return speed_sq(fam, tr)

    monkeypatch.setattr(saddle, "_speed_sq", counted)
    return sampled


def test_boundary_quadratures_share_one_sample(monkeypatch):
    # one table row samples its phi quarter once, read-only, for all three;
    # the sin / cos tables and weights under it are built once for every row
    sampled = _count_samples(monkeypatch)
    fam = saddle.SaddleFamily(1.0, 0.6)
    saddle.length_quadrature(fam)
    saddle.bending_quadrature(fam)
    saddle.int_K_gauss_bonnet(fam)
    assert sampled == [fam]
    assert not any(a.flags.writeable for a in fam._sample)
    for tr, w in (saddle._trapezoid_quarter(saddle.PHI_PANELS),
                  saddle._gauss_quarter(saddle.KN_QUARTER_NODES)):
        assert not any(a.flags.writeable for a in (*tr, w))


def test_disk_quadratures_share_one_sample(monkeypatch):
    # the area and the integral of K read N = sqrt(X) from the same
    # read-only sample as the boundary quadratures of the row; another
    # family, or a block, samples once for itself
    sampled = _count_samples(monkeypatch)
    fam, other = saddle.SaddleFamily(1.0, 0.6), saddle.SaddleFamily(1.0, 0.6)
    block = saddle.SaddleFamily(R=np.array([[1.0], [1.3]]),
                                t=np.array([[0.6], [0.2]]))
    for f in (fam, other, block):
        saddle.area_quadrature(f)
        saddle.int_K_quadrature(f)
        saddle.length_quadrature(f)
    assert sampled == [fam, other, block]
    assert not any(a.flags.writeable for a in block._sample)


def test_boundary_derivatives_match_finite_differences():
    fam = saddle.SaddleFamily(R=0.8, t=0.4)
    phi = np.array([0.3, 1.1, 4.0])
    h = 1e-5
    c1, c2 = boundary_derivatives(fam, phi)
    fd1 = (boundary_curve(fam, phi + h)
           - boundary_curve(fam, phi - h)) / (2 * h)
    fd2 = (boundary_curve(fam, phi + h) - 2 * boundary_curve(fam, phi)
           + boundary_curve(fam, phi - h)) / h**2
    assert np.abs(c1 - fd1).max() < 1e-8
    assert np.abs(c2 - fd2).max() < 1e-5


def test_series_residuals_are_sixth_order():
    ts = np.geomspace(0.05, 0.3, 7)
    res_len, res_en = [], []
    for t in ts:
        fam = saddle.SaddleFamily(R=1.0, t=t)
        res_len.append(abs(saddle.length_quadrature(fam)
                           - length_series(fam)))
        res_en.append(abs(saddle.energy_quadrature(fam, 6.0, 1.0)
                          - energy_series(fam, 6.0, 1.0)))
    slope_len = np.polyfit(np.log(ts), np.log(res_len), 1)[0]
    slope_en = np.polyfit(np.log(ts), np.log(res_en), 1)[0]
    assert abs(slope_len - 6.0) < 0.3
    assert abs(slope_en - 6.0) < 0.3


def test_curvature_split_matches_frenet_projection():
    t = 0.05
    fam = saddle.SaddleFamily(R=1.0, t=t)
    n = 512
    phi = np.arange(n) * 2.0 * np.pi / n
    fr = frenet_analyze(boundary_curve(fam, phi))
    kn_s, kg_s = boundary_curvature_series(fam, phi)
    kn_e, kg_e = boundary_curvatures_exact(fam, phi)
    kscale = fr.kappa.max()
    assert np.abs(np.sqrt(kn_s**2 + kg_s**2) - fr.kappa).max() < 0.01 * kscale
    assert np.abs(kn_s - kn_e).max() < 0.01 * np.abs(kn_e).max()
    assert np.abs(kg_s - kg_e).max() < 0.01 * np.abs(kg_e).max()


def test_int_K_routes_agree():
    # t = sqrt(3)/2 is the asymptotic table's top row, gamma = 2 * 96 pi^3
    for t in (0.05, 0.1, 0.2, 0.4, np.sqrt(3.0) / 2.0):
        fam = saddle.SaddleFamily(R=1.0, t=t)
        quad = saddle.int_K_quadrature(fam)
        gb = saddle.int_K_gauss_bonnet(fam)
        assert quad < 0                        # saddle-shaped
        assert abs(quad - gb) < min(1e-9, t**4)


def test_int_K_leading_order():
    t = 0.05
    fam = saddle.SaddleFamily(R=1.0, t=t)
    quad = saddle.int_K_quadrature(fam)
    lead = gaussian_K_leading(fam) * np.pi * fam.R**2
    assert abs(quad - lead) < 0.05 * abs(lead)


def test_int_abs_kn_leading_order():
    for t, tol in ((0.02, 2e-3), (0.05, 1e-2)):
        fam = saddle.SaddleFamily(R=1.0, t=t)
        q = saddle.int_abs_kn_quadrature(fam)
        assert abs(q - int_abs_kn_leading(fam)) < tol * 8.0 * t
        assert np.isclose(mean_abs_kn_leading(fam),
                          4.0 * t / (np.pi * fam.R), rtol=1e-15)


@pytest.mark.parametrize("t", [0.12, 0.44, 0.71, 0.87])
def test_int_abs_kn_quarters_are_resolved(monkeypatch, t):
    # kappa_n keeps its sign on each quarter, so per-quarter Gauss-Legendre
    # is converged: 64 nodes agree with 256
    fam = saddle.SaddleFamily(R=saddle.radius_for_length(2 * np.pi, t), t=t)
    phi = (np.arange(4000) + 0.5) * (2.0 * np.pi / 4000)   # no quarter ends
    kn = boundary_curvatures_exact(fam, phi)[0].reshape(4, 1000)
    assert np.all((kn > 0).all(axis=1) | (kn < 0).all(axis=1))
    q64 = saddle.int_abs_kn_quadrature(fam)
    monkeypatch.setattr(saddle, "KN_QUARTER_NODES", 256)
    assert abs(q64 - saddle.int_abs_kn_quadrature(fam)) <= 1e-12


@pytest.mark.parametrize("t", QUARTER_TS)
def test_disk_quarter_matches_full_period(t):
    # the symmetric quarter reproduces the full-period trapezoid sum of the
    # closed-form radial integrals up to summation order: measured at most
    # 0 (area) and 4.3e-16 (K) relative over QUARTER_TS
    fam = saddle.SaddleFamily(R=saddle.radius_for_length(2 * np.pi, t), t=t)
    quarter, full = _quarter_and_full(
        fam, lambda fam, tr, sp2, sp, n: saddle._area_dphi(fam, n))
    assert quarter == saddle.area_quadrature(fam)
    assert abs(quarter - full) <= 1e-15 * full
    quarter, full = _quarter_and_full(
        fam, lambda fam, tr, sp2, sp, n: saddle._K_dA_dphi(fam, n))
    assert quarter == saddle.int_K_quadrature(fam)
    assert abs(quarter - full) <= 1e-15 * abs(full)


@pytest.mark.parametrize("t", QUARTER_TS + [0.98, saddle.TABLE_T_MAX])
def test_boundary_quarter_matches_full_period(t):
    # the same for the length, bending and kappa_g sums: measured at most
    # 2.8e-16 relative
    fam = saddle.SaddleFamily(R=saddle.radius_for_length(2 * np.pi, t), t=t)
    sums = (
        (saddle.length_quadrature, lambda fam, tr, sp2, sp, n: sp),
        (saddle.bending_quadrature,
         lambda fam, tr, sp2, sp, n: saddle._kappa2_ds(fam, tr, sp2, sp)),
        (lambda fam: 2.0 * np.pi - saddle.int_K_gauss_bonnet(fam),
         lambda fam, tr, sp2, sp, n: saddle._kappa_g_ds(fam, tr, sp2, n)))
    for quadrature, per_dphi in sums:
        quarter, full = _quarter_and_full(fam, per_dphi)
        assert abs(quadrature(fam) - full) <= 1e-15 * full
        assert abs(quarter - full) <= 1e-15 * full


@pytest.mark.parametrize("t", [0.12, 0.44, 0.71, 0.87, 0.95, 0.98,
                               saddle.TABLE_T_MAX])
def test_int_abs_kn_is_four_times_one_quarter(t):
    # |kappa_n| ds is invariant under phi -> -phi and phi -> pi - phi, so
    # the first quarter times 4 is the sum over the four quarters: measured
    # at most 2.2e-16 relative
    fam = saddle.SaddleFamily(R=saddle.radius_for_length(2 * np.pi, t), t=t)
    xg, wg = np.polynomial.legendre.leggauss(saddle.KN_QUARTER_NODES)
    tr = saddle._trig((np.arange(4)[:, None] + 0.5 * (xg + 1.0)) * (0.5 * np.pi))
    kn_ds = saddle._kappa_n_ds(fam, tr, np.sqrt(saddle._speed_sq(fam, tr)),
                               saddle._boundary_normal(fam, tr))
    four = float(np.abs(kn_ds @ wg).sum()) * (0.25 * np.pi)
    assert abs(saddle.int_abs_kn_quadrature(fam) - four) <= 1e-15 * four


def test_circle_limit_quadratures():
    # the radial closed forms hold at t = 0: the area is pi R^2 and the
    # integral of K is exactly 0
    fam = saddle.SaddleFamily(R=0.7, t=0.0)
    assert np.isclose(saddle.length_quadrature(fam), 2 * np.pi * 0.7,
                      rtol=1e-12)
    area = np.pi * 0.7**2
    assert abs(saddle.area_quadrature(fam) - area) <= 1e-15 * area
    assert np.isclose(saddle.bending_quadrature(fam), 2 * np.pi / 0.7,
                      rtol=1e-12)
    assert saddle.int_K_quadrature(fam) == 0.0


# t = 0, a small t, the default table's range and its bound, and two t at
# which a float's t**2 (libm pow) and t * t round differently: on numpy 2.4
# with glibc they differ at 0.21537672880606282 and agree at
# 0.42451376784852607, where they were seen to differ on another host;
# SPLIT_TS holds eight more that differ on the host at hand.  The
# integrands square by products; a t**2 put back on a family factor would
# split a block's row from its family's float integrand at such a t
BLOCK_TS = [0.0, 1e-3, 0.05, 0.3, 0.6, np.sqrt(3.0) / 2.0, saddle.TABLE_T_MAX,
            0.21537672880606282, 0.42451376784852607]
SPLIT_TS = [t for t in np.random.default_rng(0).random(40000).tolist()
            if t**2 != t * t][:8]


def _square_split_families(count):
    """(t, R) families at which x**2 and x * x round differently for both
    x = ab and x = AB (a = 1 + t^2, b = 1 - t^2, A = Ra, B = Rb), the
    products the integrands square; at a t of SPLIT_TS they may agree, and
    a (ab)**2 or (AB)**2 put back then goes unseen."""
    def splits(x):
        return x**2 != x * x

    rng = np.random.default_rng(1)
    fams = []
    while len(fams) < count:
        t = rng.random()
        a, b = 1.0 + t * t, 1.0 - t * t
        if splits(a * b):
            R = 0.5 + rng.random()
            while not splits((R * a) * (R * b)):
                R = 0.5 + rng.random()
            fams.append(saddle.SaddleFamily(R=R, t=t))
    return fams


SQUARE_SPLIT_FAMILIES = _square_split_families(8)


def _block(fams):
    """The families as one SaddleFamily of (rows, 1) columns."""
    return saddle.SaddleFamily(R=np.array([[f.R] for f in fams]),
                               t=np.array([[f.t] for f in fams]))
QUADRATURES = [saddle.length_quadrature, saddle.area_quadrature,
               saddle.bending_quadrature, saddle.int_K_quadrature,
               saddle.int_K_gauss_bonnet, saddle.int_abs_kn_quadrature]


@pytest.mark.parametrize("quadrature", QUADRATURES,
                         ids=lambda q: q.__name__)
def test_block_rows_are_the_one_family_quadratures_bit_for_bit(quadrature):
    # every row of a block has the bytes of its family's one-family
    # quadrature, whatever the other rows and their order
    fams = [saddle.SaddleFamily(R=saddle.radius_for_length(2 * np.pi, t), t=t)
            for t in BLOCK_TS]
    one = np.array([quadrature(f) for f in fams])
    assert all(type(quadrature(f)) is float for f in fams)
    for order in (slice(None), slice(None, None, -1)):
        block = quadrature(_block(fams[order]))
        assert block.tobytes() == one[order].tobytes()
    sigma = np.array(BLOCK_TS) + 7.0
    energy = saddle.energy_quadrature(_block(fams), sigma, 1.0)
    assert energy.tobytes() == np.array(
        [saddle.energy_quadrature(f, s, 1.0)
         for f, s in zip(fams, sigma)]).tobytes()


def test_block_integrands_are_the_one_family_integrands_bit_for_bit():
    # node by node, before a sum can round a split row away
    fams = [saddle.SaddleFamily(R=saddle.radius_for_length(2 * np.pi, t), t=t)
            for t in BLOCK_TS + SPLIT_TS] + SQUARE_SPLIT_FAMILIES
    tr = saddle._trapezoid_quarter(saddle.PHI_PANELS)[0]

    def integrands(fam):
        sp2, sp, n = fam._sample
        return [sp2, n, saddle._kappa2_ds(fam, tr, sp2, sp),
                saddle._kappa_g_ds(fam, tr, sp2, n),
                saddle._kappa_n_ds(fam, tr, sp, n),
                saddle._area_dphi(fam, n), saddle._K_dA_dphi(fam, n)]

    block = integrands(_block(fams))
    for row, fam in enumerate(fams):
        for rows, one in zip(block, integrands(fam)):
            assert rows[row].tobytes() == one.tobytes()


def test_family_table_rows_are_the_one_family_rows_bit_for_bit():
    # blocks of TABLE_BLOCK_ROWS and a shorter last one, over the default
    # gamma range and a longer one at another length reaching the bound
    t_max = saddle.TABLE_T_MAX
    g_max = 3.0 * saddle.gamma_star() / (3.0 - 2.0 * t_max * t_max)
    for lo, hi, length in ((0.9 * 96 * np.pi**3, 2.0 * 96 * np.pi**3,
                            2.0 * np.pi), (2000.0, g_max, 1.7)):
        gammas = np.linspace(lo, hi, 2 * saddle.TABLE_BLOCK_ROWS + 5)
        blocks = list(saddle.family_table(gammas, length))
        assert [len(b) for b in blocks] == [saddle.TABLE_BLOCK_ROWS] * 2 + [5]
        table = np.concatenate(blocks)
        one = np.array([one_family_table_row(g, length) for g in gammas])
        assert table.shape == (len(gammas), len(saddle.TABLE_COLUMNS))
        assert table.tobytes() == one.tobytes()


def test_radius_for_length_holds_constraint():
    L = 2.0 * np.pi
    assert np.isclose(saddle.radius_for_length(L, 0.0), 1.0, rtol=1e-15)
    fam = saddle.SaddleFamily(R=saddle.radius_for_length(L, 0.05), t=0.05)
    assert abs(saddle.length_quadrature(fam) - L) / L < 1e-6
    with pytest.raises(ValueError):
        saddle.radius_for_length(-1.0, 0.1)


def test_constrained_energy_series_matches_quadrature():
    L, sigma, alpha = 2.0 * np.pi, 14.0, 1.0
    for t, tol in ((0.05, 1e-7), (0.2, 2e-4)):
        fam = saddle.SaddleFamily(R=saddle.radius_for_length(L, t), t=t)
        quad = saddle.energy_quadrature(fam, sigma, alpha)
        series = saddle.constrained_energy_series(L, t, sigma, alpha)
        assert abs(quad - series) / abs(quad) < tol


def test_pitchfork_amplitude_branch():
    gs = saddle.gamma_star()
    assert np.isclose(gs, 96.0 * np.pi**3, rtol=1e-15)
    assert saddle.pitchfork_amplitude(0.5 * gs) == 0.0
    assert saddle.pitchfork_amplitude(gs) == 0.0
    gam = 1.3 * gs
    assert np.isclose(saddle.pitchfork_amplitude(gam),
                      np.sqrt(3.0 * 0.3 / (2.0 * 1.3)), rtol=1e-12)
    with pytest.raises(ValueError):
        saddle.pitchfork_amplitude(0.0)


def test_pitchfork_amplitude_is_stationary_point():
    # five-point stencil is exact for the quartic constrained energy
    L, alpha = 2.0 * np.pi, 1.0
    h = 1e-3
    for factor in (1.05, 1.3, 2.0):
        gam = factor * saddle.gamma_star()
        sigma = gam * alpha / L**3
        tstar = saddle.pitchfork_amplitude(gam)
        e = lambda t: saddle.constrained_energy_series(L, t, sigma, alpha)
        d = (e(tstar - 2 * h) - 8 * e(tstar - h)
             + 8 * e(tstar + h) - e(tstar + 2 * h)) / (12 * h)
        assert abs(d) < 1e-8


def test_lemniscate_endpoint_pinches():
    fam = saddle.SaddleFamily(R=1.0, t=1.0)
    p1 = boundary_curve(fam, np.pi / 2.0)
    p2 = boundary_curve(fam, 3.0 * np.pi / 2.0)
    assert np.linalg.norm(p1) < 1e-12
    assert np.linalg.norm(p1 - p2) < 1e-12


def test_family_trimesh_samples_the_surface():
    fam = saddle.SaddleFamily(R=1.0, t=0.2)
    mesh, x = saddle.family_trimesh(fam, 8)
    assert validate_mesh(mesh).passed
    assert gauss_bonnet_defect(mesh, x) < 1e-10
    assert planarity(mesh, x) > 1e-3          # visibly twisted
    loop = mesh.boundary_loop
    r_xy = np.hypot(x[loop, 0] / (1 + fam.t**2), x[loop, 1] / (1 - fam.t**2))
    assert np.abs(r_xy - fam.R).max() < 1e-12


@pytest.mark.parametrize("rings", [2.5, 3.0, True])
def test_family_trimesh_rejects_non_integral_rings(rings):
    # disk_polar's hexagon radius would scale by the fractional ring count,
    # putting the boundary inside rho = 1 (rho = 0.8 at 2.5 rings)
    fam = saddle.SaddleFamily(R=1.0, t=0.2)
    with pytest.raises(MeshError, match="rings must be an integer"):
        saddle.disk_polar(rings)
    with pytest.raises(MeshError, match="rings must be an integer"):
        saddle.family_trimesh(fam, rings)
