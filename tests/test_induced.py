import math
from dataclasses import dataclass

import numpy as np
import pytest

import renewalops as ro
from renewalops import induced
from renewalops.errors import NumericalError

from conftest import block_series, doubling_branch_matrix


def mu_form(op, mat):
    """Conjugate a Lebesgue-form matrix into measure-normalized form."""
    h = op.density_values
    return (mat * h[None, :]) / h[:, None]


@dataclass
class SpectralData:
    """Leading eigendata of R(z) in measure-normalized form.

    ``v`` is the right eigenfunction with unit measure integral, ``psi``
    the left functional with psi . v = 1; the spectral projection acts as
    w -> v * (psi . w).
    """

    z: complex
    lam: complex
    gap: float
    v: np.ndarray
    psi: np.ndarray
    residual: float

    def project(self, w):
        return self.v * np.dot(self.psi, w)

    def projection_matrix(self):
        return np.outer(self.v, self.psi)


def _dominant_pair(mat, v0, tol=1e-13, max_iter=5000):
    """Dominant eigenpair by power iteration with a Rayleigh-quotient read-off.

    Plain and deterministic; general-purpose dense solvers return inaccurate
    eigenvectors for these strongly non-normal block-convolution matrices.
    """
    v = v0.astype(complex)
    v /= np.linalg.norm(v)
    lam = 0.0 + 0.0j
    for _ in range(max_iter):
        w = mat @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0 + 0.0j, v
        w /= nw
        lam = np.vdot(w, mat @ w) / np.vdot(w, w)
        resid = np.linalg.norm(mat @ w - lam * w)
        v = w
        if resid <= tol * max(1.0, abs(lam)):
            return complex(lam), v
    raise NumericalError(f"power iteration stalled at residual {resid:.3e}")


def spectral_data(op, z, gap_min=0.02):
    """Leading eigenvalue, eigenfunction and projection of R(z) near z = 1.

    Raises when the spectral gap estimate falls below ``gap_min`` (the
    rank-one splitting is then outside its perturbative regime).
    """
    a_mu = mu_form(op, block_series(op, z, extended=True))
    m = op.grid.m
    h = op.density_values
    delta = op.grid.width
    lam, v = _dominant_pair(a_mu, np.ones(m))
    lam_l, psi = _dominant_pair(a_mu.T, h.astype(complex))
    if abs(lam - lam_l) > 1e-8 * max(1.0, abs(lam)):
        raise NumericalError("left/right dominant eigenvalues disagree")
    # deflate and estimate the modulus of the subdominant eigenvalue (a
    # growth-rate read-off, robust to equal-modulus conjugate pairs)
    denom = complex(np.dot(psi, v))
    if abs(denom) < 1e-14:
        raise NumericalError("dominant left/right eigenvectors nearly orthogonal")
    deflated = a_mu - np.outer(v, psi) * (lam / denom)
    w2 = np.cos(np.arange(m)).astype(complex)
    w2 /= np.linalg.norm(w2)
    rate = 0.0
    for _ in range(300):
        w_new = deflated @ w2
        rate = float(np.linalg.norm(w_new))
        if rate == 0.0:
            break
        w2 = w_new / rate
    gap = float(abs(lam) - rate)
    if gap < gap_min:
        raise NumericalError(f"spectral gap {gap:.3g} below {gap_min}; z too far from 1")
    # normalize: unit measure integral for v, psi . v = 1
    scale = np.dot(v, h) * delta
    if abs(scale) < 1e-14:
        raise NumericalError("leading eigenfunction nearly orthogonal to the measure")
    v = v / scale
    psi = psi / np.dot(psi, v)
    if abs(lam.imag) < 1e-13 and abs(v.imag).max() < 1e-10:
        v = v.real.astype(complex)
    residual = float(np.max(np.abs(a_mu @ v - lam * v)))
    return SpectralData(z=complex(z), lam=complex(lam), gap=gap, v=v, psi=psi, residual=residual)


def power_iteration_oracle(mat, iters=600):
    """Independent dominant-eigenvalue estimate by plain power iteration."""
    v = np.ones(mat.shape[0], dtype=complex)
    lam = 0.0
    for _ in range(iters):
        w = mat @ v
        lam = np.vdot(v, w) / np.vdot(v, v)
        nrm = np.linalg.norm(w)
        if nrm == 0:
            return 0.0
        v = w / nrm
    return lam


class TestAssembly:
    def test_branch_positivity(self, lsv2_small):
        mats = lsv2_small.branch_matrices()
        for j in (1, 2, 5, 50, 150):
            assert mats[j - 1].data.min() >= 0.0

    def test_branch_mass_conservation(self, lsv2_small):
        # per-branch invariant mass integrates the density over the level set
        mass = lsv2_small.branch_mass()
        assert mass.min() >= 0
        assert mass.sum() == pytest.approx(1.0 - lsv2_small.mass_deficit, abs=1e-10)

    def test_constant_function_mass(self, lsv2_small):
        # sum_n integral of R_n(c) against the measure = c (1 - deficit)
        h = lsv2_small.density_values
        delta = lsv2_small.grid.width
        c = 3.7
        total = sum(float(np.sum(mat @ (h * c)) * delta) for mat in lsv2_small.branch_matrices())
        assert total == pytest.approx(c * (1.0 - lsv2_small.mass_deficit), rel=1e-9)

    def test_deficit_scale(self, lsv2_mid):
        # deficit ~ c n^{-1/2} for the square-root family
        from renewalops.dual_ergodic import tail_model_from_operator

        tm = tail_model_from_operator(lsv2_mid)
        expect = tm.c * lsv2_mid.n_trunc**-0.5
        assert lsv2_mid.mass_deficit == pytest.approx(expect, rel=0.05)

    def test_deficit_bound_raises(self):
        with pytest.raises(NumericalError):
            ro.assemble_operator(ro.MapSpec("lsv", alpha=2.0), ro.Grid(32),
                                 n_trunc=4, deficit_bound=0.05)

    def test_size_guard_raises_before_the_ladder(self, monkeypatch):
        spec, m, n_trunc = ro.MapSpec("lsv", alpha=2.0), 64, 200
        need = 8 * m * m + 8 * (2 * n_trunc + 1)  # the default k_ladder is 2 n_trunc
        built = []
        ladder = induced.BranchLadder
        monkeypatch.setattr(induced, "BranchLadder",
                            lambda *a, **k: built.append(1) or ladder(*a, **k))
        monkeypatch.setattr(induced, "_FAST_LIMIT", need - 1)
        with pytest.raises(NumericalError, match="lower grid or ntrunc"):
            ro.assemble_operator(spec, ro.Grid(m), n_trunc=n_trunc)
        assert built == []
        monkeypatch.setattr(induced, "_FAST_LIMIT", need)
        ro.assemble_operator(spec, ro.Grid(m), n_trunc=n_trunc)
        assert built

    def test_doubling_first_return_only(self, doubling_op):
        assert doubling_op.n_trunc == 1
        r1 = doubling_branch_matrix(32)
        assert np.array_equal(doubling_op.r1, r1.toarray())
        assert abs((r1 @ np.ones(32)) - 1.0).max() < 1e-12


class TestInvariantDensity:
    def test_doubling_constant_two(self, doubling_op):
        h = ro.invariant_density(doubling_op)
        assert np.allclose(h.values, 2.0, atol=1e-10)

    def test_lsv_decreasing(self, lsv2_small):
        h = ro.invariant_density(lsv2_small)
        assert np.all(np.diff(h.values) <= 1e-8)

    def test_residual(self, lsv2_small):
        assert lsv2_small.density_residual <= 1e-10

    def test_unit_mass(self, lsv2_small):
        assert ro.invariant_density(lsv2_small).integral() == pytest.approx(1.0, abs=1e-12)


class TestBlockSeries:
    def test_zero_at_origin(self, lsv2_small):
        assert np.abs(block_series(lsv2_small, 0.0)).max() == 0.0

    def test_mass_at_one(self, lsv2_small):
        # measure of Y under the truncated block sum = 1 - deficit
        h = lsv2_small.density_values
        delta = lsv2_small.grid.width
        r1 = block_series(lsv2_small, 1.0).real
        total = float(np.sum(r1 @ h) * delta)
        assert total == pytest.approx(1.0 - lsv2_small.mass_deficit, abs=1e-9)

    def test_real_contracting_eigenvalue(self, lsv2_small):
        mat = mu_form(lsv2_small, block_series(lsv2_small, math.exp(-0.01), extended=True))
        lam = power_iteration_oracle(mat)
        assert abs(lam.imag) < 1e-8
        assert 0.0 < lam.real < 1.0


class TestSpectralData:
    def test_at_one(self, lsv2_small):
        sd = spectral_data(lsv2_small, 1.0)
        assert abs(sd.lam - 1.0) < 5e-4
        assert np.max(np.abs(sd.v - 1.0)) < 5e-3
        # the projection at z = 1 integrates against the measure
        w = np.cos(np.linspace(0.0, 3.0, lsv2_small.grid.m))
        h = lsv2_small.density_values
        delta = lsv2_small.grid.width
        proj = sd.project(w)
        assert np.max(np.abs(proj - np.dot(w, h) * delta)) < 5e-3

    def test_projection_idempotent(self, lsv2_small):
        sd = spectral_data(lsv2_small, 0.97)
        p = sd.projection_matrix()
        assert np.max(np.abs(p @ p - p)) < 1e-10

    def test_eigen_residual(self, lsv2_small):
        sd = spectral_data(lsv2_small, 0.95)
        assert sd.residual < 1e-8

    def test_gap_guard(self, lsv2_small):
        with pytest.raises(NumericalError):
            spectral_data(lsv2_small, 0.95, gap_min=10.0)

    def test_first_order_eigenvalue_law(self, lsv2_spectral):
        # (1 - lambda(e^-u)) / (c Gamma(1/2) u^(1/2)) walks to 1 from above
        from renewalops.dual_ergodic import tail_model_from_operator

        tm = tail_model_from_operator(lsv2_spectral)
        ratios = []
        for u in (1e-1, 1e-2, 1e-3):
            sd = spectral_data(lsv2_spectral, math.exp(-u))
            ratios.append((1.0 - sd.lam.real) / (tm.c * math.gamma(0.5) * u**0.5))
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 1.0) < 0.05

    def test_resolvent_scaling_decreases_to_projection(self, lsv2_spectral):
        # || c Gamma(1-b) (u - i theta)^b T(z) - P || shrinks along a ray to 1
        from renewalops.dual_ergodic import tail_model_from_operator

        tm = tail_model_from_operator(lsv2_spectral)
        m = lsv2_spectral.grid.m
        sd1 = spectral_data(lsv2_spectral, 1.0)
        p_mat = sd1.projection_matrix()
        norms = []
        for u in (0.05, 0.02, 0.008, 0.003):
            z = complex(math.exp(-u) * math.cos(u), math.exp(-u) * math.sin(u))
            w = complex(u, -u)
            r = mu_form(lsv2_spectral, block_series(lsv2_spectral, z, extended=True))
            t_z = np.linalg.inv(np.eye(m) - r)
            scaled = tm.c * math.gamma(0.5) * w**0.5 * t_z
            norms.append(float(np.max(np.abs(scaled - p_mat))))
        assert all(b < a for a, b in zip(norms, norms[1:]))


@pytest.fixture(scope="module")
def matrix_family():
    op = ro.assemble_operator(ro.MapSpec("lsv", alpha=2.0), ro.Grid(96),
                              n_trunc=300, j_direct=64)
    mats = [m.toarray() for m in op.branch_matrices()]
    m = op.grid.m
    ts = [np.eye(m)]
    for n in range(1, 301):
        s = np.zeros((m, m))
        for j in range(1, min(n, len(mats)) + 1):
            s += mats[j - 1] @ ts[n - j]
        ts.append(s)
    return op, mats, ts


class TestRenewalMatrixIdentities:

    @pytest.mark.parametrize("z", [0.9, 0.9 * np.exp(1j * np.pi / 7)])
    def test_renewal_identity_at_z(self, matrix_family, z):
        op, mats, ts = matrix_family
        m = op.grid.m
        t_z = sum((z**n) * ts[n] for n in range(len(ts)))
        r_z = block_series(op, z)
        resid = np.max(np.abs((np.eye(m) - r_z) @ t_z - np.eye(m)))
        sup_norm = max(np.abs(ts[n]).sum(axis=1).max() for n in (298, 299, 300))
        tail_bound = sup_norm * abs(z) ** (len(ts)) / (1.0 - abs(z))
        assert resid <= tail_bound + 1e-11

    def test_series_matches_spectral_splitting(self, matrix_family):
        op, mats, ts = matrix_family
        m = op.grid.m
        z = 0.9
        h = op.density_values
        t_series = mu_form(op, sum((z**n) * ts[n] for n in range(len(ts))))
        sd = spectral_data(op, z)
        r_mu = mu_form(op, block_series(op, z, extended=True))
        p = sd.projection_matrix()
        q = np.eye(m) - p
        t_split = p / (1.0 - sd.lam) + np.linalg.solve(np.eye(m) - r_mu, q)
        # truncation of the series and of the block sum set the tolerance
        assert np.max(np.abs(t_series - t_split)) < 1e-6

    def test_positivity_of_family(self, matrix_family):
        _, mats, ts = matrix_family
        assert all(t.min() >= -1e-13 for t in ts[:50])
