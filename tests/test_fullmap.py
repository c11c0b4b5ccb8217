import numpy as np
import pytest

import renewalops as ro
from renewalops.errors import DomainError, NumericalError

from conftest import bisect_left_branch


def y_supported(mesh, fn):
    """Mesh observable equal to fn on Y and 0 below, with a sharp jump at 1/2."""
    nodes = mesh.nodes
    vals = np.where(nodes >= 0.5, fn(nodes), 0.0)
    first_half = np.nonzero(nodes == 0.5)[0]
    if first_half.size >= 2:
        vals[first_half[0]] = 0.0
    return ro.MeshObservable(mesh, vals)


class TestTransferStep:
    def test_pointwise_two_branch_formula(self):
        spec = ro.MapSpec("lsv", alpha=2.0)
        mesh = ro.GradedMesh(floor=1e-4, points_per_decade=2048)
        v = ro.MeshObservable(mesh, np.exp(-((mesh.nodes - 0.6) / 0.08) ** 2))
        lv = ro.full_map_transfer(spec, v, allow_escape=True)
        y = bisect_left_branch(spec, 0.75)
        left_deriv = 1.0 + 3.0 * (2.0 * y) ** 2  # d/dy of y (1 + (2y)^2)
        expect = v(np.array([y]))[0] / left_deriv + v(np.array([0.875]))[0] / 2.0
        # the node grid brackets 0.75, so the comparison carries one
        # piecewise-linear interpolation error of the smooth bump
        assert lv(np.array([0.75]))[0] == pytest.approx(expect, rel=1e-4)

    def test_mass_conservation(self):
        spec = ro.MapSpec("lsv", alpha=2.0)
        mesh = ro.GradedMesh(floor=1e-4, points_per_decade=4096)
        v = ro.MeshObservable(mesh, np.exp(-((mesh.nodes - 0.6) / 0.08) ** 2))
        lv = ro.full_map_transfer(spec, v, allow_escape=True)
        # the budget: interpolation error plus the mass shed below the floor
        assert lv.integral() + lv.escaped_mass == pytest.approx(v.integral(), rel=5e-5)

    def test_escape_guard_without_permission(self):
        spec = ro.MapSpec("lsv", alpha=2.0)
        mesh = ro.GradedMesh(floor=1e-2, points_per_decade=512)
        v = y_supported(mesh, lambda x: np.ones_like(x))
        with pytest.raises(NumericalError):
            ro.full_map_transfer(spec, ro.full_map_transfer(spec, v, allow_escape=True))

    def test_iterate_floor_condition(self):
        spec = ro.MapSpec("lsv", alpha=2.0)
        mesh = ro.GradedMesh(floor=0.05, points_per_decade=512)
        v = y_supported(mesh, lambda x: np.ones_like(x))
        with pytest.raises(DomainError):
            ro.iterate_full_map(spec, v, 200)  # orbit passes below the floor

    def test_escape_mass_tracked(self):
        spec = ro.MapSpec("lsv", alpha=2.0)
        mesh = ro.GradedMesh(floor=1e-3, points_per_decade=1024)
        v = y_supported(mesh, lambda x: np.ones_like(x))
        out = ro.iterate_full_map(spec, v, 3)
        # v = 1 on Y sheds the [1/2, (1+floor)/2] sliver each step
        assert out.escaped_mass >= 0.0
        assert out.escaped_mass < 5e-3


class TestRenewalCrossCheck:
    def test_partial_action_matches_renewal_family(self):
        # T_n w from the convolution recursion vs the n-fold full-map
        # transfer restricted to Y; agreement is limited by the first-order
        # cell-averaging projection of the induced blocks (measured ~2e-4
        # at this resolution, decreasing in n)
        spec = ro.MapSpec("lsv", alpha=2.0)
        grid = ro.Grid(1024)
        op = ro.assemble_operator(spec, grid, n_trunc=64, j_direct=65)
        h = op.density_values
        w = 1.0 + 0.5 * np.cos(2 * np.pi * grid.centers)
        acc = ro.renewal_action(op, w / h, 20, path="exact", keep_history=True)
        mesh = ro.GradedMesh(floor=1e-4, points_per_decade=3000)
        obs = y_supported(mesh, lambda x: np.interp(x, grid.centers, w,
                                                    left=w[0], right=w[-1]))
        cur = obs
        for n in range(1, 21):
            cur = ro.full_map_transfer(spec, cur, allow_escape=True)
            if n in (1, 5, 20):
                cell_avg = np.diff(cur.cumulative_at(grid.edges)) / grid.width
                assert np.max(np.abs(acc.s_all[n] - cell_avg)) < 5e-4


@pytest.fixture(scope="module")
def setup():
    spec = ro.MapSpec("lsv", alpha=2.0)
    grid = ro.Grid(256)
    mesh = ro.GradedMesh(floor=1e-4, points_per_decade=3000)
    vals = np.exp(-((mesh.nodes - 0.3) / 0.05) ** 2)
    vals[mesh.nodes < 0.12] = 0.0
    return spec, grid, ro.MeshObservable(mesh, vals)


class TestLadderPushforward:

    def test_mass_conservation(self, setup):
        spec, grid, obs = setup
        pieces = ro.ladder_pushforward(spec, obs, k_max=12, grid=grid)
        total = sum(p.integral() for p in pieces)
        assert total == pytest.approx(obs.integral(), rel=1e-10)

    def test_level_zero_is_restriction(self, setup):
        spec, grid, _ = setup
        mesh = ro.GradedMesh(floor=1e-2, points_per_decade=3000)
        obs = y_supported(mesh, lambda x: 1.0 + x)
        pieces = ro.ladder_pushforward(spec, obs, k_max=2, grid=grid)
        expect = 1.0 + grid.centers
        assert np.max(np.abs(pieces[0].values - expect)) < 1e-6
        assert all(p.integral() == pytest.approx(0.0, abs=1e-12) for p in pieces[1:])

    def test_level_one_support_log_family(self):
        spec = ro.MapSpec("lsv0")
        grid = ro.Grid(256)
        ts = ro.tail_sequence(spec, 4)
        mesh = ro.GradedMesh(floor=1e-2, points_per_decade=4000,
                             jump_points=(0.5, spec.left_image_sup))
        vals = ((mesh.nodes > ts.x_tail[1]) & (mesh.nodes <= 0.5)).astype(float)
        obs = ro.MeshObservable(mesh, vals)
        pieces = ro.ladder_pushforward(spec, obs, k_max=3, grid=grid)
        nz = np.nonzero(pieces[1].values > 1e-12)[0]
        assert grid.edges[nz[-1] + 1] <= 0.75 + grid.width  # inside [1/2, y_1]

    def test_level_one_against_transfer_oracle(self, setup):
        spec, grid, obs = setup
        ts = ro.tail_sequence(spec, 3)
        mask = ((obs.mesh.nodes > ts.x_tail[1]) & (obs.mesh.nodes <= 0.5)).astype(float)
        piece_in = ro.MeshObservable(obs.mesh, obs.values * mask)
        pieces = ro.ladder_pushforward(spec, piece_in, k_max=1, grid=grid)
        moved = ro.full_map_transfer(spec, piece_in, allow_escape=True)
        cell_avg = np.diff(moved.cumulative_at(grid.edges)) / grid.width
        # the oracle smears the sharp level-set cut across one mesh interval;
        # the pushforward itself is cell-exact
        assert np.max(np.abs(pieces[1].values - cell_avg)) < 5e-3

    def test_measure_integrals_conserved(self, setup):
        # the measure-weighted observable pushes forward with conserved mass
        spec, grid, obs = setup
        op = ro.assemble_operator(spec, grid, n_trunc=200, j_direct=64)
        hx = ro.extended_density(op, obs.mesh)
        weighted = ro.MeshObservable(obs.mesh, obs.values * hx.values)
        pieces = ro.ladder_pushforward(spec, weighted, k_max=12, grid=grid)
        assert sum(p.integral() for p in pieces) == pytest.approx(
            weighted.integral(), rel=1e-10)

    def test_support_guard(self, setup):
        spec, grid, obs = setup
        with pytest.raises(DomainError):
            ro.ladder_pushforward(spec, obs, k_max=2, grid=grid)


class TestExtendedDensity:
    def test_invariance_on_compacts(self, lsv2_mid):
        mesh = ro.GradedMesh(floor=1e-3, points_per_decade=3000)
        hx = ro.extended_density(lsv2_mid, mesh)
        lhx = ro.full_map_transfer(lsv2_mid.spec, hx, allow_escape=True)
        sel = (mesh.nodes > 0.05) & (mesh.nodes < 0.95)
        rel = np.abs(lhx.values[sel] - hx.values[sel]) / hx.values[sel]
        assert float(np.max(rel)) < 2e-3

    def test_matches_y_density(self, lsv2_mid):
        mesh = ro.GradedMesh(floor=1e-3, points_per_decade=3000)
        hx = ro.extended_density(lsv2_mid, mesh)
        h = lsv2_mid.density_observable()
        centers = 0.5 * (h.grid.edges[:-1] + h.grid.edges[1:])
        assert np.max(np.abs(hx(centers) - h.values)) < 1e-3

    def test_blows_up_toward_origin(self, lsv2_mid):
        mesh = ro.GradedMesh(floor=1e-3, points_per_decade=1024)
        hx = ro.extended_density(lsv2_mid, mesh)
        assert hx(np.array([2e-3]))[0] > 3.0 * hx(np.array([0.6]))[0]
