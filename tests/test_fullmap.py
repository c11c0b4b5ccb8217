"""The renewal machinery on Y against the transfer operator of the full map.

The full-map transfer operator is an independent oracle: it sums the two
inverse branches with derivative weights on a geometrically graded mesh
over (floor, 1], with piecewise-linear observables, and never looks at the
induced branch family.  Agreement with the renewal recursion and with the
invariant density on Y checks the package from outside.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pytest

import renewalops as ro
from renewalops.ladder import integral_tail_factor

from conftest import bisect_left_branch, fast_history, pull_back, reference_left_and_deriv


@dataclass(frozen=True)
class GradedMesh:
    """Geometric nodes on [floor, 1], denser toward the fixed point.

    The induction boundary 1/2 appears as a duplicated node, so
    piecewise-linear observables can carry one-sided values there instead
    of smearing the jump across a cell.
    """

    floor: float
    points_per_decade: int = 256

    @cached_property
    def nodes(self):
        decades = np.log10(1.0 / self.floor)
        count = max(16, int(np.ceil(decades * self.points_per_decade)))
        base = np.geomspace(self.floor, 1.0, count + 1)
        base[np.argmin(np.abs(base - 0.5))] = 0.5
        return np.sort(np.concatenate([base, [0.5]]))


@dataclass
class MeshObservable:
    """Piecewise-linear values at the mesh nodes.

    ``escaped_mass`` accumulates the integral of whatever previous transfer
    steps pushed below the mesh floor.
    """

    mesh: GradedMesh
    values: np.ndarray
    escaped_mass: float = 0.0

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.mesh.nodes, self.values,
                         left=0.0, right=0.0)

    def integral(self):
        v, nodes = self.values, self.mesh.nodes
        return float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(nodes)))

    def cumulative_at(self, x):
        """Integral from the mesh floor, piecewise-linear-exact."""
        nodes = self.mesh.nodes
        v = self.values
        dn = np.diff(nodes)
        cums = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * dn)])
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xi = np.clip(x, nodes[0], nodes[-1])
        idx = np.clip(np.searchsorted(nodes, xi, side="right") - 1, 0, len(nodes) - 2)
        dx = xi - nodes[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(dn > 0, np.diff(v) / np.where(dn > 0, dn, 1.0), 0.0)
        return cums[idx] + v[idx] * dx + 0.5 * slope[idx] * dx * dx


def full_map_transfer(spec, obs):
    """One transfer step: sum over the two inverse branches with 1/|f'| weights.

    Mass transported below the mesh floor is added to ``escaped_mass`` of
    the result.
    """
    nodes = obs.mesh.nodes
    # right branch: y = (x+1)/2, derivative 2
    out = obs(0.5 * (nodes + 1.0)) / 2.0
    # left branch where x is inside its image; nodes sitting exactly on the
    # image boundary take the limit from below (the first copy of a
    # duplicated interior jump node, or the top node when the image
    # reaches 1)
    sup = spec.left_image_sup
    inside = nodes < sup
    eq = np.nonzero(nodes == sup)[0]
    if eq.size >= 2:
        inside[eq[0]] = True
    elif eq.size == 1 and eq[0] == len(nodes) - 1:
        inside[-1] = True
    if np.any(inside):
        targets = np.minimum(nodes[inside], sup * (1 - 1e-14))
        y = pull_back(spec, targets)
        out[inside] += obs(y) / reference_left_and_deriv(spec, y)[1]
    floor = nodes[0]
    # mass landing in (0, floor): right-branch preimage is [1/2, (1+floor)/2];
    # the left-branch preimage interval is below the pullback of the floor
    cums = obs.cumulative_at(np.array([0.5, 0.5 * (1.0 + floor)]))
    escaped = float(cums[1] - cums[0])
    floor_target = np.array([min(floor, sup * (1 - 1e-14))])
    y_floor = pull_back(spec, floor_target)[0]
    escaped += float(obs.cumulative_at(np.array([y_floor]))[0])
    return MeshObservable(obs.mesh, out, escaped_mass=obs.escaped_mass + escaped)


def extended_density(op, mesh, tol=1e-9, max_terms=4000):
    """Invariant density on (floor, 1] spread from the density on Y.

    On Y the density is the induced one.  At a point x below 1/2, the
    density sums the pullbacks of the Y density over all departure levels:
    climb down the ladder from x, weighting each left-branch step by the
    inverse derivative and the final right-branch step by 1/2.  The terms
    decay like the return-time tail, slowly, so the sum is truncated at
    ``max_terms`` (or once below ``tol`` relative) and closed with the
    matching integral-tail factor.
    """
    h = ro.invariant_density(op)
    edges = h.grid.edges
    centers = 0.5 * (edges[:-1] + edges[1:])

    def h_at(y):
        return np.interp(y, centers, h.values, left=h.values[0], right=h.values[-1])

    x = mesh.nodes
    spec = op.spec
    total = np.zeros_like(x)
    in_y = x >= 0.5
    total[in_y] = h_at(x[in_y])
    below = np.nonzero(~in_y)[0]
    if below.size:
        xi = x[below].copy()
        weight = np.full(xi.shape, 0.5)
        acc = weight * h_at(0.5 * (xi + 1.0))  # direct right-branch departure
        term = acc
        last_it = 0
        for it in range(1, max_terms + 1):
            xi = pull_back(spec, xi)
            weight = weight / reference_left_and_deriv(spec, xi)[1]
            term = weight * h_at(0.5 * (xi + 1.0))
            acc = acc + term
            last_it = it
            if float(np.max(term)) < tol * max(1e-300, float(np.max(acc))):
                break
        acc = acc + term * integral_tail_factor(spec, last_it)
        total[below] = acc
    return MeshObservable(mesh, total)


def y_supported(mesh, fn):
    """Mesh observable equal to fn on Y and 0 below, with a sharp jump at 1/2."""
    nodes = mesh.nodes
    vals = np.where(nodes >= 0.5, fn(nodes), 0.0)
    first_half = np.nonzero(nodes == 0.5)[0]
    if first_half.size >= 2:
        vals[first_half[0]] = 0.0
    return MeshObservable(mesh, vals)


class TestTransferStep:
    def test_pointwise_two_branch_formula(self):
        spec = ro.MapSpec("lsv", alpha=2.0)
        mesh = GradedMesh(floor=1e-4, points_per_decade=2048)
        v = MeshObservable(mesh, np.exp(-((mesh.nodes - 0.6) / 0.08) ** 2))
        lv = full_map_transfer(spec, v)
        y = bisect_left_branch(spec, 0.75)
        left_deriv = 1.0 + 3.0 * (2.0 * y) ** 2  # d/dy of y (1 + (2y)^2)
        expect = v(np.array([y]))[0] / left_deriv + v(np.array([0.875]))[0] / 2.0
        # the node grid brackets 0.75, so the comparison carries one
        # piecewise-linear interpolation error of the smooth bump
        assert lv(np.array([0.75]))[0] == pytest.approx(expect, rel=1e-4)

    def test_mass_conservation(self):
        spec = ro.MapSpec("lsv", alpha=2.0)
        mesh = GradedMesh(floor=1e-4, points_per_decade=4096)
        v = MeshObservable(mesh, np.exp(-((mesh.nodes - 0.6) / 0.08) ** 2))
        lv = full_map_transfer(spec, v)
        # the budget: interpolation error plus the mass shed below the floor
        assert lv.integral() + lv.escaped_mass == pytest.approx(v.integral(), rel=5e-5)

    def test_escape_mass_tracked(self):
        spec = ro.MapSpec("lsv", alpha=2.0)
        mesh = GradedMesh(floor=1e-3, points_per_decade=1024)
        v = y_supported(mesh, lambda x: np.ones_like(x))
        out = v
        for _ in range(3):
            out = full_map_transfer(spec, out)
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
        centers = 0.5 * (grid.edges[:-1] + grid.edges[1:])
        w = 1.0 + 0.5 * np.cos(2 * np.pi * centers)
        s_all = fast_history(op, w / h, 20)
        mesh = GradedMesh(floor=1e-4, points_per_decade=3000)
        obs = y_supported(mesh, lambda x: np.interp(x, centers, w,
                                                    left=w[0], right=w[-1]))
        cur = obs
        for n in range(1, 21):
            cur = full_map_transfer(spec, cur)
            if n in (1, 5, 20):
                cell_avg = np.diff(cur.cumulative_at(grid.edges)) / grid.width
                assert np.max(np.abs(s_all[n] - cell_avg)) < 5e-4


class TestExtendedDensity:
    def test_invariance_on_compacts(self, lsv2_mid):
        mesh = GradedMesh(floor=1e-3, points_per_decade=3000)
        hx = extended_density(lsv2_mid, mesh)
        lhx = full_map_transfer(lsv2_mid.spec, hx)
        sel = (mesh.nodes > 0.05) & (mesh.nodes < 0.95)
        rel = np.abs(lhx.values[sel] - hx.values[sel]) / hx.values[sel]
        assert float(np.max(rel)) < 2e-3

    def test_matches_y_density(self, lsv2_mid):
        mesh = GradedMesh(floor=1e-3, points_per_decade=3000)
        hx = extended_density(lsv2_mid, mesh)
        h = ro.invariant_density(lsv2_mid)
        centers = 0.5 * (h.grid.edges[:-1] + h.grid.edges[1:])
        assert np.max(np.abs(hx(centers) - h.values)) < 1e-3

    def test_blows_up_toward_origin(self, lsv2_mid):
        mesh = GradedMesh(floor=1e-3, points_per_decade=1024)
        hx = extended_density(lsv2_mid, mesh)
        assert hx(np.array([2e-3]))[0] > 3.0 * hx(np.array([0.6]))[0]
