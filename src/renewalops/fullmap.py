"""The transfer operator of the full interval map, away from the fixed point.

The invariant density of these maps blows up at the indifferent fixed
point, so full-map computations live on a geometrically graded mesh over
(delta, 1] with piecewise-linear representatives.  One transfer step sums
the two inverse branches with derivative weights; iterating requires the
observable's support to stay above the mesh floor, and an escape check
raises once mass reaches the bottom cell.

``ladder_pushforward`` moves the piece of an observable sitting on the
k-th entry set (the interval between consecutive backward-orbit points)
into Y in one closed-form step per level, using cell averaging of the
exact pullback; this is how observables supported on all of (0, 1] feed
the renewal machinery on Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalError
from .grid import Grid, GridObservable
from .ladder import BranchLadder, integral_tail_factor, pullback_row
from .maps import MapSpec, tail_sequence

__all__ = [
    "GradedMesh",
    "MeshObservable",
    "full_map_transfer",
    "iterate_full_map",
    "ladder_pushforward",
    "extended_density",
]


@dataclass(frozen=True)
class GradedMesh:
    """Geometric nodes on [floor, 1], denser toward the fixed point.

    Jump locations (by default the induction boundary 1/2) appear as
    duplicated nodes, so piecewise-linear observables can carry one-sided
    values there instead of smearing a discontinuity across a cell.
    """

    floor: float
    points_per_decade: int = 256
    jump_points: tuple = (0.5,)

    def __post_init__(self):
        if not 0.0 < self.floor < 1.0:
            raise DomainError("mesh floor must lie in (0, 1)")

    @cached_property
    def nodes(self) -> np.ndarray:
        decades = np.log10(1.0 / self.floor)
        count = max(16, int(np.ceil(decades * self.points_per_decade)))
        base = np.geomspace(self.floor, 1.0, count + 1)
        for j in self.jump_points:
            if not self.floor < j < 1.0:
                continue
            base[np.argmin(np.abs(base - j))] = j
            base = np.sort(np.concatenate([base, [j]]))
        return base


@dataclass
class MeshObservable:
    """Piecewise-linear values at the mesh nodes.

    ``escaped_mass`` accumulates the integral of whatever previous transfer
    steps pushed below the mesh floor.
    """

    mesh: GradedMesh
    values: np.ndarray
    escaped_mass: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.mesh.nodes.shape:
            raise DomainError("values do not match the mesh nodes")

    def __call__(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.mesh.nodes, self.values,
                         left=0.0, right=0.0)

    def integral(self) -> float:
        v, nodes = self.values, self.mesh.nodes
        return float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(nodes)))

    def cumulative_at(self, x) -> np.ndarray:
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


_ESCAPE_TOL = 1e-9


def full_map_transfer(spec: MapSpec, obs: MeshObservable,
                      allow_escape: bool = False) -> MeshObservable:
    """One transfer step: sum over the two inverse branches with 1/|f'| weights.

    Mass transported below the mesh floor is accounted in ``escaped_mass``
    of the result.  Unless ``allow_escape`` is set, a step that sheds more
    than 1e-9 of the observable's mass raises with the escape
    report: the mesh cannot follow the support toward the fixed point, and
    the caller has not declared that the lost mass is irrelevant.
    """
    nodes = obs.mesh.nodes
    out = np.zeros_like(obs.values)
    # right branch: y = (x+1)/2, derivative 2
    out += obs(0.5 * (nodes + 1.0)) / 2.0
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
        y = pullback_row(spec, targets, targets)
        out[inside] += obs(y) / spec.left_and_deriv_np(y)[1]
    floor = nodes[0]
    # mass landing in (0, floor): right-branch preimage is [1/2, (1+floor)/2];
    # the left-branch preimage interval is below the pullback of the floor
    cums = obs.cumulative_at(np.array([0.5, 0.5 * (1.0 + floor)]))
    escaped = float(cums[1] - cums[0])
    floor_target = np.array([min(floor, sup * (1 - 1e-14))])
    y_floor = pullback_row(spec, floor_target, floor_target)[0]
    escaped += float(obs.cumulative_at(np.array([y_floor]))[0])
    scale = max(abs(obs.integral()), float(np.max(np.abs(obs.values))), 1e-300)
    if not allow_escape and escaped > _ESCAPE_TOL * scale:
        raise NumericalError(
            f"transfer sheds {escaped:.3e} of mass below the mesh floor "
            f"{floor:.3e}; raise the floor's depth or allow the escape"
        )
    return MeshObservable(obs.mesh, out, escaped_mass=obs.escaped_mass + escaped)


def iterate_full_map(spec: MapSpec, obs: MeshObservable, n: int) -> MeshObservable:
    """n transfer steps of an observable supported in Y = [1/2, 1].

    Escaped mass cannot re-enter Y within the run when the mesh floor
    undercuts the backward orbit at depth n, so the restriction of the
    result to Y is unaffected by the truncation; the floor condition is
    checked up front.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if n > 0:
        x_deep = tail_sequence(spec, n + 1).x_n(n + 1)
        if obs.mesh.floor > x_deep:
            raise DomainError(
                f"mesh floor {obs.mesh.floor:.3e} above the depth-{n + 1} "
                f"orbit point {x_deep:.3e}; escaped mass could re-enter Y"
            )
    for _ in range(n):
        obs = full_map_transfer(spec, obs, allow_escape=True)
    return obs


def ladder_pushforward(
    spec: MapSpec,
    obs: MeshObservable,
    k_max: int,
    grid: Grid,
) -> list[GridObservable]:
    """Transfer each entry-level piece of the observable into Y exactly.

    Level 0 is the restriction to Y; level k pushes the piece supported on
    the k-th rung of the left-branch ladder through k steps in one shot,
    cell-averaged on the Y grid via the cumulative of the piecewise-linear
    observable.  Requires the support to clear the ladder by level
    ``k_max`` (the support must not touch the fixed point).
    """
    if (grid.lo, grid.hi) != (0.5, 1.0):
        raise DomainError("pushforward lands on the grid over [1/2, 1]")
    ladder = BranchLadder(spec, grid.edges, n_rungs=max(k_max, 1))
    live = np.nonzero(np.abs(obs.values) > 0)[0]
    inf_supp = obs.mesh.nodes[live[0]] if live.size else 1.0
    if inf_supp <= obs.mesh.floor * (1 + 1e-12):
        raise DomainError("support touches the mesh floor; not compact in (0, 1]")
    if k_max >= 1 and ladder.x_tail[k_max] > inf_supp:
        low = float(ladder.x_tail[k_max])
        raise DomainError(
            f"support (from {inf_supp:.3e}) may extend below rung {k_max} "
            f"(orbit point {low:.3e}); increase k_max"
        )
    delta = grid.width
    out = []
    for k in range(k_max + 1):
        row = ladder.rung(k)  # pullback of the Y edges through k left steps
        cums = obs.cumulative_at(row)
        vals = np.diff(cums) / delta
        if k == 0:
            # level 0 is the plain restriction to Y (cell averages)
            vals = np.diff(obs.cumulative_at(grid.edges)) / delta
        out.append(GridObservable(grid, vals))
    return out


def extended_density(op, mesh: GradedMesh, tol: float = 1e-9,
                     max_terms: int = 4000) -> MeshObservable:
    """Invariant density on (floor, 1] spread from the density on Y.

    On Y the density is the induced one.  At a point x below 1/2, the
    density sums the pullbacks of the Y density over all departure levels:
    climb down the ladder from x, weighting each left-branch step by the
    inverse derivative and the final right-branch step by 1/2.  The terms
    decay like the return-time tail, slowly, so the sum is truncated at
    ``max_terms`` (or once below ``tol`` relative) and closed with the
    matching integral-tail factor; the tail model's own accuracy is one
    order in 1/max_terms better than the truncated share.
    """
    h = op.density_observable()
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
            xi = pullback_row(spec, xi, xi)
            weight = weight / spec.left_and_deriv_np(xi)[1]
            term = weight * h_at(0.5 * (xi + 1.0))
            acc = acc + term
            last_it = it
            if float(np.max(term)) < tol * max(1e-300, float(np.max(acc))):
                break
        acc = acc + term * integral_tail_factor(spec, last_it)
        total[below] = acc
    return MeshObservable(mesh, total)
