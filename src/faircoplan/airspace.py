"""Discretized airspace: grid resources, adjacency, capacities, occupancy.

The airspace is a rows x cols grid. Every cell is exactly one resource, either
a sector or a vertiport. Sectors adjacent to any vertiport form the approach
ring and get their own (higher) capacity. The occupancy ledger is the public
flight database: it files ``FlightPlan``s append-only, refuses any filing that
would exceed a cell's capacity, and keeps the per-(resource, timestep)
occupancy index consistent with them. Planners read occupancy only through an
``OccupancySnapshot`` taken at the start of a period; its ``remaining`` is the
one remaining-capacity rule, and ``remaining_table(now)`` the one read of it
over the period ``[now, now + horizon)``, kept per snapshot and period.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product, repeat
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .flights import FlightPlan


class ConfigError(ValueError):
    """Invalid grid or scenario configuration."""


class CapacityViolation(RuntimeError):
    """Filing a plan would push occupancy beyond capacity (planner bug)."""


CONNECTIVITIES = ("orthogonal-4", "diagonal-8")
VERTIPORT_KINDS = ("hub", "vertistop")


@dataclass(frozen=True)
class VertiportSpec:
    row: int
    col: int
    kind: str
    ops_capacity: int

    def __post_init__(self) -> None:
        if self.kind not in VERTIPORT_KINDS:
            raise ConfigError(f"unknown vertiport kind {self.kind!r}")
        if self.ops_capacity < 1:
            raise ConfigError("vertiport ops_capacity must be >= 1")

    @property
    def cell(self) -> tuple[int, int]:
        return (self.row, self.col)


@dataclass(frozen=True)
class GridConfig:
    rows: int
    cols: int
    vertiports: tuple[VertiportSpec, ...]
    connectivity: str = "orthogonal-4"
    horizon_steps: int = 18
    step_minutes: int = 5
    sector_capacity: int = 1
    ring_capacity: int = 3
    # (resource id, timestep, capacity) triples for time-varying capacity
    # (closures, weather); applied on top of the static profile.
    capacity_overrides: tuple[tuple[str, int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigError("grid must have at least one row and column")
        if self.horizon_steps < 1:
            raise ConfigError("horizon_steps must be >= 1")
        if self.step_minutes < 1:
            raise ConfigError("step_minutes must be >= 1")
        if self.connectivity not in CONNECTIVITIES:
            raise ConfigError(f"unknown connectivity {self.connectivity!r}")
        if self.sector_capacity < 0 or self.ring_capacity < 0:
            raise ConfigError("sector capacities must be >= 0")
        seen: set[tuple[int, int]] = set()
        for vp in self.vertiports:
            if not (0 <= vp.row < self.rows and 0 <= vp.col < self.cols):
                raise ConfigError(f"vertiport at {vp.cell} outside the grid")
            if vp.cell in seen:
                raise ConfigError(f"two vertiports share cell {vp.cell}")
            seen.add(vp.cell)
        cells: set[tuple[str, int]] = set()
        for rid, t, cap in self.capacity_overrides:
            if t < 0 or cap < 0:
                raise ConfigError(f"bad capacity override ({rid}, {t}, {cap})")
            if (rid, t) in cells:
                raise ConfigError(f"two capacity overrides for ({rid}, t={t})")
            cells.add((rid, t))
        object.__setattr__(self, "vertiports", tuple(self.vertiports))
        object.__setattr__(self, "capacity_overrides", tuple(self.capacity_overrides))


@dataclass(frozen=True)
class Resource:
    resource_id: str
    kind: str  # "sector" | "vertiport"
    row: int
    col: int

    @property
    def cell(self) -> tuple[int, int]:
        return (self.row, self.col)


def resource_id_for(config_cols: int, row: int, col: int) -> str:
    """Stable id scheme: zero-padded row-major cell number.

    Lexicographic id order therefore equals row-major cell order, which keeps
    every deterministic tie-break reproducible.
    """
    return f"r{row * config_cols + col:04d}"


class AirspaceGrid:
    """Immutable airspace model; build via build_grid()."""

    def __init__(
        self,
        config: GridConfig,
        resources: tuple[Resource, ...],
        adjacency: dict[str, tuple[str, ...]],
        vertiport_ids: tuple[str, ...],
        hub_ids: tuple[str, ...],
        ring: frozenset[str],
        base_capacity: dict[str, int],
        overrides: dict[tuple[str, int], int],
    ) -> None:
        self.config = config
        self.resources = resources
        self.resource_ids = tuple(r.resource_id for r in resources)
        self._by_id = {r.resource_id: r for r in resources}
        self._rows = {rid: i for i, rid in enumerate(self.resource_ids)}
        self.adjacency = adjacency
        self.vertiport_ids = vertiport_ids
        self.hub_ids = hub_ids
        self.ring = ring
        self.zone = frozenset(vertiport_ids) | ring
        self._base_capacity = base_capacity
        self._overrides = overrides
        self._dist_cache: dict[str, dict[str, int]] = {}
        self._dist_array_cache: dict[str, np.ndarray] = {}

    @property
    def horizon_steps(self) -> int:
        return self.config.horizon_steps

    def resource(self, resource_id: str) -> Resource:
        try:
            return self._by_id[resource_id]
        except KeyError:
            raise KeyError(f"unknown resource {resource_id!r}") from None

    def capacity(self, resource_id: str, t: int) -> int:
        override = self._overrides.get((resource_id, t))
        if override is not None:
            return override
        return self._base_capacity[resource_id]

    def row(self, resource_id: str) -> int:
        """The position of ``resource_id`` in ``resources``: its row in
        ``capacity_table`` and in a snapshot's ``remaining_table``."""
        return self._rows[resource_id]

    def capacity_table(self, start: int, stop: int) -> np.ndarray:
        """``capacity`` of every resource over steps ``[start, stop)``: row
        ``row(rid)``, column j is the capacity of ``rid`` at ``start + j``."""
        base = np.array([self._base_capacity[rid] for rid in self.resource_ids], dtype=np.int64)
        table = np.repeat(base[:, None], stop - start, axis=1)
        for (rid, t), cap in self._overrides.items():
            if start <= t < stop:
                table[self._rows[rid], t - start] = cap
        return table

    def min_stay(self, resource_id: str, dwell: int) -> int:
        """The fewest steps a flight holds ``resource_id`` for, given its
        requested minimum ``dwell`` there: a sector holds it for its dwell,
        any other resource (a vertiport) for one step."""
        return dwell if self.resource(resource_id).kind == "sector" else 1

    def is_zone(self, resource_id: str) -> bool:
        """True for vertiports and vertiport-adjacent (ring) sectors."""
        return resource_id in self.zone

    def hop_distances(self, resource_id: str) -> dict[str, int]:
        """BFS hop counts from a resource to every reachable resource."""
        cached = self._dist_cache.get(resource_id)
        if cached is not None:
            return cached
        self.resource(resource_id)
        dist = {resource_id: 0}
        queue = deque([resource_id])
        while queue:
            cur = queue.popleft()
            for nb in self.adjacency[cur]:
                if nb not in dist:
                    dist[nb] = dist[cur] + 1
                    queue.append(nb)
        self._dist_cache[resource_id] = dist
        return dist

    def hop_distance_array(self, resource_id: str) -> np.ndarray:
        """``hop_distances`` by position in ``resources``, -1 where a
        resource cannot be reached; computed once per resource."""
        cached = self._dist_array_cache.get(resource_id)
        if cached is None:
            dist = self.hop_distances(resource_id)
            cached = np.array([dist.get(rid, -1) for rid in self.resource_ids], dtype=np.int64)
            self._dist_array_cache[resource_id] = cached
        return cached


def build_grid(config: GridConfig) -> AirspaceGrid:
    """Assemble resources, adjacency, the ring, and the capacity profile."""
    vp_by_cell = {vp.cell: vp for vp in config.vertiports}
    resources = []
    for row in range(config.rows):
        for col in range(config.cols):
            kind = "vertiport" if (row, col) in vp_by_cell else "sector"
            resources.append(
                Resource(resource_id_for(config.cols, row, col), kind, row, col)
            )
    by_cell = {r.cell: r for r in resources}

    if config.connectivity == "orthogonal-4":
        offsets = ((-1, 0), (1, 0), (0, -1), (0, 1))
    else:
        offsets = tuple(
            (dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)
        )
    adjacency: dict[str, tuple[str, ...]] = {}
    for r in resources:
        nbs = []
        for dr, dc in offsets:
            nb = by_cell.get((r.row + dr, r.col + dc))
            if nb is not None:
                nbs.append(nb.resource_id)
        adjacency[r.resource_id] = tuple(sorted(nbs))

    vertiport_ids = tuple(
        sorted(r.resource_id for r in resources if r.kind == "vertiport")
    )
    vp_set = set(vertiport_ids)
    for vid in vertiport_ids:
        for nb in adjacency[vid]:
            if nb in vp_set:
                # Adjacent vertiports would allow two-entry plans with no
                # intermediate sector, which the rest of the artifact rules out.
                raise ConfigError(f"vertiports {vid} and {nb} are adjacent")
    ring = frozenset(
        nb for vid in vertiport_ids for nb in adjacency[vid] if nb not in vp_set
    )

    base_capacity = {}
    for r in resources:
        if r.kind == "vertiport":
            base_capacity[r.resource_id] = vp_by_cell[r.cell].ops_capacity
        elif r.resource_id in ring:
            base_capacity[r.resource_id] = config.ring_capacity
        else:
            base_capacity[r.resource_id] = config.sector_capacity

    known = {r.resource_id for r in resources}
    overrides = {}
    for rid, t, cap in config.capacity_overrides:
        if rid not in known:
            raise ConfigError(f"capacity override names unknown resource {rid!r}")
        overrides[(rid, t)] = cap

    hub_ids = tuple(sorted(
        resource_id_for(config.cols, vp.row, vp.col)
        for vp in config.vertiports
        if vp.kind == "hub"
    ))
    return AirspaceGrid(
        config, tuple(resources), adjacency, vertiport_ids, hub_ids, ring,
        base_capacity, overrides
    )


def _left(capacity, used):
    """The one remaining-capacity rule, for one cell (ints) or a table of
    cells (arrays) alike: capacity minus occupancy, clipped at zero."""
    left = capacity - used
    return left * (left > 0)


class OccupancySnapshot:
    """Frozen view of occupancy taken at the start of a planning period.

    ``remaining`` is the one remaining-capacity rule: grid capacity minus
    occupancy, clipped at zero. ``remaining_table(now)``, the one read of a
    period, applies it to every resource over the period starting at ``now``.
    """

    def __init__(self, grid: AirspaceGrid, counts: dict[tuple[str, int], int]) -> None:
        self._grid = grid
        self._counts = counts
        # The snapshot never changes, so each cell's remaining capacity is
        # computed once; model building reads it thousands of times a period.
        self._remaining: dict[tuple[str, int], int] = {}
        self._tables: dict[int, np.ndarray] = {}

    @property
    def counts(self) -> Mapping[tuple[str, int], int]:
        """Occupancy by (resource, t) cell, occupied cells only; read-only.
        Two snapshots of one grid with equal counts have equal remaining
        capacity everywhere."""
        return MappingProxyType(self._counts)

    def remaining(self, resource_id: str, t: int) -> int:
        key = (resource_id, t)
        left = self._remaining.get(key)
        if left is None:
            left = _left(self._grid.capacity(resource_id, t), self._counts.get(key, 0))
            self._remaining[key] = left
        return left

    def remaining_table(self, now: int) -> np.ndarray:
        """``remaining`` of every resource over the period ``[now, now +
        horizon)``: row ``grid.row(rid)``, column j is ``remaining(rid, now +
        j)``. Computed once per period and kept, read-only."""
        table = self._tables.get(now)
        if table is None:
            grid, stop = self._grid, now + self._grid.horizon_steps
            capacity = grid.capacity_table(now, stop)
            cells = product(grid.resource_ids, range(now, stop))
            used = np.fromiter(map(self._counts.get, cells, repeat(0)), dtype=np.int64,
                               count=capacity.size)
            table = self._tables[now] = _left(capacity, used.reshape(capacity.shape))
            table.flags.writeable = False
        return table

    def with_plans(self, plans: Iterable[FlightPlan]) -> OccupancySnapshot:
        """A new snapshot with the given plans' occupancy added on top."""
        counts = dict(self._counts)
        for plan in plans:
            for t, rid in plan.steps:
                counts[(rid, t)] = counts.get((rid, t), 0) + 1
        return OccupancySnapshot(self._grid, counts)


class OccupancyLedger:
    """The flight database as its occupancy index: how many filed plans
    hold each cell at each step."""

    def __init__(self, grid: AirspaceGrid) -> None:
        self.grid = grid
        self._counts: dict[tuple[str, int], int] = {}

    def snapshot(self) -> OccupancySnapshot:
        return OccupancySnapshot(self.grid, dict(self._counts))

    def file_plan(self, plan: FlightPlan) -> None:
        """Count a plan in, rejecting any capacity excess before mutation."""
        offending = [(rid, t) for t, rid in plan.steps
                     if self._counts.get((rid, t), 0) + 1 > self.grid.capacity(rid, t)]
        if offending:
            raise CapacityViolation(
                f"filing {plan.flight_id} exceeds capacity at "
                + ", ".join(f"({rid}, t={t})" for rid, t in offending)
            )
        for t, rid in plan.steps:
            self._counts[(rid, t)] = self._counts.get((rid, t), 0) + 1
