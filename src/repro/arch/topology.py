"""Physical qubit topologies (coupling maps).

The paper evaluates NISQ machines with 2-D lattice nearest-neighbour
connectivity, an ideal fully-connected machine (Figure 5), and
fault-tolerant machines whose logical qubits sit on a 2-D grid with
routing channels.  A :class:`Topology` provides sites, adjacency,
coordinates and hop distances used by swap-chain resolution and by the
locality-aware allocation heuristic.  Every machine is either a lattice
or all-to-all, so each of these answers is plain coordinate arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ArchitectureError

Coordinate = Tuple[int, int]


class Topology:
    """Physical sites on a 2-D lattice or with all-to-all coupling.

    Build one with :meth:`line`, :meth:`grid`, :meth:`square_grid_for` or
    :meth:`fully_connected`.

    Args:
        coordinates: (row, column) of each site, indexed by site number.
        name: Human-readable topology name.
        is_lattice: True for nearest-neighbour coupling on the coordinate
            lattice, False for all-to-all coupling.
    """

    def __init__(self, coordinates: Sequence[Coordinate], name: str,
                 is_lattice: bool) -> None:
        self.name = name
        self.is_lattice = is_lattice
        self._coordinates: Tuple[Coordinate, ...] = tuple(coordinates)
        self.num_sites = len(self._coordinates)
        self._site_at: Dict[Coordinate, int] = {
            coord: site for site, coord in enumerate(self._coordinates)
        }
        #: Row and column of each site, indexed by site number.
        self.site_rows: Tuple[int, ...] = tuple(r for r, _ in self._coordinates)
        self.site_cols: Tuple[int, ...] = tuple(c for _, c in self._coordinates)
        #: Lattice sites by position: the site at (row, col) is
        #: ``lattice_sites[(row - row0) * width + col - col0]`` (-1 where
        #: no site sits) for ``row0 <= row < row0 + height`` and
        #: ``col0 <= col < col0 + width``.  Empty for all-to-all machines.
        self.lattice_sites: List[int] = []
        self.row0 = self.col0 = self.height = self.width = 0
        if is_lattice and self.num_sites:
            self.row0 = min(self.site_rows)
            self.col0 = min(self.site_cols)
            self.height = max(self.site_rows) - self.row0 + 1
            self.width = max(self.site_cols) - self.col0 + 1
            self.lattice_sites = [-1] * (self.height * self.width)
            for site, (row, col) in enumerate(self._coordinates):
                self.lattice_sites[(row - self.row0) * self.width
                                   + col - self.col0] = site

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def line(cls, num_sites: int) -> "Topology":
        """A 1-D chain of ``num_sites`` qubits."""
        if num_sites < 1:
            raise ArchitectureError("num_sites must be positive")
        coords = [(0, site) for site in range(num_sites)]
        return cls(coords, f"line-{num_sites}", is_lattice=True)

    @classmethod
    def grid(cls, rows: int, cols: int) -> "Topology":
        """A 2-D lattice with nearest-neighbour connectivity."""
        if rows < 1 or cols < 1:
            raise ArchitectureError("grid dimensions must be positive")
        coords = [(row, col) for row in range(rows) for col in range(cols)]
        return cls(coords, f"grid-{rows}x{cols}", is_lattice=True)

    @classmethod
    def square_grid_for(cls, num_qubits: int) -> "Topology":
        """Smallest near-square lattice with at least ``num_qubits`` sites."""
        if num_qubits < 1:
            raise ArchitectureError("num_qubits must be positive")
        side = math.isqrt(num_qubits)
        if side * side < num_qubits:
            side += 1
        rows = side
        cols = side
        while (rows - 1) * cols >= num_qubits:
            rows -= 1
        return cls.grid(rows, cols)

    @classmethod
    def fully_connected(cls, num_sites: int) -> "Topology":
        """All-to-all connectivity (no routing cost)."""
        if num_sites < 1:
            raise ArchitectureError("num_sites must be positive")
        side = max(1, math.isqrt(num_sites))
        coords = [divmod(site, side) for site in range(num_sites)]
        return cls(coords, f"full-{num_sites}", is_lattice=False)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def geometry(self) -> Tuple[bool, Tuple[int, ...], Tuple[int, ...]]:
        """What every answer of this topology depends on: the coupling
        kind and each site's row and column.  Two topologies with equal
        geometry differ at most in name."""
        return (self.is_lattice, self.site_rows, self.site_cols)

    @property
    def is_fully_connected(self) -> bool:
        """True when every pair of sites is directly coupled."""
        return not self.is_lattice or self.num_sites <= 2

    def coordinate(self, site: int) -> Coordinate:
        """(row, column) coordinate of ``site``."""
        self._check_site(site)
        return self._coordinates[site]

    def site_at(self, coord: Coordinate) -> Optional[int]:
        """The site at ``coord``, or None when no site sits there."""
        return self._site_at.get(coord)

    def neighbors(self, site: int) -> Tuple[int, ...]:
        """Sites directly coupled to ``site``."""
        self._check_site(site)
        if not self.is_lattice:
            return tuple(s for s in range(self.num_sites) if s != site)
        row, col = self._coordinates[site]
        around = ((row - 1, col), (row, col - 1), (row, col + 1),
                  (row + 1, col))
        return tuple(sorted(self._site_at[c] for c in around
                            if c in self._site_at))

    def are_adjacent(self, a: int, b: int) -> bool:
        """True when ``a`` and ``b`` are directly coupled (or identical).

        Sites outside the machine are never adjacent to anything.
        """
        if not (0 <= a < self.num_sites and 0 <= b < self.num_sites):
            return False
        if not self.is_lattice:
            return True
        rows = self.site_rows
        cols = self.site_cols
        return abs(rows[a] - rows[b]) + abs(cols[a] - cols[b]) <= 1

    def distance(self, a: int, b: int) -> int:
        """Hop distance between two sites (0 for the same site)."""
        self._check_site(a)
        self._check_site(b)
        if self.is_lattice:
            rows = self.site_rows
            cols = self.site_cols
            return abs(rows[a] - rows[b]) + abs(cols[a] - cols[b])
        return 0 if a == b else 1

    def shortest_path(self, a: int, b: int) -> List[int]:
        """One shortest site path from ``a`` to ``b`` inclusive.

        On a lattice this is the L-shaped path that walks the column
        first, then the row.
        """
        if not self.is_lattice:
            self._check_site(a)
            self._check_site(b)
            return [a] if a == b else [a, b]
        self._check_site(a)
        self._check_site(b)
        # Walk lattice_sites indexes: +-1 along a row, +-width along a column.
        width = self.width
        start = self._lattice_index(a)
        end = self._lattice_index(b)
        corner = start + end % width - start % width
        col_step = 1 if corner > start else -1
        row_step = width if end > corner else -width
        indexes = chain(range(start + col_step, corner + col_step, col_step),
                        range(corner + row_step, end + row_step, row_step))
        sites = self.lattice_sites
        return [a] + [sites[index] for index in indexes]

    def distance_sums(self, anchors: Sequence[int],
                      sites: Sequence[int]) -> List[int]:
        """Each site's total hop distance to ``anchors``.

        A repeated anchor counts once per repeat, and the totals are
        exact integers.  The anchors are read once: on a lattice their
        rows and columns are sorted with prefix sums, so each site costs
        two bisections however many anchors there are.
        """
        self._check_sites(anchors)
        self._check_sites(sites)
        count = len(anchors)
        if not self.is_lattice:
            repeats = Counter(anchors)
            return [count - repeats[site] for site in sites]
        site_rows = self.site_rows
        site_cols = self.site_cols
        rows = sorted([site_rows[a] for a in anchors])
        cols = sorted([site_cols[a] for a in anchors])
        row_prefix = list(accumulate(rows, initial=0))
        col_prefix = list(accumulate(cols, initial=0))
        # sum |x - v| over sorted v = x * (2k - n) - 2 * prefix[k] + total,
        # where k values lie below x.
        base = row_prefix[-1] + col_prefix[-1]
        totals = []
        for site in sites:
            row = site_rows[site]
            col = site_cols[site]
            below_row = bisect_left(rows, row)
            below_col = bisect_left(cols, col)
            totals.append(row * (2 * below_row - count) - 2 * row_prefix[below_row]
                          + col * (2 * below_col - count) - 2 * col_prefix[below_col]
                          + base)
        return totals

    def distances_from(self, origin: int, sites: Sequence[int]) -> List[int]:
        """Each site's hop distance from ``origin`` (one anchor, unchecked:
        every site must be on the machine)."""
        if not self.is_lattice:
            return [0 if site == origin else 1 for site in sites]
        site_rows = self.site_rows
        site_cols = self.site_cols
        row = site_rows[origin]
        col = site_cols[origin]
        return [abs(site_rows[site] - row) + abs(site_cols[site] - col)
                for site in sites]

    def centroid_of_sums(self, count: int, row_sum: int, col_sum: int) -> int:
        """Site closest to the centroid of ``count`` sites whose rows and
        columns add up to ``row_sum`` and ``col_sum``.

        The site at the rounded centroid when there is one, else the
        lowest-numbered site nearest (Manhattan) the exact centroid.
        Returns site 0 when ``count`` is 0.
        """
        if not count:
            return 0
        target_row = row_sum / count
        target_col = col_sum / count
        site = self._site_at.get((int(round(target_row)), int(round(target_col))))
        if site is not None:
            return site
        best_site = 0
        best_cost = float("inf")
        for site, (row, col) in enumerate(self._coordinates):
            cost = abs(row - target_row) + abs(col - target_col)
            if cost < best_cost:
                best_cost = cost
                best_site = site
        return best_site

    # ------------------------------------------------------------------
    def _lattice_index(self, site: int) -> int:
        return ((self.site_rows[site] - self.row0) * self.width
                + self.site_cols[site] - self.col0)

    def _check_sites(self, sites: Sequence[int]) -> None:
        if sites:
            self._check_site(min(sites))
            self._check_site(max(sites))

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.num_sites:
            raise ArchitectureError(
                f"site {site} out of range for {self.name} "
                f"({self.num_sites} sites)"
            )

    def __repr__(self) -> str:
        return f"Topology({self.name!r}, sites={self.num_sites})"
