"""Physical qubit topologies (coupling maps).

The paper evaluates NISQ machines with 2-D lattice nearest-neighbour
connectivity, an ideal fully-connected machine (Figure 5), and
fault-tolerant machines whose logical qubits sit on a 2-D grid with
routing channels.  A :class:`Topology` provides sites, adjacency,
coordinates and hop distances used by the router and by the
locality-aware allocation heuristic.  Every machine is either a lattice
or all-to-all, so each of these answers is plain coordinate arithmetic.
"""

from __future__ import annotations

import math
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
        return self.distance(a, b) <= 1

    def distance(self, a: int, b: int) -> int:
        """Hop distance between two sites (0 for the same site)."""
        self._check_site(a)
        self._check_site(b)
        if self.is_lattice:
            row_a, col_a = self._coordinates[a]
            row_b, col_b = self._coordinates[b]
            return abs(row_a - row_b) + abs(col_a - col_b)
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
        row, col = self.coordinate(a)
        row_b, col_b = self.coordinate(b)
        path = [a]
        while col != col_b:
            col += 1 if col_b > col else -1
            path.append(self._site_at[(row, col)])
        while row != row_b:
            row += 1 if row_b > row else -1
            path.append(self._site_at[(row, col)])
        return path

    def manhattan_distance(self, a: int, b: int) -> int:
        """Coordinate (Manhattan) distance between two sites."""
        ra, ca = self.coordinate(a)
        rb, cb = self.coordinate(b)
        return abs(ra - rb) + abs(ca - cb)

    def centroid_site(self, sites: Sequence[int]) -> int:
        """Site closest to the coordinate centroid of ``sites``.

        Returns site 0 when ``sites`` is empty.
        """
        if not sites:
            return 0
        rows = [self.coordinate(s)[0] for s in sites]
        cols = [self.coordinate(s)[1] for s in sites]
        target = (sum(rows) / len(rows), sum(cols) / len(cols))
        rounded = (int(round(target[0])), int(round(target[1])))
        if rounded in self._site_at:
            return self._site_at[rounded]
        best_site = sites[0]
        best_cost = float("inf")
        for site, (row, col) in enumerate(self._coordinates):
            cost = abs(row - target[0]) + abs(col - target[1])
            if cost < best_cost:
                best_cost = cost
                best_site = site
        return best_site

    # ------------------------------------------------------------------
    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.num_sites:
            raise ArchitectureError(
                f"site {site} out of range for {self.name} "
                f"({self.num_sites} sites)"
            )

    def __repr__(self) -> str:
        return f"Topology({self.name!r}, sites={self.num_sites})"
