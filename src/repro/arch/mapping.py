"""Virtual-to-physical qubit layout.

The compiler works with *virtual* qubit identifiers (one per allocated
machine qubit); the :class:`Layout` records which physical site each one
occupies.  Swap chains move virtual qubits between sites; reclaimed qubits
keep their site (a physical qubit reset to |0> does not move), which is
exactly why locality-aware allocation pays off.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ArchitectureError, ResourceExhaustedError
from repro.arch.topology import Topology


class Layout:
    """Bidirectional virtual-qubit <-> physical-site mapping.

    Args:
        topology: The machine topology whose sites are being assigned.
    """

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._site_of: Dict[int, int] = {}
        self._virtual_at: Dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def topology(self) -> Topology:
        """The underlying topology."""
        return self._topology

    @property
    def num_placed(self) -> int:
        """Number of virtual qubits currently placed."""
        return len(self._site_of)

    @property
    def num_free_sites(self) -> int:
        """Number of sites never assigned to a virtual qubit."""
        return self._topology.num_sites - len(self._virtual_at)

    def site_of(self, virtual: int) -> int:
        """Physical site of virtual qubit ``virtual``."""
        try:
            return self._site_of[virtual]
        except KeyError:
            raise ArchitectureError(f"virtual qubit {virtual} is not placed") from None

    def virtual_at(self, site: int) -> Optional[int]:
        """Virtual qubit occupying ``site`` or None if the site is empty."""
        return self._virtual_at.get(site)

    def is_placed(self, virtual: int) -> bool:
        """True when ``virtual`` currently occupies a site."""
        return virtual in self._site_of

    def free_sites(self) -> Tuple[int, ...]:
        """All sites that have never held a virtual qubit, ascending."""
        return tuple(
            site for site in range(self._topology.num_sites)
            if site not in self._virtual_at
        )

    # ------------------------------------------------------------------
    def place(self, virtual: int, site: int) -> None:
        """Assign ``virtual`` to an empty ``site``.

        Raises:
            ArchitectureError: If the qubit is already placed or the site
                is occupied.
        """
        if virtual in self._site_of:
            raise ArchitectureError(f"virtual qubit {virtual} is already placed")
        if site in self._virtual_at:
            raise ArchitectureError(f"site {site} is already occupied")
        self._topology._check_site(site)
        self._site_of[virtual] = site
        self._virtual_at[site] = virtual

    def nearest_free_site(self, anchor_sites: Sequence[int]) -> int:
        """The free site closest (total distance) to ``anchor_sites``.

        With no anchors, returns the lowest-numbered free site.

        Raises:
            ResourceExhaustedError: If every site is occupied.
        """
        candidates = self.nearest_free_sites(anchor_sites, limit=1)
        if not candidates:
            raise ResourceExhaustedError(
                f"machine {self._topology.name} has no free qubit sites"
            )
        return candidates[0]

    def nearest_free_sites(self, anchor_sites: Sequence[int],
                           limit: int = 32) -> List[int]:
        """Up to ``limit`` free sites, closest to ``anchor_sites`` first.

        On grid topologies the search expands rings around the anchor
        centroid, so it stays fast even on multi-thousand-site machines.
        With no anchors the lowest-numbered free sites are returned.
        """
        if limit < 1:
            return []
        topology = self._topology
        if not anchor_sites:
            free = [site for site in range(topology.num_sites)
                    if site not in self._virtual_at]
            return free[:limit]
        if topology.is_lattice:
            found = self._ring_search(anchor_sites, limit)
            if found:
                return found
        free = [site for site in range(topology.num_sites)
                if site not in self._virtual_at]
        free.sort(key=lambda site: sum(
            topology.distance(site, anchor) for anchor in anchor_sites))
        return free[:limit]

    def _ring_search(self, anchor_sites: Sequence[int], limit: int) -> List[int]:
        """Expand Manhattan rings around the anchor centroid on a grid."""
        topology = self._topology
        coords = [topology.coordinate(site) for site in anchor_sites]
        center_row = int(round(sum(r for r, _ in coords) / len(coords)))
        center_col = int(round(sum(c for _, c in coords) / len(coords)))
        found: List[int] = []
        radius = 0
        # The ring radius is bounded by the grid diameter; stop as soon as
        # enough free sites are found or the whole grid has been covered.
        corner_row, corner_col = topology.coordinate(topology.num_sites - 1)
        grid_span = max(corner_row, corner_col) + 1
        while len(found) < limit and radius <= 2 * grid_span:
            ring = self._ring_coordinates(center_row, center_col, radius)
            for coord in ring:
                site = topology.site_at(coord)
                if site is not None and site not in self._virtual_at:
                    found.append(site)
            radius += 1
        return found[:limit]

    @staticmethod
    def _ring_coordinates(center_row: int, center_col: int, radius: int):
        if radius == 0:
            yield (center_row, center_col)
            return
        for offset in range(radius):
            yield (center_row - radius + offset, center_col + offset)
            yield (center_row + offset, center_col + radius - offset)
            yield (center_row + radius - offset, center_col - offset)
            yield (center_row - offset, center_col - radius + offset)

    def swap(self, site_a: int, site_b: int) -> None:
        """Exchange the occupants of two sites (either may be empty)."""
        occupant_a = self._virtual_at.pop(site_a, None)
        occupant_b = self._virtual_at.pop(site_b, None)
        if occupant_a is not None:
            self._virtual_at[site_b] = occupant_a
            self._site_of[occupant_a] = site_b
        if occupant_b is not None:
            self._virtual_at[site_a] = occupant_b
            self._site_of[occupant_b] = site_a

    def area_spread(self, virtual_qubits: Iterable[int]) -> float:
        """Mean pairwise-to-centroid distance of the given qubits' sites.

        Used by the allocation heuristic as an estimate of how spread out
        the active working set is (the "area expansion" consideration).
        """
        sites = [self._site_of[v] for v in virtual_qubits if v in self._site_of]
        if len(sites) < 2:
            return 0.0
        coords = [self._topology.coordinate(s) for s in sites]
        mean_row = sum(r for r, _ in coords) / len(coords)
        mean_col = sum(c for _, c in coords) / len(coords)
        return sum(
            abs(r - mean_row) + abs(c - mean_col) for r, c in coords
        ) / len(coords)

    def __repr__(self) -> str:
        return (
            f"Layout(placed={self.num_placed}, "
            f"free_sites={self.num_free_sites}, topology={self._topology.name})"
        )
