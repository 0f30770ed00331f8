"""Virtual-to-physical qubit layout.

The compiler works with *virtual* qubit identifiers (one per allocated
machine qubit); the :class:`Layout` records which physical site each one
occupies.  Swap chains move virtual qubits between sites; reclaimed qubits
keep their site (a physical qubit reset to |0> does not move), which is
exactly why locality-aware allocation pays off.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

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
        # Every site below this one is occupied (the lowest-free-site hint).
        self._lowest_free = 0

    # ------------------------------------------------------------------
    @property
    def topology(self) -> Topology:
        """The underlying topology."""
        return self._topology

    @property
    def placement(self) -> Mapping[int, int]:
        """The virtual-qubit -> site mapping itself (read-only), kept up
        to date in place: a hot loop may hold on to it."""
        return self._site_of

    @property
    def num_placed(self) -> int:
        """Number of virtual qubits currently placed."""
        return len(self._site_of)

    @property
    def num_free_sites(self) -> int:
        """Number of sites no virtual qubit occupies."""
        return self._topology.num_sites - len(self._virtual_at)

    def site_of(self, virtual: int) -> int:
        """Physical site of virtual qubit ``virtual``."""
        try:
            return self._site_of[virtual]
        except KeyError:
            raise ArchitectureError(f"virtual qubit {virtual} is not placed") from None

    def sites_of(self, virtuals: Iterable[int]) -> List[int]:
        """Sites of the placed qubits among ``virtuals``, in order."""
        site_of = self._site_of
        return [site_of[v] for v in virtuals if v in site_of]

    def virtual_at(self, site: int) -> Optional[int]:
        """Virtual qubit occupying ``site`` or None if the site is empty."""
        return self._virtual_at.get(site)

    def is_placed(self, virtual: int) -> bool:
        """True when ``virtual`` currently occupies a site."""
        return virtual in self._site_of

    def lowest_free_site(self) -> Optional[int]:
        """The lowest-numbered free site, or None when every site is taken."""
        found = self._lowest_free_sites(1)
        return found[0] if found else None

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
        if site == self._lowest_free:
            self._advance_lowest_free()

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

        On a lattice the search expands Manhattan rings around the
        rounded anchor centroid, nearest ring first, and returns sites in
        that visiting order; it stays fast on multi-thousand-site
        machines.  On an all-to-all machine every free site is one hop
        from every anchor it is not, so free anchor sites come first (the
        most often named first) and then the lowest-numbered free sites.
        With no anchors the lowest-numbered free sites are returned.
        """
        if limit < 1:
            return []
        if not anchor_sites:
            return self._lowest_free_sites(limit)
        if self._topology.is_lattice:
            return self._ring_search(anchor_sites, limit)
        free_anchors = sorted({site for site in anchor_sites
                               if site not in self._virtual_at})
        totals = self._topology.distance_sums(anchor_sites, free_anchors)
        free_anchors = [site for _, site in sorted(zip(totals, free_anchors))]
        found = free_anchors[:limit]
        for site in self._lowest_free_sites(limit + len(found)):
            if len(found) == limit:
                break
            if site not in free_anchors:
                found.append(site)
        return found

    def _ring_search(self, anchor_sites: Sequence[int], limit: int) -> List[int]:
        """Expand Manhattan rings around the anchor centroid on a lattice.

        Ring ``r`` visits its coordinates in the order (offset 0..r-1,
        each in turn on the north-east, south-east, south-west and
        north-west edge); rings past the farthest lattice corner hold no
        site and are not walked.
        """
        topology = self._topology
        topology._check_sites(anchor_sites)
        rows = topology.site_rows
        cols = topology.site_cols
        count = len(anchor_sites)
        # Centre and lattice corners in lattice_sites coordinates.
        row = int(round(sum([rows[s] for s in anchor_sites]) / count)) - topology.row0
        col = int(round(sum([cols[s] for s in anchor_sites]) / count)) - topology.col0
        height = topology.height
        width = topology.width
        last = topology.num_sites - 1
        max_radius = min(2 * (max(rows[last], cols[last]) + 1),
                         max(row, height - 1 - row) + max(col, width - 1 - col))
        sites = topology.lattice_sites
        occupied = self._virtual_at
        found: List[int] = []
        if 0 <= row < height and 0 <= col < width:
            site = sites[row * width + col]
            if site >= 0 and site not in occupied:
                found.append(site)
        for radius in range(1, max_radius + 1):
            if len(found) >= limit:
                break
            for offset in range(radius):
                for r, c in ((row - radius + offset, col + offset),
                             (row + offset, col + radius - offset),
                             (row + radius - offset, col - offset),
                             (row - offset, col - radius + offset)):
                    if 0 <= r < height and 0 <= c < width:
                        site = sites[r * width + c]
                        if site >= 0 and site not in occupied:
                            found.append(site)
        return found[:limit]

    def _lowest_free_sites(self, limit: int) -> List[int]:
        occupied = self._virtual_at
        found: List[int] = []
        for site in range(self._lowest_free, self._topology.num_sites):
            if site not in occupied:
                found.append(site)
                if len(found) == limit:
                    break
        return found

    def _advance_lowest_free(self) -> None:
        site = self._lowest_free
        occupied = self._virtual_at
        while site in occupied:
            site += 1
        self._lowest_free = site

    def swap(self, site_a: int, site_b: int) -> None:
        """Exchange the occupants of two sites (either may be empty)."""
        self.move_along((site_a, site_b))

    def move_along(self, path: Sequence[int]) -> List[Optional[int]]:
        """Swap along ``path``: the occupant of ``path[0]`` ends on
        ``path[-1]`` and every other occupant moves back one site, as
        ``swap(path[i], path[i + 1])`` for each ``i`` in turn would do.

        The sites of ``path`` must be distinct.

        Returns:
            The occupant of each site of ``path`` before the move.
        """
        virtual_at = self._virtual_at
        site_of = self._site_of
        occupants = [virtual_at.pop(site, None) for site in path]
        lowest_free = self._lowest_free
        for site, virtual in zip(path, occupants[1:] + occupants[:1]):
            if virtual is None:
                if site < lowest_free:
                    lowest_free = site
            else:
                virtual_at[site] = virtual
                site_of[virtual] = site
        self._lowest_free = lowest_free
        if lowest_free in virtual_at:
            self._advance_lowest_free()
        return occupants

    def __repr__(self) -> str:
        return (
            f"Layout(placed={self.num_placed}, "
            f"free_sites={self.num_free_sites}, topology={self._topology.name})"
        )
