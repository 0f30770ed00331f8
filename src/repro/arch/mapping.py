"""Virtual-to-physical qubit layout.

The compiler works with *virtual* qubit identifiers (one per allocated
machine qubit); the :class:`Layout` records which physical site each one
occupies.  Swap chains move virtual qubits between sites; reclaimed qubits
keep their site (a physical qubit reset to |0> does not move), which is
exactly why locality-aware allocation pays off.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import compress
from operator import itemgetter
from threading import Lock
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.exceptions import ArchitectureError, ResourceExhaustedError
from repro.arch.topology import Topology


class Layout:
    """Bidirectional virtual-qubit <-> physical-site mapping.

    On a lattice the layout also keeps a *padded index* for the ring
    walk of :meth:`nearest_free_sites`: the lattice's bounding box
    (``height`` x ``width``) sits in a flat cell array whose rows are
    ``2 * width - 1`` cells wide, with ``height - 1`` padding rows above
    and below the box.  The rings leave out every cell more than
    ``height - 1`` rows or ``width - 1`` columns from their centre (from
    any centre in the box such a cell is off the box), so a ring cell
    off the machine lands in a padding row or in the ``width - 1``
    padding cells that end each row.  A ring's cells are then fixed flat
    offsets from its centre cell, with no bounds checks, and one cached
    getter per ring and lattice shape (:func:`_ring_cells`) reads them
    all at C speed.  The index has fewer than ``6 * height * width``
    cells.  Beside the cell -> site array the layout keeps a free mask,
    one byte per cell, set exactly for the sites no virtual qubit
    occupies: :meth:`place` clears a byte, and :meth:`move_along` writes
    the byte of each site on its path.  An all-to-all machine has no
    ring walk and no index.

    Args:
        topology: The machine topology whose sites are being assigned.
    """

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._site_of: Dict[int, int] = {}
        self._virtual_at: Dict[int, int] = {}
        # Every site below this one is occupied (the lowest-free-site hint).
        self._lowest_free = 0
        # The padded index (lattices only): its row width, the cell of
        # lattice-box position (0, 0), each site's cell, each cell's site
        # (-1 off the machine) and the free mask.
        self._pad_width = self._origin = 0
        self._cell_of = array("i")
        self._site_in = array("i")
        self._free = bytearray()
        if topology.is_lattice and topology.num_sites:
            width = topology.width
            pad_width = self._pad_width = 2 * width - 1
            origin = self._origin = (topology.height - 1) * pad_width + width - 1
            first = origin - topology.row0 * pad_width - topology.col0
            self._cell_of = array("i", [first + row * pad_width + col for row, col
                                        in zip(topology.site_rows, topology.site_cols)])
            # A ring around the box's far corner (cell 2 * origin) reaches
            # at most cell 3 * origin.
            cells = 3 * origin + 1
            self._site_in = array("i", [-1]) * cells
            self._free = bytearray(cells)
            for site, cell in enumerate(self._cell_of):
                self._site_in[cell] = site
                self._free[cell] = 1

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
        if self._cell_of:
            self._free[self._cell_of[site]] = 0
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
        that visiting order (see :meth:`free_sites_near`).  On an
        all-to-all machine every free site is one hop from every anchor
        it is not, so free anchor sites come first (the most often named
        first) and then the lowest-numbered free sites.  With no anchors
        the lowest-numbered free sites are returned.
        """
        if limit < 1:
            return []
        if not anchor_sites:
            return self._lowest_free_sites(limit)
        topology = self._topology
        topology._check_sites(anchor_sites)
        if topology.is_lattice:
            rows = topology.site_rows
            cols = topology.site_cols
            return self.free_sites_near(len(anchor_sites),
                                        sum([rows[s] for s in anchor_sites]),
                                        sum([cols[s] for s in anchor_sites]),
                                        limit)
        free_anchors = sorted({site for site in anchor_sites
                               if site not in self._virtual_at})
        totals = topology.distance_sums(anchor_sites, free_anchors)
        free_anchors = [site for _, site in sorted(zip(totals, free_anchors))]
        found = free_anchors[:limit]
        for site in self._lowest_free_sites(limit + len(found)):
            if len(found) == limit:
                break
            if site not in free_anchors:
                found.append(site)
        return found

    def free_sites_near(self, count: int, row_sum: int, col_sum: int,
                        limit: int = 32) -> List[int]:
        """Up to ``limit`` free sites nearest a region of ``count``
        *occupied* sites whose rows and columns add up to ``row_sum`` and
        ``col_sum``: :meth:`nearest_free_sites` of that region, from its
        sums alone.

        On a lattice, ring ``r`` around the rounded centroid visits its
        coordinates in the order (offset 0..r-1, each in turn on the
        north-east, south-east, south-west and north-west edge), and the
        walk stops after the ring that completes ``limit`` sites or at
        the ring through the farthest lattice corner (or as soon as every
        free site is found).  A ring costs two getter calls on windows of
        the free mask and the site array that start ``origin`` cells
        before the centre cell.  On an all-to-all machine, or
        for an empty region, these are the lowest-numbered free sites.
        """
        topology = self._topology
        wanted = min(limit, self.num_free_sites)
        if wanted < 1:
            return []
        if not count or not topology.is_lattice:
            return self._lowest_free_sites(wanted)
        # Centre in lattice-box coordinates, then as a padded cell.
        row = int(round(row_sum / count)) - topology.row0
        col = int(round(col_sum / count)) - topology.col0
        max_radius = (max(row, topology.height - 1 - row)
                      + max(col, topology.width - 1 - col))
        start = row * self._pad_width + col
        centre = start + self._origin
        free = self._free
        site_in = self._site_in
        found = [site_in[centre]] if free[centre] else []
        free_window = memoryview(free)[start:]
        site_window = memoryview(site_in)[start:]
        rings: Tuple[Callable, ...] = ()
        radius = 0
        # Once every free site is found, later rings add nothing.
        while len(found) < wanted and radius < max_radius:
            if radius == len(rings):
                # Rings are built only a little beyond where walks reach.
                rings = _ring_cells(topology.height, topology.width,
                                    min(max_radius, 2 * radius + 4))
            ring = rings[radius]
            radius += 1
            mask = ring(free_window)
            if 1 in mask:
                found += compress(ring(site_window), mask)
        del found[limit:]
        return found

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
        # The free mask and the lowest-free hint follow the sites' new
        # occupants (an empty site travels along the path).
        free = self._free
        cell_of = self._cell_of
        lowest_free = self._lowest_free
        for site, virtual in zip(path, occupants[1:] + occupants[:1]):
            if virtual is None:
                if cell_of:
                    free[cell_of[site]] = 1
                if site < lowest_free:
                    lowest_free = site
            else:
                if cell_of:
                    free[cell_of[site]] = 0
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


class _ShapeRings:
    """The ring getters of one lattice shape built so far."""

    __slots__ = ("getters",)

    def __init__(self) -> None:
        self.getters: Tuple[Callable, ...] = ()


@lru_cache(maxsize=16)
def _shape_rings(height: int, width: int) -> _ShapeRings:
    return _ShapeRings()


def _ring_cells(height: int, width: int, radius: int) -> Tuple[Callable, ...]:
    """The Manhattan rings of radius 1..``radius`` (at least) in the
    padded index of a ``height`` x ``width`` lattice box, as cell getters.

    Ring ``r``'s getter, applied to a window of the index that starts
    ``origin`` cells before the centre (``(height - 1) * (2 * width - 1)
    + width - 1``, see :class:`Layout`), returns the ring's cells in
    visiting order: offset 0..r-1, each in turn on the north-east,
    south-east, south-west and north-west edge, leaving out the cells
    more than ``height - 1`` rows or ``width - 1`` columns from the
    centre.  ``radius`` must not exceed ``height + width - 2``, so every
    ring keeps at least two cells.  The rings are kept for the 16 most
    recent shapes, each grown about twice as far as walks have reached (at most
    ``(2 * height - 1) * (2 * width - 1)`` cells in all); a grown tuple
    replaces the old one whole, so concurrent callers always see
    complete rings.
    """
    shape = _shape_rings(height, width)
    rings = shape.getters
    if len(rings) >= radius:
        return rings
    pad_width = 2 * width - 1
    base = (height - 1) * pad_width + width - 1
    grown = list(rings)
    for size in range(len(rings) + 1, radius + 1):
        # The offsets whose north-east and south-west cells are kept, and
        # those whose south-east and north-west cells are.
        ne_sw = range(max(0, size - height + 1), min(size, width))
        se_nw = range(max(0, size - width + 1), min(size, height))
        cells: List[int] = []
        for offset in sorted({*ne_sw, *se_nw}):
            if offset in ne_sw:
                cells.append(base + (offset - size) * pad_width + offset)
            if offset in se_nw:
                cells.append(base + offset * pad_width + size - offset)
            if offset in ne_sw:
                cells.append(base + (size - offset) * pad_width - offset)
            if offset in se_nw:
                cells.append(base - offset * pad_width + offset - size)
        grown.append(itemgetter(*cells))
    rings = shape.getters = tuple(grown)
    return rings


#: (geometry, count) -> entry sites, oldest first (see entry_sites).
_ENTRY_SITES: Dict[Tuple[Tuple[bool, Tuple[int, ...], Tuple[int, ...]], int],
                   Tuple[int, ...]] = {}
_ENTRY_SITES_SIZE = 64
_ENTRY_SITES_LOCK = Lock()


def entry_sites(topology: Topology, count: int) -> Tuple[int, ...]:
    """Sites of ``count`` qubits placed one at a time on an empty
    ``topology``, each on the free site nearest the machine centre (site
    ``num_sites // 2``) and the sites placed before it.

    The answer depends only on the topology's geometry and ``count``, so
    it is kept for the 64 most recently computed such pairs.

    Raises:
        ResourceExhaustedError: If ``count`` qubits do not fit.
    """
    key = (topology.geometry, count)
    sites = _ENTRY_SITES.get(key)
    if sites is None:
        layout = Layout(topology)
        anchors = [topology.num_sites // 2]
        for virtual in range(count):
            site = layout.nearest_free_site(anchors)
            layout.place(virtual, site)
            anchors.append(site)
        sites = tuple(anchors[1:])
        with _ENTRY_SITES_LOCK:
            if len(_ENTRY_SITES) >= _ENTRY_SITES_SIZE:
                del _ENTRY_SITES[next(iter(_ENTRY_SITES))]
            _ENTRY_SITES[key] = sites
    return sites
