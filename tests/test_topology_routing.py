"""Tests for topologies, swap-chain resolution, layout and braid routing."""

import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import ArchitectureError, ResourceExhaustedError
from repro.arch.braid import Braid, BraidTracker, manhattan_route, route_vertices
from repro.arch.mapping import Layout, entry_sites
from repro.arch.machine import NO_COMMUNICATION
from repro.arch.nisq import NISQMachine
from repro.arch.topology import Topology


def reversed_grid(rows, cols):
    """A lattice whose sites are numbered from the far corner back, so
    its last site sits at (0, 0)."""
    coords = [(row, col) for row in range(rows) for col in range(cols)]
    return Topology(coords[::-1], f"grid-{rows}x{cols}-reversed", is_lattice=True)


#: Square, non-square and line lattices, an all-to-all machine and a
#: lattice numbered in reverse.
TOPOLOGIES = (Topology.grid(6, 6), Topology.grid(3, 7), Topology.grid(7, 2),
              Topology.line(9), Topology.fully_connected(11),
              reversed_grid(6, 6))


class TestTopology:
    def test_grid_shape_and_neighbors(self):
        grid = Topology.grid(3, 4)
        assert grid.num_sites == 12
        assert grid.neighbors(0) == (1, 4)
        assert grid.neighbors(5) == (1, 4, 6, 9)

    def test_line_distance(self):
        line = Topology.line(6)
        assert line.distance(0, 5) == 5
        assert line.distance(3, 3) == 0

    def test_grid_distance_is_manhattan(self):
        grid = Topology.grid(4, 4)
        assert grid.distance(0, 15) == 6
        assert grid.distance_sums([15], [0, 15]) == [6, 0]
        assert grid.distance_sums([15, 15, 0], [0]) == [12]

    def test_fully_connected(self):
        full = Topology.fully_connected(7)
        assert full.is_fully_connected
        assert full.distance(0, 6) == 1

    def test_square_grid_for(self):
        topology = Topology.square_grid_for(10)
        assert topology.num_sites >= 10

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ArchitectureError):
            Topology.grid(0, 3)
        with pytest.raises(ArchitectureError):
            Topology.line(0)

    def test_site_out_of_range(self):
        with pytest.raises(ArchitectureError):
            Topology.line(3).distance(0, 9)

    def test_centroid_of_sums_on_grid(self):
        grid = Topology.grid(3, 3)
        # Sites 0, 2, 6 and 8: the corners.
        assert grid.centroid_of_sums(4, 0 + 0 + 2 + 2, 0 + 2 + 0 + 2) == 4
        assert grid.centroid_of_sums(0, 0, 0) == 0

    @settings(max_examples=60)
    @given(st.sampled_from(["line", "grid", "full"]),
           st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=24), st.integers(min_value=0, max_value=24))
    @example("grid", 1, 1, 0, 0)
    @example("grid", 1, 2, 0, 1)
    @example("grid", 2, 1, 1, 0)
    @example("grid", 2, 2, 0, 3)
    @example("full", 1, 2, 0, 1)
    def test_distance_symmetry_property(self, kind, rows, cols, a, b):
        # Reference model: an explicit edge list and a BFS over it.
        if kind == "grid":
            topology = Topology.grid(rows, cols)
            n = rows * cols
            edges = {(s, s + 1) for s in range(n) if (s + 1) % cols}
            edges |= {(s, s + cols) for s in range(n - cols)}
        elif kind == "line":
            topology = Topology.line(rows * cols)
            n = rows * cols
            edges = {(s, s + 1) for s in range(n - 1)}
        else:
            topology = Topology.fully_connected(rows * cols)
            n = rows * cols
            edges = {(s, t) for s in range(n) for t in range(s + 1, n)}
        adjacency = {s: set() for s in range(n)}
        for s, t in edges:
            adjacency[s].add(t)
            adjacency[t].add(s)

        a %= n
        b %= n
        hops = {a: 0}
        queue = deque([a])
        while queue:
            site = queue.popleft()
            for neighbour in adjacency[site]:
                if neighbour not in hops:
                    hops[neighbour] = hops[site] + 1
                    queue.append(neighbour)

        assert topology.num_sites == n
        assert topology.is_fully_connected == (len(edges) == n * (n - 1) // 2)
        assert topology.distance(a, b) == hops[b] == topology.distance(b, a)
        assert topology.neighbors(a) == tuple(sorted(adjacency[a]))
        for site in range(n):
            assert topology.are_adjacent(a, site) == (hops[site] <= 1)
        path = topology.shortest_path(a, b)
        assert path[0] == a and path[-1] == b
        assert len(path) == topology.distance(a, b) + 1
        assert all(topology.are_adjacent(s, t) and s != t
                   for s, t in zip(path, path[1:]))
        for outside in (-1, n, n + 7):
            assert not topology.are_adjacent(a, outside)
            assert not topology.are_adjacent(outside, a)
            assert not topology.are_adjacent(outside, outside)


class TestNISQResolveInteraction:
    """The machine contract for swap chains: the moving qubit's site path."""

    def test_adjacent_needs_no_swaps(self):
        machine = NISQMachine.grid(3, 3)
        result = machine.resolve_interaction(0, 1, 0)
        assert result.path == ()
        assert result.cost_units == 0
        assert result is NO_COMMUNICATION

    def test_identical_sites_need_no_swaps(self):
        machine = NISQMachine.grid(3, 3)
        assert machine.resolve_interaction(4, 4, 0) is NO_COMMUNICATION

    def test_route_length_matches_distance(self):
        machine = NISQMachine.grid(4, 4)
        distance = machine.topology.distance(0, 15)
        result = machine.resolve_interaction(0, 15, 0)
        assert len(result.path) - 1 == distance - 1 == result.cost_units

    def test_swap_distance(self):
        machine = NISQMachine(Topology.line(5))
        assert machine.swap_distance(0, 4) == 3
        assert machine.swap_distance(2, 2) == 0

    def test_route_path_is_connected(self):
        machine = NISQMachine.grid(5, 5)
        topology = machine.topology
        path = machine.resolve_interaction(0, 24, 0).path
        assert path[0] == 0
        for a, b in zip(path, path[1:]):
            assert topology.are_adjacent(a, b)
        assert topology.are_adjacent(path[-1], 24)

    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=str)
    def test_every_pair_obeys_the_contract(self, topology):
        machine = NISQMachine(topology)
        sites = range(topology.num_sites)
        for site_a in sites:
            for site_b in sites:
                result = machine.resolve_interaction(site_a, site_b, 0)
                path = result.path
                distance = topology.distance(site_a, site_b)
                assert result.extra_latency == 0
                assert machine.swap_distance(site_a, site_b) == max(distance - 1, 0)
                if distance <= 1:
                    assert result is NO_COMMUNICATION
                    continue
                assert path[0] == site_a
                assert len(set(path)) == len(path)
                assert all(topology.are_adjacent(a, b) and a != b
                           for a, b in zip(path, path[1:]))
                assert topology.are_adjacent(path[-1], site_b)
                assert site_b not in path
                assert len(path) - 1 == distance - 1 == result.cost_units


class TestLayout:
    def test_place_and_lookup(self):
        layout = Layout(Topology.grid(2, 2))
        layout.place(7, 2)
        assert layout.site_of(7) == 2
        assert layout.virtual_at(2) == 7
        assert layout.virtual_at(0) is None

    def test_double_placement_rejected(self):
        layout = Layout(Topology.grid(2, 2))
        layout.place(0, 0)
        with pytest.raises(ArchitectureError):
            layout.place(0, 1)
        with pytest.raises(ArchitectureError):
            layout.place(1, 0)

    def test_swap_moves_occupants(self):
        layout = Layout(Topology.line(3))
        layout.place(0, 0)
        layout.place(1, 1)
        layout.swap(0, 1)
        assert layout.site_of(0) == 1
        assert layout.site_of(1) == 0

    def test_swap_with_empty_site(self):
        layout = Layout(Topology.line(3))
        layout.place(0, 0)
        layout.swap(0, 2)
        assert layout.site_of(0) == 2
        assert layout.virtual_at(0) is None

    def test_nearest_free_site_prefers_anchor_neighbourhood(self):
        layout = Layout(Topology.grid(4, 4))
        layout.place(0, 5)
        site = layout.nearest_free_site([5])
        assert Topology.grid(4, 4).distance(site, 5) == 1

    def test_exhaustion_raises(self):
        layout = Layout(Topology.line(1))
        layout.place(0, 0)
        with pytest.raises(ResourceExhaustedError):
            layout.nearest_free_site([0])

    def test_ring_walk_reaches_the_far_corner(self):
        # The last site of a reversed grid is (0, 0): a ring bound taken
        # from its coordinates stopped the walk short of the one free
        # site, (5, 5), and reported a full machine.
        topology = reversed_grid(6, 6)
        layout = Layout(topology)
        free = topology.site_at((5, 5))
        for virtual, site in enumerate(s for s in range(36) if s != free):
            layout.place(virtual, site)
        corner = topology.site_at((0, 0))
        assert layout.nearest_free_sites([corner], 4) == [free]
        assert layout.nearest_free_site([corner]) == free

    @pytest.mark.parametrize("rows, cols", [(1, 4096), (4096, 1), (4, 1024),
                                            (64, 64)])
    def test_padded_index_grows_with_the_site_count(self, rows, cols):
        # The index once had a margin as wide as the largest ring on every
        # side, so it grew with the square of the long side (201M cells
        # for a 1 x 4096 line).
        topology = Topology.grid(rows, cols)
        layout = Layout(topology)
        assert len(layout._site_in) == len(layout._free) < 6 * topology.num_sites
        # The walk from one end still reaches the other.
        far = topology.num_sites - 1
        for site in range(far):
            layout.place(site, site)
        assert layout.nearest_free_sites([0], 4) == [far]

    def test_nearest_free_sites_ordering(self):
        topology = Topology.grid(5, 5)
        layout = Layout(topology)
        sites = layout.nearest_free_sites([12], limit=5)
        distances = [topology.distance(site, 12) for site in sites]
        assert distances == sorted(distances)

    def test_sites_of_and_centroid_spread(self):
        topology = Topology.grid(3, 3)
        layout = Layout(topology)
        layout.place(0, 0)
        layout.place(1, 8)
        sites = layout.sites_of([0, 5, 1])
        assert sites == [0, 8]
        centroid = topology.centroid_of_sums(2, 0 + 2, 0 + 2)
        assert centroid == 4
        assert topology.distance_sums(sites, [centroid]) == [4]
        assert topology.distance_sums([0], [topology.centroid_of_sums(1, 0, 0)]) == [0]

    def test_lowest_free_site_hint_follows_place_and_swaps(self):
        # Reference model: a site -> occupant dict, swapped one pair at a time.
        rng = random.Random(7)
        for topology in TOPOLOGIES:
            layout = Layout(topology)
            sites = range(topology.num_sites)
            occupants = {s: None for s in sites}
            for virtual in range(3 * topology.num_sites):
                free = [s for s in sites if occupants[s] is None]
                action = rng.random()
                if action < 0.4 and free:
                    site = rng.choice(free)
                    layout.place(virtual, site)
                    occupants[site] = virtual
                    path = []
                elif action < 0.7:
                    path = [rng.choice(sites), rng.choice(sites)]
                    layout.swap(*path)
                else:
                    path = rng.sample(sites, rng.randint(2, min(5, len(sites))))
                    layout.move_along(path)
                for site_a, site_b in zip(path, path[1:]):
                    occupants[site_a], occupants[site_b] = (
                        occupants[site_b], occupants[site_a])
                assert occupants == {s: layout.virtual_at(s) for s in sites}
                free = [s for s in sites if occupants[s] is None]
                assert layout.lowest_free_site() == (free[0] if free else None)
                assert layout.num_free_sites == len(free)
                assert layout.nearest_free_sites([], limit=3) == free[:3]
                assert all(layout.site_of(v) == s
                           for s, v in occupants.items() if v is not None)


class TestBraidTracker:
    def test_manhattan_route_segments(self):
        segments = manhattan_route((0, 0), (0, 3))
        assert len(segments) == 3

    def test_non_conflicting_braids_run_in_parallel(self):
        topology = Topology.grid(4, 4)
        tracker = BraidTracker(topology)
        first = tracker.request(0, 1, earliest_start=0)
        second = tracker.request(14, 15, earliest_start=0)
        assert first.crossings == 0
        assert second.crossings == 0
        assert second.start == 0

    def test_crossing_braids_are_queued(self):
        topology = Topology.grid(3, 3)
        tracker = BraidTracker(topology, braid_duration=4)
        first = tracker.request(0, 2, earliest_start=0)   # along the top row
        second = tracker.request(1, 7, earliest_start=0)  # crosses the first
        assert second.crossings >= 1
        assert second.start >= first.finish

    def test_average_crossings_and_reset(self):
        topology = Topology.grid(3, 3)
        tracker = BraidTracker(topology)
        tracker.request(0, 2, earliest_start=0)
        tracker.request(1, 7, earliest_start=0)
        assert tracker.average_crossings() > 0
        tracker.reset()
        assert tracker.total_braids == 0
        assert tracker.average_crossings() == 0.0


# ----------------------------------------------------------------------
# Reference implementations: the straightforward per-coordinate and
# per-pair versions the compile hot path replaced.  The rewritten
# kernels must return exactly what these return.
# ----------------------------------------------------------------------
def reference_ring_coordinates(center_row, center_col, radius):
    if radius == 0:
        yield (center_row, center_col)
        return
    for offset in range(radius):
        yield (center_row - radius + offset, center_col + offset)
        yield (center_row + offset, center_col + radius - offset)
        yield (center_row + radius - offset, center_col - offset)
        yield (center_row - offset, center_col - radius + offset)


def reference_nearest_free_sites(layout, anchor_sites, limit):
    topology = layout.topology
    free = [site for site in range(topology.num_sites)
            if layout.virtual_at(site) is None]
    if limit < 1:
        return []
    if not anchor_sites:
        return free[:limit]
    if topology.is_lattice:
        coords = [topology.coordinate(site) for site in anchor_sites]
        center_row = int(round(sum(r for r, _ in coords) / len(coords)))
        center_col = int(round(sum(c for _, c in coords) / len(coords)))
        # The ring through the site farthest from the centre.
        far_corner = max(abs(r - center_row) + abs(c - center_col)
                         for r, c in map(topology.coordinate,
                                         range(topology.num_sites)))
        found = []
        radius = 0
        while len(found) < limit and radius <= far_corner:
            for coord in reference_ring_coordinates(center_row, center_col,
                                                    radius):
                site = topology.site_at(coord)
                if site is not None and layout.virtual_at(site) is None:
                    found.append(site)
            radius += 1
        if found:
            return found[:limit]
    free.sort(key=lambda site: sum(
        topology.distance(site, anchor) for anchor in anchor_sites))
    return free[:limit]


def reference_entry_sites(topology, count):
    """Entry parameters placed one at a time on an empty machine, each on
    the reference's nearest free site to the centre and the earlier
    ones."""
    layout = Layout(topology)
    anchors = [topology.num_sites // 2]
    for virtual in range(count):
        found = reference_nearest_free_sites(layout, anchors, 1)
        if not found:
            raise ResourceExhaustedError("no free site")
        layout.place(virtual, found[0])
        anchors.append(found[0])
    return tuple(anchors[1:])


def reference_shortest_path(topology, a, b):
    if not topology.is_lattice:
        return [a] if a == b else [a, b]
    row, col = topology.coordinate(a)
    row_b, col_b = topology.coordinate(b)
    path = [a]
    while col != col_b:
        col += 1 if col_b > col else -1
        path.append(topology.site_at((row, col)))
    while row != row_b:
        row += 1 if row_b > row else -1
        path.append(topology.site_at((row, col)))
    return path


def reference_route_vertices(start, end):
    vertices = {start, end}
    for a, b in manhattan_route(start, end):
        vertices.add(a)
        vertices.add(b)
    return frozenset(vertices)


class ReferenceBraidTracker:
    """Conflict scan of a braid tracker, one overlap and one crossing
    test per active braid."""

    def __init__(self, topology, braid_duration, prune_window):
        self.topology = topology
        self.braid_duration = braid_duration
        self.prune_window = prune_window
        self.active = []
        self.latest_finish = 0

    def request(self, site_a, site_b, earliest_start):
        coord_a = self.topology.coordinate(site_a)
        coord_b = self.topology.coordinate(site_b)
        vertices = reference_route_vertices(coord_a, coord_b)
        start = earliest_start
        finish = start + self.braid_duration
        conflicts = [braid for braid in self.active
                     if braid.start < finish and start < braid.finish
                     and not braid.vertices.isdisjoint(vertices)]
        if conflicts:
            start = max(braid.finish for braid in conflicts)
            finish = start + self.braid_duration
        self.active.append(Braid(start=start, finish=finish, vertices=vertices,
                                 endpoints=(coord_a, coord_b)))
        self.latest_finish = max(self.latest_finish, finish)
        horizon = self.latest_finish - self.prune_window
        if horizon > 0 and len(self.active) > 256:
            self.active = [b for b in self.active if b.finish >= horizon]
        return start, finish, len(conflicts), vertices


def random_layout(topology, rng, fill):
    layout = Layout(topology)
    sites = list(range(topology.num_sites))
    rng.shuffle(sites)
    for virtual, site in enumerate(sites[:int(fill * len(sites))]):
        layout.place(virtual, site)
    return layout


class TestReferenceEquivalence:
    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=str)
    def test_nearest_free_sites_match_reference(self, topology):
        rng = random.Random(topology.num_sites)
        for trial in range(150):
            layout = random_layout(topology, rng, rng.random())
            occupied = [s for s in range(topology.num_sites)
                        if layout.virtual_at(s) is not None]
            # Anchors are mostly occupied sites, sometimes a free one (as
            # the machine centre is when entry parameters are placed),
            # sometimes repeated.
            anchors = rng.sample(occupied, min(len(occupied), rng.randint(0, 6)))
            if rng.random() < 0.3:
                anchors.append(rng.randrange(topology.num_sites))
            if anchors and rng.random() < 0.3:
                anchors.append(anchors[0])
            for limit in (0, 1, 5, 32):
                assert (layout.nearest_free_sites(anchors, limit)
                        == reference_nearest_free_sites(layout, anchors, limit))

    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=str)
    def test_nearest_free_sites_follow_move_along(self, topology):
        # Chains through empty sites move free cells around: the free
        # mask must follow every one of them.
        rng = random.Random(topology.num_sites + 1)
        sites = range(topology.num_sites)
        for trial in range(40):
            layout = random_layout(topology, rng, rng.uniform(0.3, 0.95))
            for _ in range(30):
                free = [s for s in sites if layout.virtual_at(s) is None]
                if not free:
                    break
                if topology.is_lattice:
                    path = topology.shortest_path(rng.choice(sites),
                                                  rng.choice(free))
                else:
                    path = rng.sample(sites, rng.randint(2, 5))
                    path.insert(rng.randrange(len(path)), rng.choice(free))
                    path = list(dict.fromkeys(path))
                layout.move_along(path)
                occupied = [s for s in sites if layout.virtual_at(s) is not None]
                anchors = rng.sample(occupied,
                                     min(len(occupied), rng.randint(1, 6)))
                for limit in (1, 5, 32):
                    assert (layout.nearest_free_sites(anchors, limit)
                            == reference_nearest_free_sites(layout, anchors, limit))

    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=str)
    def test_entry_sites_match_the_uncached_walk(self, topology):
        size = topology.num_sites
        coords = [topology.coordinate(site) for site in range(size)]
        twin = Topology(coords, "twin", topology.is_lattice)
        for count in (0, 1, 2, 5, size // 2, size):
            expected = reference_entry_sites(topology, count)
            assert entry_sites(topology, count) == expected
            # The cache is keyed on geometry: a renamed twin shares it.
            assert entry_sites(twin, count) == expected
        with pytest.raises(ResourceExhaustedError):
            reference_entry_sites(topology, size + 1)
        with pytest.raises(ResourceExhaustedError, match=topology.name):
            entry_sites(topology, size + 1)

    def test_entry_sites_are_not_keyed_on_the_name(self):
        grid = Topology.grid(6, 6)
        impostor = Topology(list(reversed([grid.coordinate(s) for s in range(36)])),
                            grid.name, is_lattice=True)
        assert entry_sites(grid, 9) == reference_entry_sites(grid, 9)
        assert entry_sites(impostor, 9) == reference_entry_sites(impostor, 9)
        assert entry_sites(impostor, 9) != entry_sites(grid, 9)

    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=str)
    def test_shortest_path_matches_reference(self, topology):
        for a in range(topology.num_sites):
            for b in range(topology.num_sites):
                assert (topology.shortest_path(a, b)
                        == reference_shortest_path(topology, a, b))

    @pytest.mark.parametrize("prune_window", [40, 4])
    @pytest.mark.parametrize("topology", TOPOLOGIES[:4], ids=str)
    def test_braid_conflicts_match_reference(self, topology, prune_window):
        rng = random.Random(topology.num_sites)
        tracker = BraidTracker(topology, braid_duration=3,
                               prune_window=prune_window)
        reference = ReferenceBraidTracker(topology, 3, prune_window)
        clock = 0
        for _ in range(1500):
            clock += rng.randrange(3)
            a = rng.randrange(topology.num_sites)
            b = rng.randrange(topology.num_sites)
            earliest = clock + rng.randrange(8)
            got = tracker.request(a, b, earliest)
            assert ((got.start, got.finish, got.crossings, got.vertices)
                    == reference.request(a, b, earliest))
            assert tracker.active_braids == tuple(reference.active)
        assert tracker.total_crossings > 0

    def test_route_vertices_match_reference(self):
        points = [(r, c) for r in range(4) for c in range(5)]
        for start in points:
            for end in points:
                assert (route_vertices(start, end)
                        == reference_route_vertices(start, end))
