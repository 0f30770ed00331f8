"""Tests for topologies, swap routing, layout and braid routing."""

from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import ArchitectureError, ResourceExhaustedError
from repro.arch.braid import BraidTracker, manhattan_route
from repro.arch.mapping import Layout
from repro.arch.routing import SwapRouter
from repro.arch.topology import Topology


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
        assert grid.manhattan_distance(0, 15) == 6

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

    def test_centroid_site_on_grid(self):
        grid = Topology.grid(3, 3)
        assert grid.centroid_site([0, 2, 6, 8]) == 4

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


class TestSwapRouter:
    def test_adjacent_needs_no_swaps(self):
        router = SwapRouter(Topology.grid(3, 3))
        assert router.route(0, 1).num_swaps == 0

    def test_route_length_matches_distance(self):
        topology = Topology.grid(4, 4)
        router = SwapRouter(topology)
        route = router.route(0, 15)
        assert route.num_swaps == topology.distance(0, 15) - 1

    def test_swap_distance(self):
        router = SwapRouter(Topology.line(5))
        assert router.swap_distance(0, 4) == 3
        assert router.swap_distance(2, 2) == 0

    def test_route_path_is_connected(self):
        topology = Topology.grid(5, 5)
        router = SwapRouter(topology)
        route = router.route(0, 24)
        for a, b in zip(route.path, route.path[1:]):
            assert topology.are_adjacent(a, b)


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

    def test_nearest_free_sites_ordering(self):
        topology = Topology.grid(5, 5)
        layout = Layout(topology)
        sites = layout.nearest_free_sites([12], limit=5)
        distances = [topology.distance(site, 12) for site in sites]
        assert distances == sorted(distances)

    def test_area_spread(self):
        layout = Layout(Topology.grid(3, 3))
        layout.place(0, 0)
        layout.place(1, 8)
        assert layout.area_spread([0, 1]) > 0
        assert layout.area_spread([0]) == 0.0


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
