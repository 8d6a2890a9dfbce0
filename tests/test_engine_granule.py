"""Unit tests for granule partitioning and placement planning."""

import pytest

from repro.engine.granule import (
    Granule,
    GranuleMap,
    contiguous_assignment,
    rebalance_plan,
)


class TestGranuleMap:
    def test_granule_count(self):
        assert GranuleMap(1000, 100).num_granules == 10
        assert GranuleMap(1001, 100).num_granules == 11

    def test_granule_of_boundaries(self):
        gmap = GranuleMap(1000, 100)
        assert gmap.granule_of(0) == 0
        assert gmap.granule_of(99) == 0
        assert gmap.granule_of(100) == 1
        assert gmap.granule_of(999) == 9

    def test_key_out_of_range(self):
        gmap = GranuleMap(1000, 100)
        with pytest.raises(KeyError):
            gmap.granule_of(1000)
        with pytest.raises(KeyError):
            gmap.granule_of(-1)

    def test_granule_ranges(self):
        gmap = GranuleMap(250, 100)
        assert gmap.granule(0) == Granule(0, 0, 100)
        assert gmap.granule(2) == Granule(2, 200, 250)  # ragged tail

    def test_granule_contains(self):
        g = Granule(1, 100, 200)
        assert 100 in g and 199 in g
        assert 200 not in g and 99 not in g

    def test_granule_id_out_of_range(self):
        with pytest.raises(KeyError):
            GranuleMap(100, 10).granule(10)

    def test_span(self):
        assert GranuleMap(100, 10).span(3) == (30, 10)
        assert GranuleMap(100, 30).span(3) == (90, 10)  # ragged tail

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GranuleMap(0, 10)
        with pytest.raises(ValueError):
            GranuleMap(10, 0)

    def test_every_key_covered_exactly_once(self):
        gmap = GranuleMap(517, 64)
        for key in range(517):
            g = gmap.granule(gmap.granule_of(key))
            assert key in g


class TestContiguousAssignment:
    def test_even_split(self):
        assignment = contiguous_assignment(8, [0, 1])
        assert [assignment[g] for g in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_ragged_split(self):
        assignment = contiguous_assignment(7, [0, 1, 2])
        counts = {n: sum(1 for v in assignment.values() if v == n) for n in (0, 1, 2)}
        assert counts == {0: 3, 1: 2, 2: 2}

    def test_single_node(self):
        assignment = contiguous_assignment(5, [3])
        assert set(assignment.values()) == {3}

    def test_empty_nodes_rejected(self):
        with pytest.raises(ValueError):
            contiguous_assignment(5, [])

    def test_contiguity(self):
        assignment = contiguous_assignment(100, [0, 1, 2, 3])
        for node in (0, 1, 2, 3):
            owned = sorted(g for g, n in assignment.items() if n == node)
            assert owned == list(range(owned[0], owned[-1] + 1))


class TestRebalancePlan:
    def test_scale_out_moves_half(self):
        current = contiguous_assignment(8, [0, 1])
        moves = rebalance_plan(current, [0, 1, 2, 3])
        assert len(moves) == 4
        final = dict(current)
        for g, src, dst in moves:
            assert final[g] == src
            final[g] = dst
        counts = {n: sum(1 for v in final.values() if v == n) for n in (0, 1, 2, 3)}
        assert counts == {0: 2, 1: 2, 2: 2, 3: 2}

    def test_already_balanced_no_moves(self):
        current = contiguous_assignment(8, [0, 1])
        assert rebalance_plan(current, [0, 1]) == []

    def test_scale_in_drains_victims(self):
        current = contiguous_assignment(8, [0, 1, 2, 3])
        moves = rebalance_plan(current, [0, 1])
        sources = {src for _g, src, _dst in moves}
        assert sources == {2, 3}
        final = dict(current)
        for g, src, dst in moves:
            final[g] = dst
        assert set(final.values()) == {0, 1}

    def test_minimal_moves(self):
        current = contiguous_assignment(100, [0, 1])
        moves = rebalance_plan(current, [0, 1, 2, 3])
        assert len(moves) == 50  # only the surplus moves

    def test_deterministic(self):
        current = contiguous_assignment(16, [0, 1])
        assert rebalance_plan(current, [0, 1, 2]) == rebalance_plan(
            current, [0, 1, 2]
        )

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            rebalance_plan({0: 0}, [])

    def test_failover_reassigns_orphans(self):
        current = {0: 9, 1: 9, 2: 0, 3: 1}  # node 9 is dead / not a target
        moves = rebalance_plan(current, [0, 1])
        moved = {g for g, _s, _d in moves}
        assert moved == {0, 1}
