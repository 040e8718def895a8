"""Shape tests for the explicit-argument attack programs.

The attack traffic that workloads mix in comes from
:mod:`repro.attacks.programs`; these pin each pattern's row sequence.
"""

import pytest

from repro.attacks.programs import (
    double_sided_program,
    half_double_program,
    many_sided_program,
    rcc_thrash_program,
    rct_region_program,
    single_sided_program,
    thrash_then_hammer_program,
)
from repro.dram.timing import DramGeometry
from tests.attack_rows import rows

GEOMETRY = DramGeometry(
    channels=1,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)


class TestBasicPatterns:
    def test_single_sided(self):
        seq = rows(single_sided_program(5, 10))
        assert seq == [5] * 10

    def test_double_sided_sandwiches_victim(self):
        seq = rows(double_sided_program(100, 3))
        assert seq == [99, 101, 99, 101, 99, 101]

    def test_double_sided_needs_interior_victim(self):
        with pytest.raises(ValueError):
            rows(double_sided_program(0, 5))

    def test_many_sided_round_robin(self):
        seq = rows(many_sided_program([1, 2, 3], rounds=2))
        assert seq == [1, 2, 3, 1, 2, 3]
        with pytest.raises(ValueError):
            rows(many_sided_program([], 1))


class TestHalfDouble:
    def test_mostly_distance_two(self):
        seq = rows(half_double_program(100, far_hammers=2000, near_ratio=1000))
        far = {98, 102}
        near = {99, 101}
        far_count = sum(1 for r in seq if r in far)
        near_count = sum(1 for r in seq if r in near)
        assert far_count == 2000
        assert near_count == 2

    def test_victim_itself_never_touched(self):
        seq = rows(half_double_program(100, far_hammers=500))
        assert 100 not in seq


class TestThrash:
    def test_aggressor_interleaved_with_decoys(self):
        seq = rows(thrash_then_hammer_program(5, [10, 11], hammers=3, interleave=1))
        assert seq.count(5) == 3
        assert seq.count(10) == 3

    def test_interleave_spacing(self):
        seq = rows(thrash_then_hammer_program(5, [10], hammers=4, interleave=2))
        assert seq.count(10) == 2


class TestRccThrash:
    def test_touches_many_distinct_rows(self):
        seq = rows(
            rcc_thrash_program(GEOMETRY, target_rows=50, rounds=3),
            geometry=GEOMETRY,
        )
        assert len(seq) == 150
        assert len(set(seq)) == 50


class TestRctRegionAttack:
    def test_targets_metadata_rows_only(self):
        from repro.core.rct import RowCountTable

        table = RowCountTable(GEOMETRY, counter_bytes=1)
        seq = rows(rct_region_program(GEOMETRY, hammers=20), geometry=GEOMETRY)
        assert len(seq) == 20
        assert all(table.is_meta_row(r) for r in seq)
