"""Partition lattice: construction, order, enumeration, and the size cap.

Brute-force reimplementations (set algebra only, no package calls) serve as
the oracle for the lattice laws; the package must agree exhaustively for
small site counts.
"""

import itertools

import numpy as np
import pytest

from recomb import (
    DEFAULT_SITE_CAP,
    DomainError,
    Partition,
    PartitionIndex,
    SizeCapError,
    all_partitions,
    bell_number,
    cut_partition,
    interval_partition,
    refinements,
    two_block_partitions,
)
from recomb.partitions import count_label_rows

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


def brute_refines(p: Partition, q: Partition) -> bool:
    """p is finer than q: every block of p sits inside one block of q."""
    return all(any(set(b) <= set(c) for c in q.blocks) for b in p.blocks)


def brute_meet(p: Partition, q: Partition) -> Partition:
    blocks = []
    for b in p.blocks:
        for c in q.blocks:
            common = sorted(set(b) & set(c))
            if common:
                blocks.append(common)
    return Partition(blocks)


# ---------------------------------------------------------------------------
# construction and canonical text form
# ---------------------------------------------------------------------------


def test_blocks_are_canonicalized():
    p = Partition([[3, 1], [2]])
    assert p.blocks == ((1, 3), (2,))
    assert p.ground == (1, 2, 3)


def test_duplicate_or_overlapping_blocks_rejected():
    with pytest.raises(DomainError):
        Partition([[1, 2], [2, 3]])
    with pytest.raises(DomainError):
        Partition([[1], [1]])
    with pytest.raises(DomainError):
        Partition([[]])


def test_one_block_and_singletons():
    one = Partition.one_block((1, 2, 3))
    fine = Partition.singletons((1, 2, 3))
    assert one.n_blocks == 1 and fine.n_blocks == 3
    assert fine.refines(one) and not one.refines(fine)


def test_text_round_trip_exhaustive_n4():
    for p in all_partitions((1, 2, 3, 4)):
        assert Partition.from_text(p.to_text()) == p


def test_from_text_examples():
    assert Partition.from_text("1,3|2").blocks == ((1, 3), (2,))
    assert Partition.from_text("1").blocks == ((1,),)
    with pytest.raises(DomainError):
        Partition.from_text("1|1")
    with pytest.raises(DomainError):
        Partition.from_text("")


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_all_partitions_counts_match_bell(n):
    ground = tuple(range(1, n + 1))
    parts = list(all_partitions(ground))
    assert len(parts) == BELL[n] == bell_number(n)
    assert len(set(parts)) == len(parts)
    for p in parts:
        assert sorted(s for b in p.blocks for s in b) == list(ground)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_two_block_partitions_count(n):
    ground = tuple(range(1, n + 1))
    tb = two_block_partitions(ground)
    assert len(tb) == 2 ** (n - 1) - 1
    assert all(p.n_blocks == 2 for p in tb)
    assert len(set(tb)) == len(tb)


def test_two_block_partitions_are_shared_per_ground_set():
    first = two_block_partitions((1, 2, 3, 4))
    again = two_block_partitions([4, 3, 2, 1])
    assert again == first and again is not first
    assert all(a is b for a, b in zip(first, again))
    with pytest.raises(DomainError):  # sites are still checked on a shared ground
        two_block_partitions([1.0, 2, 3, 4])


def test_refinements_matches_brute_force_n4():
    ground = (1, 2, 3, 4)
    universe = list(all_partitions(ground))
    for p in universe:
        expected = {q for q in universe if brute_refines(q, p)}
        assert set(refinements(p)) == expected


# ---------------------------------------------------------------------------
# order and lattice laws against the brute-force oracle
# ---------------------------------------------------------------------------


def test_refines_matches_brute_force_n4():
    universe = list(all_partitions((1, 2, 3, 4)))
    for p, q in itertools.product(universe, universe):
        assert p.refines(q) == brute_refines(p, q)


def test_refines_is_a_partial_order_n4():
    universe = list(all_partitions((1, 2, 3, 4)))
    for p in universe:
        assert p.refines(p)
    for p, q in itertools.combinations(universe, 2):
        if p.refines(q) and q.refines(p):
            assert p == q
    for p, q, r in itertools.permutations(universe[:10], 3):
        if p.refines(q) and q.refines(r):
            assert p.refines(r)


def test_meet_is_the_coarsest_common_refinement_n4():
    universe = list(all_partitions((1, 2, 3, 4)))
    for p, q in itertools.combinations(universe, 2):
        m = p.meet(q)
        assert m == brute_meet(p, q)
        assert m.refines(p) and m.refines(q)
    # every common refinement refines the meet
    for p, q in itertools.combinations(universe[:8], 2):
        m = p.meet(q)
        for r in universe:
            if r.refines(p) and r.refines(q):
                assert r.refines(m)


def test_meet_commutative_idempotent_n4():
    universe = list(all_partitions((1, 2, 3, 4)))
    for p, q in itertools.combinations(universe, 2):
        assert p.meet(q) == q.meet(p)
    for p in universe:
        assert p.meet(p) == p


def test_ground_mismatch_raises():
    p = Partition.one_block((1, 2))
    q = Partition.one_block((1, 2, 3))
    with pytest.raises(DomainError):
        p.refines(q)
    with pytest.raises(DomainError):
        p.meet(q)


# ---------------------------------------------------------------------------
# restriction, intervals, masks
# ---------------------------------------------------------------------------


def test_restrict_intersects_blocks():
    p = Partition.from_text("1,3|2,4")
    assert p.restrict((1, 2)) == Partition([[1], [2]])
    assert p.restrict((1, 3)) == Partition([[1, 3]])
    assert p.restrict((2,)) == Partition([[2]])


def test_restrict_composes_n4():
    for p in all_partitions((1, 2, 3, 4)):
        assert p.restrict((1, 2, 3)).restrict((1, 2)) == p.restrict((1, 2))


def test_interval_partitions_and_cut_sets():
    p = interval_partition(4, [2])
    assert p == Partition([[1, 2], [3, 4]])
    assert p.is_interval() and p.cut_set() == frozenset({2})
    assert cut_partition(5, 3) == Partition([[1, 2, 3], [4, 5]])
    assert not Partition.from_text("1,3|2").is_interval()
    with pytest.raises(DomainError):
        interval_partition(4, [4])
    # round trip over all subsets of cut positions
    for r in range(4):
        for cuts in itertools.combinations(range(1, 4), r):
            q = interval_partition(4, cuts)
            assert q.is_interval() and q.cut_set() == frozenset(cuts)


def test_masks_round_trip_n4():
    ground = (1, 2, 3, 4)
    for p in all_partitions(ground):
        masks = p.as_masks()
        assert Partition.from_masks(masks, ground) == p
        assert sum(masks) == (1 << len(ground)) - 1


def test_from_labels_groups_sites_by_label():
    ground = (2, 5, 7, 9)
    assert Partition.from_labels([0, 1, 0, 2], ground) == Partition.from_text("2,7|5|9")
    assert Partition.from_labels([3, 3, 3, 3], ground).to_text() == "2,5,7,9"


def test_count_label_rows_shares_partitions_across_calls():
    ground = (2, 5, 7)
    rows = np.array([[0, 1, 0], [0, 0, 0], [0, 1, 0], [0, 1, 2]], np.int8)
    first, inverse, counts = count_label_rows(rows, ground)
    assert [p.to_text() for p in first] == ["2,5,7", "2,7|5", "2|5|7"]
    assert inverse.tolist() == [1, 0, 1, 2] and counts.tolist() == [1, 2, 1]
    again, _, _ = count_label_rows(rows[::-1], ground)
    # one object per row, however many results hold it
    assert all(a is b for a, b in zip(first, again))
    other, _, _ = count_label_rows(rows[:1], (1, 2, 3))
    assert other[0].to_text() == "1,3|2"


def test_block_of():
    p = Partition.from_text("1,3|2")
    assert p.block_of(3) == (1, 3)
    with pytest.raises(DomainError):
        p.block_of(9)


# ---------------------------------------------------------------------------
# the index: canonical order, lookup, cap
# ---------------------------------------------------------------------------


def test_index_order_for_three_sites():
    idx = PartitionIndex((1, 2, 3))
    assert [p.to_text() for p in idx] == [
        "1,2,3",
        "1|2,3",
        "1,2|3",
        "1,3|2",
        "1|2|3",
    ]


def test_index_sorted_by_block_count_then_lexicographic():
    idx = PartitionIndex((1, 2, 3, 4))
    keys = [p.sort_key() for p in idx]
    assert keys == sorted(keys)
    counts = [p.n_blocks for p in idx]
    assert counts == sorted(counts)
    assert len(idx) == BELL[4]


def test_index_lookup_and_extremes():
    idx = PartitionIndex((1, 2, 3))
    for i, p in enumerate(idx):
        assert idx.index_of(p) == i
        assert idx[i] == p
    assert idx.one == Partition.one_block((1, 2, 3))
    assert idx.finest == Partition.singletons((1, 2, 3))
    with pytest.raises(DomainError):
        idx.index_of(Partition.one_block((1, 2)))


def test_index_refining_lists_refinements():
    idx = PartitionIndex((1, 2, 3, 4))
    for p in idx:
        assert set(idx.refining(p)) == set(refinements(p))


def test_index_interval_partitions():
    idx = PartitionIndex((1, 2, 3, 4))
    ips = idx.interval_partitions()
    assert len(ips) == 2 ** 3
    assert all(p.is_interval() for p in ips)


def test_site_cap_guards_lattice_enumeration():
    assert DEFAULT_SITE_CAP == 8
    PartitionIndex(tuple(range(1, 9)))  # at the cap: allowed
    with pytest.raises(SizeCapError, match=r"Bell\(9\) = 21147 partitions; cap is 8 sites"):
        PartitionIndex(tuple(range(1, 10)))


@pytest.mark.parametrize(
    "ground", [tuple(range(1, n + 1)) for n in range(1, 9)] + [(2, 5, 7, 9), (10, 3, 7)]
)
def test_the_mask_built_lattice_is_the_sorted_partition_list(ground):
    index = PartitionIndex(ground)
    want = sorted(all_partitions(ground), key=Partition.sort_key)
    assert index.ground == tuple(sorted(ground))
    assert index.states == tuple(tuple(p.as_masks()) for p in want)
    assert index.partitions == tuple(want)


def test_to_text_is_built_once_and_round_trips():
    for p in PartitionIndex((1, 2, 3, 4, 5)).partitions:
        first = p.to_text()
        assert first == "|".join(",".join(str(s) for s in b) for b in p.blocks)
        assert p.to_text() is first
        assert Partition.from_text(first) == p
        assert Partition.from_text(first).to_text() == first


def test_partitions_share_their_block_and_ground_tuples():
    a, b = Partition.from_text("1,2|3,4"), Partition.from_masks([3, 12], (1, 2, 3, 4))
    assert a.ground is b.ground and a.blocks[0] is b.blocks[0]
    # a refused partition leaves nothing shared behind: (1.0, 7) == (1, 7)
    with pytest.raises(DomainError):
        Partition([(1.0, 7), (8,)])
    c = Partition([(1, 7), (8,)])
    assert all(type(s) is int for blk in c.blocks for s in blk)
    assert all(type(s) is int for s in c.ground)
