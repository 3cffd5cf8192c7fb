"""Type spaces, measures, marginals, recombination products, and distances.

Hand-computed values on tiny spaces are the oracle; dense and sparse
storage must agree on the same operations.
"""

import numpy as np
import pytest

from recomb import (
    DomainError,
    Partition,
    SizeCapError,
    TypeDistribution,
    TypeSpace,
    marginal,
    product_of_marginals,
    product_over_blocks,
    total_variation_distance,
)
from recomb.measure import DENSE_CAP


# ---------------------------------------------------------------------------
# TypeSpace
# ---------------------------------------------------------------------------


def test_space_cardinality_and_places():
    sp = TypeSpace([2, 3, 2])
    assert sp.cardinality == 12
    assert sp.n_sites == 3
    assert sp.sites == (1, 2, 3)
    assert sp.dense


def test_encode_decode_round_trip():
    sp = TypeSpace([2, 3, 2])
    seen = set()
    for t in sp.types():
        idx = sp.encode(t)
        assert 0 <= idx < sp.cardinality
        assert sp.decode(idx) == t
        seen.add(idx)
    assert len(seen) == sp.cardinality


def test_validate_type_errors():
    sp = TypeSpace([2, 2])
    with pytest.raises(DomainError):
        sp.validate_type((0,))
    with pytest.raises(DomainError):
        sp.validate_type((0, 2))
    with pytest.raises(DomainError):
        sp.validate_type((-1, 0))


def test_space_constructor_validation():
    with pytest.raises(DomainError):
        TypeSpace([])
    with pytest.raises(DomainError):
        TypeSpace([2, 0])


@pytest.mark.parametrize("sizes", [[2.5, 2], [True, 2], [float("nan"), 2], [2, 0], [2, -1.0]])
def test_space_refuses_alphabet_sizes_that_are_not_whole(sizes):
    # int(2.5) would silently make TypeSpace([2.5, 2]) a 2 x 2 space
    with pytest.raises(DomainError, match="alphabet size") as info:
        TypeSpace(sizes)
    assert info.value.__context__ is None and info.value.__cause__ is None


def test_space_accepts_whole_floats_and_numpy_integers():
    sp = TypeSpace([2.0, np.int64(3), 4])
    assert sp.alphabet_sizes == (2, 3, 4)
    assert all(type(s) is int for s in sp.alphabet_sizes)
    assert sp == TypeSpace([2, 3, 4]) and sp.places == (12, 4, 1)


def test_subspace():
    sp = TypeSpace([2, 3, 4])
    sub = sp.subspace((1, 3))
    assert sub.alphabet_sizes == (2, 4)
    assert sub == TypeSpace([2, 4]) and sub.places == (4, 1) and sub.cardinality == 8


def test_large_space_is_sparse():
    sp = TypeSpace([2] * 21)
    assert sp.cardinality == 2 ** 21 > DENSE_CAP
    assert not sp.dense


# ---------------------------------------------------------------------------
# construction and elementwise access
# ---------------------------------------------------------------------------


def test_dirac_uniform_from_pairs(space2):
    d = TypeDistribution.dirac(space2, (1, 0))
    assert d.mass == 1.0 and d.weight((1, 0)) == 1.0 and d.weight((0, 0)) == 0.0
    u = TypeDistribution.uniform(space2)
    assert u.mass == pytest.approx(1.0, abs=1e-15)
    assert u.weight((0, 1)) == 0.25
    fp = TypeDistribution.from_pairs(space2, [((0, 0), 0.5), ((0, 0), 0.25)])
    assert fp.weight((0, 0)) == 0.75  # pairs accumulate


def test_negative_mass_rejected(space2):
    with pytest.raises(DomainError):
        TypeDistribution(space2, {(0, 0): -0.1})


def test_items_lists_support_only(space2):
    w = TypeDistribution.from_pairs(space2, [((0, 0), 0.5), ((1, 1), 0.5)])
    assert dict(w.items()) == {(0, 0): 0.5, (1, 1): 0.5}


def test_uniform_refuses_sparse_space():
    with pytest.raises(SizeCapError):
        TypeDistribution.uniform(TypeSpace([2] * 21))


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------


def test_marginal_hand_values(w0_3):
    m1 = w0_3.marginal((1,))
    assert m1.weight((0,)) == pytest.approx(0.7, abs=1e-15)
    assert m1.weight((1,)) == pytest.approx(0.3, abs=1e-15)
    m23 = w0_3.marginal((2, 3))
    assert m23.weight((0, 0)) == pytest.approx(0.55, abs=1e-15)
    assert m23.weight((1, 1)) == pytest.approx(0.3, abs=1e-15)
    assert m23.weight((1, 0)) == pytest.approx(0.15, abs=1e-15)


def test_marginal_of_all_sites_is_identity(w0_3):
    assert w0_3.marginal((1, 2, 3)) is w0_3


def test_marginal_validation(w0_3):
    with pytest.raises(DomainError):
        w0_3.marginal(())
    with pytest.raises(DomainError):
        w0_3.marginal((4,))


def test_marginal_module_helper_matches_method(w0_3):
    assert marginal(w0_3, (1, 2)).sup_distance(w0_3.marginal((1, 2))) == 0.0


# ---------------------------------------------------------------------------
# recombination along a partition
# ---------------------------------------------------------------------------


def test_product_over_blocks_hand_value(w0_3):
    # split {1}|{2,3}: weight(0,0,0) = P(x1=0) * P(x2=0,x3=0) = 0.7 * 0.55
    r = w0_3.product_over_blocks(Partition.from_text("1|2,3"))
    assert r.weight((0, 0, 0)) == pytest.approx(0.385, abs=1e-15)
    assert r.weight((1, 0, 0)) == pytest.approx(0.3 * 0.55, abs=1e-15)
    assert r.weight((0, 1, 0)) == pytest.approx(0.7 * 0.15, abs=1e-15)
    assert r.mass == pytest.approx(1.0, abs=1e-14)


def test_product_over_one_block_is_identity(w0_3):
    assert w0_3.product_over_blocks(Partition.one_block((1, 2, 3))) is w0_3


def test_product_over_singletons_is_full_product(w0_3, space3):
    full = w0_3.product_over_blocks(Partition.singletons((1, 2, 3)))
    assert full.sup_distance(product_of_marginals(w0_3)) == 0.0
    for t in space3.types():
        expected = 1.0
        for site, letter in enumerate(t, start=1):
            expected *= w0_3.marginal((site,)).weight((letter,))
        assert full.weight(t) == pytest.approx(expected, abs=1e-15)


def test_recombination_is_idempotent(w0_3, index3):
    for a in index3:
        once = w0_3.product_over_blocks(a)
        twice = once.product_over_blocks(a)
        assert twice.sup_distance(once) <= 1e-15


def test_recombination_fixes_product_measures(w0_3, index3):
    prod = product_of_marginals(w0_3)
    for a in index3:
        assert prod.product_over_blocks(a).sup_distance(prod) <= 1e-15


def test_recombination_preserves_mass_of_unnormalized_measures(space3):
    w = TypeDistribution.from_pairs(space3, [((0, 0, 0), 2.0), ((1, 1, 0), 1.0)])
    for text in ("1|2,3", "1,2|3", "1|2|3"):
        r = w.product_over_blocks(Partition.from_text(text))
        assert r.mass == pytest.approx(3.0, rel=1e-14)


def test_recombination_of_zero_measure(space3):
    z = TypeDistribution(space3, {})
    assert z.product_over_blocks(Partition.from_text("1|2,3")).mass == 0.0


def test_product_over_blocks_ground_mismatch(w0_3):
    with pytest.raises(DomainError):
        w0_3.product_over_blocks(Partition.one_block((1, 2)))
    assert product_over_blocks(w0_3, Partition.from_text("1,2|3")).mass == pytest.approx(
        1.0, abs=1e-14
    )


# ---------------------------------------------------------------------------
# distances and arithmetic
# ---------------------------------------------------------------------------


def test_total_variation_hand_values(space2):
    d00 = TypeDistribution.dirac(space2, (0, 0))
    d11 = TypeDistribution.dirac(space2, (1, 1))
    u = TypeDistribution.uniform(space2)
    assert total_variation_distance(d00, d11) == 1.0
    assert total_variation_distance(d00, d00) == 0.0
    assert total_variation_distance(u, d00) == pytest.approx(0.75, abs=1e-15)
    assert total_variation_distance(u, d00) == total_variation_distance(d00, u)


def test_tv_between_storage_kinds(space2):
    dense = TypeDistribution.from_pairs(space2, [((0, 0), 0.5), ((1, 1), 0.5)])
    alt = TypeDistribution._from_sparse(space2, {(0, 0): 0.5, (0, 1): 0.5})
    assert dense.total_variation_distance(alt) == pytest.approx(0.5, abs=1e-15)
    assert alt.total_variation_distance(dense) == pytest.approx(0.5, abs=1e-15)


def test_tv_requires_common_space(space2, space3):
    a = TypeDistribution.uniform(space2)
    b = TypeDistribution.uniform(space3)
    with pytest.raises(DomainError):
        total_variation_distance(a, b)


def test_sup_distance(space2):
    a = TypeDistribution.from_pairs(space2, [((0, 0), 0.5), ((1, 1), 0.5)])
    b = TypeDistribution.from_pairs(space2, [((0, 0), 0.2), ((1, 1), 0.5)])
    assert a.sup_distance(b) == pytest.approx(0.3, abs=1e-15)
    assert a.allclose(a) and not a.allclose(b)


def test_normalize_and_scaled(space2):
    w = TypeDistribution.from_pairs(space2, [((0, 0), 3.0), ((1, 1), 1.0)])
    n = w.normalize()
    assert n.mass == pytest.approx(1.0, abs=1e-15)
    assert n.weight((0, 0)) == pytest.approx(0.75, abs=1e-15)
    with pytest.raises(DomainError):
        TypeDistribution(space2, {}).normalize()
    with pytest.raises(DomainError):
        w.scaled(-1.0)


def test_mixed_with(space2):
    a = TypeDistribution.dirac(space2, (0, 0))
    b = TypeDistribution.dirac(space2, (1, 1))
    m = a.mixed_with(b, 0.25)
    assert m.weight((0, 0)) == pytest.approx(0.75, abs=1e-15)
    assert m.weight((1, 1)) == pytest.approx(0.25, abs=1e-15)


# ---------------------------------------------------------------------------
# sparse storage beyond the dense cap
# ---------------------------------------------------------------------------


def test_sparse_marginal_and_product():
    sp = TypeSpace([2] * 21)
    t0 = (0,) * 21
    t1 = (1,) * 21
    t2 = (1, 0) + (0,) * 19
    w = TypeDistribution.from_pairs(sp, [(t0, 0.5), (t1, 0.3), (t2, 0.2)])
    assert not w.is_dense
    m12 = w.marginal((1, 2))
    assert m12.weight((0, 0)) == pytest.approx(0.5, abs=1e-15)
    assert m12.weight((1, 1)) == pytest.approx(0.3, abs=1e-15)
    assert m12.weight((1, 0)) == pytest.approx(0.2, abs=1e-15)
    cut = Partition([range(1, 11), range(11, 22)])
    r = w.product_over_blocks(cut)
    assert r.mass == pytest.approx(1.0, abs=1e-14)
    # left half all ones (only t1: 0.3) times right half all zeros (t0+t2: 0.7)
    crossed = (1,) * 10 + (0,) * 11
    assert r.weight(crossed) == pytest.approx(0.21, abs=1e-15)
    # TV to itself and to a shifted copy
    assert total_variation_distance(w, w) == 0.0
    v = TypeDistribution.from_pairs(sp, [(t0, 0.6), (t1, 0.3), (t2, 0.1)])
    assert total_variation_distance(w, v) == pytest.approx(0.1, abs=1e-15)


def test_sparse_dense_agree_on_shared_operations(space3, w0_3):
    """Run the same measure through the sparse code path via a cap override."""
    sparse_w = TypeDistribution._from_sparse(space3, dict(w0_3.items()))
    assert not sparse_w.is_dense
    for text in ("1|2,3", "1,2|3", "1,3|2", "1|2|3"):
        a = Partition.from_text(text)
        got = sparse_w.product_over_blocks(a)
        want = w0_3.product_over_blocks(a)
        assert got.sup_distance(want) <= 1e-15
    assert sparse_w.marginal((2,)).sup_distance(w0_3.marginal((2,))) <= 1e-15
    assert total_variation_distance(sparse_w, w0_3) <= 1e-15
