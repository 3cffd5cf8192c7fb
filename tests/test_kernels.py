"""RNG streams and the kernel outputs they drive.

The raw generator is pinned to an independently computed reference
(pure-Python 64-bit mix, written down before the package existed),
every public kernel's output on a fixed batch is pinned by digest, and
the lane-form partition sampler and the bulk-stream Moran, ARG and
reconstruction kernels are checked bitwise against the draw-at-a-time
scalar walks they replaced, kept here as the references; the dense ODE
right-hand side is checked bitwise against the per-event loop it
replaced.
"""

import hashlib
import math

import numpy as np
import pytest

from recomb import (
    DomainError,
    Partition,
    PopulationState,
    RecombinationDistribution,
    TypeSpace,
    splitmix_raw,
    stream_uniforms,
    two_block_partitions,
)
from recomb import _kernels as K
from recomb.dynamics import _VectorField

# first outputs of the 64-bit mix sequence; computed by hand from the
# published constants (golden-ratio increment, two xor-multiply finalizers)
RAW_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]
RAW_SEED12345 = [0x22118258A9D111A0, 0x346EDCE5F713F8ED, 0x1E9A57BC80E6721D]

# first uniform of replicate streams 0..3 under master seed 9, derived from
# the same reference generator (stream state = mix(seed + (rep+1)*golden))
FIRST_UNIFORM_SEED9 = [
    0.8966974976375901,
    0.11087593962651332,
    0.24824308745284485,
    0.8580482225385659,
]


# ---------------------------------------------------------------------------
# the draw-at-a-time stream the reference walks read (one np.uint64 state,
# stepped once per draw)
# ---------------------------------------------------------------------------


def _next_u64(st):
    st[0] = st[0] + K._SM_GOLDEN
    z = st[0]
    z = (z ^ (z >> K._SH30)) * K._SM_MIX1
    z = (z ^ (z >> K._SH27)) * K._SM_MIX2
    return z ^ (z >> K._SH31)


def _u(st):
    """Uniform float64 in [0, 1) with 53 random bits."""
    return float(_next_u64(st) >> K._SH11) * K._INV53


def _ri(st, n):
    """Uniform integer in [0, n)."""
    i = int(_u(st) * n)
    if i >= n:
        i = n - 1
    return i


def _draw_weighted(counts, total, st):
    """Index drawn with probability counts[i]/total (integer weights)."""
    u = _ri(st, total)
    acc = 0
    last = counts.shape[0] - 1
    for idx in range(last):
        acc += counts[idx]
        if u < acc:
            return idx
    return last


def _label_sites(masks, count, n_sites, out_row):
    """Canonical block labels per site (first-occurrence order).

    Returns the number of blocks; out_row[site] gets the label of the
    block containing that site.
    """
    for s in range(n_sites):
        out_row[s] = -1
    nxt = 0
    for s in range(n_sites):
        if out_row[s] >= 0:
            continue
        for f in range(count):
            if (masks[f] >> s) & 1:
                for s2 in range(s, n_sites):
                    if (masks[f] >> s2) & 1:
                        out_row[s2] = nxt
                nxt += 1
                break
    return nxt


def test_raw_generator_matches_reference_vectors():
    got0 = [int(v) for v in splitmix_raw(0, 5)]
    assert got0 == RAW_SEED0
    got1 = [int(v) for v in splitmix_raw(12345, 3)]
    assert got1 == RAW_SEED12345


def test_replicate_streams_match_reference():
    for rep, expected in enumerate(FIRST_UNIFORM_SEED9):
        u = stream_uniforms(9, rep, 1)
        assert float(u[0]) == expected  # exact: same integer arithmetic


def test_uniforms_are_reproducible_and_in_range():
    a = stream_uniforms(123, 7, 1000)
    b = stream_uniforms(123, 7, 1000)
    assert np.array_equal(a, b)
    assert np.all((a >= 0.0) & (a < 1.0))
    assert 0.4 < a.mean() < 0.6


def test_streams_differ_across_replicates_and_seeds():
    base = stream_uniforms(1, 0, 64)
    assert not np.array_equal(base, stream_uniforms(1, 1, 64))
    assert not np.array_equal(base, stream_uniforms(2, 0, 64))


def test_seed_change_reshuffles_whole_stream_family():
    """Replicate streams under different master seeds must not coincide.

    A family is broken if some replicate under seed 1 reproduces some
    other replicate under seed 2 (then aggregate statistics repeat).
    """
    fam1 = {tuple(stream_uniforms(1, r, 4)) for r in range(64)}
    fam2 = {tuple(stream_uniforms(2, r, 4)) for r in range(64)}
    assert not fam1 & fam2


# ---------------------------------------------------------------------------
# replicate-offset decomposition (what makes parallel chunking exact)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def model_arrays(model3):
    return model3.event_arrays()


def test_partition_batch_chunks_by_replicate_offset(model3, model_arrays):
    masks, probs = model_arrays
    rates = probs * model3.mu
    start = Partition.one_block((1, 2, 3)).as_masks()
    full = K.partition_batch(masks, rates, 3, start, 1.0, 42, 8)
    head = K.partition_batch(masks, rates, 3, start, 1.0, 42, 5, rep_lo=0)
    tail = K.partition_batch(masks, rates, 3, start, 1.0, 42, 3, rep_lo=5)
    assert np.array_equal(full, np.concatenate([head, tail]))


def test_moran_batch_chunks_by_replicate_offset(model_arrays, space3, w0_3):
    masks, probs = model_arrays
    places, sizes = space3.places, space3.alphabet_sizes
    z0 = PopulationState.from_distribution(w0_3, 100)
    grid = np.array([0.5, 1.0])
    full = K.moran_batch(z0.counts, places, sizes, masks, probs, 1.0, grid, 7, 6)
    head = K.moran_batch(z0.counts, places, sizes, masks, probs, 1.0, grid, 7, 4)
    tail = K.moran_batch(
        z0.counts, places, sizes, masks, probs, 1.0, grid, 7, 2, rep_lo=4
    )
    assert np.array_equal(full, np.concatenate([head, tail]))


def test_arg_batch_chunks_by_replicate_offset(model_arrays):
    masks, probs = model_arrays
    full_rows, full_anc = K.arg_batch(masks, probs, 1.0, 3, 100, 1.0, 3, 10)
    head_rows, head_anc = K.arg_batch(masks, probs, 1.0, 3, 100, 1.0, 3, 6)
    tail_rows, tail_anc = K.arg_batch(
        masks, probs, 1.0, 3, 100, 1.0, 3, 4, rep_lo=6
    )
    assert np.array_equal(full_rows, np.concatenate([head_rows, tail_rows]))
    assert np.array_equal(full_anc, np.concatenate([head_anc, tail_anc]))


# ---------------------------------------------------------------------------
# lane partition sampler against the replicate-at-a-time scalar walk
# ---------------------------------------------------------------------------


def _block_split_rate(ent_mask1, ent_rate, U):
    """Total rate of events separating the site mask U into two parts."""
    tot = 0.0
    for e in range(ent_rate.shape[0]):
        if (U & ent_mask1[e]) != 0 and (U & (~ent_mask1[e])) != 0:
            tot += ent_rate[e]
    return tot


def _partition_walk(ent_mask1, ent_rate, t_end, st, blocks, nb, history):
    """Scalar refinement chain from `blocks[:nb]` until t_end (reference).

    Exit rates are kept per block; only the two fragments of a split are
    recomputed.  Each event appends its time and post-event block list to
    `history`.  Returns the final block count.
    """
    psi_b = np.zeros(blocks.shape[0])
    for i in range(nb):
        psi_b[i] = _block_split_rate(ent_mask1, ent_rate, blocks[i])
    t = 0.0
    while True:
        tot = 0.0
        for i in range(nb):
            tot += psi_b[i]
        if tot <= 0.0:
            break
        t += -math.log(1.0 - _u(st)) / tot
        if t > t_end:
            break
        u = _u(st) * tot
        acc = 0.0
        bi = nb - 1
        for i in range(nb):
            acc += psi_b[i]
            if u < acc:
                bi = i
                break
        U = blocks[bi]
        u2 = _u(st) * psi_b[bi]
        acc2 = 0.0
        p1 = np.int64(0)
        p2 = np.int64(0)
        for e in range(ent_rate.shape[0]):
            q1 = U & ent_mask1[e]
            q2 = U & (~ent_mask1[e])
            if q1 != 0 and q2 != 0:
                p1 = q1
                p2 = q2
                acc2 += ent_rate[e]
                if u2 < acc2:
                    break
        blocks[bi] = p1
        psi_b[bi] = _block_split_rate(ent_mask1, ent_rate, p1)
        blocks[nb] = p2
        psi_b[nb] = _block_split_rate(ent_mask1, ent_rate, p2)
        nb += 1
        history.append((t, blocks[:nb].copy()))
    return nb


def _reference_run(masks, rates, n_sites, start, t_end, seed, rep):
    """Replicate `rep` alone: its history and its final site labels."""
    st = np.zeros(1, np.uint64)
    blocks = np.zeros(n_sites, np.int64)
    blocks[: len(start)] = start
    history = []
    with np.errstate(over="ignore"):  # the generator wraps modulo 2**64
        st[0] = K._stream_state(K._seed_u64(seed), rep)
        nb = _partition_walk(
            np.asarray(masks, np.int64), np.asarray(rates, np.float64), float(t_end), st,
            blocks, len(start), history,
        )
    labels = np.empty(n_sites, np.int8)
    _label_sites(blocks, nb, n_sites, labels)
    return history, labels


def _general(n, seed):
    rng = np.random.default_rng(seed)
    ground = tuple(range(1, n + 1))
    rates = {a: float(rng.uniform(0.1, 1.0)) for a in two_block_partitions(ground)}
    return RecombinationDistribution.from_rates(ground, rates)


def _crossover(n, seed):
    rng = np.random.default_rng(seed)
    return RecombinationDistribution.single_crossover(rng.uniform(0.1, 2.0, n - 1))


REFERENCE_MODELS = {
    "three-site": lambda: _general(3, 3),
    "general-5": lambda: _general(5, 605),
    "crossover-8": lambda: _crossover(8, 508),
    "crossover-12": lambda: _crossover(12, 512),
}


@pytest.mark.parametrize("t_end", [0.0, 0.1, 10.0])
@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_partition_batch_matches_scalar_walk(name, t_end):
    d = REFERENCE_MODELS[name]()
    masks, probs = d.event_arrays()
    rates = probs * d.mu
    n = d.n_sites
    one = Partition.one_block(d.ground).as_masks()
    two = Partition([d.ground[::2], d.ground[1::2]]).as_masks()
    for start, rep_lo, n_reps in ((one, 0, 120), (two, 17, 60), (one, 5, 1), (two, 3, 0)):
        got = K.partition_batch(masks, rates, n, start, t_end, 77, n_reps, rep_lo=rep_lo)
        assert got.dtype == np.int8 and got.shape == (n_reps, n)
        for r in range(n_reps):
            _, want = _reference_run(masks, rates, n, start, t_end, 77, rep_lo + r)
            assert np.array_equal(got[r], want), f"{name} t={t_end} replicate {rep_lo + r}"


@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_partition_history_matches_scalar_walk(name):
    d = REFERENCE_MODELS[name]()
    masks, probs = d.event_arrays()
    rates = probs * d.mu
    start = Partition.one_block(d.ground).as_masks()
    # enough events that a last-bit change in a waiting time would show
    for rep in range(200):
        times, blocks = K.partition_history(masks, rates, d.n_sites, start, 1.0, 41, rep)
        want, _ = _reference_run(masks, rates, d.n_sites, start, 1.0, 41, rep)
        assert times.dtype == np.float64
        assert times.tolist() == [when for when, _ in want]
        assert len(blocks) == len(want)
        for got_b, (_, want_b) in zip(blocks, want):
            assert got_b.dtype == np.int64 and np.array_equal(got_b, want_b)


def test_partition_batch_stops_at_singletons():
    # cut rates of 5 split four sites into singletons long before t = 10,
    # after which the total exit rate is 0 and the lane leaves the walk
    d = RecombinationDistribution.single_crossover([5.0, 5.0, 5.0])
    masks, probs = d.event_arrays()
    start = Partition.one_block(d.ground).as_masks()
    got = K.partition_batch(masks, probs * d.mu, 4, start, 10.0, 3, 200)
    assert np.array_equal(got, np.tile(np.arange(4, dtype=np.int8), (200, 1)))
    for r in range(200):
        _, want = _reference_run(masks, probs * d.mu, 4, start, 10.0, 3, r)
        assert np.array_equal(got[r], want)


def test_partition_batch_without_events_keeps_the_start():
    d = RecombinationDistribution.from_probabilities((1, 2, 3), 1.0, {})
    masks, probs = d.event_arrays()
    start = Partition.from_text("1,3|2").as_masks()
    got = K.partition_batch(masks, probs, 3, start, 10.0, 2, 5)
    _, want = _reference_run(masks, probs, 3, start, 10.0, 2, 0)
    assert np.array_equal(want, [0, 1, 0])
    assert np.array_equal(got, np.tile(want, (5, 1)))


def test_partition_batch_never_splits_a_block_of_rate_zero():
    # with subnormal rates a draw u * total can round up to the total;
    # `_partition_walk` then splits its last block even at rate 0, losing a
    # site or running out of slots, while the lanes take the last block of
    # positive rate and go on to singletons
    masks = np.array([1, 3], np.int64)
    rates = np.array([5e-324, 5e-324])
    got = K.partition_batch(masks, rates, 3, [7], math.inf, 1, 40)
    assert np.array_equal(got, np.tile(np.arange(3, dtype=np.int8), (40, 1)))


def test_partition_batch_uses_all_64_mask_bits():
    # 64 sites put the last site on the int64 sign bit
    masks = np.array([(1 << k) - 1 for k in range(1, 64)], np.int64)
    rates = np.linspace(0.01, 0.05, 63)
    start = np.array([-1], np.int64)
    got = K.partition_batch(masks, rates, 64, start, 1.0, 8, 40, rep_lo=2)
    assert (got[:, 63] > 0).any()
    for r in range(40):
        _, want = _reference_run(masks, rates, 64, start, 1.0, 8, 2 + r)
        assert np.array_equal(got[r], want)


def test_partition_batch_refuses_more_sites_than_mask_bits():
    with pytest.raises(DomainError):
        K.partition_batch(np.array([1], np.int64), np.array([1.0]), 65, [1], 1.0, 0, 1)


# ---------------------------------------------------------------------------
# Moran kernels against the draw-at-a-time scalar walk
# ---------------------------------------------------------------------------


def _moran_event(counts, N, places, sizes, ent_mask1, ent_prob, st):
    """Draw one replacement event; returns (dying type, offspring type).

    Parents are drawn with replacement from the pre-event counts, so the
    dying individual itself can be a parent.  Does not modify counts.
    """
    y = _draw_weighted(counts, N, st)
    u = _u(st)
    acc = 0.0
    mask1 = np.int64(0)
    recombining = False
    for e in range(ent_prob.shape[0]):
        acc += ent_prob[e]
        if u < acc:
            mask1 = ent_mask1[e]
            recombining = True
            break
    if not recombining:
        x = _draw_weighted(counts, N, st)
        return y, x
    pa = _draw_weighted(counts, N, st)
    pb = _draw_weighted(counts, N, st)
    x = 0
    for s in range(places.shape[0]):
        if (mask1 >> s) & 1:
            d = (pa // places[s]) % sizes[s]
        else:
            d = (pb // places[s]) % sizes[s]
        x += d * places[s]
    return y, x


def _moran_run(counts, places, sizes, ent_mask1, ent_prob, mu, duration, st):
    """Advance the population over a time window; counts updated in place."""
    N = 0
    for i in range(counts.shape[0]):
        N += counts[i]
    if N <= 0 or duration <= 0.0:
        return
    rate = N * mu
    t = 0.0
    while True:
        t += -math.log(1.0 - _u(st)) / rate
        if t > duration:
            break
        y, x = _moran_event(counts, N, places, sizes, ent_mask1, ent_prob, st)
        counts[y] -= 1
        counts[x] += 1


def _fill_multinomial(counts, w_cum, N, st):
    """N iid draws from the cumulative weights (conditionally multinomial)."""
    K_ = counts.shape[0]
    counts[:] = 0
    for _ in range(N):
        u = _u(st)
        idx = K_ - 1
        for j in range(K_ - 1):
            if u < w_cum[j]:
                idx = j
                break
        counts[idx] += 1


@np.errstate(over="ignore")  # the generator wraps modulo 2**64
def _moran_reference(case, mu, grid, seed, rep, w=None):
    """Replicate `rep` of moran_batch, one draw at a time."""
    counts, places, sizes, masks, probs = case
    counts = counts.copy()
    st = np.array([K._stream_state(K._seed_u64(seed), rep)])
    if w is not None:
        _fill_multinomial(counts, np.cumsum(w), int(counts.sum()), st)
    out, prev = [], 0.0
    for t in grid:
        _moran_run(counts, places, sizes, masks, probs, mu, t - prev, st)
        prev = t
        out.append(counts.copy())
    return np.array(out)


@np.errstate(over="ignore")
def _tv_reference(case, w, target, N, mu, t_end, seed, rep):
    """Replicate `rep` of moran_tv_batch, one draw at a time."""
    _, places, sizes, masks, probs = case
    counts = np.zeros(len(w), np.int64)
    st = np.array([K._stream_state(K._seed_u64(seed), rep)])
    _fill_multinomial(counts, np.cumsum(w), N, st)
    _moran_run(counts, places, sizes, masks, probs, mu, t_end, st)
    acc = 0.0
    for i in range(len(w)):
        acc += abs(counts[i] / N - target[i])
    return 0.5 * acc


@np.errstate(over="ignore")
def _pairs_reference(case, seed, n_events):
    counts, places, sizes, masks, probs = case
    out = np.zeros((len(counts), len(counts)), np.int64)
    st = np.array([K._seed_u64(seed)])
    for _ in range(n_events):
        y, x = _moran_event(counts, int(counts.sum()), places, sizes, masks, probs, st)
        out[y, x] += 1
    return out


# a site with three alleles makes the digit tables mixed-radix
MORAN_MODELS = {
    "three-site": (lambda: _general(3, 3), [2, 2, 2]),
    "three-alleles": (lambda: _general(3, 33), [2, 3, 2]),
    "crossover-4": (lambda: _crossover(4, 404), [2, 2, 2, 2]),
    # every event draw falls past the (empty) running probabilities
    "no-recombination": (
        lambda: RecombinationDistribution.from_probabilities((1, 2, 3), 1.5, {}), [2, 2, 2]
    ),
}


@pytest.mark.parametrize("block", [K._BLOCK, 7], ids=["block", "short-blocks"])
@pytest.mark.parametrize("stored_tables", [True, False], ids=["tables", "digit-sums"])
@pytest.mark.parametrize("name", sorted(MORAN_MODELS))
def test_moran_kernels_match_scalar_walk(name, stored_tables, block, monkeypatch):
    if not stored_tables:  # offspring digit sums computed per lookup
        monkeypatch.setattr(K, "_TABLE_CAP", 0)
    # short reads make every walk carry unread uniforms into the next read
    # (the event-pair stream's and the forward walk's)
    monkeypatch.setattr(K, "_BLOCK", block)
    d, alleles = MORAN_MODELS[name][0](), MORAN_MODELS[name][1]
    space = TypeSpace(alleles)
    n_types = space.cardinality
    masks, probs = d.event_arrays()
    rng = np.random.default_rng(len(name))
    w = rng.dirichlet(np.ones(n_types))
    w[1] = 0.0
    w /= w.sum()
    target = np.full(n_types, 1.0 / n_types)
    grid = [0.0, 0.3, 1.0]
    for N in (1, 40):
        # type 0 has count 0
        counts = np.bincount(rng.integers(1, n_types, N), minlength=n_types)
        case = (counts, np.array(space.places), np.array(space.alphabet_sizes), masks, probs)
        args = case + (d.mu, grid, 7)
        full = K.moran_batch(*args, 5, rep_lo=3)
        head, tail = K.moran_batch(*args, 2, rep_lo=3), K.moran_batch(*args, 3, rep_lo=5)
        assert np.array_equal(full, np.concatenate([head, tail]))
        redraw = K.moran_batch(*args, 4, rep_lo=1, multinomial_from=w)
        tv = K.moran_tv_batch(w, target, N, *case[1:], d.mu, 0.8, 9, 4, rep_lo=2)
        for r in range(5):
            want = _moran_reference(case, d.mu, grid, 7, 3 + r)
            assert np.array_equal(full[r], want), f"{name} N={N} replicate {3 + r}"
        for r in range(4):
            want = _moran_reference(case, d.mu, grid, 7, 1 + r, w)
            assert np.array_equal(redraw[r], want), f"{name} N={N} replicate {1 + r}"
            want = _tv_reference(case, w, target, N, d.mu, 0.8, 9, 2 + r)
            assert tv[r] == want, f"{name} N={N} replicate {2 + r}"
        pairs = K.moran_event_pairs(*case, 17, 300)
        assert np.array_equal(pairs, _pairs_reference(case, 17, 300))
        # mu = 0: no event ever happens (the scalar walk divides by zero)
        still = K.moran_batch(*case, 0.0, grid, 7, 2)
        assert np.array_equal(still, np.tile(counts, (2, len(grid), 1)))
        with np.errstate(divide="ignore"):
            want = _moran_reference(case, 0.0, grid, 7, 0)
        assert np.array_equal(still[0], want)
    places, sizes = np.array(space.places), np.array(space.alphabet_sizes)
    # N = 3000: windows of thousands of events span several full reads;
    # the repeated time leaves a window of length zero between two others
    counts = np.bincount(rng.integers(0, n_types, 3000), minlength=n_types)
    case = (counts, places, sizes, masks, probs)
    long_grid = [0.4, 0.4, 2.5]
    long = K.moran_batch(*case, d.mu, long_grid, 5, 1, rep_lo=6)
    assert np.array_equal(long[0], _moran_reference(case, d.mu, long_grid, 5, 6))
    # N = 2**62 over two types, a few events a window: the individuals
    # int(u * N) run up to 2**62 and need the whole int64 cast
    counts = np.zeros(n_types, np.int64)
    counts[[2, n_types - 1]] = 2**61
    case = (counts, places, sizes, masks, probs)
    huge = K.moran_batch(*case, 2.0**-60, grid, 3, 3)
    for r in range(3):
        want = _moran_reference(case, 2.0**-60, grid, 3, r)
        assert np.array_equal(huge[r], want), f"{name} N=2**62 replicate {r}"
    assert (huge.sum(axis=2) == 2**62).all()


def test_a_short_moran_window_reads_a_short_stretch_of_its_stream(model_arrays, monkeypatch):
    """A read is sized from the events the window expects, so a toy run
    (the warm-up's) does not decode a full block."""
    reads = []

    def counted(s0, k0, count):
        reads.append(count)
        return block_uniforms(s0, k0, count)

    block_uniforms = K._block_uniforms
    monkeypatch.setattr(K, "_block_uniforms", counted)
    masks, probs = model_arrays
    places, sizes = np.array([4, 2, 1]), np.array([2, 2, 2])
    counts = np.array([2, 0, 0, 0, 0, 0, 0, 2])
    # N = 4 at mu = 1: two events expected in each window of 0.5
    out = K.moran_batch(counts, places, sizes, masks, probs, 1.0, [0.5, 1.0], 1, 1)
    assert out.sum() == 8
    assert 0 < sum(reads) <= 200


# ---------------------------------------------------------------------------
# ARG and reconstruction kernels against the draw-at-a-time scalar walk
# ---------------------------------------------------------------------------


def _arg_one(ent_mask1, ent_prob, mu, n_sites, N, t_end, st, mat, frag_mask, frag_owner):
    """One backward run from a single individual carrying all sites.

    mat[:m] holds the site-material mask per ancestral individual;
    frag_mask/frag_owner[:nf] the never-coarsening site fragments and the
    individual currently carrying each.  Returns (m, nf).
    """
    full = (np.int64(1) << n_sites) - np.int64(1)
    m = 1
    mat[0] = full
    nf = 1
    frag_mask[0] = full
    frag_owner[0] = 0
    E = ent_prob.shape[0]
    t = 0.0
    while True:
        t += -math.log(1.0 - _u(st)) / (m * mu)
        if t > t_end:
            break
        j = _ri(st, m)
        U = mat[j]
        u = _u(st)
        acc = 0.0
        mask1 = np.int64(0)
        for e in range(E):
            acc += ent_prob[e]
            if u < acc:
                mask1 = ent_mask1[e]
                break
        p1 = U & mask1
        p2 = U & (~mask1)
        two_parts = p1 != 0 and p2 != 0
        if not two_parts:
            p1 = U
        # parent slots: values < m-1 address the other ancestors, the rest
        # are unoccupied members of the N-sized parent generation
        s1 = _ri(st, N)
        s2 = _ri(st, N) if two_parts else -1
        if s1 < m - 1:
            d1 = s1 if s1 < j else s1 + 1
        else:
            d1 = -1
        if two_parts:
            if s2 < m - 1:
                d2 = s2 if s2 < j else s2 + 1
            else:
                d2 = -1
        else:
            d2 = -2  # unused
        # mark the fragments of j before indices shuffle
        for f in range(nf):
            if frag_owner[f] == j:
                frag_owner[f] = -1
        # remove j: swap the last individual into slot j
        last = m - 1
        if j != last:
            mat[j] = mat[last]
            for f in range(nf):
                if frag_owner[f] == last:
                    frag_owner[f] = j
            if d1 == last:
                d1 = j
            if d2 == last:
                d2 = j
        m -= 1
        # place the parts
        if two_parts:
            if d1 >= 0 and d2 >= 0:
                mat[d1] |= p1
                mat[d2] |= p2
            elif d1 >= 0:
                mat[d1] |= p1
                d2 = m
                mat[d2] = p2
                m += 1
            elif d2 >= 0:
                mat[d2] |= p2
                d1 = m
                mat[d1] = p1
                m += 1
            else:
                if s1 == s2:
                    d1 = m
                    d2 = m
                    mat[m] = p1 | p2
                    m += 1
                else:
                    d1 = m
                    mat[d1] = p1
                    m += 1
                    d2 = m
                    mat[d2] = p2
                    m += 1
        else:
            if d1 >= 0:
                mat[d1] |= p1
            else:
                d1 = m
                mat[d1] = p1
                m += 1
        # reassign (and possibly split) the fragments that belonged to j
        n_old = nf
        for f in range(n_old):
            if frag_owner[f] != -1:
                continue
            fm = frag_mask[f]
            if two_parts:
                f1 = fm & p1
                f2 = fm & p2
                if f1 != 0 and f2 != 0:
                    frag_mask[f] = f1
                    frag_owner[f] = d1
                    frag_mask[nf] = f2
                    frag_owner[nf] = d2
                    nf += 1
                elif f1 != 0:
                    frag_owner[f] = d1
                else:
                    frag_owner[f] = d2
            else:
                frag_owner[f] = d1
    return m, nf


# inverse of the stream increment modulo 2**64: recovers a draw count
_GOLDEN_INV = pow(int(K._SM_GOLDEN), -1, 1 << 64)


@np.errstate(over="ignore")  # the generator wraps modulo 2**64
def _arg_reference(model, N, t_end, seed, rep, founders=None):
    """Replicate `rep` of the backward kernels, one draw at a time.

    Returns (site labels, m, fragment masks, fragment owners, uniforms
    read) and, with `founders` (z0_counts, places, sizes), the
    reconstructed type as a last entry.
    """
    masks, probs = model.event_arrays()
    n = model.n_sites
    mat, frag_mask, frag_owner = (np.zeros(n, np.int64) for _ in range(3))
    s0 = K._stream_state(K._seed_u64(seed), rep)
    st = np.array([s0])
    m, nf = _arg_one(masks, probs, model.mu, n, N, t_end, st, mat, frag_mask, frag_owner)
    labels = np.empty(n, np.int8)
    _label_sites(frag_mask, nf, n, labels)
    out = [labels, m, frag_mask[:nf].copy(), frag_owner[:nf].copy()]
    if founders is not None:
        # each ancestral individual gets a founder drawn without
        # replacement from the initial population
        z0_counts, places, sizes = founders
        tmp = z0_counts.copy()
        ind_type = np.zeros(n, np.int64)
        for ind in range(m):
            ind_type[ind] = _draw_weighted(tmp, N - ind, st)
            tmp[ind_type[ind]] -= 1
        x = 0
        for f in range(nf):
            src = ind_type[frag_owner[f]]
            for s in range(n):
                if (frag_mask[f] >> s) & 1:
                    x += ((src // places[s]) % sizes[s]) * places[s]
        out.append(x)
    out.insert(4, int((st[0] - s0) * np.uint64(_GOLDEN_INV)))
    return out


ARG_MODELS = {
    "three-site": (lambda: _general(3, 3), [2, 2, 2]),
    # a site with three alleles makes the founder digits mixed-radix
    "three-alleles": (lambda: _general(3, 33), [2, 3, 2]),
    "general-5": (lambda: _general(5, 605), [2, 2, 2, 2, 2]),
    "crossover-6": (lambda: _crossover(6, 606), [2] * 6),
}


@pytest.mark.parametrize("block", [K._ARG_BLOCK, 7], ids=["block", "short-blocks"])
@pytest.mark.parametrize("name", sorted(ARG_MODELS))
def test_arg_kernels_match_scalar_walk(name, block, monkeypatch):
    # short blocks make replicates overrun their first block and refill,
    # and short chunks split a batch's first draws over several numpy calls
    monkeypatch.setattr(K, "_ARG_BLOCK", block)
    monkeypatch.setattr(K, "_ARG_CHUNK", 3 if block == 7 else K._ARG_CHUNK)
    d, alleles = ARG_MODELS[name][0](), ARG_MODELS[name][1]
    masks, probs = d.event_arrays()
    n = d.n_sites
    space = TypeSpace(alleles)
    places, sizes = np.array(space.places), np.array(space.alphabet_sizes)
    rng = np.random.default_rng(len(name))
    most_read = 0
    # N = 1 and 2 coalesce two parts drawn to the same new parent (s1 == s2)
    for N in (1, 2, 30):
        z0 = np.bincount(rng.integers(1, space.cardinality, N), minlength=space.cardinality)
        assert z0[0] == 0  # a founder type of count 0
        for t_end in (0.0, 0.7, 8.0):  # 8.0: a long horizon, many events
            args = (masks, probs, d.mu, n, N, t_end, 11)
            rows, anc = K.arg_batch(*args, 12, rep_lo=4)
            head, tail = K.arg_batch(*args, 5, rep_lo=4), K.arg_batch(*args, 7, rep_lo=9)
            assert np.array_equal(rows, np.concatenate([head[0], tail[0]]))
            assert np.array_equal(anc, np.concatenate([head[1], tail[1]]))
            types = K.reconstruct_batch(*args, 12, z0, places, sizes, rep_lo=4)
            assert rows.dtype == np.int8 and anc.dtype == np.int32 and types.dtype == np.int64
            for r in range(12):
                labels, m, frag_mask, frag_owner, read, x = _arg_reference(
                    d, N, t_end, 11, 4 + r, (z0, places, sizes)
                )
                where = f"{name} N={N} t={t_end} replicate {4 + r}"
                assert rows[r].tobytes() == labels.tobytes(), where
                assert anc[r] == m and types[r] == x, where
                got = K.arg_state(*args, 4 + r)
                assert got[0].dtype == np.int64 and got[1].dtype == np.int64, where
                assert got[0].tobytes() == frag_mask.tobytes(), where
                assert got[1].tobytes() == frag_owner.tobytes() and got[2] == m, where
                most_read = max(most_read, read)
    assert most_read > block  # some replicate read past its first block


def test_arg_kernels_use_all_64_mask_bits():
    # 64 sites put the last site on the int64 sign bit
    d = RecombinationDistribution.single_crossover(np.linspace(0.01, 0.05, 63))
    masks, probs = d.event_arrays()
    for N in (2, 1000):
        rows, anc = K.arg_batch(masks, probs, d.mu, 64, N, 3.0, 8, 10, rep_lo=2)
        for r in range(10):
            labels, m, frag_mask, frag_owner, _ = _arg_reference(d, N, 3.0, 8, 2 + r)
            assert (frag_mask < 0).any()
            assert rows[r].tobytes() == labels.tobytes() and anc[r] == m
            got = K.arg_state(masks, probs, d.mu, 64, N, 3.0, 8, 2 + r)
            assert got[0].tobytes() == frag_mask.tobytes()
            assert got[1].tobytes() == frag_owner.tobytes()


def test_backward_kernels_refuse_what_they_cannot_walk():
    masks, probs = np.array([1], np.int64), np.array([0.5])
    z0, places, sizes = np.array([3, 0, 1, 0]), np.array([2, 1]), np.array([2, 2])
    with pytest.raises(DomainError):
        K.arg_batch(masks, probs, 1.0, 65, 10, 1.0, 0, 1)
    with pytest.raises(DomainError):
        K.arg_state(masks, probs, 1.0, 65, 10, 1.0, 0)
    with pytest.raises(DomainError):
        K.reconstruct_batch(masks, probs, 1.0, 65, 4, 1.0, 0, 1, z0, places, sizes)
    # founders are drawn from the N individuals the counts hold
    with pytest.raises(DomainError):
        K.reconstruct_batch(masks, probs, 1.0, 2, 5, 1.0, 0, 1, z0, places, sizes)
    assert K.reconstruct_batch(masks, probs, 1.0, 2, 4, 1.0, 0, 3, z0, places, sizes).shape == (3,)


# ---------------------------------------------------------------------------
# every kernel's output pinned bit for bit
# ---------------------------------------------------------------------------

# SHA-256 of each output array's bytes, recorded before the kernels were
# reduced to a single plain-Python path; any change to a stream, a draw
# order or a float operation in a kernel shows up here.
PINNED_DIGESTS = {
    "splitmix_raw": "15dfae1e6a10a44faa1450985eebb1c6c531c42436d47a4a9b7d5876aab66d2c",
    "stream_uniforms": "c4ac867d402369557b29c214d64665eac2561a413a2e728e8bcbabd50a8d434f",
    "partition_batch": "a28a24446f68f39035794e82734d72ca8b30888aab263a7ae9eccb5cde844e17",
    "partition_history.times":
        "1bd871bd37ba8d24b8f576d2ae4934dbb9316675f8fd790ed6980916e62138cd",
    "partition_history.blocks":
        "20bc40882250e628fe704b6159185a5f7b17de8dba3661e2a2a22d2715e752ad",
    "moran_batch": "631c43c7f8dc9d554e5c056abdfa695c35a8258f8d6c76a36ec4f5f92c907644",
    "moran_batch.multinomial":
        "bdb82d509fd13064782759eca9c2c5be2b06e08dfde008aea53b36a11804d2fc",
    "moran_tv_batch": "2870b772bb04594298b218960db62279e0628b889c222c3345b127cd8c028d69",
    "moran_event_pairs": "13ada67944a5ec332b74d0f5c0c0ff1fcf040b347f9c1a3f7b417be07109b6e1",
    "arg_batch.rows": "81a5da2de569e2e9f8629db2c7afca05b94dc82700719b000ad8f077e639076e",
    "arg_batch.ancestors": "5ee39541000e5d36141fabe3a58957bb7f8e82211355955fb3982908a26b1921",
    "arg_state.frag_mask": "1bfa150684d0b244a48c33046e98fb2e2ddf92fdfa0479d4818c35fdaf6d051b",
    "arg_state.frag_owner": "53afea624a503a0bf39e469e8979f67fcb1890ea0392adf9e155124f5ede9ebb",
    "arg_state.ancestors": "35be322d094f9d154a8aba4733b8497f180353bd7ae7b0a15f90b586b549f28b",
    "reconstruct_batch": "ecb0aaaa02792138032136dd9101b253aa98dda05736a60cb746e9a2cfd5eded",
    "rhs_dense": "e0a837dc672043619ec1648d546845931ff9246d9e1fe695d8ea44b0be4a1e51",
}


def _probe_outputs(d, space, w):
    masks, probs = d.event_arrays()
    rates = probs * d.mu
    places, sizes = space.places, space.alphabet_sizes
    z0 = PopulationState.from_distribution(w, 200)
    start = Partition.one_block(d.ground).as_masks()
    grid = [0.25, 0.5, 1.0]
    w_arr = w.to_array()
    hist_t, hist_b = K.partition_history(masks, rates, 3, start, 5.0, 5, 3)
    arg_rows, arg_anc = K.arg_batch(masks, probs, 1.0, 3, 500, 1.0, 13, 64)
    frag_mask, frag_owner, m = K.arg_state(masks, probs, 1.0, 3, 500, 2.0, 13, 5)
    field = _VectorField(d, space)
    # dyadic weights of mass 1: the marginal sums are exact in any order
    w_dyadic = np.array([8, 4, 2, 1, 1, 4, 4, 8], float) / 32.0
    return {
        "splitmix_raw": K.splitmix_raw(12345, 8),
        "stream_uniforms": K.stream_uniforms(9, 2, 16),
        "partition_batch": K.partition_batch(masks, rates, 3, start, 1.0, 5, 64),
        "partition_history.times": hist_t,
        "partition_history.blocks": np.concatenate(hist_b),
        "moran_batch": K.moran_batch(
            z0.counts, places, sizes, masks, probs, 1.0, grid, 11, 6
        ),
        "moran_batch.multinomial": K.moran_batch(
            z0.counts, places, sizes, masks, probs, 1.0, grid, 11, 6,
            multinomial_from=w_arr,
        ),
        "moran_tv_batch": K.moran_tv_batch(
            w_arr, np.full(8, 0.125), 200, places, sizes, masks, probs, 1.0, 0.5, 19, 8
        ),
        "moran_event_pairs": K.moran_event_pairs(
            z0.counts, places, sizes, masks, probs, 17, 500
        ),
        "arg_batch.rows": arg_rows,
        "arg_batch.ancestors": arg_anc,
        "arg_state.frag_mask": frag_mask,
        "arg_state.frag_owner": frag_owner,
        "arg_state.ancestors": np.array([m], np.int64),
        "reconstruct_batch": K.reconstruct_batch(
            masks, probs, 1.0, 3, 200, 1.0, 23, 32, z0.counts, places, sizes
        ),
        "rhs_dense": K.rhs_dense(w_dyadic, field.idx1, field.idx2, field.rates),
    }


def test_kernel_outputs_match_pinned_digests(model3, space3, w0_3):
    outputs = _probe_outputs(model3, space3, w0_3)
    assert outputs.keys() == PINNED_DIGESTS.keys()
    for key, arr in outputs.items():
        digest = hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()
        assert digest == PINNED_DIGESTS[key], f"output of {key} changed"


# ---------------------------------------------------------------------------
# dense right-hand-side kernel against the measure layer
# ---------------------------------------------------------------------------


def test_rhs_kernel_matches_measure_algebra(model3, w0_3, rng):
    from recomb import TypeDistribution
    from recomb.dynamics import _VectorField

    w = rng.dirichlet(np.ones(8))
    got = _VectorField(model3, w0_3.space)(w)
    wd = TypeDistribution._from_dense(w0_3.space, w.copy())
    want = np.zeros(8)
    for a, r in model3.support():
        want += model3.mu * r * (wd.product_over_blocks(a).to_array() - w)
    assert np.max(np.abs(got - want)) <= 1e-14
    assert abs(got.sum()) <= 1e-14  # pure redistribution


# ---------------------------------------------------------------------------
# dense right-hand side: one pass per block side against the per-event loop
# ---------------------------------------------------------------------------


def reference_rhs_dense(w, idx1, idx2, k1s, k2s, rates):
    """The per-event loop the one-pass kernel replaced: row e of idx1/idx2
    maps a flat type index to its block-1/block-2 marginal index of event
    e (no offsets), with k1s[e]/k2s[e] bins."""
    out = np.zeros_like(w)
    mass = w.sum()
    if mass <= 0.0:
        return out
    for e in range(len(rates)):
        m1 = np.bincount(idx1[e], weights=w, minlength=k1s[e])
        m2 = np.bincount(idx2[e], weights=w, minlength=k2s[e])
        out += rates[e] * (m1[idx1[e]] * m2[idx2[e]] / mass - w)
    return out


def _reference_event_maps(d, space):
    """Per-event block marginal maps built type by type through
    TypeSpace.encode, in the event order of the vector field."""
    entries = sorted(d.entries.items(), key=lambda kv: kv[0].sort_key())
    types = list(space.types())
    maps = ([], [], [], [])
    for a, _ in entries:
        for side in (0, 1):
            block = a.blocks[side]
            sub = space.subspace(block)
            maps[side].append([sub.encode([t[s - 1] for s in block]) for t in types])
            maps[side + 2].append(sub.cardinality)
    idx1, idx2, k1s, k2s = (np.array(m, np.int64) for m in maps)
    rates = np.array([d.mu * r for _, r in entries])
    return idx1, idx2, k1s, k2s, rates


def _residual_model():
    # probability style with a residual of 0.35; the zero entry is dropped
    entries = {
        Partition.from_text("1|2,3,4"): 0.4,
        Partition.from_text("1,2|3,4"): 0.0,
        Partition.from_text("1,3|2,4"): 0.25,
    }
    return RecombinationDistribution.from_probabilities((1, 2, 3, 4), 0.7, entries)


RHS_CASES = {
    "three-site": (lambda: _general(3, 3), [2, 2, 2]),
    "general-5-alphabet-3": (lambda: _general(5, 605), [3, 3, 3, 3, 3]),
    "residual-and-zero-entry": (_residual_model, [2, 3, 2, 2]),
    "no-entries": (
        lambda: RecombinationDistribution.from_probabilities((1, 2, 3), 1.0, {}),
        [2, 3, 2],
    ),
}


@pytest.mark.parametrize("name", sorted(RHS_CASES))
def test_rhs_dense_is_bitwise_the_per_event_loop(name):
    build, sizes = RHS_CASES[name]
    d, space = build(), TypeSpace(sizes)
    field = _VectorField(d, space)
    idx1, idx2, k1s, k2s, rates = _reference_event_maps(d, space)
    assert field.rates.tobytes() == rates.tobytes()
    rng = np.random.default_rng(29)
    size = space.cardinality
    states = {
        "dirichlet": rng.dirichlet(np.ones(size)),
        # an RK4 stage state: mass near 1, some entries below zero
        "signed": rng.dirichlet(np.ones(size)) + 1e-3 * rng.standard_normal(size),
        "sparse": np.where(np.arange(size) % 3 == 0, 3.0 / size, 0.0),
        "zero-mass": np.zeros(size),
        "cancelling": np.concatenate([[0.5, -0.5], np.zeros(size - 2)]),
    }
    for label, w in states.items():
        got = K.rhs_dense(w, field.idx1, field.idx2, field.rates)
        want = reference_rhs_dense(w, idx1, idx2, k1s, k2s, rates)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), f"{name}, {label} state"


def test_vector_field_places_each_events_bins_after_the_last():
    d, space = _general(5, 605), TypeSpace([3, 3, 3, 3, 3])
    field = _VectorField(d, space)
    _, _, k1s, k2s, _ = _reference_event_maps(d, space)
    for idx, ks in ((field.idx1, k1s), (field.idx2, k2s)):
        starts = np.concatenate([[0], np.cumsum(ks)[:-1]])
        assert np.array_equal(idx.min(axis=1), starts)
        assert np.array_equal(idx.max(axis=1), starts + ks - 1)


def test_rhs_dense_sums_the_events_from_zero_like_the_loop():
    # the rate underflows every term to a signed zero; the loop's first
    # addition 0.0 + -0.0 is +0.0, so the sum must start from +0.0 too
    d = RecombinationDistribution.from_rates((1, 2), {Partition.from_text("1|2"): 1e-310})
    space = TypeSpace([2, 2])
    w = np.array([1e-20, -1e-20, 0.5, 0.5])
    field = _VectorField(d, space)
    got = K.rhs_dense(w, field.idx1, field.idx2, field.rates)
    want = reference_rhs_dense(w, *_reference_event_maps(d, space))
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got).any()
