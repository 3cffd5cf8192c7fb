"""RNG streams and the kernel outputs they drive.

The raw generator is pinned to an independently computed reference
(pure-Python 64-bit mix, written down before the package existed), and
every public kernel's output on a fixed batch is pinned by digest.
"""

import hashlib

import numpy as np
import pytest

from recomb import Partition, PopulationState, splitmix_raw, stream_uniforms
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
        "rhs_dense": K.rhs_dense(
            w_dyadic, field.idx1, field.idx2, field.k1s, field.k2s, field.rates
        ),
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
