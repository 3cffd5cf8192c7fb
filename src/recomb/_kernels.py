"""Hot numerical kernels: one plain-Python path over numpy arrays.

Stream contract: the Monte Carlo kernels draw from a splitmix64 counter
generator in ``np.uint64`` arithmetic; replicate ``r`` starts from the
seed's own generator output at step ``r + 1`` (see ``_stream_state``), so
its output is a pure function of (seed, r) and can be reproduced alone,
in any chunk of a batch, under any worker count.  Waiting times use
``math.log`` (not numpy's vectorized log, which differs in the last bit),
so on a given platform every kernel output is bitwise pinned; the test
suite checks fixed batches against stored digests.

All simulation state lives in caller-provided or locally allocated numpy
arrays; nothing here touches the domain classes.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def _entry(fn):
    """Public-kernel decorator: silence uint64 wraparound warnings (the
    RNG relies on modular arithmetic)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore"):
            return fn(*args, **kwargs)

    return wrapper


# --------------------------------------------------------------------------
# splitmix64 counter RNG
# --------------------------------------------------------------------------

_SM_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SM_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MIX2 = np.uint64(0x94D049BB133111EB)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)
_U1 = np.uint64(1)
_INV53 = 1.1102230246251565e-16  # 2**-53


def _next_u64(st):
    st[0] = st[0] + _SM_GOLDEN
    z = st[0]
    z = (z ^ (z >> _SH30)) * _SM_MIX1
    z = (z ^ (z >> _SH27)) * _SM_MIX2
    return z ^ (z >> _SH31)


def _u(st):
    """Uniform float64 in [0, 1) with 53 random bits."""
    return float(_next_u64(st) >> _SH11) * _INV53


def _ri(st, n):
    """Uniform integer in [0, n)."""
    i = int(_u(st) * n)
    if i >= n:
        i = n - 1
    return i


def _stream_state(seed, rep):
    """Initial state of replicate stream `rep`.

    The state is the seed's own generator output at step rep+1, so the
    streams of different replicates sit at effectively random positions
    of the counter orbit, and changing the seed moves every replicate,
    not just relabels them (a plain seed XOR rep would reuse the same
    stream set across seeds).
    """
    z = seed + (np.uint64(rep) + _U1) * _SM_GOLDEN
    z = (z ^ (z >> _SH30)) * _SM_MIX1
    z = (z ^ (z >> _SH27)) * _SM_MIX2
    return z ^ (z >> _SH31)


def _seed_u64(seed) -> np.uint64:
    return np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)


def _i64(a) -> np.ndarray:
    return np.ascontiguousarray(a, np.int64)


def _f64(a) -> np.ndarray:
    return np.ascontiguousarray(a, np.float64)


@_entry
def splitmix_raw(seed, count: int) -> np.ndarray:
    """Raw 64-bit outputs of one stream (reference-vector tests)."""
    st = np.zeros(1, np.uint64)
    st[0] = _seed_u64(seed)
    out = np.empty(count, np.uint64)
    for i in range(count):
        out[i] = _next_u64(st)
    return out


@_entry
def stream_uniforms(seed, replicate: int, count: int) -> np.ndarray:
    """The uniforms replicate `replicate` of a batch would draw first."""
    st = np.zeros(1, np.uint64)
    st[0] = _stream_state(_seed_u64(seed), replicate)
    out = np.empty(count)
    for i in range(count):
        out[i] = _u(st)
    return out


# --------------------------------------------------------------------------
# shared small helpers
# --------------------------------------------------------------------------


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


# --------------------------------------------------------------------------
# limiting partitioning process (refinement chain on blocks)
# --------------------------------------------------------------------------


def _block_split_rate(ent_mask1, ent_rate, U):
    """Total rate of events separating the site mask U into two parts."""
    tot = 0.0
    for e in range(ent_rate.shape[0]):
        if (U & ent_mask1[e]) != 0 and (U & (~ent_mask1[e])) != 0:
            tot += ent_rate[e]
    return tot


def _partition_walk(
    ent_mask1, ent_rate, t_end, st, blocks, psi_b, nb, rec_times, rec_blocks, record
):
    """Run the refinement chain from the current `blocks[:nb]` until t_end.

    Exit rates are maintained per block and only the two fragments of a
    split are recomputed.  With `record` nonzero, each post-event block
    list and its time are appended to rec_blocks/rec_times.  Returns
    (final block count, number of recorded events).
    """
    for i in range(nb):
        psi_b[i] = _block_split_rate(ent_mask1, ent_rate, blocks[i])
    t = 0.0
    nev = 0
    E = ent_rate.shape[0]
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
        for e in range(E):
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
        if record != 0:
            rec_times[nev] = t
            for i in range(nb):
                rec_blocks[nev, i] = blocks[i]
            nev += 1
    return nb, nev


@_entry
def partition_batch(
    ent_mask1, ent_rate, n_sites, start_blocks, t_end, seed, n_reps, rep_lo=0
):
    """Final-state site labels of n_reps partitioning-process runs."""
    ent_mask1, ent_rate = _i64(ent_mask1), _f64(ent_rate)
    start_blocks = _i64(start_blocks)
    n_start = len(start_blocks)
    t_end, seed, rep_lo = float(t_end), _seed_u64(seed), int(rep_lo)
    out = np.empty((n_reps, n_sites), np.int8)
    blocks = np.zeros(n_sites, np.int64)
    psi_b = np.zeros(n_sites)
    st = np.zeros(1, np.uint64)
    for rr in range(n_reps):
        st[0] = _stream_state(seed, rep_lo + rr)
        blocks[:n_start] = start_blocks
        nb, _ = _partition_walk(
            ent_mask1, ent_rate, t_end, st, blocks, psi_b, n_start, None, None, 0
        )
        _label_sites(blocks, nb, n_sites, out[rr])
    return out


@_entry
def partition_history(ent_mask1, ent_rate, n_sites, start_blocks, t_end, seed, replicate=0):
    """One run with its full event history.

    Returns (times, list-of-block-mask-arrays), one entry per event; the
    event at times[k] produced the block set rec[k].
    """
    start_blocks = _i64(start_blocks)
    n_start = len(start_blocks)
    rec_times = np.zeros(n_sites)
    rec_blocks = np.zeros((n_sites, n_sites), np.int64)
    blocks = np.zeros(n_sites, np.int64)
    blocks[:n_start] = start_blocks
    st = np.zeros(1, np.uint64)
    st[0] = _stream_state(_seed_u64(seed), int(replicate))
    _, nev = _partition_walk(
        _i64(ent_mask1), _f64(ent_rate), float(t_end), st, blocks, np.zeros(n_sites),
        n_start, rec_times, rec_blocks, 1,
    )
    events = [rec_blocks[k, : n_start + k + 1].copy() for k in range(nev)]
    return rec_times[:nev].copy(), events


# --------------------------------------------------------------------------
# forward Moran model
# --------------------------------------------------------------------------


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
        return 0
    rate = N * mu
    t = 0.0
    n_events = 0
    while True:
        t += -math.log(1.0 - _u(st)) / rate
        if t > duration:
            break
        y, x = _moran_event(counts, N, places, sizes, ent_mask1, ent_prob, st)
        counts[y] -= 1
        counts[x] += 1
        n_events += 1
    return n_events


def _fill_multinomial(counts, w_cum, N, st):
    """N iid draws from the cumulative weights (conditionally multinomial)."""
    K = counts.shape[0]
    for i in range(K):
        counts[i] = 0
    for _ in range(N):
        u = _u(st)
        idx = K - 1
        for j in range(K - 1):
            if u < w_cum[j]:
                idx = j
                break
        counts[idx] += 1


@_entry
def moran_batch(
    init_counts, places, sizes, ent_mask1, ent_prob, mu, t_grid, seed,
    n_reps, rep_lo=0, multinomial_from=None,
):
    """Population counts at each grid time for every replicate.

    With `multinomial_from` (a probability vector) each replicate redraws
    its initial population multinomially with the same total N as
    init_counts; otherwise all replicates start from init_counts exactly.
    Returns an (n_reps, n_times, n_types) int64 array.
    """
    init_counts = _i64(init_counts)
    places, sizes = _i64(places), _i64(sizes)
    ent_mask1, ent_prob = _i64(ent_mask1), _f64(ent_prob)
    mu, seed, rep_lo = float(mu), _seed_u64(seed), int(rep_lo)
    t_grid = _f64(t_grid)
    K = init_counts.shape[0]
    if multinomial_from is not None:
        w_cum = np.cumsum(_f64(multinomial_from))
    out = np.empty((n_reps, t_grid.shape[0], K), np.int64)
    counts = np.zeros(K, np.int64)
    st = np.zeros(1, np.uint64)
    N = 0
    for i in range(K):
        N += init_counts[i]
    for rr in range(n_reps):
        st[0] = _stream_state(seed, rep_lo + rr)
        if multinomial_from is not None:
            _fill_multinomial(counts, w_cum, N, st)
        else:
            counts[:] = init_counts
        prev = 0.0
        for ti in range(t_grid.shape[0]):
            _moran_run(
                counts, places, sizes, ent_mask1, ent_prob, mu, t_grid[ti] - prev, st
            )
            prev = t_grid[ti]
            out[rr, ti] = counts
    return out


@_entry
def moran_tv_batch(
    w0, target, N, places, sizes, ent_mask1, ent_prob, mu, t_end, seed, n_reps, rep_lo=0
):
    """Per-replicate TV distance between Z_t/N and a target distribution.

    Each replicate initializes multinomially from w0 with population N,
    runs the Moran model to t_end, and reports the total variation
    distance of its empirical type frequencies to `target`.
    """
    w_cum = np.cumsum(_f64(w0))
    target = _f64(target)
    places, sizes = _i64(places), _i64(sizes)
    ent_mask1, ent_prob = _i64(ent_mask1), _f64(ent_prob)
    N, mu, t_end = int(N), float(mu), float(t_end)
    seed, rep_lo = _seed_u64(seed), int(rep_lo)
    K = w_cum.shape[0]
    out = np.empty(n_reps)
    counts = np.zeros(K, np.int64)
    st = np.zeros(1, np.uint64)
    for rr in range(n_reps):
        st[0] = _stream_state(seed, rep_lo + rr)
        _fill_multinomial(counts, w_cum, N, st)
        _moran_run(counts, places, sizes, ent_mask1, ent_prob, mu, t_end, st)
        acc = 0.0
        for i in range(K):
            acc += abs(counts[i] / N - target[i])
        out[rr] = 0.5 * acc
    return out


@_entry
def moran_event_pairs(counts0, places, sizes, ent_mask1, ent_prob, seed, n_events):
    """Frequency table of (dying type, offspring type) single events.

    The population is reset to counts0 before every event, so the table
    estimates the per-event transition law out of that fixed state.
    """
    counts0 = _i64(counts0)
    places, sizes = _i64(places), _i64(sizes)
    ent_mask1, ent_prob = _i64(ent_mask1), _f64(ent_prob)
    K = counts0.shape[0]
    out = np.zeros((K, K), np.int64)
    N = 0
    for i in range(K):
        N += counts0[i]
    st = np.zeros(1, np.uint64)
    st[0] = _seed_u64(seed)
    for _ in range(int(n_events)):
        y, x = _moran_event(counts0, N, places, sizes, ent_mask1, ent_prob, st)
        out[y, x] += 1
    return out


# --------------------------------------------------------------------------
# finite-N backward process (ARG): split, sample a parent slot, coalesce
# --------------------------------------------------------------------------


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


@_entry
def arg_batch(ent_mask1, ent_prob, mu, n_sites, N, t_end, seed, n_reps, rep_lo=0):
    """Backward-process batch: per replicate the final site-fragment
    labels (a partition of the sites) and the ancestral-individual count."""
    ent_mask1, ent_prob = _i64(ent_mask1), _f64(ent_prob)
    mu, n_sites, N, t_end = float(mu), int(n_sites), int(N), float(t_end)
    seed, rep_lo = _seed_u64(seed), int(rep_lo)
    out_rows = np.empty((n_reps, n_sites), np.int8)
    out_anc = np.empty(n_reps, np.int32)
    mat = np.zeros(n_sites, np.int64)
    frag_mask = np.zeros(n_sites, np.int64)
    frag_owner = np.zeros(n_sites, np.int64)
    st = np.zeros(1, np.uint64)
    for rr in range(n_reps):
        st[0] = _stream_state(seed, rep_lo + rr)
        m, nf = _arg_one(
            ent_mask1, ent_prob, mu, n_sites, N, t_end, st, mat, frag_mask, frag_owner
        )
        _label_sites(frag_mask, nf, n_sites, out_rows[rr])
        out_anc[rr] = m
    return out_rows, out_anc


@_entry
def arg_state(ent_mask1, ent_prob, mu, n_sites, N, t_end, seed, replicate=0):
    """One backward run; returns (fragment masks, fragment owners, m)."""
    n_sites = int(n_sites)
    frag_mask = np.zeros(n_sites, np.int64)
    frag_owner = np.zeros(n_sites, np.int64)
    st = np.zeros(1, np.uint64)
    st[0] = _stream_state(_seed_u64(seed), int(replicate))
    m, nf = _arg_one(
        _i64(ent_mask1), _f64(ent_prob), float(mu), n_sites, int(N), float(t_end), st,
        np.zeros(n_sites, np.int64), frag_mask, frag_owner,
    )
    return frag_mask[:nf].copy(), frag_owner[:nf].copy(), m


@_entry
def reconstruct_batch(
    ent_mask1, ent_prob, mu, n_sites, N, t_end, seed, n_reps, z0_counts, places, sizes,
    rep_lo=0,
):
    """Sample present-day types by running the backward process and copying
    founder letters blockwise; returns flat type indices per replicate."""
    ent_mask1, ent_prob = _i64(ent_mask1), _f64(ent_prob)
    mu, n_sites, N, t_end = float(mu), int(n_sites), int(N), float(t_end)
    seed, rep_lo = _seed_u64(seed), int(rep_lo)
    z0_counts, places, sizes = _i64(z0_counts), _i64(places), _i64(sizes)
    out = np.empty(n_reps, np.int64)
    mat = np.zeros(n_sites, np.int64)
    frag_mask = np.zeros(n_sites, np.int64)
    frag_owner = np.zeros(n_sites, np.int64)
    tmp = np.zeros(z0_counts.shape[0], np.int64)
    ind_type = np.zeros(n_sites, np.int64)
    st = np.zeros(1, np.uint64)
    for rr in range(n_reps):
        st[0] = _stream_state(seed, rep_lo + rr)
        m, nf = _arg_one(
            ent_mask1, ent_prob, mu, n_sites, N, t_end, st, mat, frag_mask, frag_owner
        )
        # assign each ancestral individual a founder drawn without
        # replacement from the initial population
        tmp[:] = z0_counts
        remaining = N
        for ind in range(m):
            ind_type[ind] = _draw_weighted(tmp, remaining, st)
            tmp[ind_type[ind]] -= 1
            remaining -= 1
        x = 0
        for f in range(nf):
            src = ind_type[frag_owner[f]]
            fm = frag_mask[f]
            for s in range(n_sites):
                if (fm >> s) & 1:
                    x += ((src // places[s]) % sizes[s]) * places[s]
        out[rr] = x
    return out


# --------------------------------------------------------------------------
# dense ODE right-hand side
# --------------------------------------------------------------------------


def rhs_dense(w, idx1, idx2, k1s, k2s, rates):
    """Sum of rate * (blockwise product measure - w) over the entries.

    idx1/idx2 map each flat type index to its block-1/block-2 marginal
    index for each entry (precomputed by the caller); block marginals are
    single bincount passes.
    """
    out = np.zeros_like(w)
    mass = w.sum()
    if mass <= 0.0:
        return out
    for e in range(len(rates)):
        m1 = np.bincount(idx1[e], weights=w, minlength=k1s[e])
        m2 = np.bincount(idx2[e], weights=w, minlength=k2s[e])
        out += rates[e] * (m1[idx1[e]] * m2[idx2[e]] / mass - w)
    return out


# --------------------------------------------------------------------------
# warmup
# --------------------------------------------------------------------------


def warmup() -> None:
    """Run every kernel once on a toy model (a cheap sanity run that
    also takes first-call costs out of later timings)."""
    ent_mask1 = np.array([1], np.int64)
    ent_prob = np.array([0.5])
    ent_rate = np.array([0.5])
    places = np.array([2, 1], np.int64)
    sizes = np.array([2, 2], np.int64)
    start = np.array([3], np.int64)
    splitmix_raw(1, 2)
    stream_uniforms(1, 1, 2)
    partition_batch(ent_mask1, ent_rate, 2, start, 0.5, 1, 2)
    partition_history(ent_mask1, ent_rate, 2, start, 0.5, 1)
    counts = np.array([2, 0, 0, 2], np.int64)
    moran_batch(counts, places, sizes, ent_mask1, ent_prob, 1.0, [0.2], 1, 2)
    moran_batch(
        counts, places, sizes, ent_mask1, ent_prob, 1.0, [0.2], 1, 2,
        multinomial_from=np.full(4, 0.25),
    )
    moran_tv_batch(
        np.full(4, 0.25), np.full(4, 0.25), 4, places, sizes, ent_mask1, ent_prob,
        1.0, 0.2, 1, 2,
    )
    moran_event_pairs(counts, places, sizes, ent_mask1, ent_prob, 1, 2)
    arg_batch(ent_mask1, ent_prob, 1.0, 2, 4, 0.5, 1, 2)
    arg_state(ent_mask1, ent_prob, 1.0, 2, 4, 0.5, 1)
    reconstruct_batch(
        ent_mask1, ent_prob, 1.0, 2, 4, 0.5, 1, 2, counts, places, sizes
    )
    w = np.full(4, 0.25)
    idx1 = np.array([[0, 0, 1, 1]], np.int64)
    idx2 = np.array([[0, 1, 0, 1]], np.int64)
    rhs_dense(w, idx1, idx2, np.array([2], np.int64), np.array([2], np.int64), ent_rate)
