"""Hot numerical kernels over numpy arrays.

Stream contract: the Monte Carlo kernels draw from a splitmix64 counter
generator in ``np.uint64`` arithmetic; replicate ``r`` starts from the
seed's own generator output at step ``r + 1`` (see ``_stream_state``), so
its output is a pure function of (seed, r) and can be reproduced alone,
in any chunk of a batch, under any worker count.  Waiting times use
``math.log`` (not numpy's vectorized log, which differs in the last bit),
so on a given platform every kernel output is bitwise pinned; the test
suite checks fixed batches against stored digests.

The kernels walk their replicates in one of three ways:

* The partition sampler runs in lane form: one replicate per numpy lane,
  the splitmix64 step applied to a vector of stream states.  Many short
  replicates fill the lanes.  It stays bitwise equal to a
  replicate-at-a-time walk (kept in the tests as the reference) because
  the lanes draw the same integers and uniforms, every running rate total
  is a sequential ``np.cumsum`` in the walk's order (a 0.0 for an absent
  term is exact), and each waiting time takes ``math.log`` of its own
  element.
* The Moran kernels walk one replicate at a time over a bulk-drawn
  stream.  Their runs are few and long (thousands of events each), so
  lanes would stay nearly empty; but the k-th uniform of a stream is
  mix(s0 + k * golden), a function of the counter alone, so
  `_block_uniforms` computes a block of it in one numpy call and the
  walk reads the block from a Python list, over Python ints.  They stay
  bitwise equal to the draw-at-a-time walk (kept in the tests as the
  reference) because they read the same uniforms in the same order and
  compute the same numbers from them: ``int(u * N)`` with the N - 1
  clamp, the first running count total above it (``bisect_right``),
  event probabilities summed left to right, offspring types from integer
  digit tables, ``math.log`` waiting times, and the multinomial start as
  the first running weight above each uniform (``np.searchsorted``).
* The ARG and reconstruction kernels walk one replicate at a time and
  draw each uniform with `_u`.

All simulation state lives in caller-provided or locally allocated numpy
arrays and Python lists; nothing here touches the domain classes.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right

import numpy as np

from .errors import DomainError


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


def _mix(z):
    """splitmix64 output function, on a uint64 scalar or array."""
    z = (z ^ (z >> _SH30)) * _SM_MIX1
    z = (z ^ (z >> _SH27)) * _SM_MIX2
    return z ^ (z >> _SH31)


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
    return _mix(seed + (np.uint64(rep) + _U1) * _SM_GOLDEN)


def _seed_u64(seed) -> np.uint64:
    return np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)


def _i64(a) -> np.ndarray:
    return np.ascontiguousarray(a, np.int64)


def _f64(a) -> np.ndarray:
    return np.ascontiguousarray(a, np.float64)


def _block_u64(s0, k0: int, count: int) -> np.ndarray:
    """Raw outputs k0+1 ... k0+count of the stream at state s0.

    The k-th output is mix(s0 + k * golden), so a block needs no
    sequential state: the counter form of `_next_u64`.
    """
    k = np.arange(k0 + 1, k0 + count + 1, dtype=np.uint64)
    return _mix(s0 + k * _SM_GOLDEN)


def _block_uniforms(s0, k0: int, count: int) -> np.ndarray:
    """Uniforms k0+1 ... k0+count of the stream at state s0 (those `_u`
    would draw there)."""
    return (_block_u64(s0, k0, count) >> _SH11).astype(np.float64) * _INV53


@_entry
def splitmix_raw(seed, count: int) -> np.ndarray:
    """Raw 64-bit outputs of one stream (reference-vector tests)."""
    return _block_u64(_seed_u64(seed), 0, int(count))


@_entry
def stream_uniforms(seed, replicate: int, count: int) -> np.ndarray:
    """The uniforms replicate `replicate` of a batch would draw first."""
    return _block_uniforms(_stream_state(_seed_u64(seed), replicate), 0, int(count))


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
# limiting partitioning process (refinement chain on blocks), lane form
# --------------------------------------------------------------------------

# Replicates run in blocks of this many lanes, so the (lanes x events)
# temporaries stay a few MiB whatever n_reps is (a general 8-site model
# has 127 events: 4096 x 127 float64 is 4 MiB).
_LANES = 4096

# One bit of an int64 block mask per site.
_MAX_SITES = 64


def _lane_uniforms(st, live):
    """Next uniform of each live lane's stream (same numbers as `_u`);
    advances st[live]."""
    s = st[live] + _SM_GOLDEN
    st[live] = s
    return (_mix(s) >> _SH11).astype(np.float64) * _INV53


def _running_rates(sep, ent_rate):
    """Running total of the separating events' rates, in event order.

    cumsum adds left to right (np.sum would add pairwise) and the 0.0 in
    the other events' slots is exact, so each entry is the float a scalar
    loop over the separating events would hold at that point.
    """
    return np.cumsum(np.where(sep, ent_rate, 0.0), axis=1)


def _separates(masks, ent_mask1):
    """(masks x events) table: does the event cut the site mask in two?"""
    m = masks[:, None]
    return ((m & ent_mask1) != 0) & ((m & ~ent_mask1) != 0)


def _split_rates(ent_mask1, ent_rate, masks):
    """Total rate of the events separating each site mask into two parts."""
    if ent_rate.shape[0] == 0:
        return np.zeros(masks.shape[0])
    return _running_rates(_separates(masks, ent_mask1), ent_rate)[:, -1]


class _SplitRateTable:
    """Split rates of the site masks met so far, sorted by mask.

    A mask's rate is computed by `_split_rates`, on its own row, the first
    time a lane meets it, and looked up afterwards: a walk meets few
    distinct fragments, however many lanes and events it has.
    """

    def __init__(self, ent_mask1, ent_rate):
        self.events = ent_mask1, ent_rate
        self.masks = np.empty(0, np.int64)
        self.rates = np.empty(0)

    def __call__(self, masks):
        at = np.searchsorted(self.masks, masks)
        known = at < self.masks.shape[0]
        known[known] = self.masks[at[known]] == masks[known]
        if not known.all():
            # sort and drop repeats by hand: a plain np.unique calls
            # np.ma.is_masked, whose first use imports numpy.ma (about 20 ms)
            new = np.sort(masks[~known])
            new = new[np.append(True, new[1:] != new[:-1])]
            order = np.argsort(np.concatenate([self.masks, new]))
            self.masks = np.concatenate([self.masks, new])[order]
            self.rates = np.concatenate([self.rates, _split_rates(*self.events, new)])[order]
            at = np.searchsorted(self.masks, masks)
        return self.rates[at]


def _refine_lanes(ent_mask1, ent_rate, n_sites, t_end, st, start, history=None):
    """Run the refinement chain in every lane from the blocks `start`.

    Lane k is one replicate drawing from stream state st[k] (advanced in
    place).  Returns the (lanes x n_sites) final block masks, zero past
    each lane's last block.  Each step draws, for every live lane and in
    the order of a replicate-at-a-time walk, the waiting time, the block
    (by the running total of the blocks' exit rates) and the separating
    event (by the running total of its rates); the two fragments of the
    split take the block's slot and the next free one.  A lane leaves the
    live set when its total rate is 0 or its next event falls past t_end.
    With `history` (a list), every event appends its time and the lane's
    post-event block masks.
    """
    n_lanes, n_start = st.shape[0], start.shape[0]
    blocks = np.zeros((n_lanes, n_sites), np.int64)
    blocks[:, :n_start] = start
    split_rate = _SplitRateTable(ent_mask1, ent_rate)
    psi = np.zeros((n_lanes, n_sites))
    psi[:, :n_start] = split_rate(start)
    nb = np.full(n_lanes, n_start)
    t = np.zeros(n_lanes)
    live = np.arange(n_lanes)
    while live.size:
        cum = np.cumsum(psi[live], axis=1)
        tot = cum[:, -1]
        go = ~(tot <= 0.0)
        live, cum, tot = live[go], cum[go], tot[go]
        u = _lane_uniforms(st, live)
        # math.log, not np.log, which differs in the last bit on some inputs
        logs = np.fromiter(map(math.log, (1.0 - u).tolist()), np.float64, u.shape[0])
        t_next = t[live] + -logs / tot
        go = ~(t_next > t_end)
        live, cum, tot = live[go], cum[go], tot[go]
        if not live.size:
            break
        t[live] = t_next[go]
        # first running total above the draw; where rounding puts the draw
        # at the total (subnormal totals only, whose sums are exact), the
        # first to reach the total, so never a part of rate 0
        u = _lane_uniforms(st, live) * tot
        bi = ((u[:, None] < cum) | (cum == tot[:, None])).argmax(axis=1)
        U = blocks[live, bi]
        acc = _running_rates(_separates(U, ent_mask1), ent_rate)
        u = _lane_uniforms(st, live) * acc[:, -1]
        ev = ((u[:, None] < acc) | (acc == acc[:, -1:])).argmax(axis=1)
        p1, p2 = U & ent_mask1[ev], U & ~ent_mask1[ev]
        k = nb[live]
        blocks[live, bi] = p1
        psi[live, bi] = split_rate(p1)
        blocks[live, k] = p2
        psi[live, k] = split_rate(p2)
        nb[live] = k + 1
        if history is not None:
            history.extend((t[j], blocks[j, : nb[j]].copy()) for j in live)
    return blocks


def _lane_labels(blocks, out):
    """Canonical site labels per lane (first-occurrence order) into `out`.

    The blocks are disjoint, so first-occurrence order is the order of
    their lowest sites: a block's label is the number of blocks whose
    lowest site lies below its own.  A site in no block keeps -1.
    """
    # lowest site bit minus one: increases with the lowest site (bit 63
    # included, as it wraps to the int64 maximum), -1 for an empty slot
    key = (blocks & -blocks) - 1
    rank = key.argsort(axis=1).argsort(axis=1) - (key < 0).sum(axis=1, keepdims=True)
    sites = np.arange(out.shape[1])
    labels = np.full(out.shape, -1, np.int64)
    for i in range(blocks.shape[1]):
        labels += ((blocks[:, i, None] >> sites) & 1) * (rank[:, i, None] + 1)
    out[:] = labels


@_entry
def partition_batch(
    ent_mask1, ent_rate, n_sites, start_blocks, t_end, seed, n_reps, rep_lo=0
):
    """Final-state site labels of n_reps partitioning-process runs.

    Replicates run side by side, one per numpy lane, in blocks of
    `_LANES`; replicate r draws from its own stream ``_stream_state(seed,
    rep_lo + r)``, so its row does not depend on the block it ran in.
    The output is bitwise that of a replicate-at-a-time scalar walk:
    the same splitmix64 integers and uniforms, running rate totals
    summed in the walk's order by cumsum, and waiting times from
    ``math.log`` element by element.  (Only where a total rate is
    subnormal can a draw round up to the total; there the lanes take the
    last block and event of positive rate, where that walk split a block
    of rate 0.)  Rows are (n_reps, n_sites) int8 labels in
    first-occurrence order.  Raises DomainError past 64 sites, the width
    of an int64 block mask.
    """
    n_sites = int(n_sites)
    if n_sites > _MAX_SITES:
        raise DomainError(
            f"the partition sampler handles at most {_MAX_SITES} sites, got {n_sites}"
        )
    ent_mask1, ent_rate = _i64(ent_mask1), _f64(ent_rate)
    start_blocks = _i64(start_blocks)
    t_end, seed, rep_lo = float(t_end), _seed_u64(seed), int(rep_lo)
    out = np.empty((n_reps, n_sites), np.int8)
    for lo in range(0, n_reps, _LANES):
        rows = out[lo : lo + _LANES]
        reps = np.uint64(rep_lo + lo) + np.arange(rows.shape[0], dtype=np.uint64)
        st = _stream_state(seed, reps)
        blocks = _refine_lanes(ent_mask1, ent_rate, n_sites, t_end, st, start_blocks)
        _lane_labels(blocks, rows)
    return out


@_entry
def partition_history(ent_mask1, ent_rate, n_sites, start_blocks, t_end, seed, replicate=0):
    """One run with its full event history.

    The walk of `partition_batch` on a single lane, so the run is the
    batch's replicate `replicate`.  Returns (times, list-of-block-mask
    -arrays), one entry per event; the event at times[k] produced the
    block set rec[k].
    """
    st = np.array([_stream_state(_seed_u64(seed), int(replicate))])
    history = []
    _refine_lanes(
        _i64(ent_mask1), _f64(ent_rate), int(n_sites), float(t_end), st,
        _i64(start_blocks), history,
    )
    times = np.array([when for when, _ in history], np.float64)
    return times, [blocks for _, blocks in history]


# --------------------------------------------------------------------------
# forward Moran model: one replicate at a time on a bulk-drawn stream
# --------------------------------------------------------------------------

# Uniforms per numpy block of a Moran replicate's stream.
_BLOCK = 4096

# Most uniforms one Moran event reads: its waiting time, the dying
# individual, the recombination event and two parents.
_EVENT_DRAWS = 5

# Largest (events x types) digit table stored as lists; past it each
# digit sum is computed when it is looked up.
_TABLE_CAP = 1 << 18


class _Stream:
    """One stream read in order from a Python list filled a numpy block at
    a time: ``buf[pos:]`` are drawn uniforms not read yet, and `k` counts
    the uniforms drawn, so the next block starts at uniform k + 1."""

    __slots__ = ("s0", "k", "buf", "pos")

    def __init__(self, s0, k=0):
        self.s0, self.k, self.buf, self.pos = s0, k, [], 0

    def refill(self):
        """Append a block to the unread tail; returns the new buffer, whose
        first entry is the next uniform."""
        self.buf = self.buf[self.pos :] + _block_uniforms(self.s0, self.k, _BLOCK).tolist()
        self.k += _BLOCK
        self.pos = 0
        return self.buf


class _DigitSum:
    """A digit-table row computed on lookup: type p -> the sum of its
    digit * place over the flagged sites."""

    __slots__ = ("sites",)

    def __init__(self, places, sizes, flags):
        self.sites = [(p, s) for p, s, f in zip(places, sizes, flags) if f]

    def __getitem__(self, p):
        return sum(p // place % size * place for place, size in self.sites)


def _event_tables(places, sizes, ent_mask1, ent_prob, n_types):
    """Running event probabilities and the per-event digit tables.

    A recombination along event e gives parent a's letters on the sites
    of ent_mask1[e] and parent b's on the others, so the offspring type is
    ``tables[e][0][a] + tables[e][1][b]``: the digit sums (digit * place)
    of a over the first sites and of b over the rest, exact integers.
    """
    places, sizes, ent_mask1 = _i64(places), _i64(sizes), _i64(ent_mask1)
    # left-to-right sums, the floats of a sequential scan over the events
    cum_prob = list(itertools.accumulate(_f64(ent_prob).tolist()))
    on = (ent_mask1[:, None] >> np.arange(places.shape[0])) & 1
    if on.shape[0] * n_types <= _TABLE_CAP:
        digits = (np.arange(n_types)[:, None] // places % sizes * places).T
        tables = list(zip((on @ digits).tolist(), ((1 - on) @ digits).tolist()))
    else:
        pl, sz = places.tolist(), sizes.tolist()
        tables = [
            (_DigitSum(pl, sz, row), _DigitSum(pl, sz, [1 - f for f in row]))
            for row in on.tolist()
        ]
    return cum_prob, tables


def _moran_event(buf, i, cum, N, cum_prob, tables):
    """One replacement event read from ``buf[i:]``.

    In order: the dying individual, the recombination event (none past
    the last running probability), then one parent, or two for a
    recombination.  Individuals are drawn with replacement from the
    pre-event counts, whose running totals are `cum` (so the dying one
    can be a parent): individual ``min(int(u * N), N - 1)`` has the type
    of the first running total above it.  Returns (dying type, offspring
    type, index of the next unread uniform).
    """
    r = int(buf[i] * N)
    y = bisect_right(cum, r if r < N else N - 1)
    e = bisect_right(cum_prob, buf[i + 1])
    r = int(buf[i + 2] * N)
    pa = bisect_right(cum, r if r < N else N - 1)
    if e == len(cum_prob):
        return y, pa, i + 3
    r = int(buf[i + 3] * N)
    pb = bisect_right(cum, r if r < N else N - 1)
    first, second = tables[e]
    return y, first[pa] + second[pb], i + 4


def _moran_walk(counts, mu, duration, src, cum_prob, tables):
    """Advance `counts` (a list of ints) over a window of length `duration`.

    Every event starts with its waiting time; the draw that overshoots the
    window is consumed.  A window without positive total rate N * mu
    leaves the counts and the stream as they are.
    """
    N = sum(counts)
    rate = N * mu
    if N <= 0 or duration <= 0.0 or not rate > 0.0:
        return
    cum = list(itertools.accumulate(counts))
    buf, i, t = src.buf, src.pos, 0.0
    while True:
        if i > len(buf) - _EVENT_DRAWS:
            src.pos = i
            buf, i = src.refill(), 0
        t += -math.log(1.0 - buf[i]) / rate
        if t > duration:
            src.pos = i + 1
            return
        y, x, i = _moran_event(buf, i + 1, cum, N, cum_prob, tables)
        if x != y:
            counts[y] -= 1
            counts[x] += 1
            cum = list(itertools.accumulate(counts))


def _multinomial(w_cut, N, n_types, s0):
    """Counts of N iid types drawn from the first N uniforms of the stream
    at s0: type j for the first running weight w_cut[j] above the
    uniform, the last type past all of them."""
    idx = np.searchsorted(w_cut, _block_uniforms(s0, 0, N), side="right")
    return np.bincount(idx, minlength=n_types).tolist()


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
    init = _i64(init_counts).tolist()
    n_types, N = len(init), sum(init)
    mu, seed, rep_lo = float(mu), _seed_u64(seed), int(rep_lo)
    t_grid = _f64(t_grid).tolist()
    cum_prob, tables = _event_tables(places, sizes, ent_mask1, ent_prob, n_types)
    if multinomial_from is not None:
        w_cut = np.cumsum(_f64(multinomial_from))[: n_types - 1]
    out = np.empty((n_reps, len(t_grid), n_types), np.int64)
    for rr in range(n_reps):
        s0 = _stream_state(seed, rep_lo + rr)
        if multinomial_from is None:
            counts, src = init.copy(), _Stream(s0)
        else:
            counts, src = _multinomial(w_cut, N, n_types, s0), _Stream(s0, N)
        prev = 0.0
        for ti, t in enumerate(t_grid):
            _moran_walk(counts, mu, t - prev, src, cum_prob, tables)
            prev = t
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
    n_types = w_cum.shape[0]
    target = _f64(target).tolist()
    N, mu, t_end = int(N), float(mu), float(t_end)
    seed, rep_lo = _seed_u64(seed), int(rep_lo)
    cum_prob, tables = _event_tables(places, sizes, ent_mask1, ent_prob, n_types)
    out = np.empty(n_reps)
    for rr in range(n_reps):
        s0 = _stream_state(seed, rep_lo + rr)
        counts = _multinomial(w_cum[: n_types - 1], N, n_types, s0)
        _moran_walk(counts, mu, t_end, _Stream(s0, N), cum_prob, tables)
        acc = 0.0
        for c, w in zip(counts, target):
            acc += abs(c / N - w)
        out[rr] = 0.5 * acc
    return out


@_entry
def moran_event_pairs(counts0, places, sizes, ent_mask1, ent_prob, seed, n_events):
    """Frequency table of (dying type, offspring type) single events.

    The population is reset to counts0 before every event, so the table
    estimates the per-event transition law out of that fixed state.
    """
    cum = list(itertools.accumulate(_i64(counts0).tolist()))
    n_types = len(cum)
    cum_prob, tables = _event_tables(places, sizes, ent_mask1, ent_prob, n_types)
    src = _Stream(_seed_u64(seed))
    pairs = [0] * (n_types * n_types)
    buf, i = src.buf, 0
    for _ in range(int(n_events)):
        if i > len(buf) - _EVENT_DRAWS:
            src.pos = i
            buf, i = src.refill(), 0
        y, x, i = _moran_event(buf, i, cum, cum[-1], cum_prob, tables)
        pairs[y * n_types + x] += 1
    return np.array(pairs, np.int64).reshape(n_types, n_types)


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
