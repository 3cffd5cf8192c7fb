"""Hot numerical kernels over numpy arrays.

Stream contract: the Monte Carlo kernels draw from a splitmix64 counter
generator in ``np.uint64`` arithmetic; replicate ``r`` starts from the
seed's own generator output at step ``r + 1`` (see ``_stream_state``), so
its output is a pure function of (seed, r) and can be reproduced alone
or in any chunk of a batch.  Waiting times use ``math.log`` (not numpy's
vectorized log, which differs in the last bit), so on a given platform
every kernel output is bitwise pinned; the test suite checks fixed
batches against stored digests.

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
  `_block_uniforms` computes a block of it in one numpy call.  Where
  each event starts is a function of the stream too, so numpy decodes
  the block's events, and a Python loop over Python ints does only the
  lookups on the population.  They stay bitwise equal to the
  draw-at-a-time walk (kept in the tests as the reference) because they
  read the same uniforms in the same order and compute the same numbers
  from them: ``int(u * N)`` with the N - 1 clamp, the first running
  count total above it (``bisect_right``), event probabilities summed
  left to right (the first above the draw: ``searchsorted`` on the right
  side), offspring types from integer digit tables, ``math.log`` waiting
  times added in order, and the multinomial start (``multinomial_start``,
  also ``PopulationState.from_distribution``'s).
* The ARG and reconstruction kernels walk one replicate at a time over
  the same kind of bulk-drawn stream, but their replicates are many and
  short (a few dozen uniforms each): the first `_ARG_BLOCK` uniforms of
  `_ARG_CHUNK` replicates come from one two-dimensional numpy call, and a
  replicate that reads past them refills `_ARG_BLOCK` at a time.  They
  stay bitwise equal to the draw-at-a-time walk (kept in the tests as the
  reference) because they read the same uniforms in the same order and
  keep the same lists of ancestral material and site fragments (labelled
  at the end by `_lane_labels`, the partition sampler's routine):
  individuals and parent slots are ``int(u * n)`` with the n - 1 clamp,
  the event is the first running probability above the draw
  (``bisect_right``), a founder is the drawn one of the individuals not
  yet taken, ordered by type (``bisect_right`` on the running counts),
  and a present-day type is an integer sum of per-type digits.

All simulation state lives in caller-provided or locally allocated numpy
arrays and Python lists; nothing here touches the domain classes.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right, insort

import numpy as np

from .errors import LAST_REPLICATE, DomainError, check_count


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
    """Raw outputs k0+1 ... k0+count of the stream at state s0 (a column
    of states gives one row per stream).

    The k-th output is mix(s0 + k * golden), so a block needs no
    sequential state.
    """
    k = np.arange(k0 + 1, k0 + count + 1, dtype=np.uint64)
    return _mix(s0 + k * _SM_GOLDEN)


def _block_uniforms(s0, k0: int, count: int) -> np.ndarray:
    """Uniforms k0+1 ... k0+count of the stream at state s0: the top 53
    bits of each output, times 2**-53."""
    return (_block_u64(s0, k0, count) >> _SH11).astype(np.float64) * _INV53


@_entry
def splitmix_raw(seed, count: int) -> np.ndarray:
    """Raw 64-bit outputs of one stream (reference-vector tests)."""
    return _block_u64(_seed_u64(seed), 0, int(count))


@_entry
def stream_uniforms(seed, replicate: int, count: int) -> np.ndarray:
    """The uniforms replicate `replicate` of a batch would draw first."""
    replicate = check_count(replicate, "replicate", minimum=0, maximum=LAST_REPLICATE)
    count = check_count(count, "uniform count", minimum=0)
    return _block_uniforms(_stream_state(_seed_u64(seed), replicate), 0, count)


# --------------------------------------------------------------------------
# limiting partitioning process (refinement chain on blocks), lane form
# --------------------------------------------------------------------------

# Replicates run in blocks of this many lanes, so the (lanes x events)
# temporaries stay a few MiB whatever n_reps is (a general 8-site model
# has 127 events: 4096 x 127 float64 is 4 MiB).
_LANES = 4096

# One bit of an int64 block mask per site.
_MAX_SITES = 64


def _site_count(n_sites, sampler):
    """n_sites as an int, refused past the width of an int64 site mask."""
    n_sites = int(n_sites)
    if n_sites > _MAX_SITES:
        raise DomainError(f"the {sampler} handles at most {_MAX_SITES} sites, got {n_sites}")
    return n_sites


def _lane_uniforms(st, live):
    """Next uniform of each live lane's stream (same numbers as
    `_block_uniforms`); advances st[live]."""
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


class _SplitRateTable:
    """Running split rates of the site masks met so far, sorted by mask.

    Row `running[i]` holds, in event order, the running total of the rates
    of the events separating ``masks[i]`` into two parts (`_running_rates`
    on that mask's row), and ``rates[i]`` its last entry, the mask's split
    rate.  A mask's row is computed the first time a lane meets it and
    looked up afterwards: a walk meets few distinct fragments, however
    many lanes and events it has.
    """

    def __init__(self, ent_mask1, ent_rate):
        self.events = ent_mask1, ent_rate
        self.masks = np.empty(0, np.int64)
        self.running = np.empty((0, ent_rate.shape[0]))
        self.rates = np.empty(0)

    def find(self, masks):
        """Row of each mask, adding the masks not met before."""
        at = np.searchsorted(self.masks, masks)
        known = at < self.masks.shape[0]
        known[known] = self.masks[at[known]] == masks[known]
        if not known.all():
            # sort and drop repeats by hand: a plain np.unique calls
            # np.ma.is_masked, whose first use imports numpy.ma (about 20 ms)
            new = np.sort(masks[~known])
            new = new[np.append(True, new[1:] != new[:-1])]
            ent_mask1, ent_rate = self.events
            order = np.argsort(np.concatenate([self.masks, new]))
            self.masks = np.concatenate([self.masks, new])[order]
            rows = _running_rates(_separates(new, ent_mask1), ent_rate)
            self.running = np.concatenate([self.running, rows])[order]
            self.rates = self.running[:, -1] if ent_rate.shape[0] else np.zeros(order.shape[0])
            at = np.searchsorted(self.masks, masks)
        return at

    def __call__(self, masks):
        """Split rate of each mask."""
        at = self.find(masks)
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
    table = _SplitRateTable(ent_mask1, ent_rate)
    psi = np.zeros((n_lanes, n_sites))
    psi[:, :n_start] = table(start)
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
        at = table.find(U)
        acc, u_tot = table.running[at], table.rates[at]
        u = _lane_uniforms(st, live) * u_tot
        ev = ((u[:, None] < acc) | (acc == u_tot[:, None])).argmax(axis=1)
        p1, p2 = U & ent_mask1[ev], U & ~ent_mask1[ev]
        k = nb[live]
        blocks[live, bi] = p1
        psi[live, bi] = table(p1)
        blocks[live, k] = p2
        psi[live, k] = table(p2)
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
    n_sites = _site_count(n_sites, "partition sampler")
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

# Most uniforms per read of a forward Moran stream: a read covers about
# a thousand events.
_BLOCK = 4096

# Most uniforms one event reads: its waiting time, one individual (the
# dying one, or the ancestor that moves back), the recombination event,
# and two parents or parent slots.
_EVENT_DRAWS = 5

# Largest (events x types) digit table stored as lists; past it each
# digit sum is computed when it is looked up.
_TABLE_CAP = 1 << 18


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


def _event_starts(ev, n_ev, m, lead):
    """Start of every event, from a read's first one on, that begins at
    one of its first m positions, and the start after the last.

    An event reads `lead` uniforms (its waiting time, if it has one, and
    an individual), its event draw (ev at start + lead) and one parent,
    and a second parent if the draw falls on a recombination (ev < n_ev):
    the next start is start + lead + 2 or start + lead + 3, set by the
    stream alone.  `ev` is a list.
    """
    starts = []
    s = 0
    while s < m:
        starts.append(s)
        s += lead + 3 if ev[s + lead] < n_ev else lead + 2
    return np.array(starts, np.intp), s


def _moran_walk(counts, mu, duration, s0, k, cum_prob, tables):
    """Advance `counts` (a list of ints) over a window of length `duration`
    on the stream at state s0 whose first k uniforms are read; returns the
    number read after the window.

    Every event starts with its waiting time; the draw that overshoots the
    window is consumed.  A window without positive total rate N * mu
    leaves the counts and the stream as they are.  Each read of the stream
    is decoded in numpy (the event draws, the individuals
    ``min(int(u * N), N - 1)``, and the clock, a sequential cumsum of
    ``math.log`` waiting times) after `_event_starts` chains its events,
    sized from the events the rest of the window expects; the loop over its events keeps the lookups on the
    running counts `cum` and moves one individual's worth of them between
    the dying type and the offspring type.
    """
    N = sum(counts)
    rate = N * mu
    if N <= 0 or duration <= 0.0 or not rate > 0.0:
        return k
    cum = list(itertools.accumulate(counts))
    cp, n_ev = np.array(cum_prob), len(cum_prob)
    t = 0.0
    while True:
        # the rest of the window expects `left` events, and rarely holds
        # more than 3 standard deviations above that
        left = rate * (duration - t)
        want = _EVENT_DRAWS * (left + 3.0 * math.sqrt(left) + 3.0)
        n = int(want) if want < _BLOCK else _BLOCK
        u = _block_uniforms(s0, k, n)
        ev = np.searchsorted(cp, u, side="right")
        starts, after = _event_starts(ev.tolist(), n_ev, n - _EVENT_DRAWS + 1, lead=2)
        # math.log, not np.log, which differs in the last bit on some inputs
        logs = np.fromiter(map(math.log, (1.0 - u[starts]).tolist()), np.float64, starts.size)
        clock = -logs / rate
        clock[0] += t
        clock = np.cumsum(clock)
        # the clock never falls: it passes the window's end iff at its last
        over = clock > duration
        last = int(over.argmax()) if over[-1] else starts.size
        ind = np.minimum((u * float(N)).astype(np.int64), N - 1)
        at = starts[:last]
        for ry, e, ra, rb in zip(
            ind[at + 1].tolist(), ev[at + 2].tolist(), ind[at + 3].tolist(),
            ind[at + 4].tolist(),
        ):
            y = bisect_right(cum, ry)
            x = bisect_right(cum, ra)
            if e < n_ev:
                first, second = tables[e]
                x = first[x] + second[bisect_right(cum, rb)]
            if x > y:
                for j in range(y, x):
                    cum[j] -= 1
            elif x < y:
                for j in range(x, y):
                    cum[j] += 1
        if last < starts.size:
            counts[:] = [b - a for a, b in zip([0] + cum, cum)]
            return k + int(starts[last]) + 1
        t = float(clock[-1])
        k += after


@_entry
def multinomial_start(w, N: int, seed, replicate: int = 0) -> np.ndarray:
    """Counts of N iid types from the probability vector w, drawn from the
    first N uniforms of replicate `replicate`'s stream: type j for the
    first running weight above the uniform, the last type of positive
    weight past all (a mass a rounding short of 1 leaves such a tail)."""
    w = _f64(w)
    w_cum = np.cumsum(w)
    last = w.size - 1 - int(np.argmax(w[::-1] > 0.0))
    u = _block_uniforms(_stream_state(_seed_u64(seed), int(replicate)), 0, int(N))
    return np.bincount(np.searchsorted(w_cum[:last], u, side="right"), minlength=w.size)


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
    out = np.empty((n_reps, len(t_grid), n_types), np.int64)
    for rr in range(n_reps):
        s0 = _stream_state(seed, rep_lo + rr)
        if multinomial_from is None:
            counts, k = init.copy(), 0
        else:
            counts = multinomial_start(multinomial_from, N, seed, rep_lo + rr).tolist()
            k = N
        prev = 0.0
        for ti, t in enumerate(t_grid):
            k = _moran_walk(counts, mu, t - prev, s0, k, cum_prob, tables)
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
    n_types = len(w0)
    target = _f64(target).tolist()
    N, mu, t_end = int(N), float(mu), float(t_end)
    seed, rep_lo = _seed_u64(seed), int(rep_lo)
    cum_prob, tables = _event_tables(places, sizes, ent_mask1, ent_prob, n_types)
    out = np.empty(n_reps)
    for rr in range(n_reps):
        s0 = _stream_state(seed, rep_lo + rr)
        counts = multinomial_start(w0, N, seed, rep_lo + rr).tolist()
        _moran_walk(counts, mu, t_end, s0, N, cum_prob, tables)
        acc = 0.0
        for c, w in zip(counts, target):
            acc += abs(c / N - w)
        out[rr] = 0.5 * acc
    return out


@_entry
def moran_event_pairs(counts0, places, sizes, ent_mask1, ent_prob, seed, n_events):
    """Frequency table of (dying type, offspring type) single events.

    The population is reset to counts0 before every event, so the table
    estimates the per-event transition law out of that fixed state.  The
    stream is the seed's own generator output (no replicate), decoded a
    read at a time as in `_moran_walk`; an event reads no waiting time,
    so its event draw sits at start + 1.
    """
    cum = list(itertools.accumulate(_i64(counts0).tolist()))
    n_types, N = len(cum), cum[-1]
    cum_prob, tables = _event_tables(places, sizes, ent_mask1, ent_prob, n_types)
    cp, n_ev = np.array(cum_prob), len(cum_prob)
    draws = _EVENT_DRAWS - 1
    s0, k, left = _seed_u64(seed), 0, int(n_events)
    pairs = [0] * (n_types * n_types)
    while left:
        # the left-th event from here starts by draws * (left - 1)
        n = draws * left if draws * left < _BLOCK else _BLOCK
        u = _block_uniforms(s0, k, n)
        ev = np.searchsorted(cp, u, side="right")
        starts, after = _event_starts(ev.tolist(), n_ev, n - draws + 1, lead=1)
        at = starts[:left]
        ind = np.minimum((u * float(N)).astype(np.int64), N - 1)
        for ry, e, ra, rb in zip(
            ind[at].tolist(), ev[at + 1].tolist(), ind[at + 2].tolist(),
            ind[at + 3].tolist(),
        ):
            x = bisect_right(cum, ra)
            if e < n_ev:
                first, second = tables[e]
                x = first[x] + second[bisect_right(cum, rb)]
            pairs[bisect_right(cum, ry) * n_types + x] += 1
        left -= at.size
        k += after
    return np.array(pairs, np.int64).reshape(n_types, n_types)


# --------------------------------------------------------------------------
# finite-N backward process (ARG): one replicate at a time on a bulk-drawn
# stream
# --------------------------------------------------------------------------

# A backward replicate reads a few dozen uniforms: the first `_ARG_BLOCK`
# of `_ARG_CHUNK` replicates come from one numpy call, and a replicate
# that reads past them refills `_ARG_BLOCK` at a time.
_ARG_CHUNK = 256
_ARG_BLOCK = 128


class _Stream:
    """One stream read in order from a Python list filled a numpy block at
    a time: ``buf[pos:]`` are drawn uniforms not read yet, `k` counts the
    uniforms drawn, so the next block starts at uniform k + 1, and `block`
    is the size of a refill."""

    __slots__ = ("s0", "k", "buf", "pos", "block")

    def __init__(self, s0, k, buf, block):
        self.s0, self.k, self.buf, self.pos, self.block = s0, k, buf, 0, block

    def refill(self):
        """Append a block to the unread tail; returns the new buffer, whose
        first entry is the next uniform."""
        fresh = _block_uniforms(self.s0, self.k, self.block).tolist()
        self.buf = self.buf[self.pos :] + fresh
        self.k += self.block
        self.pos = 0
        return self.buf


def _arg_streams(seed, rep_lo, n_reps):
    """The streams of replicates rep_lo ... rep_lo + n_reps - 1, each
    holding its first `_ARG_BLOCK` uniforms."""
    for lo in range(0, n_reps, _ARG_CHUNK):
        count = min(_ARG_CHUNK, n_reps - lo)
        s0 = _stream_state(seed, np.uint64(rep_lo + lo) + np.arange(count, dtype=np.uint64))
        first = _block_uniforms(s0[:, None], 0, _ARG_BLOCK).tolist()
        for s, buf in zip(s0, first):
            yield _Stream(s, _ARG_BLOCK, buf, _ARG_BLOCK)


def _arg_events(ent_mask1, ent_prob):
    """Running event probabilities (summed left to right) and the event
    masks as unsigned Python ints, 0 appended for the draw past the last
    one.  Unsigned, every mask the walk forms is nonnegative, so clearing
    its lowest bits one at a time ends at 0 even with bit 63 set."""
    cum_prob = list(itertools.accumulate(_f64(ent_prob).tolist()))
    return cum_prob, _i64(ent_mask1).view(np.uint64).tolist() + [0]


def _other(s, j, m):
    """Position, after ancestor j left the list of m, of the ancestor in
    parent slot s, or -1 for a slot past the m - 1 others."""
    if s >= m - 1:
        return -1
    if s < j:
        return s
    return j if s == m - 2 else s + 1


def _arg_walk(src, mu, N, t_end, full, cum_prob, masks):
    """One backward run from a single individual carrying the sites `full`.

    Returns (material, fragments): the site mask each ancestral individual
    carries, and the site fragments, which only ever split.  Each event
    reads its waiting time (at rate m * mu for m ancestors), the ancestor
    j that moves back, the recombination event (masks[e], the last one 0
    for none) and a parent slot for each part of j's material.  Slots
    below m - 1 are the other ancestors in list order, the rest are
    members of the N-sized parent generation carrying nothing yet, and
    two parts drawing the same such slot share one new ancestor.  j leaves
    the list, the last ancestor taking its place; new ancestors are
    appended, as are the second parts of the fragments the event cuts.
    """
    mat, frags = [full], [full]
    buf, i, t = src.buf, src.pos, 0.0
    while True:
        if i > len(buf) - _EVENT_DRAWS:
            src.pos = i
            buf, i = src.refill(), 0
        m = len(mat)
        t += -math.log(1.0 - buf[i]) / (m * mu)
        if t > t_end:
            src.pos = i + 1
            return mat, frags
        j = int(buf[i + 1] * m)
        j = j if j < m else m - 1
        U = mat[j]
        mask1 = masks[bisect_right(cum_prob, buf[i + 2])]
        p1, p2 = U & mask1, U & ~mask1
        r = int(buf[i + 3] * N)
        s1 = r if r < N else N - 1
        if p1 and p2:
            r = int(buf[i + 4] * N)
            s2 = r if r < N else N - 1
            i += 5
            for f in range(len(frags)):
                fm = frags[f]
                if fm & p1 and fm & p2:
                    frags[f] = fm & p1
                    frags.append(fm & p2)
        else:
            p1, p2 = U, 0
            i += 4
        last = mat.pop()
        if j < m - 1:
            mat[j] = last
        d1 = _other(s1, j, m)
        if not p2:
            if d1 < 0:
                mat.append(p1)
            else:
                mat[d1] |= p1
            continue
        d2 = _other(s2, j, m)
        if d1 < 0 and d2 < 0 and s1 == s2:
            mat.append(U)
            continue
        if d1 < 0:
            mat.append(p1)
        else:
            mat[d1] |= p1
        if d2 < 0:
            mat.append(p2)
        else:
            mat[d2] |= p2


@_entry
def arg_batch(ent_mask1, ent_prob, mu, n_sites, N, t_end, seed, n_reps, rep_lo=0):
    """Backward-process batch: per replicate the final site-fragment
    labels (a partition of the sites) and the ancestral-individual count.
    Raises DomainError past 64 sites, the width of an int64 site mask."""
    n_sites = _site_count(n_sites, "backward sampler")
    cum_prob, masks = _arg_events(ent_mask1, ent_prob)
    mu, N, t_end, n_reps = float(mu), int(N), float(t_end), int(n_reps)
    blocks = np.zeros((n_reps, n_sites), np.uint64)
    ancestors = np.empty(n_reps, np.int32)
    for r, src in enumerate(_arg_streams(_seed_u64(seed), int(rep_lo), n_reps)):
        mat, frags = _arg_walk(src, mu, N, t_end, (1 << n_sites) - 1, cum_prob, masks)
        blocks[r, : len(frags)] = frags
        ancestors[r] = len(mat)
    rows = np.empty((n_reps, n_sites), np.int8)
    for lo in range(0, n_reps, _LANES):
        _lane_labels(blocks[lo : lo + _LANES].view(np.int64), rows[lo : lo + _LANES])
    return rows, ancestors


@_entry
def arg_state(ent_mask1, ent_prob, mu, n_sites, N, t_end, seed, replicate=0):
    """One backward run, the batch's replicate `replicate`; returns
    (fragment masks, the index of the ancestor carrying each, m)."""
    n_sites = _site_count(n_sites, "backward sampler")
    src = next(_arg_streams(_seed_u64(seed), int(replicate), 1))
    mat, frags = _arg_walk(
        src, float(mu), int(N), float(t_end), (1 << n_sites) - 1,
        *_arg_events(ent_mask1, ent_prob),
    )
    owners = [next(k for k, mk in enumerate(mat) if mk & fm) for fm in frags]
    return np.array(frags, np.uint64).view(np.int64), np.array(owners, np.int64), len(mat)


@_entry
def reconstruct_batch(
    ent_mask1, ent_prob, mu, n_sites, N, t_end, seed, n_reps, z0_counts, places, sizes,
    rep_lo=0,
):
    """Sample present-day types by running the backward process and copying
    founder letters blockwise; returns flat type indices per replicate.

    Each ancestral individual, in list order, gets a founder drawn without
    replacement from the initial population z0_counts (N individuals
    ordered by type): the ``int(u * n)``-th of the n not yet taken.
    """
    n_sites = _site_count(n_sites, "backward sampler")
    cum_prob, masks = _arg_events(ent_mask1, ent_prob)
    mu, N, t_end = float(mu), int(N), float(t_end)
    cum = list(itertools.accumulate(_i64(z0_counts).tolist()))
    if cum[-1] != N:
        raise DomainError(f"the initial counts sum to {cum[-1]}, not to N = {N}")
    places, sizes = _i64(places).tolist(), _i64(sizes).tolist()
    digits = {}  # founder type -> digit * place per site
    out = []
    for src in _arg_streams(_seed_u64(seed), int(rep_lo), int(n_reps)):
        mat, _ = _arg_walk(src, mu, N, t_end, (1 << n_sites) - 1, cum_prob, masks)
        buf, i = src.buf, src.pos
        while len(buf) - i < len(mat):
            buf, i = src.refill(), 0
        taken, x = [], 0  # positions of the founders drawn, ascending
        for n, material in zip(range(N, 0, -1), mat):
            r = int(buf[i] * n)
            i += 1
            pos = r if r < n else n - 1
            for p in taken:
                if p > pos:
                    break
                pos += 1
            insort(taken, pos)
            founder = bisect_right(cum, pos)
            row = digits.get(founder)
            if row is None:
                row = digits[founder] = [founder // p % s * p for p, s in zip(places, sizes)]
            while material:
                low = material & -material
                x += row[low.bit_length() - 1]
                material ^= low
        out.append(x)
    return np.array(out, np.int64)


# --------------------------------------------------------------------------
# dense ODE right-hand side
# --------------------------------------------------------------------------


def rhs_dense(w, idx1, idx2, rates, mass=None):
    """Sum of rate * (blockwise product measure - w) over the events.

    Row e of idx1/idx2 maps each flat type index to its block-1/block-2
    marginal bin for event e, each event's bins placed after those of the
    events before it (precomputed by the caller), so one bincount per
    block side builds every event's marginal.  Bitwise equal to a
    per-event loop: each bin adds its types in index order, and the event
    rows are summed in event order starting from zero.  `mass` defaults to
    ``w.sum()``; a caller stepping part of a space passes the sum of the
    whole, which rounds differently.
    """
    if mass is None:
        mass = w.sum()
    if mass <= 0.0:
        return np.zeros_like(w)
    tiled = np.tile(w, len(rates))
    m1 = np.bincount(idx1.ravel(), weights=tiled)
    m2 = np.bincount(idx2.ravel(), weights=tiled)
    terms = m1[idx1] * m2[idx2] / mass
    terms -= w
    terms *= rates[:, None]
    return np.add.reduce(terms, axis=0, initial=0.0)


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
    rhs_dense(w, idx1, idx2, ent_rate)
