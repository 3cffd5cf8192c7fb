"""Finite-population stochastic models.

Forward direction: a constant-size population in continuous time where
each individual dies at rate mu and is replaced by the offspring of one
or two uniformly drawn parents (possibly itself), composed blockwise
along a drawn two-block partition.  Backward direction: the finite-N
ancestry of one present-day individual, where material splits along
drawn partitions and parts land on uniformly drawn parent slots,
coalescing when slots collide.

Both exist to verify the deterministic and lattice limits empirically;
all heavy loops live in :mod:`._kernels`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

import numpy as np

from . import _kernels
from .errors import (
    LAST_REPLICATE, DomainError, SizeCapError, check_count, check_grid, check_time,
)
from .measure import TypeDistribution, TypeSpace
from .partitions import Partition, count_label_rows
from .rates import RecombinationDistribution


#: counts are stored as int64, so each count and N is at most this.
MAX_COUNT = 2 ** 63 - 1


class PopulationState:
    """N individuals stored as per-type counts (exchangeable population)."""

    __slots__ = ("space", "counts", "N")

    def __init__(self, space: TypeSpace, counts: np.ndarray | Mapping):
        if not space.dense:
            raise SizeCapError(
                "population states need a dense type space (within the storage cap)"
            )
        if isinstance(counts, Mapping):
            arr = np.zeros(space.cardinality, dtype=object)  # Python ints: no wrap
            for t, c in counts.items():
                arr[space.encode(t)] += check_count(c, f"count of type {t}", 0, MAX_COUNT)
        else:
            raw = np.asarray(counts)
            if raw.shape != (space.cardinality,):
                raise DomainError(
                    f"count array shape {raw.shape} does not match space size"
                )
            if raw.dtype.kind not in "iuf":
                raise DomainError(f"counts must be whole numbers, got dtype {raw.dtype}")
            if raw.dtype.kind == "f":
                bad = ~np.isfinite(raw) | (raw != np.floor(raw))
                if bad.any():
                    raise DomainError(
                        f"counts must be whole numbers, got {raw[bad][0].item()!r}"
                    )
            if (raw < 0).any():
                raise DomainError("counts must be nonnegative")
            check_count(raw.max().item(), "each count", minimum=0, maximum=MAX_COUNT)
            arr = raw.astype(np.int64)
        self.N = check_count(sum(arr.tolist()), "population size N", maximum=MAX_COUNT)
        self.space = space
        self.counts = arr.astype(np.int64, copy=False)

    @classmethod
    def from_distribution(
        cls, w: TypeDistribution, N: int, mode: str = "round", seed: int = 0
    ) -> "PopulationState":
        """Population of size N approximating w.

        mode 'round' uses largest-remainder rounding of N*w (deterministic);
        mode 'multinomial' draws N individuals iid from w with the package
        RNG, reproducible from the seed.
        """
        N = check_count(N, "population size", maximum=MAX_COUNT)
        if not w.space.dense:
            raise SizeCapError("population initialization needs a dense space")
        weights = w.to_array()
        total = weights.sum()
        if total <= 0:
            raise DomainError("cannot populate from a zero-mass distribution")
        probs = weights / total
        if mode == "round":
            scaled = probs * N
            base = np.floor(scaled).astype(np.int64)
            short = N - int(base.sum())
            if short > 0:
                order = np.argsort(-(scaled - base), kind="stable")
                base[order[:short]] += 1
            return cls(w.space, base)
        if mode == "multinomial":
            u = _kernels.stream_uniforms(seed, 0, N)
            idx = np.searchsorted(np.cumsum(probs), u, side="right")
            counts = np.bincount(
                np.minimum(idx, probs.size - 1), minlength=probs.size
            ).astype(np.int64)
            return cls(w.space, counts)
        raise DomainError(f"unknown initialization mode {mode!r}")

    def count(self, t) -> int:
        return int(self.counts[self.space.encode(t)])

    def frequencies(self) -> TypeDistribution:
        """Empirical type distribution counts/N (a probability measure)."""
        return TypeDistribution._from_dense(self.space, self.counts / self.N)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PopulationState)
            and self.space == other.space
            and bool((self.counts == other.counts).all())
        )

    def __repr__(self) -> str:
        return f"PopulationState(N={self.N}, types={int((self.counts > 0).sum())})"


def _model_arrays(d: RecombinationDistribution, space: TypeSpace):
    """Kernel inputs of a model acting on a population's type space."""
    if d.ground != space.sites:
        raise DomainError(
            f"model sites {d.ground} do not match the population's {space.sites}"
        )
    masks, probs = d.event_arrays()
    return masks, probs, space.places, space.alphabet_sizes


# --------------------------------------------------------------------------
# forward model
# --------------------------------------------------------------------------


def simulate_moran(
    d: RecombinationDistribution, z0: PopulationState, t_end: float, seed: int
) -> PopulationState:
    """One forward run; population size is conserved by construction."""
    out = simulate_moran_grid(d, z0, [t_end], seed)
    return PopulationState(z0.space, out[0, 0])


def simulate_moran_grid(
    d: RecombinationDistribution,
    z0: PopulationState,
    t_grid: Iterable[float],
    seed: int,
    replicates: int = 1,
    multinomial_from: TypeDistribution | None = None,
    first_replicate: int = 0,
) -> np.ndarray:
    """Counts at each grid time for each replicate: (reps, times, types).

    Replicate r draws from a stream keyed by (seed, r); the batch holds
    replicates first_replicate, first_replicate + 1, ...  With multinomial_from,
    every replicate redraws its initial population from that distribution
    (size N of z0); otherwise all replicates start exactly at z0.
    """
    times = check_grid(t_grid)
    first_replicate = check_count(
        first_replicate, "first replicate", minimum=0, maximum=LAST_REPLICATE
    )
    replicates = check_count(
        replicates, "replicate count", maximum=LAST_REPLICATE + 1 - first_replicate
    )
    masks, probs, places, sizes = _model_arrays(d, z0.space)
    w0 = None
    if multinomial_from is not None:
        if multinomial_from.space != z0.space:
            raise DomainError("initial distribution lives on a different space")
        w0 = multinomial_from.to_array()
        total = w0.sum()
        if total <= 0:
            raise DomainError("cannot initialize from a zero-mass distribution")
        w0 = w0 / total
    return _kernels.moran_batch(
        z0.counts, places, sizes, masks, probs, d.mu, times, seed, replicates,
        rep_lo=first_replicate, multinomial_from=w0,
    )


def moran_event_counts(
    d: RecombinationDistribution, z0: PopulationState, n_events: int, seed: int
) -> np.ndarray:
    """(dying type, offspring type) frequency table of single events.

    The population is reset to z0 before each event, so dividing by
    n_events estimates the per-event transition law out of z0 for
    comparison against the exact jump rates.
    """
    n_events = check_count(n_events, "event count")
    masks, probs, places, sizes = _model_arrays(d, z0.space)
    return _kernels.moran_event_pairs(
        z0.counts, places, sizes, masks, probs, seed, n_events
    )


@dataclass
class LlnReport:
    """Mean distance of empirical frequencies to the deterministic flow."""

    t: float
    replicates: int
    population_sizes: list[int]
    mean_tv: list[float]
    sd_tv: list[float]
    slope: float

    def to_dict(self) -> dict:
        return asdict(self)


def lln_report(
    d: RecombinationDistribution,
    w0: TypeDistribution,
    t: float,
    population_sizes: Iterable[int],
    replicates: int,
    seed: int,
) -> LlnReport:
    """Empirical convergence of Z_t/N to the deterministic solution.

    For each population size N, every replicate initializes multinomially
    from w0, runs to time t, and measures the total variation distance of
    its type frequencies to the exactly solved state.  Replicate streams
    are shared across the N values (common random numbers), which makes
    the decrease in N directly comparable.  The slope is the least-squares
    fit of log mean-TV against log N (about -1/2 for sqrt(N) scaling).
    """
    from .dynamics import solve_exact

    sizes_list = [check_count(n, "population size") for n in population_sizes]
    if not sizes_list:
        raise DomainError("need at least one population size")
    replicates = check_count(replicates, "replicate count", maximum=LAST_REPLICATE + 1)
    check_time(t)
    _require_prob(w0)
    target = solve_exact(d, w0, t, method="semigroup").to_array()
    masks, probs, places, sizes = _model_arrays(d, w0.space)
    w0_arr = w0.to_array()
    means: list[float] = []
    sds: list[float] = []
    for n_pop in sizes_list:
        tv = _kernels.moran_tv_batch(
            w0_arr, target, n_pop, places, sizes, masks, probs, d.mu, t, seed, replicates
        )
        means.append(float(tv.mean()))
        sds.append(float(tv.std(ddof=1)) if replicates > 1 else 0.0)
    if len(sizes_list) > 1:
        slope = float(
            np.polyfit(np.log(np.array(sizes_list, float)), np.log(means), 1)[0]
        )
    else:
        slope = math.nan
    return LlnReport(float(t), replicates, sizes_list, means, sds, slope)


def _require_prob(w: TypeDistribution) -> None:
    if not w.is_dense:
        raise SizeCapError("simulation needs a dense type space")
    if abs(w.mass - 1.0) > 1e-9:
        raise DomainError(f"initial distribution has mass {w.mass!r}, expected 1")


# --------------------------------------------------------------------------
# backward model
# --------------------------------------------------------------------------


class AncestralState:
    """Site fragments with the label of the ancestor carrying each.

    The fragments partition the site set and only ever refine over
    backward time; labels merge when fragments coalesce into a shared
    ancestor, so distinct labels count ancestral individuals.
    """

    __slots__ = ("ground", "blocks")

    def __init__(self, ground: tuple[int, ...], blocks: list[tuple[tuple[int, ...], int]]):
        seen: set[int] = set()
        for sites, _ in blocks:
            for s in sites:
                if s in seen:
                    raise DomainError(f"site {s} in two fragments")
                seen.add(s)
        if seen != set(ground):
            raise DomainError("fragments must cover the ground set exactly")
        self.ground = ground
        self.blocks = sorted(
            ((tuple(sorted(sites)), int(label)) for sites, label in blocks),
            key=lambda bl: bl[0][0],
        )

    @property
    def n_ancestors(self) -> int:
        return len({label for _, label in self.blocks})

    def site_partition(self) -> Partition:
        """The fragment partition (ignoring which ancestor holds what)."""
        return Partition([sites for sites, _ in self.blocks])

    def ancestor_partition(self) -> Partition:
        """Sites grouped by the ancestral individual carrying them."""
        merged: dict[int, list[int]] = {}
        for sites, label in self.blocks:
            merged.setdefault(label, []).extend(sites)
        return Partition(merged.values())

    def __repr__(self) -> str:
        body = ", ".join(
            f"{','.join(map(str, sites))}#{label}" for sites, label in self.blocks
        )
        return f"AncestralState({body})"


def simulate_arg(
    d: RecombinationDistribution, N: int, t_end: float, seed: int, replicate: int = 0
) -> AncestralState:
    """One backward run from a single individual carrying every site."""
    N = check_count(N, "population size")
    replicate = check_count(replicate, "replicate", minimum=0, maximum=LAST_REPLICATE)
    check_time(t_end)
    masks, probs = d.event_arrays()
    frag_mask, frag_owner, m = _kernels.arg_state(
        masks, probs, d.mu, d.n_sites, N, t_end, seed, replicate
    )
    # compact owner indices to first-occurrence labels for stable output
    relabel: dict[int, int] = {}
    blocks = []
    order = sorted(range(len(frag_mask)), key=lambda f: int(frag_mask[f] & -frag_mask[f]))
    for f in order:
        owner = int(frag_owner[f])
        label = relabel.setdefault(owner, len(relabel))
        sites = tuple(
            d.ground[i] for i in range(d.n_sites) if (int(frag_mask[f]) >> i) & 1
        )
        blocks.append((sites, label))
    state = AncestralState(d.ground, blocks)
    assert state.n_ancestors == m
    return state


def arg_replicates(
    d: RecombinationDistribution, N: int, t_end: float, seed: int, n_replicates: int,
    first_replicate: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward runs first_replicate, ...: per-replicate site labels and ancestor counts."""
    N = check_count(N, "population size")
    first_replicate = check_count(
        first_replicate, "first replicate", minimum=0, maximum=LAST_REPLICATE
    )
    n_replicates = check_count(
        n_replicates, "replicate count", maximum=LAST_REPLICATE + 1 - first_replicate
    )
    check_time(t_end)
    masks, probs = d.event_arrays()
    return _kernels.arg_batch(
        masks, probs, d.mu, d.n_sites, N, t_end, seed, n_replicates, rep_lo=first_replicate
    )


def arg_partition_frequencies(
    d: RecombinationDistribution, N: int, t_end: float, seed: int, n_replicates: int
) -> dict[Partition, int]:
    """Sample counts of the backward site partition (labels ignored)."""
    rows, _ = arg_replicates(d, N, t_end, seed, n_replicates)
    partitions, _, counts = count_label_rows(rows, d.ground)
    return dict(zip(partitions, counts.tolist()))


def ancestry_reconstruct(
    d: RecombinationDistribution, z0: PopulationState, t: float, seed: int
) -> tuple[int, ...]:
    """Type of one present-day individual assembled from its ancestry.

    Runs the backward process over [0, t], assigns each ancestral
    individual a founder drawn without replacement from z0, and copies
    the founder's letters fragment by fragment.
    """
    counts = reconstruct_replicates(d, z0, t, seed, 1)
    return z0.space.decode(int(counts[0]))


def reconstruct_replicates(
    d: RecombinationDistribution, z0: PopulationState, t: float, seed: int, n_replicates: int
) -> np.ndarray:
    """Flat type indices of n_replicates independent reconstructions."""
    check_time(t)
    n_replicates = check_count(n_replicates, "replicate count", maximum=LAST_REPLICATE + 1)
    masks, probs, places, sizes = _model_arrays(d, z0.space)
    return _kernels.reconstruct_batch(
        masks, probs, d.mu, d.n_sites, z0.N, t, seed, n_replicates,
        z0.counts, places, sizes,
    )
