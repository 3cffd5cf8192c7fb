"""Recombination distributions and their marginalization to site subsets.

A model is a per-individual event rate ``mu`` together with probabilities
r(A) on two-block partitions of the site set; the residual 1 - sum r(A) is
the probability that an event copies a single parent unchanged (the
one-block partition).  Rates are rho(A) = mu * r(A).

Entries are kept in *event order* (``Partition.sort_key``), put once at
construction; ``mu`` (from rates), the residual, the split tables and
``event_arrays`` follow it, so no result depends on the order entries come in.

Marginal rates on a subset u sum rho over all partitions restricting to a
given partition of u; only the stored support is enumerated, which keeps
sparse models (e.g. single crossover, n-1 entries) cheap.

The lattice layer works on site bitmasks (bit i: the i-th ground site) and
mask states (see :mod:`.partitions`): ``split_table`` computes the marginal
rates per subset mask, ``children`` is the refinement step on it and
``exit_rate`` is the one owner of exit rates.  The model memoizes nothing:
a builder that reads many tables takes ``_memoized()``, a view that keeps
its own tables for the builder's run and is dropped with it.
``block_split_rates``, ``split_rate`` and ``marginal_rate`` convert site
tuples and ``Partition`` objects at the edge and read the same table.  The model keeps only its
rates: the states the refinement process visits belong to
:mod:`.ancestral`.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    ConfigError, DomainError, config_real, expect_mapping, positive_int, reject_unknown,
)
from .partitions import Partition, cut_partition

_SUM_TOL = 1e-9


@functools.lru_cache(maxsize=16)
def _cuts(n: int) -> tuple[Partition, ...]:
    """The n - 1 cut partitions of 1..n, shared by the single-crossover models
    on them."""
    return tuple(cut_partition(n, k) for k in range(1, n))


def _in_event_order(entries: Mapping[Partition, float]) -> list[tuple[Partition, float]]:
    """The (partition, value) pairs in event order (``Partition.sort_key``)."""
    return sorted(entries.items(), key=lambda kv: kv[0].sort_key())


class RecombinationDistribution:
    """Event rate mu plus probabilities on two-block site partitions."""

    __slots__ = ("ground", "mu", "entries", "style", "_masks")

    def __init__(
        self,
        ground: Iterable[int],
        mu: float,
        entries: Mapping[Partition, float],
        style: str = "probability",
    ):
        self.ground = tuple(sorted(ground))
        if not self.ground:
            raise DomainError("ground set must be nonempty")
        self.mu = float(mu)
        if not 0 < self.mu < math.inf:
            raise DomainError(f"mu must be positive and finite, got {self.mu}")
        if style not in ("probability", "rate"):
            raise DomainError(f"unknown style {style!r}")
        self.style = style
        clean: dict[Partition, float] = {}
        for a, r in _in_event_order(entries):
            if a.ground != self.ground:
                raise DomainError(
                    f"entry {a.to_text()} is not a partition of {self.ground}"
                )
            if a.n_blocks != 2:
                raise DomainError(
                    f"entry {a.to_text()} has {a.n_blocks} blocks; exactly 2 required"
                )
            r = float(r)
            if not 0 <= r < math.inf:
                raise DomainError(
                    f"probability {r} for {a.to_text()} must be nonnegative and finite"
                )
            if r > 0:
                clean[a] = r
        total = sum(clean.values())
        if total > 1.0 + _SUM_TOL:
            raise DomainError(
                f"two-block probabilities sum to {total}, which exceeds 1"
            )
        self.entries = clean
        # block-1 mask of each entry, in event order
        self._masks = tuple(a.as_masks()[0] for a in clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_probabilities(
        cls, ground: Iterable[int], mu: float, entries: Mapping[Partition, float]
    ) -> "RecombinationDistribution":
        return cls(ground, mu, entries, style="probability")

    @classmethod
    def from_rates(
        cls,
        ground: Iterable[int],
        rates: Mapping[Partition, float],
        residual_rate: float = 0.0,
    ) -> "RecombinationDistribution":
        """Build from rates rho(A) plus the rate of copy-unchanged events.

        mu is the implied total; probabilities are rho(A)/mu.
        """
        residual_rate = float(residual_rate)
        if not 0 <= residual_rate < math.inf:
            raise DomainError(
                f"residual rate must be nonnegative and finite, got {residual_rate}"
            )
        ordered = _in_event_order(rates)
        for a, v in ordered:
            if not 0 <= float(v) < math.inf:
                raise DomainError(f"rate {v} for {a.to_text()} must be nonnegative and finite")
        mu = sum(float(v) for _, v in ordered) + residual_rate
        if not mu > 0:
            raise DomainError("all rates zero: total event rate must be positive")
        probs = {a: float(v) / mu for a, v in ordered}
        return cls(ground, mu, probs, style="rate")

    @classmethod
    def single_crossover(
        cls, cut_rates: Iterable[float], residual_rate: float = 0.0
    ) -> "RecombinationDistribution":
        """Model on n = len(cut_rates) + 1 sites with one rate per cut.

        cut_rates[k-1] is the rate of the split {1..k | k+1..n}.
        """
        cut_rates = [float(v) for v in cut_rates]
        n = len(cut_rates) + 1
        if n < 2:
            raise DomainError("single crossover needs at least one cut rate")
        return cls.from_rates(range(1, n + 1), dict(zip(_cuts(n), cut_rates)), residual_rate)

    # -- elementary queries ------------------------------------------------

    @property
    def n_sites(self) -> int:
        return len(self.ground)

    @property
    def residual_probability(self) -> float:
        return max(0.0, 1.0 - sum(self.entries.values()))

    def probability(self, a: Partition) -> float:
        """r(a) for two-block a; the residual for the one-block partition."""
        if a.ground != self.ground:
            raise DomainError(f"{a.to_text()} is not a partition of {self.ground}")
        if a.n_blocks == 1:
            return self.residual_probability
        if a.n_blocks == 2:
            return self.entries.get(a, 0.0)
        raise DomainError(
            f"{a.to_text()} has {a.n_blocks} blocks; recombination events have at most 2"
        )

    def rate(self, a: Partition) -> float:
        """rho(a) = mu * r(a); defined for partitions with at most 2 blocks."""
        return self.mu * self.probability(a)

    def support(self) -> Iterator[tuple[Partition, float]]:
        """(partition, probability) over the stored two-block entries."""
        return iter(self.entries.items())

    def event_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The support as kernel input: block-1 masks and probabilities.

        Entries in event order, as stored; bit i of a mask is the i-th site
        of the sorted ground set.  Rates are ``probs * mu``.
        """
        masks = np.array(self._masks, dtype=np.int64)
        probs = np.array(list(self.entries.values()), dtype=np.float64)
        return masks, probs

    # -- marginalization -------------------------------------------------

    def site_mask(self, sites: Iterable[int]) -> int:
        """Bitmask of a nonempty site subset (bit i: the i-th ground site)."""
        uu = sorted(set(sites))
        if not uu:
            raise DomainError("site subset must be nonempty")
        if not set(uu).issubset(self.ground):
            raise DomainError(f"{uu} is not a subset of {self.ground}")
        return sum(1 << self.ground.index(s) for s in uu)

    def split_table(self, u: int) -> tuple[float, tuple[tuple[int, int, float], ...]]:
        """Marginal event rates on the site subset with mask u.

        Returns (stay, splits): the rate of events keeping u whole (residual
        included), and (part holding u's lowest site, rest, rho^u) for each
        two-block restriction, summed in event order.
        """
        low = u & -u
        stay = self.mu * self.residual_probability
        rates: dict[int, float] = {}
        for m, r in zip(self._masks, self.entries.values()):
            part = u & m
            if part == 0 or part == u:
                stay += self.mu * r
            else:
                part = part if part & low else u ^ part
                rates[part] = rates.get(part, 0.0) + self.mu * r
        return stay, tuple((p, u ^ p, rate) for p, rate in rates.items())

    def _memoized(self) -> "_SplitMemo":
        """A view of this model that memoizes its split tables; a builder
        holds one for its run, so no table outlives the builder."""
        view = object.__new__(_SplitMemo)
        for name in RecombinationDistribution.__slots__:
            setattr(view, name, getattr(self, name))
        view._tables = {}
        return view

    def children(self, state: tuple[int, ...]):
        """The refinement step: (child state, rate) per block split, blocks
        in state order and splits in ``split_table`` order.

        The part holding a block's lowest site takes the block's place and
        the other part goes in by its lowest site, so each child is the
        canonical ``mask_state`` of its blocks.
        """
        lows = [m & -m for m in state]
        for i, block in enumerate(state):
            head, tail = state[:i], state[i + 1:]
            for p1, p2, rate in self.split_table(block)[1]:
                j = bisect.bisect(lows, p2 & -p2, i + 1) - i - 1
                yield head + (p1,) + tail[:j] + (p2,) + tail[j:], rate

    def marginal_rate(self, u: Iterable[int], b: Partition) -> float:
        """Sum of rho(A) over all events A whose restriction to u equals b."""
        uu = tuple(sorted(set(u)))
        stay, _ = self.split_table(self.site_mask(uu))
        if b.ground != uu:
            raise DomainError(f"{b.to_text()} is not a partition of {list(uu)}")
        if b.n_blocks > 2:
            raise DomainError(
                f"{b.to_text()} has {b.n_blocks} blocks; marginals live on <= 2"
            )
        return stay if b.n_blocks == 1 else self.block_split_rates(uu).get(b, 0.0)

    def marginal_probability(self, u: Iterable[int], b: Partition) -> float:
        """r^u(b) = marginal_rate / mu (same sum with r in place of rho)."""
        return self.marginal_rate(u, b) / self.mu

    def block_split_rates(self, u: Iterable[int]) -> dict[Partition, float]:
        """All two-block marginal rates on u with positive mass.

        Keys are two-block partitions of u; values are rho^u, read from
        ``split_table``.
        """
        _, splits = self.split_table(self.site_mask(u))
        return {Partition.from_masks(pair, self.ground): rate for *pair, rate in splits}

    def exit_rate(self, state: tuple[int, ...]) -> float:
        """Total rate at which some block of a mask state splits into two;
        ``split_rate``, ``ancestral.exit_rate`` and ``PsiTheta.psi`` wrap it."""
        per_block = (sum(rate for _, _, rate in self.split_table(b)[1]) for b in state)
        return float(sum(per_block))

    def split_rate(self, u: Iterable[int]) -> float:
        """Total rate at which the subset u is separated into two parts."""
        return self.exit_rate((self.site_mask(u),))

    # -- structure tests ---------------------------------------------------

    def is_single_crossover(self) -> bool:
        """True iff every supported event is an interval split {1..k | k+1..n}."""
        n = self.n_sites
        if self.ground != tuple(range(1, n + 1)):
            return False
        return all(a.is_interval() for a in self.entries)

    def cut_rate(self, k: int) -> float:
        """rho of the cut after site k (single-crossover convenience)."""
        return self.rate(cut_partition(self.n_sites, k))

    def unseparated_adjacent_pairs(self) -> list[tuple[int, int]]:
        """Adjacent site pairs no event ever separates.

        Sites in such a pair stay perfectly linked forever, so long-time
        convergence to the full product of single-site marginals cannot
        hold; callers surface this as a model warning rather than silently
        merging the sites.
        """
        out = []
        for a, b in zip(self.ground, self.ground[1:]):
            if self.split_rate((a, b)) == 0.0:
                out.append((a, b))
        return out

    # -- config glue ------------------------------------------------------

    @classmethod
    def from_config(cls, cfg: Mapping, path: str = "recombination") -> "RecombinationDistribution":
        """Parse the JSON config block.

        Probability style: {"n": 3, "mu": 1.0, "style": "probability",
        "entries": [{"partition": "1|2,3", "value": 0.3}, ...]}.
        Rate style replaces mu with an optional "residual_rate".
        """
        expect_mapping(cfg, path)
        reject_unknown(cfg, ("n", "mu", "style", "entries", "residual_rate"), path)
        if "n" not in cfg:
            raise ConfigError(f"{path}.n: required positive integer")
        n = positive_int(cfg["n"], f"{path}.n")
        style = cfg.get("style")
        if style not in ("probability", "rate"):
            raise ConfigError(
                f"{path}.style: must be 'probability' or 'rate', got {style!r}"
            )
        raw = cfg.get("entries", [])
        if not isinstance(raw, list):
            raise ConfigError(f"{path}.entries: expected a list")
        entries: dict[Partition, float] = {}
        ground = tuple(range(1, n + 1))
        for i, item in enumerate(raw):
            ipath = f"{path}.entries[{i}]"
            reject_unknown(expect_mapping(item, ipath), ("partition", "value"), ipath)
            try:
                part = Partition.from_text(str(item["partition"]))
            except (KeyError, DomainError) as exc:
                raise ConfigError(f"{ipath}.partition: {exc}") from None
            if "value" not in item:
                raise ConfigError(f"{ipath}.value: required real number")
            value = config_real(item["value"], f"{ipath}.value")
            if part.ground != ground:
                raise ConfigError(
                    f"{ipath}.partition: {part.to_text()} is not a partition of 1..{n}"
                )
            if part in entries:
                raise ConfigError(f"{ipath}.partition: duplicate {part.to_text()}")
            entries[part] = value
        try:
            if style == "probability":
                if "residual_rate" in cfg:
                    raise ConfigError(
                        f"{path}.residual_rate: only valid with style 'rate'"
                    )
                if "mu" not in cfg:
                    raise ConfigError(f"{path}.mu: required positive real")
                mu = config_real(cfg["mu"], f"{path}.mu")
                return cls.from_probabilities(ground, mu, entries)
            if "mu" in cfg:
                raise ConfigError(f"{path}.mu: only valid with style 'probability'")
            residual = config_real(cfg.get("residual_rate", 0.0), f"{path}.residual_rate")
            return cls.from_rates(ground, entries, residual)
        except DomainError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def to_config(self) -> dict:
        if self.style == "probability":
            return {
                "n": self.n_sites,
                "mu": self.mu,
                "style": "probability",
                "entries": [
                    {"partition": a.to_text(), "value": r} for a, r in self.entries.items()
                ],
            }
        return {
            "n": self.n_sites,
            "style": "rate",
            "entries": [
                {"partition": a.to_text(), "value": self.mu * r} for a, r in self.entries.items()
            ],
            "residual_rate": self.mu * self.residual_probability,
        }

    def __repr__(self) -> str:
        return (
            f"RecombinationDistribution(n={self.n_sites}, mu={self.mu:.6g}, "
            f"{len(self.entries)} entries)"
        )


class _SplitMemo(RecombinationDistribution):
    """A model whose ``split_table`` computes each subset's table once
    (see ``RecombinationDistribution._memoized``)."""

    __slots__ = ("_tables",)

    def split_table(self, u: int) -> tuple[float, tuple[tuple[int, int, float], ...]]:
        table = self._tables.get(u)
        if table is None:
            table = self._tables[u] = super().split_table(u)
        return table
