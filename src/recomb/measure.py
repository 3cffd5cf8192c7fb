"""Finite measures on product type spaces.

A type space is a product X = X_1 x ... x X_n of finite alphabets, one per
site.  Types are tuples of letter indices.  Distributions are stored as a
dense flat float64 array in row-major mixed-radix order (site 1 is the most
significant digit) when the total cardinality fits under ``DENSE_CAP``, and
as a sparse dict above it.

Operations never renormalize silently; :meth:`TypeDistribution.normalize`
is the explicit utility for drift control in integrators.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DomainError, SizeCapError, check_count
from .partitions import Partition

#: widest product space kept as a dense array (2^20 float64 = 8 MiB).
DENSE_CAP = 2 ** 20


class TypeSpace:
    """A product of finite alphabets, one alphabet per site (sites 1..n)."""

    __slots__ = ("alphabet_sizes", "cardinality", "places", "dense")

    def __init__(self, alphabet_sizes: Iterable[int]):
        sizes = tuple(
            s if type(s) is int and s >= 1 else check_count(s, "alphabet size")
            for s in alphabet_sizes
        )
        if not sizes:
            raise DomainError("type space needs at least one site")
        self._set_sizes(sizes)

    @classmethod
    def _of_whole(cls, sizes: tuple[int, ...]) -> "TypeSpace":
        """A space from sizes already known to be ints >= 1 (no checks)."""
        obj = object.__new__(cls)
        obj._set_sizes(sizes)
        return obj

    def _set_sizes(self, sizes: tuple[int, ...]) -> None:
        self.alphabet_sizes = sizes
        card = 1
        for s in sizes:
            card *= s
        self.cardinality = card
        places = [1] * len(sizes)
        for i in range(len(sizes) - 2, -1, -1):
            places[i] = places[i + 1] * sizes[i + 1]
        self.places = tuple(places)
        self.dense = card <= DENSE_CAP

    @property
    def n_sites(self) -> int:
        return len(self.alphabet_sizes)

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.alphabet_sizes) + 1))

    def validate_type(self, t) -> tuple[int, ...]:
        t = tuple(int(x) for x in t)
        if len(t) != self.n_sites:
            raise DomainError(f"type {t} has {len(t)} sites, space has {self.n_sites}")
        for x, size in zip(t, self.alphabet_sizes):
            if not 0 <= x < size:
                raise DomainError(f"letter {x} out of range for alphabet of size {size}")
        return t

    def encode(self, t) -> int:
        """Flat index of a type tuple (site 1 most significant)."""
        t = self.validate_type(t)
        return sum(x * p for x, p in zip(t, self.places))

    def decode(self, idx: int) -> tuple[int, ...]:
        if not 0 <= idx < self.cardinality:
            raise DomainError(f"flat index {idx} out of range [0, {self.cardinality})")
        out = []
        for p in self.places:
            out.append(idx // p)
            idx %= p
        return tuple(out)

    def types(self) -> Iterator[tuple[int, ...]]:
        """All types in flat-index order (only sensible for dense spaces)."""
        if not self.dense:
            raise SizeCapError(
                f"refusing to enumerate {self.cardinality} types (> {DENSE_CAP})"
            )
        return itertools.product(*(range(s) for s in self.alphabet_sizes))

    def subspace(self, sites: Iterable[int]) -> "TypeSpace":
        """Type space of the listed sites, kept in ascending site order."""
        ss = sorted(set(sites))
        if not ss:
            raise DomainError("subspace needs a nonempty site set")
        for s in ss:
            if not 1 <= s <= self.n_sites:
                raise DomainError(f"site {s} not in 1..{self.n_sites}")
        return TypeSpace._of_whole(tuple(self.alphabet_sizes[s - 1] for s in ss))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TypeSpace) and self.alphabet_sizes == other.alphabet_sizes

    def __hash__(self) -> int:
        return hash(self.alphabet_sizes)

    def __repr__(self) -> str:
        return f"TypeSpace({list(self.alphabet_sizes)})"


def _check_mass(t, v) -> float:
    """The mass v at type t as a float; refuses negative and non-finite ones."""
    v = float(v)
    if v < 0:
        raise DomainError(f"negative mass {v} at type {t}")
    if not v < np.inf:  # NaN and +inf
        raise DomainError(f"mass {v} at type {t} is not finite")
    return v


class TypeDistribution:
    """A nonnegative finite measure on a :class:`TypeSpace`.

    Immutable; every operation returns a fresh distribution.  Probability
    semantics (mass 1) are checked by callers where required, never forced.
    """

    __slots__ = ("space", "_dense", "_sparse")

    def __init__(self, space: TypeSpace, weights: Mapping[tuple, float]):
        self.space = space
        if space.dense:
            arr = np.zeros(space.cardinality)
            for t, v in weights.items():
                v = _check_mass(t, v)
                arr[space.encode(t)] += v
            self._dense = arr
            self._sparse = None
        else:
            d: dict[tuple[int, ...], float] = {}
            for t, v in weights.items():
                v = _check_mass(t, v)
                if v != 0.0:
                    tt = space.validate_type(t)
                    d[tt] = d.get(tt, 0.0) + v
            self._dense = None
            self._sparse = d

    # -- alternate constructors ------------------------------------------

    @classmethod
    def _from_dense(cls, space: TypeSpace, arr: np.ndarray) -> "TypeDistribution":
        obj = object.__new__(cls)
        obj.space = space
        obj._dense = arr
        obj._sparse = None
        return obj

    @classmethod
    def _from_sparse(cls, space: TypeSpace, d: dict) -> "TypeDistribution":
        obj = object.__new__(cls)
        obj.space = space
        obj._dense = None
        obj._sparse = d
        return obj

    @classmethod
    def uniform(cls, space: TypeSpace) -> "TypeDistribution":
        """Probability distribution with equal mass on every type."""
        if space.dense:
            return cls._from_dense(
                space, np.full(space.cardinality, 1.0 / space.cardinality)
            )
        raise SizeCapError(
            f"uniform distribution on {space.cardinality} types is not representable sparsely"
        )

    @classmethod
    def dirac(cls, space: TypeSpace, t) -> "TypeDistribution":
        """Unit point mass at one type."""
        return cls(space, {tuple(t): 1.0})

    @classmethod
    def from_pairs(cls, space: TypeSpace, pairs: Iterable[tuple]) -> "TypeDistribution":
        """Build from an iterable of (type tuple, mass) pairs."""
        d: dict[tuple, float] = {}
        for t, v in pairs:
            t = tuple(t)
            d[t] = d.get(t, 0.0) + float(v)
        return cls(space, d)

    # -- elementwise access --------------------------------------------

    @property
    def is_dense(self) -> bool:
        return self._dense is not None

    def to_array(self) -> np.ndarray:
        """Flat dense weight array (copy); dense storage only."""
        if self._dense is None:
            raise SizeCapError("distribution is stored sparsely; no dense array")
        return self._dense.copy()

    def weight(self, t) -> float:
        t = self.space.validate_type(t)
        if self._dense is not None:
            return float(self._dense[self.space.encode(t)])
        return self._sparse.get(t, 0.0)

    def items(self) -> Iterator[tuple[tuple[int, ...], float]]:
        """Iterate (type, mass) over the support."""
        if self._dense is not None:
            for idx in np.nonzero(self._dense)[0]:
                yield self.space.decode(int(idx)), float(self._dense[idx])
        else:
            yield from self._sparse.items()

    @property
    def mass(self) -> float:
        if self._dense is not None:
            return float(self._dense.sum())
        return float(sum(self._sparse.values()))

    # -- measure operations ------------------------------------------------

    def marginal(self, sites: Iterable[int]) -> "TypeDistribution":
        """Push forward along the projection onto a nonempty site subset."""
        ss = tuple(sorted(set(sites)))
        if not ss:
            raise DomainError("marginal needs a nonempty site set")
        for s in ss:
            if not 1 <= s <= self.space.n_sites:
                raise DomainError(f"site {s} not in 1..{self.space.n_sites}")
        if ss == self.space.sites:
            return self
        sub = self.space.subspace(ss)
        if self._dense is not None:
            nd = self._dense.reshape(self.space.alphabet_sizes)
            drop = tuple(i for i in range(self.space.n_sites) if (i + 1) not in ss)
            return TypeDistribution._from_dense(sub, nd.sum(axis=drop).ravel())
        keep = [s - 1 for s in ss]
        d: dict[tuple[int, ...], float] = {}
        for t, v in self._sparse.items():
            key = tuple(t[i] for i in keep)
            d[key] = d.get(key, 0.0) + v
        return TypeDistribution._from_sparse(sub, d)

    def product_over_blocks(self, a: Partition) -> "TypeDistribution":
        """Recombine along a partition of the site set.

        Returns the product of the block marginals scaled by
        mass^-(m-1) where m is the block count, so total mass is
        preserved; with one block this is the identity, and the zero
        measure maps to itself.
        """
        if a.ground != self.space.sites:
            raise DomainError(
                f"partition ground {a.ground} does not match sites {self.space.sites}"
            )
        if a.n_blocks == 1:
            return self
        total = self.mass
        if total == 0.0:
            return self
        if self._dense is not None:
            return TypeDistribution._from_dense(self.space, self._block_product(a, total, {}))
        scale = total ** (a.n_blocks - 1)
        block_items = []
        for b in a.blocks:
            marg = self.marginal(b)
            block_items.append([(b, t, v) for t, v in marg._sparse.items()])
        d: dict[tuple[int, ...], float] = {}
        buf = [0] * self.space.n_sites
        for combo in itertools.product(*block_items):
            w = 1.0
            for b, t, v in combo:
                w *= v
                for site, letter in zip(b, t):
                    buf[site - 1] = letter
            d[tuple(buf)] = w / scale
        return TypeDistribution._from_sparse(self.space, d)

    def _block_product(self, a: Partition, total: float, margs: dict) -> np.ndarray:
        """Flat dense product of the block marginals of `a` over
        total^(m-1), for m >= 2 blocks and the nonzero mass `total`.

        `margs` memoizes each block's marginal, shaped to broadcast over
        the full space, across calls on the same distribution.
        """
        sizes = self.space.alphabet_sizes
        nd = None
        for b in a.blocks:
            marg = margs.get(b)
            if marg is None:
                shape = tuple(s if (i + 1) in b else 1 for i, s in enumerate(sizes))
                marg = margs[b] = self.marginal(b)._dense.reshape(shape)
            nd = marg if nd is None else nd * marg
        return nd.ravel() / total ** (a.n_blocks - 1)

    def _gaps(self, other: "TypeDistribution", what: str) -> np.ndarray:
        """|self - other| pointwise: over the whole space when both are
        dense, else over the union of the two supports."""
        if self.space != other.space:
            raise DomainError(f"{what} requires a common type space")
        if self._dense is not None and other._dense is not None:
            return np.abs(self._dense - other._dense)
        keys = {t for t, _ in self.items()} | {t for t, _ in other.items()}
        return np.array([abs(self.weight(t) - other.weight(t)) for t in keys])

    def total_variation_distance(self, other: "TypeDistribution") -> float:
        """Half the L1 distance; in [0, 1] for probability distributions."""
        return 0.5 * float(self._gaps(other, "total variation").sum())

    # -- utilities ----------------------------------------------------------

    def normalize(self) -> "TypeDistribution":
        """Rescale to total mass 1 (explicit; nothing else renormalizes)."""
        total = self.mass
        if total <= 0.0:
            raise DomainError("cannot normalize a measure with zero mass")
        return self.scaled(1.0 / total)

    def scaled(self, factor: float) -> "TypeDistribution":
        if factor < 0:
            raise DomainError("scale factor must be nonnegative")
        if self._dense is not None:
            return TypeDistribution._from_dense(self.space, self._dense * factor)
        return TypeDistribution._from_sparse(
            self.space, {t: v * factor for t, v in self._sparse.items()}
        )

    def mixed_with(self, other: "TypeDistribution", weight_other: float) -> "TypeDistribution":
        """Convex-style combination (1 - w) * self + w * other."""
        if self.space != other.space:
            raise DomainError("mixture requires a common type space")
        if self._dense is not None and other._dense is not None:
            return TypeDistribution._from_dense(
                self.space, (1.0 - weight_other) * self._dense + weight_other * other._dense
            )
        d: dict[tuple[int, ...], float] = {}
        for t, v in self.items():
            d[t] = d.get(t, 0.0) + (1.0 - weight_other) * v
        for t, v in other.items():
            d[t] = d.get(t, 0.0) + weight_other * v
        return TypeDistribution._from_sparse(self.space, d)

    def allclose(self, other: "TypeDistribution", atol: float = 1e-12) -> bool:
        return self.sup_distance(other) <= atol

    def sup_distance(self, other: "TypeDistribution") -> float:
        """Max absolute pointwise difference."""
        return float(self._gaps(other, "sup distance").max(initial=0.0))

    def __repr__(self) -> str:
        kind = "dense" if self._dense is not None else "sparse"
        return f"TypeDistribution({self.space!r}, {kind}, mass={self.mass:.6g})"


# -- module-level op spellings used throughout tests and the solvers -------

def marginal(w: TypeDistribution, sites: Iterable[int]) -> TypeDistribution:
    return w.marginal(sites)


def product_over_blocks(w: TypeDistribution, a: Partition) -> TypeDistribution:
    return w.product_over_blocks(a)


def total_variation_distance(w1: TypeDistribution, w2: TypeDistribution) -> float:
    return w1.total_variation_distance(w2)


def product_of_marginals(w: TypeDistribution) -> TypeDistribution:
    """Product of all single-site marginals (the t -> infinity limit)."""
    return w.product_over_blocks(Partition.singletons(w.space.sites))
