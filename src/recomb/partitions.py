"""Set partitions of a finite site set and their refinement lattice.

Partitions are stored in canonical form (each block sorted ascending,
blocks sorted by their minimum element), which makes equality, hashing
and the text encoding ``1,2|3,4`` unambiguous.  The lattice order used
throughout is refinement: ``a`` refines ``b`` when every block of ``a``
lies inside a block of ``b``; the meet is the coarsest common refinement.

The exact-lattice code uses the *mask state* ``tuple(p.as_masks())``: block
bitmasks (bit i: the i-th ground site) in ``Partition.blocks`` order.
``PartitionIndex`` orders mask states by block count, then canonical form;
it indexes either the whole lattice (``PartitionIndex(ground)``, capped at
``DEFAULT_SITE_CAP`` sites) or a given set of states
(``PartitionIndex.from_states``, e.g. the states a model reaches).
"""

from __future__ import annotations

import functools
import itertools
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DomainError, SizeCapError

#: largest ground-set size for which exact-lattice methods will enumerate
#: all partitions by default; Bell(8) = 4140 states.
DEFAULT_SITE_CAP = 8


def bell_number(n: int) -> int:
    """Number of partitions of an n-element set (Bell triangle recurrence)."""
    if n < 0:
        raise DomainError("bell_number: n must be nonnegative")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _canonical_blocks(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    out = []
    for b in blocks:
        t = tuple(sorted(b))
        if not t:
            raise DomainError("partition blocks must be nonempty")
        out.append(t)
    out.sort(key=lambda b: b[0])
    return tuple(out)


#: Partitions of one ground set repeat the same block and ground tuples, so
#: each distinct tuple is kept once here, which keeps a 4140-state index or
#: many stored models small.  Tuples enter only after validation ((1.0, 2)
#: equals (1, 2)); the table is emptied when it reaches the cap.
_INTERN_CAP = 1 << 16
_interned: dict[tuple[int, ...], tuple[int, ...]] = {}


def _intern(t: tuple[int, ...]) -> tuple[int, ...]:
    shared = _interned.get(t)
    if shared is None:
        if len(_interned) >= _INTERN_CAP:
            _interned.clear()
        shared = _interned[t] = t
    return shared


class Partition:
    """A partition of a finite set of integer sites into disjoint blocks."""

    __slots__ = ("blocks", "ground", "_hash", "_text")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        cb = _canonical_blocks(blocks)
        seen: set[int] = set()
        for b in cb:
            for s in b:
                if not isinstance(s, int) or isinstance(s, bool) or s < 1:
                    raise DomainError(f"site indices must be positive integers, got {s!r}")
                if s in seen:
                    raise DomainError(f"site {s} appears in more than one block")
                seen.add(s)
        self.blocks: tuple[tuple[int, ...], ...] = tuple(_intern(b) for b in cb)
        self.ground: tuple[int, ...] = _intern(tuple(sorted(seen)))
        self._hash = hash(self.blocks)
        self._text: str | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def one_block(cls, ground: Iterable[int]) -> "Partition":
        """The coarsest partition of `ground` (a single block)."""
        return cls([tuple(ground)])

    @classmethod
    def singletons(cls, ground: Iterable[int]) -> "Partition":
        """The finest partition of `ground` (every site its own block)."""
        return cls([(s,) for s in ground])

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the text encoding: blocks separated by ``|``, sites by ``,``."""
        if not text.strip():
            raise DomainError("empty partition text")
        blocks = []
        for part in text.split("|"):
            sites = []
            for tok in part.split(","):
                tok = tok.strip()
                if not tok.isdigit():
                    raise DomainError(f"bad site token {tok!r} in partition text {text!r}")
                sites.append(int(tok))
            blocks.append(sites)
        return cls(blocks)

    def to_text(self) -> str:
        """Inverse of :meth:`from_text`; canonical, so it round-trips exactly.

        Built on first use and kept on the (immutable) partition.
        """
        if self._text is None:
            self._text = "|".join(",".join(str(s) for s in b) for b in self.blocks)
        return self._text

    # -- basic queries -------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self, site: int) -> tuple[int, ...]:
        for b in self.blocks:
            if site in b:
                return b
        raise DomainError(f"site {site} not in ground set {self.ground}")

    def sort_key(self) -> tuple:
        """Index order key: block count ascending, then lexicographic."""
        return (len(self.blocks), self.blocks)

    # -- lattice operations ---------------------------------------------

    def _check_same_ground(self, other: "Partition") -> None:
        if self.ground != other.ground:
            raise DomainError(
                f"ground mismatch: {self.ground} vs {other.ground}"
            )

    def refines(self, coarse: "Partition") -> bool:
        """True iff every block of self is contained in a block of `coarse`."""
        self._check_same_ground(coarse)
        owner = {s: i for i, b in enumerate(coarse.blocks) for s in b}
        for b in self.blocks:
            first = owner[b[0]]
            for s in b[1:]:
                if owner[s] != first:
                    return False
        return True

    def meet(self, other: "Partition") -> "Partition":
        """Coarsest common refinement: all nonempty pairwise intersections."""
        self._check_same_ground(other)
        blocks = []
        for a in self.blocks:
            sa = set(a)
            for b in other.blocks:
                inter = sa.intersection(b)
                if inter:
                    blocks.append(inter)
        return Partition(blocks)

    def restrict(self, sites: Iterable[int]) -> "Partition":
        """The partition induced on a nonempty subset of the ground set."""
        want = set(sites)
        if not want:
            raise DomainError("restriction target must be nonempty")
        if not want.issubset(self.ground):
            raise DomainError(f"{sorted(want)} is not a subset of {self.ground}")
        blocks = []
        for b in self.blocks:
            inter = want.intersection(b)
            if inter:
                blocks.append(inter)
        return Partition(blocks)

    # -- interval structure ----------------------------------------------

    def is_interval(self) -> bool:
        """True iff every block is a run of consecutive integers."""
        return all(b[-1] - b[0] + 1 == len(b) for b in self.blocks)

    def cut_set(self) -> frozenset[int]:
        """For an interval partition, the cut positions (block maxima except
        the last); inverse of :func:`interval_partition`."""
        if not self.is_interval():
            raise DomainError(f"{self.to_text()} is not an interval partition")
        return frozenset(b[-1] for b in self.blocks[:-1])

    def as_masks(self) -> list[int]:
        """Blocks as bitmasks over positions in the sorted ground set."""
        pos = {s: i for i, s in enumerate(self.ground)}
        return [sum(1 << pos[s] for s in b) for b in self.blocks]

    @classmethod
    def from_masks(cls, masks: Iterable[int], ground: tuple[int, ...]) -> "Partition":
        blocks = []
        for m in masks:
            if m == 0:
                continue
            blocks.append([ground[i] for i in range(len(ground)) if (m >> i) & 1])
        return cls(blocks)

    @classmethod
    def from_labels(cls, labels: Iterable[int], ground: tuple[int, ...]) -> "Partition":
        """Group ground[i] by labels[i] (one kernel output row of site labels)."""
        blocks: dict[int, list[int]] = {}
        for site, label in zip(ground, labels):
            blocks.setdefault(int(label), []).append(site)
        return cls(blocks.values())

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Partition({self.to_text()!r})"


def _lowest_bit(mask: int) -> int:
    return mask & -mask


def mask_state(masks: Iterable[int]) -> tuple[int, ...]:
    """Canonical mask state of disjoint nonempty block masks."""
    return tuple(sorted(masks, key=_lowest_bit))


@functools.lru_cache(maxsize=1 << 12)
def _block_key(mask: int) -> bytes:
    """A block's positions, each plus one as two big-endian bytes, then a
    zero pair: these bytes compare as the position tuples do."""
    positions = (i + 1 for i in range(mask.bit_length()) if mask >> i & 1)
    return b"".join(p.to_bytes(2, "big") for p in positions) + b"\0\0"


def _state_key(state: tuple[int, ...]) -> tuple[int, bytes]:
    """Sorts mask states as ``Partition.sort_key`` sorts their partitions,
    without building them: positions in the sorted ground set order blocks
    as their sites do."""
    return (len(state), b"".join(map(_block_key, state)))


def count_label_rows(
    rows: np.ndarray, ground: tuple[int, ...]
) -> tuple[list[Partition], np.ndarray, np.ndarray]:
    """Distinct rows of canonical site labels as partitions, in the order of
    ``np.unique(rows, axis=0)``, each row's position and each one's count.

    Rows compare as raw bytes: that order for labels in 0..127, and far
    cheaper than sorting row records.  A row's partition is shared with
    every earlier call that met the same row on the same ground set (the
    last 4096 are kept), so results held side by side share their keys.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int8)
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    uniq, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    ground = tuple(ground)
    return [_label_partition(key.tobytes(), ground) for key in uniq], inverse, counts


def interval_partition(n: int, cuts: Iterable[int]) -> Partition:
    """Interval partition of {1,..,n} with a block boundary after each cut.

    An empty cut set yields the one-block partition; cuts {1,..,n-1} yield
    the finest partition.  Cut positions must lie in {1,..,n-1}.
    """
    cutset = set(cuts)
    for c in cutset:
        if not 1 <= c <= n - 1:
            raise DomainError(f"cut position {c} outside 1..{n - 1}")
    blocks = []
    current = []
    for s in range(1, n + 1):
        current.append(s)
        if s in cutset:
            blocks.append(current)
            current = []
    blocks.append(current)
    return Partition(blocks)


def cut_partition(n: int, k: int) -> Partition:
    """The two-block interval partition {{1..k}, {k+1..n}}."""
    return interval_partition(n, [k])


def all_partitions(ground: Iterable[int]) -> Iterator[Partition]:
    """Yield every partition of `ground` (no particular order)."""
    items = sorted(ground)
    if not items:
        raise DomainError("ground set must be nonempty")

    def rec(rest: list[int]) -> Iterator[list[list[int]]]:
        if not rest:
            yield []
            return
        first, tail = rest[0], rest[1:]
        for sub in rec(tail):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
            yield [[first]] + sub

    for blocks in rec(items):
        yield Partition(blocks)


def refinements(p: Partition) -> Iterator[Partition]:
    """Yield every partition refining p, built blockwise (product over blocks)."""
    per_block = [list(all_partitions(b)) for b in p.blocks]
    for combo in itertools.product(*per_block):
        blocks = []
        for sub in combo:
            blocks.extend(sub.blocks)
        yield Partition(blocks)


def two_block_partitions(ground: Iterable[int]) -> list[Partition]:
    """All partitions of `ground` into exactly two blocks, in index order.

    Enumerated directly from the 2^(k-1)-1 proper subsets containing the
    smallest site, so the full lattice never needs to be materialized.
    The partitions are shared with every earlier call on the same ground
    set (the last 16 are kept), so models built on it share their keys.
    """
    items = sorted(ground)
    if len(items) < 2:
        return []
    return list(_two_block_partitions(Partition.one_block(items).ground))


@functools.lru_cache(maxsize=16)
def _two_block_partitions(items: tuple[int, ...]) -> tuple[Partition, ...]:
    first, rest = items[0], items[1:]
    out = []
    for take in range(2 ** len(rest) - 1):
        b1 = [first] + [s for i, s in enumerate(rest) if (take >> i) & 1]
        b2 = [s for i, s in enumerate(rest) if not (take >> i) & 1]
        out.append(Partition([b1, b2]))
    out.sort(key=Partition.sort_key)
    return tuple(out)


class PartitionIndex:
    """Partitions of a ground set in a refinement-compatible order.

    The order is block count ascending with lexicographic tie-break on the
    canonical form; strict refinement strictly increases the block count,
    so any matrix whose entries point from coarser to finer partitions is
    triangular with respect to this index.  ``states`` holds the mask state
    of each partition and ``position`` maps a mask state to its index.
    ``PartitionIndex(ground)`` holds every partition (the lattice; the
    exact routes share one per ground set, see :func:`shared_index`);
    :meth:`from_states` holds a given set, such as a model's reachable
    states.  Both list mask states and build ``partitions`` on first use.
    """

    __slots__ = ("ground", "_partitions", "states", "position")

    def __init__(self, ground: Iterable[int]):
        ground = tuple(sorted(ground))
        n = len(ground)
        if n > DEFAULT_SITE_CAP:
            raise SizeCapError(
                f"{n} sites means Bell({n}) = {bell_number(n)} partitions; "
                f"cap is {DEFAULT_SITE_CAP} sites"
            )
        states = [()]
        for bit in (1 << i for i in range(n)):  # site i joins a block or opens one
            states = [
                s[:j] + (s[j] | bit,) + s[j + 1:] for s in states for j in range(len(s))
            ] + [s + (bit,) for s in states]
        self._hold(ground, states)

    @classmethod
    def from_states(
        cls, ground: Iterable[int], states: Iterable[tuple[int, ...]]
    ) -> "PartitionIndex":
        """The index of the given mask states of partitions of `ground`,
        sorted into index order; no site cap.  Refuses a repeated state and
        one that is not a canonical mask state of `ground`."""
        index = cls.__new__(cls)
        index._hold(ground, states)
        full = (1 << len(index.ground)) - 1
        for s in index.states:
            # positive blocks whose sum and summed bit counts are those of
            # full are disjoint (no carry) and cover every site
            bits = sum(map(int.bit_count, s))
            if min(s, default=0) < 1 or sum(s) != full or bits != full.bit_count():
                raise DomainError(f"{s} is not a mask state of {index.ground}")
            if s != mask_state(s):
                raise DomainError(f"{s} does not order its blocks by lowest bit")
        if len(index.position) < len(index.states):
            raise DomainError("a state is given twice")
        return index

    def _hold(self, ground: Iterable[int], states: Iterable[tuple[int, ...]]) -> None:
        self.ground = tuple(sorted(ground))
        if not self.ground:
            raise DomainError("ground set must be nonempty")
        self._partitions: tuple[Partition, ...] | None = None
        self.states: tuple[tuple[int, ...], ...] = tuple(sorted(states, key=_state_key))
        self.position: Mapping[tuple[int, ...], int] = MappingProxyType(
            {s: i for i, s in enumerate(self.states)}
        )

    @property
    def partitions(self) -> tuple[Partition, ...]:
        if self._partitions is None:
            self._partitions = tuple(Partition.from_masks(s, self.ground) for s in self.states)
        return self._partitions

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.partitions)

    def __getitem__(self, i: int) -> Partition:
        return self.partitions[i]

    def index_of(self, p: Partition) -> int:
        if p.ground != self.ground:
            raise DomainError(f"{p.to_text()} is not a partition of {self.ground}")
        i = self.position.get(tuple(p.as_masks()))
        if i is None:
            raise DomainError(f"{p.to_text()} is not a state of this index")
        return i

    @property
    def one(self) -> Partition:
        return self.partitions[0]

    @property
    def finest(self) -> Partition:
        return self.partitions[-1]

    def refining(self, p: Partition) -> Iterator[Partition]:
        """All partitions refining p, built blockwise (product over blocks)."""
        return refinements(p)

    def interval_partitions(self) -> list[Partition]:
        return [p for p in self.partitions if p.is_interval()]


def shared_index(ground: Iterable[int]) -> PartitionIndex:
    """The one ``PartitionIndex`` of a ground set at the default cap.

    Built on first use and then shared by every caller in the process (the
    last 16 ground sets are kept); treat it as read-only.
    """
    return _shared_index(tuple(sorted(ground)))


@functools.lru_cache(maxsize=16)
def _shared_index(ground: tuple[int, ...]) -> PartitionIndex:
    return PartitionIndex(ground)


@functools.lru_cache(maxsize=4096)
def _label_partition(row: bytes, ground: tuple[int, ...]) -> Partition:
    """The partition of one row of site labels (labels 0..127 as bytes)."""
    return Partition.from_labels(row, ground)
