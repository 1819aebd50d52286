"""Exact collective-state algebra for small ensembles.

Two representations are provided:

* ``PartitionedState`` — amplitudes over per-part excitation tuples
  (n_A, n_B, ...), each part holding a symmetric (Dicke) sub-state.  This is
  polynomial in N and is the production representation.
* ``FullBasisState`` — the complete 2^N computational basis of individual
  atoms.  Exponential in N (capped at N = 24); kept as an independent
  brute-force oracle for emission rates.  A state is its support (the
  sorted indices outside which every amplitude is 0, and the amplitudes
  there), set and checked on construction, and that is all the oracle
  reads.  A dense vector given to the constructor is scanned once for it;
  the package builds states from their support, and their dense 2^N
  ``amplitudes`` only on first read.

The spatial phase factors e^{i q r_j} are absorbed into the definition of
the single-atom excited states, so a 2 pi control pulse acting on a spatial
part is exactly a sign flip of that part's excited amplitudes.

A partitioned state is a read-only int64 occupation matrix (a row per
tuple) and an amplitude vector, read once from its ``amplitudes`` dict or
built with it.  A sign pattern multiplies row r by (-1)^(occ_r . minus) and
keeps the rows, so a state and its flips share them and their lowering.
Lowering addresses rows by mixed-radix codes; where a float could round a
binomial product, or int64 a code, Python ints are used.

In the full basis, bit j of an index marks atom j excited and atoms are
ordered part by part, so part P owns one contiguous bit mask.  A row
(n_A, n_B, ...) embeds at every index whose bits in part P are one of the
N_P-bit patterns with n_P bits set, so no basis index outside the support
is visited.  A sign pattern multiplies by (-1)^popcount(index & mask of the
minus parts), and lowering atom b takes index i, with bit b set, to i ^ 2^b.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import DomainError
from .params import EnsembleParams

__all__ = [
    "Partition",
    "SignPattern",
    "PartitionedState",
    "FullBasisState",
    "NAMED_STATES",
    "symmetric_state",
    "symmetric_partitioned",
    "named_state",
    "apply_sign_pattern",
    "emission_rate",
    "brute_force_rate",
    "to_full_basis",
    "lower",
]

MAX_FULL_BASIS_ATOMS = 24

_AMP_TOL = 1e-12

# Multisets of parts counted into occupation rows, or cells of full-basis
# digits (indices x parts) found, at a time.
_BLOCK = 1 << 16


def _is_int_type(t: type) -> bool:
    return issubclass(t, (int, np.integer)) and t is not bool


def _require_unit_norm(norm: float):
    # written so that a NaN norm fails it too
    if not abs(norm - 1.0) <= 1e-10:
        raise DomainError(f"state norm {norm} is not 1")


def _require_atom_count(n_atoms):
    if not (_is_int_type(type(n_atoms)) and 0 <= n_atoms <= MAX_FULL_BASIS_ATOMS):
        raise DomainError(f"atom count {n_atoms!r} must be an integer in "
                          f"0..{MAX_FULL_BASIS_ATOMS}, where the full basis is capped")


def _require_excitation_number(n, n_atoms: int):
    if not (_is_int_type(type(n)) and 0 <= n <= n_atoms):
        raise DomainError(f"excitation number {n!r} must be an integer in 0..{n_atoms}")


@dataclass(frozen=True)
class Partition:
    """Division of the sample into consecutive spatial parts A, B, C, ..."""

    part_sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.part_sizes or not all(_is_int_type(type(s)) and s >= 1
                                          for s in self.part_sizes):
            raise DomainError(f"part sizes {self.part_sizes!r} must be positive integers")

    @classmethod
    def equal(cls, n_atoms: int, n_parts: int) -> "Partition":
        if not (_is_int_type(type(n_parts)) and n_parts >= 1):
            raise DomainError(f"part count {n_parts!r} must be a positive integer")
        if n_atoms % n_parts:
            raise DomainError(f"{n_atoms} atoms cannot form {n_parts} equal parts")
        return cls((n_atoms // n_parts,) * n_parts)

    @property
    def n_parts(self) -> int:
        return len(self.part_sizes)

    @property
    def n_atoms(self) -> int:
        return sum(self.part_sizes)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(chr(ord("A") + i) for i in range(self.n_parts))


@dataclass(frozen=True)
class SignPattern:
    """+-1 phase assignment over spatial parts (a 2 pi pulse mask)."""

    signs: tuple[int, ...]

    def __post_init__(self):
        # tuple.count tests with ==, as ``in`` does, so 1.0 counts as 1
        signs = self.signs
        if not signs or signs.count(1) + signs.count(-1) != len(signs):
            raise DomainError("sign pattern entries must be +1 or -1")

    def __len__(self) -> int:
        return len(self.signs)

    @classmethod
    def from_string(cls, text: str) -> "SignPattern":
        if set(text) - {"+", "-"}:
            raise DomainError(f"sign pattern {text!r} may hold only '+' and '-'")
        return cls(tuple(1 if ch == "+" else -1 for ch in text))

    def to_string(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)


def _comb_products(occ: np.ndarray, sizes, top: int, bound: int) -> np.ndarray:
    """prod_P C(N_P, n_P) of each row, with every n_P <= top, for rows whose
    product is at most ``bound``: float64 where that is exact, else Python
    ints.  Larger factors are in no such row; clipped, they stay finite."""
    ks = range(top + 1)
    rows = {s: [min(math.comb(s, k), bound + 1) for k in ks] for s in set(sizes)}
    table = np.array([rows[s] for s in sizes], dtype=float if bound <= 2 ** 53 else object)
    return table[np.arange(len(sizes)), occ].prod(axis=1)


class _Rows:
    """An occupation matrix (read-only) and its lowering, made on first use."""

    def __init__(self, matrix: np.ndarray, sizes):
        matrix.flags.writeable = False
        self.matrix, self.sizes = matrix, sizes

    @cached_property
    def lowering(self):
        """R = sum_P R_P term by term, in (row, part) order: term t takes row
        source[t] times sqrt(n_P (N_P - n_P + 1)) to output slot[t], slots
        numbered by first appearance.  (source, part, coeff, slot, slots)."""
        occ = self.matrix
        source, part = np.nonzero(occ)
        n_p = occ[source, part]
        coeff = np.sqrt(n_p * (np.array(self.sizes, dtype=float)[part] - n_p + 1))
        # digit P has base max_r n_rP + 1; lowering part P takes its radix off
        bases = (occ.max(axis=0) + 1).tolist()
        radix = np.array(list(itertools.accumulate(bases[:-1], int.__mul__, initial=1)),
                         dtype=np.int64 if math.prod(bases) < 2 ** 63 else object)
        codes = ((occ @ radix)[source] - radix[part]).tolist()
        slots = dict(zip(dict.fromkeys(codes), itertools.count()))
        slot = np.fromiter(map(slots.__getitem__, codes), dtype=np.intp, count=len(codes))
        return source, part, coeff, slot, len(slots)


@dataclass(frozen=True)
class PartitionedState:
    """Normalized superposition of per-part symmetric excitation numbers.
    ``amplitudes`` is read once, on construction."""

    partition: Partition
    amplitudes: dict[tuple[int, ...], complex]
    _rows: _Rows = field(init=False, repr=False, compare=False)
    _values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = self.partition.part_sizes
        keys = list(self.amplitudes)
        if set(map(len, keys)) - {len(sizes)}:
            raise DomainError("occupation tuple length does not match partition")
        if not all(map(_is_int_type, set(map(type, itertools.chain.from_iterable(keys))))):
            bad = next(k for k in keys if not all(_is_int_type(type(n)) for n in k))
            raise DomainError(f"occupation {bad!r} is not a tuple of integers")
        occ = np.array(keys, dtype=np.int64).reshape(len(keys), len(sizes))
        # sizes clipped to the largest occupation, which int64 holds
        top = int(occ.max(initial=0))
        outside = ((occ < 0) | (occ > [min(s, top) for s in sizes])).any(axis=1)
        if outside.any():
            raise DomainError(f"occupation {keys[np.argmax(outside)]} exceeds part "
                              f"capacity {sizes}")
        self._set(_Rows(occ, sizes), np.array(list(self.amplitudes.values())))

    @classmethod
    def _of(cls, partition, rows: _Rows, values, keys) -> "PartitionedState":
        """``values`` on ``rows`` that fit ``partition``, named by ``keys``."""
        state = object.__new__(cls)
        object.__setattr__(state, "partition", partition)
        object.__setattr__(state, "amplitudes", dict(zip(keys, values.tolist())))
        state._set(rows, values)
        return state

    def _set(self, rows: _Rows, values: np.ndarray):
        values.flags.writeable = False
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_values", values)
        _require_unit_norm(self.norm())

    def norm(self) -> float:
        return math.sqrt(abs(np.vdot(self._values, self._values)))

    def excitation_number(self) -> int:
        ns = set(self._rows.matrix.sum(axis=1)[np.abs(self._values) > _AMP_TOL].tolist())
        if len(ns) != 1:
            raise DomainError("state does not have a definite excitation number")
        return ns.pop()


@dataclass(frozen=True)
class FullBasisState:
    """State vector over the 2^N single-atom computational basis.

    Bit j of a basis index marks atom j excited; atoms are ordered part by
    part when built from a PartitionedState.  A state is its support: the
    sorted int64 indices outside which every amplitude is 0, and the
    amplitudes there, both read-only, set and checked on construction.
    ``amplitudes`` is read as a complex array (no copy of a complex one),
    once, by one scan for its support; the support holds copies, so a later
    change to that array is not seen.  States the package builds
    (``to_full_basis``, ``symmetric_state`` and sign flips) start from their
    support and build the read-only ``amplitudes`` on first read, then keep
    them.  The repr names N only, so printing a state builds nothing, and
    two states are equal when their N and the nonzero entries of their
    supports are.  The excitation number is the popcount of the support
    indices whose |a| > 1e-12.
    """

    n_atoms: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        _require_atom_count(self.n_atoms)
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if len(amps) != 2 ** self.n_atoms:
            raise DomainError("amplitude vector length must be 2^N")
        # through a bool mask: nonzero() on complex entries is ~3x slower
        index = np.flatnonzero(amps != 0)
        self._set(index, amps[index])

    @classmethod
    def _of(cls, n_atoms: int, index: np.ndarray, values: np.ndarray) -> "FullBasisState":
        """The state with ``values`` at the sorted ``index`` and 0 elsewhere."""
        state = object.__new__(cls)
        object.__setattr__(state, "n_atoms", n_atoms)
        state._set(index, values)
        return state

    def _set(self, index: np.ndarray, values: np.ndarray):
        index.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "_support", (index, values))
        _require_unit_norm(math.sqrt(np.vdot(values, values).real))

    def __eq__(self, other):
        # N and the nonzero part of the support: no 2^N vector is compared
        if not isinstance(other, FullBasisState):
            return NotImplemented
        if self.n_atoms != other.n_atoms:
            return False
        (i, v), (j, w) = self._support, other._support
        return (np.array_equal(i[v != 0], j[w != 0])
                and np.array_equal(v[v != 0], w[w != 0]))

    def __getattr__(self, name):
        # only reached while the amplitudes of a state made by _of are unset
        if name != "amplitudes":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        index, values = self._support
        amps = np.zeros(2 ** self.n_atoms, dtype=complex)
        amps[index] = values
        amps.flags.writeable = False
        return self.__dict__.setdefault("amplitudes", amps)

    def excitation_number(self) -> int:
        index, values = self._support
        counts = np.bitwise_count(index[np.abs(values) > _AMP_TOL])
        if not len(counts) or counts.min() != counts.max():
            raise DomainError("state does not have a definite excitation number")
        return int(counts[0])


def _part_masks(partition: Partition) -> list[int]:
    """Bit mask of each part: part P owns bits start_P .. start_P + N_P - 1."""
    ends = np.cumsum(partition.part_sizes).tolist()
    return [(1 << end) - (1 << (end - size))
            for size, end in zip(partition.part_sizes, ends)]


def symmetric_state(n: int, n_atoms: int) -> FullBasisState:
    """Symmetric Dicke state |n> over N atoms in the full basis."""
    _require_atom_count(n_atoms)
    _require_excitation_number(n, n_atoms)
    amp = 1.0 / math.sqrt(math.comb(n_atoms, n))
    index = _bit_patterns(n_atoms, n)
    return FullBasisState._of(n_atoms, index, np.full(len(index), amp, dtype=complex))


def symmetric_partitioned(n: int, partition: Partition) -> PartitionedState:
    """Symmetric Dicke state |n> expressed over a spatial partition.

    Amplitude on (n_A, n_B, ...) is the square-rooted hypergeometric weight
    sqrt(prod_P C(N_P, n_P) / C(N, n)), in lexicographic tuple order: the
    multisets of n parts, in reverse order, each counted into a row, less
    the rows over a part's size.
    """
    sizes = partition.part_sizes
    n_atoms = partition.n_atoms
    _require_excitation_number(n, n_atoms)
    parts, caps = len(sizes), [min(s, n) for s in sizes]
    multisets = itertools.combinations_with_replacement(range(parts), n)
    candidates = math.comb(parts + n - 1, n)
    blocks = []
    # in blocks, so that memory follows the kept rows where parts smaller
    # than n leave most candidates over a part's size
    for start in range(0, candidates, _BLOCK):
        rows = min(_BLOCK, candidates - start)
        picks = np.fromiter(itertools.chain.from_iterable(itertools.islice(multisets, rows)),
                            dtype=np.int64, count=rows * n).reshape(rows, n)
        cells = picks + np.arange((rows - 1) * parts, -1, -parts)[:, None]
        occ = np.bincount(cells.ravel(), minlength=rows * parts).reshape(rows, parts)
        blocks.append(occ[(occ <= caps).all(axis=1)] if min(caps) < n else occ)
    occ = np.concatenate(blocks[::-1])
    total = math.comb(n_atoms, n)
    amps = np.sqrt((_comb_products(occ, sizes, n, total) / total).astype(float))
    return PartitionedState._of(partition, _Rows(occ, sizes), amps, map(tuple, occ.tolist()))


def apply_sign_pattern(state, pattern: SignPattern, partition: Partition | None = None):
    """Flip the excited-state phase of every atom in the minus parts.

    Involutive; preserves norm and excitation number.  Accepts either state
    representation and returns the same type.
    """
    if isinstance(state, PartitionedState):
        part = state.partition
        if len(pattern) != part.n_parts:
            raise DomainError("pattern length does not match partition")
        minus = np.array([s < 0 for s in pattern.signs], dtype=np.int64)
        phase = (-1) ** (state._rows.matrix @ minus)
        return PartitionedState._of(part, state._rows, state._values * phase,
                                    state.amplitudes)
    if isinstance(state, FullBasisState):
        if partition is None:
            raise DomainError("full-basis states need an explicit partition")
        if len(pattern) != partition.n_parts or partition.n_atoms != state.n_atoms:
            raise DomainError("pattern/partition do not match the state")
        minus = sum(m for m, s in zip(_part_masks(partition), pattern.signs) if s < 0)
        index, values = state._support
        phase = np.where(np.bitwise_count(index & minus) & 1, -1.0, 1.0)
        return FullBasisState._of(state.n_atoms, index, values * phase)
    raise DomainError(f"unsupported state type {type(state)!r}")


def _lowered(state: PartitionedState) -> np.ndarray:
    """Amplitudes of R|state> in order of first appearance, each summed in
    the order its terms arrive."""
    source, _, coeff, slot, n = state._rows.lowering
    terms = coeff * state._values[source]
    if terms.dtype.kind == "c":
        return np.bincount(slot, terms.real, n) + 1j * np.bincount(slot, terms.imag, n)
    return np.bincount(slot, terms, n)


def lower(state: PartitionedState) -> dict[tuple[int, ...], complex]:
    """Apply the collective lowering operator R = sum_j b_j (unnormalized).

    Within a part's symmetric sub-state, R_P |n_P> = sqrt(n_P (N_P - n_P + 1))
    |n_P - 1>.
    """
    source, part, _, slot, _ = state._rows.lowering
    # a slot's first term is where the running maximum of the slots rises
    first = np.flatnonzero(np.diff(np.maximum.accumulate(slot), prepend=-1))
    rows = state._rows.matrix[source[first]]
    rows[np.arange(len(rows)), part[first]] -= 1
    return dict(zip(map(tuple, rows.tolist()), _lowered(state).tolist()))


def emission_rate(state, p: EnsembleParams) -> float:
    """Collective spontaneous emission rate (mu / T1) ||R state||^2, s^-1.

    Requires a definite excitation number; |0...0> gives rate 0.
    """
    if isinstance(state, PartitionedState):
        n = state.excitation_number()
        if n == 0:
            return 0.0
        sq = sum(abs(a) ** 2 for a in _lowered(state).tolist())
        return p.mu / p.excited_lifetime * sq
    if isinstance(state, FullBasisState):
        return brute_force_rate(state, p)
    raise DomainError(f"unsupported state type {type(state)!r}")


def brute_force_rate(state: FullBasisState, p: EnsembleParams) -> float:
    """Emission rate evaluated in the full 2^N basis (independent oracle).

    Only the support of the state is lowered: O(support x N) scatters into
    one 2^N accumulator.
    """
    state.excitation_number()  # assert definiteness; raises on superpositions
    support, values = state._support
    lowered = np.zeros(2 ** state.n_atoms, dtype=complex)
    for b in range(state.n_atoms):
        # lowering atom b maps each support index i with bit b set to
        # i ^ 2^b; no two such i share a target, so the indexed += is exact
        excited = (support & (1 << b)) != 0
        lowered[support[excited] ^ (1 << b)] += values[excited]
    # a sum of squares outside BLAS, whose threads would split the sum by
    # their count; the float view allocates nothing
    x = lowered.view(float)
    sq = float(np.einsum("i,i->", x, x))
    return p.mu / p.excited_lifetime * sq


def _bit_patterns(m: int, k: int) -> np.ndarray:
    """The m-bit integers with k bits set, ascending.  Those with c set are,
    over their top bit t in ascending order, 2^t plus the t-bit ones with
    c - 1 set: the first C(t, c - 1) of the m-bit ones.  Past k = m / 2 they
    are the complements of those with m - k set, reversed, so no step holds
    more than C(m, k) patterns."""
    if 2 * k > m:
        return ((1 << m) - 1 - _bit_patterns(m, m - k))[::-1]
    out = np.zeros(1, dtype=np.int64)
    for c in range(1, k + 1):
        size = np.array([math.comb(t, c - 1) for t in range(c - 1, m)])
        out = (out[np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)]
               + np.repeat(1 << np.arange(c - 1, m), size))
    return out


def to_full_basis(state: PartitionedState) -> FullBasisState:
    """Embed a partitioned state in the full basis (atoms ordered by part).

    Row (n_A, n_B, ...) with amplitude a and weight w = prod_P C(N_P, n_P)
    puts a / sqrt(w) at each of its w indices: part P's bits hold one of
    the C(N_P, n_P) patterns with n_P bits set.  The i-th index of a row
    takes the mixed-radix digits of i, part A's the fastest, as ascending
    patterns, so a row's indices ascend and one sort orders the support.
    Digits are found for a block of indices at a time.
    """
    sizes = state.partition.part_sizes
    n_atoms = state.partition.n_atoms
    _require_atom_count(n_atoms)
    occ, values = state._rows.matrix, state._values
    parts, top = np.arange(len(sizes)), int(occ.max())
    # part P holds k in ways[P, k] = C(N_P, k) patterns
    ways = np.array([[math.comb(s, k) for k in range(top + 1)] for s in sizes])
    count = np.multiply.reduce(ways[parts, occ], axis=1)
    # a weight is below 2^N; a / sqrt(weight) divides a's parts apart
    root = np.sqrt(count)
    amps = np.empty(len(occ), dtype=complex)
    amps.real, amps.imag = values.real / root, values.imag / root
    # one table of the patterns of each kind (N_P, k) that a row holds,
    # block after block; part P holding k reads its kind's block from at[P, k]
    held = np.zeros(ways.shape, dtype=bool)
    held[parts, occ] = True
    keys = [(sizes[p], k) for p, k in np.argwhere(held).tolist()]
    kinds = list(dict.fromkeys(keys))
    table = np.concatenate([_bit_patterns(*kind) for kind in kinds])
    begin = dict(zip(kinds, itertools.accumulate((math.comb(*kind) for kind in kinds),
                                                 initial=0)))
    at = np.zeros(ways.shape, dtype=np.int64)
    at[held] = [begin[key] for key in keys]
    shift = np.array(list(itertools.accumulate(sizes[:-1], initial=0)))
    row = np.repeat(np.arange(len(occ)), count)
    rank = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    index = np.empty(len(row), dtype=np.int64)
    step = max(1, _BLOCK // len(sizes))
    for lo in range(0, len(row), step):
        # the i-th index of row r holds, in part P, pattern number
        # (i // prod_{Q<P} radix[r, Q]) % radix[r, P] of its block
        n_p = occ[row[lo:lo + step]]
        radix = ways[parts, n_p]
        below = np.multiply.accumulate(radix, axis=1) // radix
        digit = rank[lo:lo + step, None] // below % radix
        index[lo:lo + step] = (table[at[parts, n_p] + digit] << shift).sum(axis=1)
    order = np.argsort(index)
    return FullBasisState._of(n_atoms, index[order], amps[row[order]])


def _two_part(n_atoms: int) -> Partition:
    return Partition.equal(n_atoms, 2)


def _sym(n, n_atoms, partition):
    return symmetric_partitioned(n, partition or _two_part(n_atoms))


def _a_minus_b(n, n_atoms, partition):
    part = partition or _two_part(n_atoms)
    if part.n_parts != 2:
        raise DomainError(f"{('one', 'two')[n - 1]}_AminusB needs a two-part partition")
    return apply_sign_pattern(symmetric_partitioned(n, part), SignPattern((1, -1)))


def _two_prime(n_atoms, partition):
    part = partition or _two_part(n_atoms)
    if part.n_parts != 2:
        raise DomainError("two_prime needs a two-part partition")
    r = 1.0 / math.sqrt(2.0)
    return PartitionedState(part, {(2, 0): r, (0, 2): -r})


def _two_abcd(n_atoms, partition):
    """(|2_{A-B}, 0_{C+D}> - |0_{A+B}, 2_{C-D}>) / sqrt(2) over four parts."""
    part = partition or Partition.equal(n_atoms, 4)
    if part.n_parts != 4 or len(set(part.part_sizes)) != 1:
        raise DomainError("two_ABCD needs four equal parts")
    half = Partition.equal(n_atoms // 2, 2)
    inner = _a_minus_b(2, n_atoms // 2, half)
    r = 1.0 / math.sqrt(2.0)
    amps: dict[tuple[int, ...], complex] = {}
    for (na, nb), a in inner.amplitudes.items():
        amps[(na, nb, 0, 0)] = r * a
        amps[(0, 0, na, nb)] = amps.get((0, 0, na, nb), 0.0) - r * a
    return PartitionedState(part, amps)


NAMED_STATES = {
    "one_sym": partial(_sym, 1),
    "two_sym": partial(_sym, 2),
    "one_AminusB": partial(_a_minus_b, 1),
    "two_AminusB": partial(_a_minus_b, 2),
    "two_prime": _two_prime,
    "two_ABCD": _two_abcd,
}


def named_state(name: str, n_atoms: int, partition: Partition | None = None) -> PartitionedState:
    """Build one of the canonical collective states by name.

    Names: one_sym, two_sym, one_AminusB, two_AminusB, two_prime, two_ABCD.
    The default partition is two equal halves (four equal parts for
    two_ABCD).
    """
    try:
        builder = NAMED_STATES[name]
    except KeyError:
        raise DomainError(f"unknown state name {name!r}; "
                          f"choose from {sorted(NAMED_STATES)}") from None
    return builder(n_atoms, partition)
