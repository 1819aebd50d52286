"""Exact collective-state algebra for small ensembles.

Two representations are provided:

* ``PartitionedState`` — amplitudes over per-part excitation tuples
  (n_A, n_B, ...), each part holding a symmetric (Dicke) sub-state.  This is
  polynomial in N and is the production representation.
* ``FullBasisState`` — the complete 2^N computational basis of individual
  atoms.  Exponential in N (capped at N = 24); kept as an independent
  brute-force oracle for emission rates.

The spatial phase factors e^{i q r_j} are absorbed into the definition of
the single-atom excited states, so a 2 pi control pulse acting on a spatial
part is exactly a sign flip of that part's excited amplitudes.

In the full basis, bit j of an index marks atom j excited and atoms are
ordered part by part, so part P owns one contiguous bit mask.  Every
bit-indexed quantity is one ``np.bitwise_count`` of the index under a mask:
a part's occupation is popcount(index & part mask), and a sign pattern
multiplies by (-1)^popcount(index & mask of the minus parts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Partition:
    """Division of the sample into consecutive spatial parts A, B, C, ..."""

    part_sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.part_sizes or any(s < 1 for s in self.part_sizes):
            raise DomainError("part sizes must be positive integers")

    @classmethod
    def equal(cls, n_atoms: int, n_parts: int) -> "Partition":
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


@dataclass(frozen=True)
class PartitionedState:
    """Normalized superposition of per-part symmetric excitation numbers."""

    partition: Partition
    amplitudes: dict[tuple[int, ...], complex]

    def __post_init__(self):
        sizes = self.partition.part_sizes
        for occ in self.amplitudes:
            if len(occ) != len(sizes):
                raise DomainError("occupation tuple length does not match partition")
            if any(n < 0 or n > cap for n, cap in zip(occ, sizes)):
                raise DomainError(f"occupation {occ} exceeds part capacity {sizes}")
        norm = self.norm()
        if abs(norm - 1.0) > 1e-10:
            raise DomainError(f"state norm {norm} is not 1")

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def excitation_number(self) -> int:
        ns = {sum(occ) for occ, a in self.amplitudes.items() if abs(a) > _AMP_TOL}
        if len(ns) != 1:
            raise DomainError("state does not have a definite excitation number")
        return ns.pop()


@dataclass(frozen=True)
class FullBasisState:
    """State vector over the 2^N single-atom computational basis.

    Bit j of a basis index marks atom j excited; atoms are ordered part by
    part when built from a PartitionedState.
    """

    n_atoms: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_atoms > MAX_FULL_BASIS_ATOMS:
            raise DomainError(f"full basis capped at N = {MAX_FULL_BASIS_ATOMS}")
        if len(self.amplitudes) != 2 ** self.n_atoms:
            raise DomainError("amplitude vector length must be 2^N")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-10:
            raise DomainError(f"state norm {norm} is not 1")

    def excitation_number(self) -> int:
        occ = np.bitwise_count(np.arange(2 ** self.n_atoms))
        present = np.unique(occ[np.abs(self.amplitudes) > _AMP_TOL])
        if len(present) != 1:
            raise DomainError("state does not have a definite excitation number")
        return int(present[0])


def _part_masks(partition: Partition) -> list[int]:
    """Bit mask of each part: part P owns bits start_P .. start_P + N_P - 1."""
    ends = np.cumsum(partition.part_sizes).tolist()
    return [(1 << end) - (1 << (end - size))
            for size, end in zip(partition.part_sizes, ends)]


def symmetric_state(n: int, n_atoms: int) -> FullBasisState:
    """Symmetric Dicke state |n> over N atoms in the full basis."""
    if not 0 <= n <= n_atoms:
        raise DomainError(f"excitation number {n} outside 0..{n_atoms}")
    occ = np.bitwise_count(np.arange(2 ** n_atoms))
    amps = np.zeros(2 ** n_atoms, dtype=complex)
    amps[occ == n] = 1.0 / math.sqrt(math.comb(n_atoms, n))
    return FullBasisState(n_atoms, amps)


def symmetric_partitioned(n: int, partition: Partition) -> PartitionedState:
    """Symmetric Dicke state |n> expressed over a spatial partition.

    Amplitude on (n_A, n_B, ...) is the square-rooted hypergeometric weight
    sqrt(prod_P C(N_P, n_P) / C(N, n)).
    """
    n_atoms = partition.n_atoms
    if not 0 <= n <= n_atoms:
        raise DomainError(f"excitation number {n} outside 0..{n_atoms}")
    total = math.comb(n_atoms, n)
    amps: dict[tuple[int, ...], complex] = {}
    for occ in _compositions(n, partition.part_sizes):
        w = math.prod(math.comb(s, k) for s, k in zip(partition.part_sizes, occ))
        amps[occ] = math.sqrt(w / total)
    return PartitionedState(partition, amps)


def _compositions(n: int, caps: tuple[int, ...]):
    """Tuples (k_1, k_2, ...) with 0 <= k_i <= caps[i] that sum to n, in
    lexicographic order, for n <= sum(caps).  Each prefix leaves a remainder
    the remaining parts can hold, so no branch is a dead end."""
    if not caps:
        yield ()
        return
    room = sum(caps[1:])
    for k in range(max(0, n - room), min(n, caps[0]) + 1):
        for rest in _compositions(n - k, caps[1:]):
            yield (k, *rest)


def apply_sign_pattern(state, pattern: SignPattern, partition: Partition | None = None):
    """Flip the excited-state phase of every atom in the minus parts.

    Involutive; preserves norm and excitation number.  Accepts either state
    representation and returns the same type.
    """
    if isinstance(state, PartitionedState):
        part = state.partition
        if len(pattern) != part.n_parts:
            raise DomainError("pattern length does not match partition")
        amps = {occ: a * math.prod(s ** k for s, k in zip(pattern.signs, occ))
                for occ, a in state.amplitudes.items()}
        return PartitionedState(part, amps)
    if isinstance(state, FullBasisState):
        if partition is None:
            raise DomainError("full-basis states need an explicit partition")
        if len(pattern) != partition.n_parts or partition.n_atoms != state.n_atoms:
            raise DomainError("pattern/partition do not match the state")
        minus = sum(m for m, s in zip(_part_masks(partition), pattern.signs) if s < 0)
        idx = np.arange(2 ** state.n_atoms, dtype=np.int64)
        phase = np.where(np.bitwise_count(idx & minus) & 1, -1.0, 1.0)
        return FullBasisState(state.n_atoms, state.amplitudes * phase)
    raise DomainError(f"unsupported state type {type(state)!r}")


def lower(state: PartitionedState) -> dict[tuple[int, ...], complex]:
    """Apply the collective lowering operator R = sum_j b_j (unnormalized).

    Within a part's symmetric sub-state, R_P |n_P> = sqrt(n_P (N_P - n_P + 1))
    |n_P - 1>.
    """
    sizes = state.partition.part_sizes
    out: dict[tuple[int, ...], complex] = {}
    for occ, a in state.amplitudes.items():
        for i, (n_p, cap) in enumerate(zip(occ, sizes)):
            if n_p == 0:
                continue
            coeff = math.sqrt(n_p * (cap - n_p + 1))
            lowered = occ[:i] + (n_p - 1,) + occ[i + 1:]
            out[lowered] = out.get(lowered, 0.0) + coeff * a
    return out


def emission_rate(state, p: EnsembleParams) -> float:
    """Collective spontaneous emission rate (mu / T1) ||R state||^2, s^-1.

    Requires a definite excitation number; |0...0> gives rate 0.
    """
    if isinstance(state, PartitionedState):
        n = state.excitation_number()
        if n == 0:
            return 0.0
        lowered = lower(state)
        sq = sum(abs(a) ** 2 for a in lowered.values())
        return p.mu / p.excited_lifetime * sq
    if isinstance(state, FullBasisState):
        return brute_force_rate(state, p)
    raise DomainError(f"unsupported state type {type(state)!r}")


def brute_force_rate(state: FullBasisState, p: EnsembleParams) -> float:
    """Emission rate evaluated in the full 2^N basis (independent oracle)."""
    n_atoms = state.n_atoms
    state.excitation_number()  # assert definiteness; raises on superpositions
    psi = state.amplitudes
    lowered = np.zeros_like(psi)
    for b in range(n_atoms):
        # lowering atom b maps each index with bit b set to the index without it
        lowered.reshape(-1, 2, 2 ** b)[:, 0] += psi.reshape(-1, 2, 2 ** b)[:, 1]
    sq = float(np.sum(np.abs(lowered) ** 2))
    return p.mu / p.excited_lifetime * sq


def to_full_basis(state: PartitionedState) -> FullBasisState:
    """Embed a partitioned state in the full basis (atoms ordered by part).

    Each basis index gets the mixed-radix code sum_P n_P prod_{Q<P} (N_Q + 1)
    of its part occupations n_P, and takes its amplitude a / sqrt(weight)
    from a table over the prod_P (N_P + 1) <= 2^N compositions.  Part P owns
    the next N_P bits up, so the codes are an outer sum over the parts of
    n_P's radix times the bit counts of 0 .. 2^N_P - 1.
    """
    sizes = state.partition.part_sizes
    n_atoms = state.partition.n_atoms
    if n_atoms > MAX_FULL_BASIS_ATOMS:
        raise DomainError(f"full basis capped at N = {MAX_FULL_BASIS_ATOMS}")
    radix = [math.prod(s + 1 for s in sizes[:p]) for p in range(len(sizes))]
    code = np.zeros(1, dtype=np.int64)
    for size, r in zip(sizes, radix):
        own = r * np.bitwise_count(np.arange(2 ** size)).astype(np.int64)
        code = (own[:, None] + code).ravel()
    table = np.zeros(math.prod(s + 1 for s in sizes), dtype=complex)
    for occ, a in state.amplitudes.items():
        weight = math.prod(math.comb(s, k) for s, k in zip(sizes, occ))
        table[sum(r * k for r, k in zip(radix, occ))] += a / math.sqrt(weight)
    return FullBasisState(n_atoms, table[code])


def _two_part(n_atoms: int) -> Partition:
    return Partition.equal(n_atoms, 2)


def _one_sym(n_atoms, partition):
    return symmetric_partitioned(1, partition or _two_part(n_atoms))


def _two_sym(n_atoms, partition):
    return symmetric_partitioned(2, partition or _two_part(n_atoms))


def _one_a_minus_b(n_atoms, partition):
    part = partition or _two_part(n_atoms)
    if part.n_parts != 2:
        raise DomainError("one_AminusB needs a two-part partition")
    return apply_sign_pattern(_one_sym(n_atoms, part), SignPattern((1, -1)))


def _two_a_minus_b(n_atoms, partition):
    part = partition or _two_part(n_atoms)
    if part.n_parts != 2:
        raise DomainError("two_AminusB needs a two-part partition")
    return apply_sign_pattern(_two_sym(n_atoms, part), SignPattern((1, -1)))


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
    inner = _two_a_minus_b(n_atoms // 2, half)
    r = 1.0 / math.sqrt(2.0)
    amps: dict[tuple[int, ...], complex] = {}
    for (na, nb), a in inner.amplitudes.items():
        amps[(na, nb, 0, 0)] = r * a
        amps[(0, 0, na, nb)] = amps.get((0, 0, na, nb), 0.0) - r * a
    return PartitionedState(part, amps)


NAMED_STATES = {
    "one_sym": _one_sym,
    "two_sym": _two_sym,
    "one_AminusB": _one_a_minus_b,
    "two_AminusB": _two_a_minus_b,
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
