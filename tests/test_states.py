import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from subradiance import (DomainError, FullBasisState, Partition,
                         PartitionedState, SignPattern, apply_sign_pattern,
                         brute_force_rate, emission_rate, lower, named_state,
                         symmetric_partitioned, symmetric_state, to_full_basis)
from subradiance.states import _AMP_TOL

NAMES = ("one_sym", "two_sym", "one_AminusB", "two_AminusB", "two_prime",
         "two_ABCD")


def _unit(p):
    return p.mu / p.excited_lifetime


def expected_rate(name, n):
    return {
        "one_sym": n,
        "two_sym": 2 * (n - 1),
        "one_AminusB": 0.0,
        "two_AminusB": 2.0 / (n - 1),
        "two_prime": n - 2,
        "two_ABCD": 4.0 / (n - 2),
    }[name]


@pytest.mark.parametrize("n", [4, 8, 12, 16])
@pytest.mark.parametrize("name", NAMES)
def test_named_state_rates_closed_form(params, name, n):
    rate = emission_rate(named_state(name, n), params) / _unit(params)
    want = expected_rate(name, n)
    if want == 0.0:
        assert abs(rate) < 1e-12
    else:
        assert rate == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("n", [4, 8, 12])
@pytest.mark.parametrize("name", NAMES)
def test_named_state_rates_brute_force(params, name, n):
    state = named_state(name, n)
    rate = emission_rate(state, params)
    brute = brute_force_rate(to_full_basis(state), params)
    if expected_rate(name, n) == 0.0:
        assert abs(rate) < 1e-12 * _unit(params)
        assert abs(brute) < 1e-12 * _unit(params)
    else:
        assert rate == pytest.approx(brute, rel=1e-10)


def test_random_partitioned_states_match_oracle(params):
    rng = np.random.default_rng(23)
    part = Partition((3, 2, 3, 2))
    for _ in range(5):
        n = int(rng.integers(1, 4))
        base = symmetric_partitioned(n, part)
        keys = list(base.amplitudes)
        raw = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
        raw /= np.linalg.norm(raw)
        state = PartitionedState(part, dict(zip(keys, raw)))
        assert emission_rate(state, params) == pytest.approx(
            brute_force_rate(to_full_basis(state), params),
            rel=1e-10, abs=1e-12 * _unit(params))


def test_symmetric_partitioned_is_hypergeometric():
    part = Partition((4, 6))
    st = symmetric_partitioned(3, part)
    total = math.comb(10, 3)
    for (na, nb), a in st.amplitudes.items():
        assert na + nb == 3
        want = math.sqrt(math.comb(4, na) * math.comb(6, nb) / total)
        assert a == pytest.approx(want, rel=1e-14)
    assert st.norm() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("sizes,n", [
    ((1, 3, 1), 4), ((1, 3, 1), 5), ((1, 3, 1), 0), ((4, 6), 3),
    ((2, 2, 2, 2), 2), ((3, 1, 2), 2), ((1,) * 8, 3), ((5,), 2),
])
def test_symmetric_partitioned_matches_product_filter(sizes, n):
    part = Partition(sizes)
    total = math.comb(part.n_atoms, n)
    want = {}
    for occ in itertools.product(*[range(min(n, s) + 1) for s in sizes]):
        if sum(occ) == n:
            w = math.prod(math.comb(s, k) for s, k in zip(sizes, occ))
            want[occ] = math.sqrt(w / total)
    got = symmetric_partitioned(n, part).amplitudes
    assert list(got) == list(want)
    assert got == want


def test_partitioned_embedding_matches_direct_dicke():
    part = Partition.equal(8, 2)
    via_parts = to_full_basis(symmetric_partitioned(2, part))
    direct = symmetric_state(2, 8)
    assert np.allclose(via_parts.amplitudes, direct.amplitudes, atol=1e-14)


def test_sign_pattern_involution_and_norm():
    part = Partition.equal(8, 4)
    st = symmetric_partitioned(2, part)
    pat = SignPattern((1, -1, -1, 1))
    flipped = apply_sign_pattern(st, pat)
    assert flipped.norm() == pytest.approx(1.0, abs=1e-14)
    back = apply_sign_pattern(flipped, pat)
    for occ, a in st.amplitudes.items():
        assert back.amplitudes[occ] == pytest.approx(a, rel=1e-14)


@pytest.mark.parametrize("sizes, signs", [
    pytest.param((2, 2, 2, 2), (1, -1, 1, -1), id="equal-even"),
    pytest.param((3, 1, 2, 2), (1, -1, 1, 1), id="3122-odd"),
    pytest.param((3, 1, 2, 2), (-1, 1, -1, 1), id="3122-even"),
    pytest.param((5, 3), (1, -1), id="53-odd"),
    pytest.param((5, 3), (-1, -1), id="53-even"),
    pytest.param((1,) * 6, (1, -1, -1, 1, 1, -1), id="singles-odd"),
    pytest.param((1,) * 6, (-1, 1, 1, -1, 1, 1), id="singles-even"),
])
def test_sign_pattern_consistent_across_representations(sizes, signs):
    # unequal parts put each part's bit mask at its own offset
    part = Partition(sizes)
    st = symmetric_partitioned(2, part)
    pat = SignPattern(signs)
    a = to_full_basis(apply_sign_pattern(st, pat))
    b = apply_sign_pattern(to_full_basis(st), pat, partition=part)
    assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-13)


def test_subradiant_states_are_sign_flipped_symmetric(params):
    # flipping half the sample turns the fully symmetric one-excitation
    # state (rate N) into a perfectly dark state, and back
    st = named_state("one_sym", 12)
    dark = apply_sign_pattern(st, SignPattern((1, -1)))
    assert emission_rate(dark, params) < 1e-12 * _unit(params)
    bright = apply_sign_pattern(dark, SignPattern((1, -1)))
    assert emission_rate(bright, params) / _unit(params) == pytest.approx(12)


def test_excitation_number():
    part = Partition.equal(6, 2)
    assert symmetric_partitioned(2, part).excitation_number() == 2
    mixed = PartitionedState(part, {(1, 0): 1 / math.sqrt(2),
                                    (1, 1): 1 / math.sqrt(2)})
    with pytest.raises(DomainError):
        mixed.excitation_number()


def test_ground_state_rate_zero(params):
    part = Partition.equal(4, 2)
    ground = PartitionedState(part, {(0, 0): 1.0})
    assert emission_rate(ground, params) == 0.0


def test_full_basis_cap():
    with pytest.raises(DomainError):
        FullBasisState(25, np.zeros(2 ** 25))


@pytest.mark.parametrize("build", [lambda: FullBasisState(2.0, [0, 1, 0, 0]),
                                   lambda: FullBasisState(True, [0, 1]),
                                   lambda: FullBasisState(-1, [1.0]),
                                   lambda: symmetric_state(1, 2.0),
                                   lambda: symmetric_state(0, -1)],
                         ids=["float", "bool", "negative", "symmetric-float",
                              "symmetric-negative"])
def test_atom_count_must_be_a_non_negative_integer(build):
    # a float count would pass the 2^N length check (2 ** 2.0 == 4) and
    # fail only in the oracle, and a negative one for its vector length
    with pytest.raises(DomainError, match=r"^atom count (2\.0|True|-1) must be"):
        build()


@pytest.mark.parametrize("build", [lambda: symmetric_state(1.0, 4),
                                   lambda: symmetric_state(True, 4),
                                   lambda: symmetric_partitioned(1.0, Partition((2, 2))),
                                   lambda: symmetric_partitioned(True, Partition((2, 2)))],
                         ids=["symmetric-float", "symmetric-bool", "partitioned-float",
                              "partitioned-bool"])
def test_excitation_number_must_be_an_integer(build):
    with pytest.raises(DomainError, match=r"^excitation number (1\.0|True) must be"):
        build()


@pytest.mark.parametrize("n", [-1, 5])
def test_excitation_number_outside_the_atom_count_is_refused(n):
    for build in (lambda: symmetric_state(n, 4),
                  lambda: symmetric_partitioned(n, Partition((2, 2)))):
        with pytest.raises(DomainError, match=rf"^excitation number {n} must be an integer "
                                              r"in 0\.\.4$"):
            build()


def test_bad_inputs():
    with pytest.raises(DomainError):
        Partition((0, 2))
    for signs in [(1, 0), (), (2,), (1, -1, 0)]:
        with pytest.raises(DomainError):
            SignPattern(signs)
    with pytest.raises(DomainError):
        named_state("nope", 8)
    with pytest.raises(DomainError):
        named_state("two_ABCD", 6)  # not divisible into four equal parts
    part = Partition.equal(4, 2)
    with pytest.raises(DomainError):
        PartitionedState(part, {(1, 0): 1.0, (0, 1): 1.0})  # norm sqrt(2)


@pytest.mark.parametrize("sizes, n", [((3, 1, 2, 2), 2), ((3, 1, 2, 2), 3),
                                      ((5, 3), 3), ((1, 4, 2), 4)])
def test_full_basis_embedding_per_index(sizes, n):
    # unequal parts: every index takes a / sqrt(weight) of its own
    # composition, counted atom by atom here, to the last bit
    part = Partition(sizes)
    rng = np.random.default_rng(len(sizes) * 10 + n)
    comps = list(symmetric_partitioned(n, part).amplitudes)
    amps = rng.normal(size=len(comps)) + 1j * rng.normal(size=len(comps))
    amps /= np.linalg.norm(amps)
    state = PartitionedState(part, dict(zip(comps, amps.tolist())))
    owner = [p for p, s in enumerate(sizes) for _ in range(s)]
    want = np.zeros(2 ** part.n_atoms, dtype=complex)
    for index in range(2 ** part.n_atoms):
        occ = [0] * len(sizes)
        for atom in range(part.n_atoms):
            occ[owner[atom]] += index >> atom & 1
        a = state.amplitudes.get(tuple(occ))
        if a is not None:
            weight = math.prod(math.comb(s, k) for s, k in zip(sizes, occ))
            want[index] += a / math.sqrt(weight)
    assert to_full_basis(state).amplitudes.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the array kernels against per-tuple references built here
# ---------------------------------------------------------------------------

def _ref_symmetric(n, sizes):
    """Every tuple of itertools.product with sum n, weighted in Python ints."""
    total = math.comb(sum(sizes), n)
    amps = {}
    for occ in itertools.product(*[range(min(n, s) + 1) for s in sizes]):
        if sum(occ) == n:
            w = math.prod(math.comb(s, k) for s, k in zip(sizes, occ))
            amps[occ] = math.sqrt(w / total)
    return amps


def _ref_signed(amps, signs):
    return {occ: a * math.prod(s ** k for s, k in zip(signs, occ))
            for occ, a in amps.items()}


def _ref_lower(amps, sizes):
    """R = sum_P R_P tuple by tuple, accumulated in a dict."""
    out = {}
    for occ, a in amps.items():
        for i, (k, cap) in enumerate(zip(occ, sizes)):
            if k:
                low = occ[:i] + (k - 1,) + occ[i + 1:]
                out[low] = out.get(low, 0.0) + math.sqrt(k * (cap - k + 1)) * a
    return out


def _signed_dicke_rate(n, plus, minus):
    """||R psi||^2 of the n-excitation Dicke state with ``minus`` atoms
    sign-flipped: each (n-1)-atom remainder with p plus and m minus atoms
    carries sum_{j outside} s_j = (plus - minus) - p + m."""
    return sum(math.comb(plus, p_) * math.comb(minus, n - 1 - p_)
               * (plus - minus - p_ + (n - 1 - p_)) ** 2
               for p_ in range(n)) / math.comb(plus + minus, n)


def _assert_same_dict(got, want):
    assert list(got) == list(want)
    assert list(got.values()) == list(want.values())
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


@pytest.mark.parametrize("sizes, n", [
    pytest.param((1, 3, 1), 4, id="small-parts"),
    pytest.param((3, 1, 2, 2), 3, id="uneven"),
    pytest.param((2, 5, 1, 4, 1), 3, id="uneven-5"),
    pytest.param((6000,) * 4, 5, id="weights-past-2^53"),
    pytest.param((4, 6), 0, id="n0"),
    pytest.param((7,), 3, id="one-part"),
    pytest.param((7,), 0, id="one-part-n0"),
    pytest.param((1,) * 7, 3, id="singles"),
    pytest.param((9, 9, 9), 9, id="full-parts"),
])
def test_partitioned_kernels_match_per_tuple_references(params, sizes, n):
    part = Partition(sizes)
    state = symmetric_partitioned(n, part)
    want = _ref_symmetric(n, sizes)
    _assert_same_dict(state.amplitudes, want)
    signs = tuple(1 if i % 3 else -1 for i in range(len(sizes)))
    signed = apply_sign_pattern(state, SignPattern(signs))
    _assert_same_dict(signed.amplitudes, _ref_signed(want, signs))
    unit = _unit(params)
    minus = sum(s for s, g in zip(sizes, signs) if g < 0)
    for st, amps, closed in ((state, want, n * (part.n_atoms - n + 1)),
                             (signed, signed.amplitudes,
                              _signed_dicke_rate(n, part.n_atoms - minus, minus))):
        ref = _ref_lower(amps, sizes)
        _assert_same_dict(lower(st), ref)
        rate = emission_rate(st, params)
        assert rate == unit * sum(abs(a) ** 2 for a in ref.values())
        assert rate / unit == pytest.approx(closed, rel=1e-12, abs=1e-12)


def test_lowering_of_complex_states_matches_reference(params):
    rng = np.random.default_rng(4)
    part = Partition((3, 1, 2, 4))
    for n in (1, 2, 3):
        keys = list(symmetric_partitioned(n, part).amplitudes)
        rng.shuffle(keys)
        raw = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
        raw /= np.linalg.norm(raw)
        amps = dict(zip(keys, raw.tolist()))
        state = PartitionedState(part, amps)
        ref = _ref_lower(amps, part.part_sizes)
        _assert_same_dict(lower(state), ref)
        assert emission_rate(state, params) == _unit(params) * sum(
            abs(a) ** 2 for a in ref.values())
        _assert_same_dict(apply_sign_pattern(state, SignPattern((1, -1, -1, 1))).amplitudes,
                          _ref_signed(amps, (1, -1, -1, 1)))


def test_lowering_codes_past_int64(params):
    # 48 parts of 3 atoms at n = 2: the mixed-radix codes reach 3^48 > 2^63
    part = Partition((3,) * 48)
    signs = (1, -1) * 24
    state = apply_sign_pattern(symmetric_partitioned(2, part), SignPattern(signs))
    ref = _ref_lower(state.amplitudes, part.part_sizes)
    _assert_same_dict(lower(state), ref)
    assert emission_rate(state, params) / _unit(params) == pytest.approx(
        _signed_dicke_rate(2, 72, 72), rel=1e-12)


def test_sign_flips_share_rows_with_their_state():
    part = Partition((3, 1, 2, 2))
    state = symmetric_partitioned(2, part)
    flipped = apply_sign_pattern(state, SignPattern((1, -1, 1, -1)))
    assert flipped._rows is state._rows
    assert not state._rows.matrix.flags.writeable
    assert not flipped._values.flags.writeable
    assert type(state.amplitudes) is dict and type(flipped.amplitudes) is dict


@pytest.mark.parametrize("amps, bad", [
    pytest.param({(0.5, 0.5): 1.0}, "(0.5, 0.5)", id="halves"),
    pytest.param({(True, False): 1.0}, "(True, False)", id="bools"),
    pytest.param({(1, 0): 0.6, (0, True): 0.8}, "(0, True)", id="one-bool"),
    pytest.param({(1.0, 0): 1.0}, "(1.0, 0)", id="float-one"),
])
def test_non_integer_occupations_are_refused(amps, bad):
    with pytest.raises(DomainError, match=re.escape(bad)):
        PartitionedState(Partition((2, 2)), amps)


def test_integer_occupations_of_any_int_type_are_accepted(params):
    part = Partition((np.int64(2), 2))
    state = PartitionedState(part, {(np.int64(1), 0): 0.6, (0, np.int32(1)): 0.8})
    assert state.excitation_number() == 1
    assert emission_rate(state, params) / _unit(params) == pytest.approx(
        (0.6 * math.sqrt(2) + 0.8 * math.sqrt(2)) ** 2)


@pytest.mark.parametrize("sizes", [(2.5, 2), (2.0, 2), (True, 2), (2, "2"), (2, -1), ()])
def test_non_integer_part_sizes_are_refused(sizes):
    with pytest.raises(DomainError, match=re.escape(repr(sizes))):
        Partition(sizes)


def test_occupations_outside_a_part_are_refused():
    part = Partition((2, 1))
    for occ in [(0, 2), (-1, 1), (3, 0)]:
        with pytest.raises(DomainError, match=re.escape(str(occ))):
            PartitionedState(part, {occ: 1.0})
    with pytest.raises(DomainError, match="length"):
        PartitionedState(part, {(1,): 1.0})


@pytest.mark.parametrize("amps", [{(1, 0): math.nan, (0, 1): 1.0},
                                  {(1, 0): complex(0.6, math.nan), (0, 1): 0.8}])
def test_nan_partitioned_amplitudes_are_refused(amps):
    with pytest.raises(DomainError, match="state norm nan is not 1"):
        PartitionedState(Partition((2, 2)), amps)


@pytest.mark.parametrize("amps", [[0, 1, 0, math.nan], [0, 0.6, 0.8, complex(0, math.nan)]])
def test_nan_full_basis_amplitudes_are_refused(amps):
    with pytest.raises(DomainError, match="state norm nan is not 1"):
        FullBasisState(2, amps)


@pytest.mark.parametrize("amps", [[0, 1, 0, 0], (0, 1, 0, 0), [0, 1j, 0, 0]])
def test_sequence_amplitudes_are_read_as_an_array(params, amps):
    state = FullBasisState(2, amps)
    assert state.amplitudes.dtype == complex
    assert state.excitation_number() == 1
    assert brute_force_rate(state, params) == _unit(params)
    # a complex array is kept as it is, not copied
    embedded = to_full_basis(symmetric_partitioned(1, Partition.equal(4, 2)))
    assert FullBasisState(4, embedded.amplitudes).amplitudes is embedded.amplitudes


# ---------------------------------------------------------------------------
# the support-only oracle against the dense lowering it replaced
# ---------------------------------------------------------------------------

def _dense_rate(state, p):
    """||R psi||^2 by N strided adds over the whole 2^N basis."""
    psi = state.amplitudes
    lowered = np.zeros_like(psi)
    for b in range(state.n_atoms):
        # lowering atom b maps each index with bit b set to the index without it
        lowered.reshape(-1, 2, 2 ** b)[:, 0] += psi.reshape(-1, 2, 2 ** b)[:, 1]
    return p.mu / p.excited_lifetime * float(np.sum(np.abs(lowered) ** 2))


def test_oracle_matches_the_dense_lowering(params):
    rng = np.random.default_rng(2306)
    for n_atoms in range(1, 15):
        basis = np.arange(2 ** n_atoms)
        count = np.bitwise_count(basis)
        for n in range(n_atoms + 1):
            shell = np.flatnonzero(count == n)
            support = rng.choice(shell, size=int(rng.integers(1, len(shell) + 1)),
                                 replace=False)
            amps = np.zeros(2 ** n_atoms, dtype=complex)
            amps[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
            amps /= np.linalg.norm(amps)
            # entries under the tolerance, in any shell, do not break the
            # definite number but are lowered all the same
            rest = np.setdiff1d(basis, support)
            tiny = rng.choice(rest, size=min(3, len(rest)), replace=False)
            amps[tiny] = 0.3 * _AMP_TOL * np.exp(2j * np.pi * rng.random(len(tiny)))
            kept = amps.copy()
            state = FullBasisState(n_atoms, amps)
            got, want = brute_force_rate(state, params), _dense_rate(state, params)
            assert abs(got - want) <= 1e-12 * want, (n_atoms, n, got, want)
            assert amps.tobytes() == kept.tobytes()


def test_oracle_refuses_a_superposition(params):
    amps = np.zeros(2 ** 4, dtype=complex)
    amps[[0b0001, 0b0011]] = 1 / math.sqrt(2)
    with pytest.raises(DomainError,
                       match="^state does not have a definite excitation number$"):
        brute_force_rate(FullBasisState(4, amps), params)


def test_oracle_traces_one_accumulator(params):
    state = to_full_basis(symmetric_partitioned(2, Partition.equal(20, 2)))
    tracemalloc.start()
    try:
        rate = brute_force_rate(state, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rate / _unit(params) == pytest.approx(2 * 19, rel=1e-12)
    # the 16 MiB complex accumulator; the dense lowering traced 24 MiB
    assert peak < 20 * 2 ** 20


# ---------------------------------------------------------------------------
# full-basis states held as their support
# ---------------------------------------------------------------------------

def _dense_embedding(state):
    """The dense construction that to_full_basis replaced: a mixed-radix code
    for each of the 2^N indices, gathered from a table over compositions."""
    sizes = state.partition.part_sizes
    radix = [math.prod(s + 1 for s in sizes[:p]) for p in range(len(sizes))]
    code = np.zeros(1, dtype=np.int64)
    for size, r in zip(sizes, radix):
        own = r * np.bitwise_count(np.arange(2 ** size)).astype(np.int64)
        code = (own[:, None] + code).ravel()
    occ = np.array(list(state.amplitudes), dtype=np.int64).reshape(-1, len(sizes))
    values = np.array(list(state.amplitudes.values()))
    root = np.sqrt(np.array([math.prod(map(math.comb, sizes, row)) for row in occ.tolist()],
                            dtype=float))
    at = occ @ np.array(radix)
    table = np.zeros(math.prod(s + 1 for s in sizes), dtype=complex)
    table.real[at] = values.real / root
    table.imag[at] = values.imag / root
    return table[code]


def _seeded_states(seed, sizes_list, ns=None):
    """Seeded complex states over each partition and excitation number,
    flipped by a seeded sign pattern; one row of each is 0 before the flip,
    so that it may end as -0."""
    rng = np.random.default_rng(seed)
    for sizes in sizes_list:
        part = Partition(sizes)
        for n in ns or range(part.n_atoms + 1):
            keys = list(symmetric_partitioned(n, part).amplitudes)
            raw = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
            if len(keys) > 1:
                raw[rng.integers(len(keys))] = 0
            raw /= np.linalg.norm(raw)
            state = PartitionedState(part, dict(zip(keys, raw.tolist())))
            signs = SignPattern(tuple(int(s) for s in rng.choice([-1, 1], size=len(sizes))))
            yield part, apply_sign_pattern(state, signs)


SUPPORT_PARTITIONS = [(3, 1, 2, 2), (5, 3), (1,) * 6, (2, 5, 1, 4, 1), (7,), (1, 9, 2)]


def test_embedding_matches_the_dense_table_byte_for_byte():
    states = itertools.chain(_seeded_states(11, SUPPORT_PARTITIONS),
                             _seeded_states(12, [(6, 4, 3, 7), (20,)], ns=(0, 1, 2, 10, 19, 20)))
    for part, state in states:
        got = to_full_basis(state)
        want = _dense_embedding(state)
        assert got.amplitudes.tobytes() == want.tobytes(), (part, state.amplitudes)
        index, values = got._support
        assert np.all(np.diff(index) > 0)
        assert np.array_equal(np.flatnonzero(want != 0), index[values != 0])


def test_support_state_rates_as_its_dense_copy(params):
    for part, state in _seeded_states(13, SUPPORT_PARTITIONS):
        lazy = to_full_basis(state)
        rate = brute_force_rate(lazy, params)
        assert "amplitudes" not in lazy.__dict__
        dense = FullBasisState(part.n_atoms, lazy.amplitudes.copy())
        assert repr(rate) == repr(brute_force_rate(dense, params)), (part, state.amplitudes)
        # a dense state has its support from construction, and both of its
        # readers share it
        support = dense._support
        assert dense.excitation_number() == sum(next(iter(state.amplitudes)))
        assert dense._support is support


def test_dense_state_takes_its_support_on_construction():
    rng = np.random.default_rng(25)
    amps = np.zeros(2 ** 10, dtype=complex)
    on = rng.choice(2 ** 10, size=40, replace=False)
    amps[on] = rng.normal(size=40) + 1j * rng.normal(size=40)
    # a zero of either sign is off the support
    amps[on[:3]] = [-0.0, complex(0.0, -0.0), complex(-0.0, -0.0)]
    amps /= np.linalg.norm(amps)
    state = FullBasisState(10, amps)
    assert "_support" in state.__dict__
    index, values = state._support
    assert index.tobytes() == np.flatnonzero(amps != 0).tobytes()
    assert values.tobytes() == amps[index].tobytes()
    assert len(index) == 37
    assert not index.flags.writeable and not values.flags.writeable
    # the caller's complex array is kept, not copied
    assert state.amplitudes is amps


def test_sign_flip_reads_the_support_only():
    for part, state in _seeded_states(14, SUPPORT_PARTITIONS[:4]):
        pattern = SignPattern(tuple((-1) ** (i % 3 == 1) for i in range(part.n_parts)))
        for full in (to_full_basis(state),
                     FullBasisState(part.n_atoms, to_full_basis(state).amplitudes.copy())):
            flipped = apply_sign_pattern(full, pattern, partition=part)
            assert flipped._support[0] is full._support[0]
            # the dense flip it replaced, which also wrote -0 off the support
            owner = [p for p, s in enumerate(part.part_sizes) for _ in range(s)]
            minus = sum(1 << atom for atom, p in enumerate(owner) if pattern.signs[p] < 0)
            phase = np.where(np.bitwise_count(np.arange(2 ** part.n_atoms) & minus) & 1,
                             -1.0, 1.0)
            want = full.amplitudes * phase
            on = np.zeros(len(want), dtype=bool)
            on[full._support[0]] = True
            assert flipped.amplitudes.tobytes() == np.where(on, want, 0).tobytes()


def test_symmetric_state_matches_the_dense_formula():
    for n_atoms in range(13):
        count = np.bitwise_count(np.arange(2 ** n_atoms))
        for n in range(n_atoms + 1):
            want = np.zeros(2 ** n_atoms, dtype=complex)
            want[count == n] = 1.0 / math.sqrt(math.comb(n_atoms, n))
            assert symmetric_state(n, n_atoms).amplitudes.tobytes() == want.tobytes()
    with pytest.raises(DomainError, match="capped"):
        symmetric_state(2, 40)


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_embedding_traces_its_support_only():
    state = apply_sign_pattern(symmetric_partitioned(2, Partition.equal(20, 2)),
                               SignPattern((1, -1)))
    full, peak = _traced_peak(lambda: to_full_basis(state))
    assert len(full._support[0]) == math.comb(20, 2)
    # the dense code table and vector traced about 24 MiB
    assert peak < 2 ** 20


def test_printing_a_state_builds_no_vector():
    state = to_full_basis(symmetric_partitioned(2, Partition.equal(20, 2)))
    text, peak = _traced_peak(lambda: repr(state))
    assert text == "FullBasisState(n_atoms=20)"
    assert peak < 2 ** 20
    assert "amplitudes" not in state.__dict__


def test_oracle_rate_does_not_depend_on_the_blas_thread_count(crystal_input):
    # a BLAS dot product splits a long sum between its threads, which moves
    # the last bits: in units of mu / T1 this rate read 132.0000000001752 on
    # one thread and 132.0000000001095 on more
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import json, sys\n"
            "from subradiance import (EnsembleInput, Partition, brute_force_rate,\n"
            "                         derive_params, symmetric_partitioned, to_full_basis)\n"
            "p = derive_params(EnsembleInput(**json.loads(sys.argv[1])))\n"
            "state = to_full_basis(symmetric_partitioned(11, Partition.equal(22, 2)))\n"
            "print(repr(brute_force_rate(state, p)))\n")
    rates = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        run = subprocess.run([sys.executable, "-c", code, json.dumps(vars(crystal_input))], env=env,
                             capture_output=True, text=True, check=True)
        rates.append(run.stdout.strip())
    assert rates[0] == rates[1]


def test_full_basis_states_compare_by_atom_count_and_support():
    # equality reads N and the support: no 2^N vector is built or compared
    a = FullBasisState(2, [0, 1, 0, 0])
    assert a == FullBasisState(2, [0, 1, 0, 0])
    assert a != FullBasisState(2, [0, 0, 1, 0])
    assert a != FullBasisState(2, [0, -1, 0, 0])
    assert a != FullBasisState(1, [0, 1])
    assert a != "FullBasisState(n_atoms=2)"
    # a state built from its support equals its dense copy, and an explicit
    # zero on the support is no part of it
    part = Partition.equal(20, 2)
    lazy = to_full_basis(symmetric_partitioned(2, part))
    index, values = lazy._support
    padded = FullBasisState._of(20, np.append(index, 2 ** 20 - 1),
                                np.append(values, 0j))
    _, peak = _traced_peak(lambda: lazy == padded)
    assert lazy == padded and peak < 2 ** 20
    assert "amplitudes" not in lazy.__dict__ and "amplitudes" not in padded.__dict__
    assert lazy == FullBasisState(20, lazy.amplitudes.copy())
    assert lazy != apply_sign_pattern(lazy, SignPattern((1, -1)), partition=part)


@pytest.mark.parametrize("n_parts", [0, -2, 2.0, True, "2", None])
def test_a_part_count_that_is_not_a_positive_integer_is_refused(n_parts):
    with pytest.raises(DomainError, match=f"part count {re.escape(repr(n_parts))} "):
        Partition.equal(4, n_parts)
