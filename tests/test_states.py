import itertools
import math

import numpy as np
import pytest

from subradiance import (DomainError, FullBasisState, Partition,
                         PartitionedState, SignPattern, apply_sign_pattern,
                         brute_force_rate, emission_rate, named_state,
                         symmetric_partitioned, symmetric_state, to_full_basis)

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
