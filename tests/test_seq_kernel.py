import itertools

import numpy as np
import pytest

from kernelnn.errors import ContractError, GuardError, ShapeError
from kernelnn.inputs import (
    ADDITIVE,
    MULTIPLICATIVE,
    NORMALIZED,
    UNNORMALIZED,
    FeatureSequence,
    SeqKernelConfig,
)
from kernelnn.seq_kernel import (
    deep_sequence_kernel,
    decay_pow,
    gated_string_kernel_state,
    gram_matrix,
    reference_sequence,
    string_kernel,
    suffix_weight_sum,
    unrolled_state,
)

from helpers import explicit_feature_map

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def rand_seq(rng, length, dim):
    return FeatureSequence([rng.normal(size=dim) for _ in range(length)], dim=dim)


def test_identity_pair_scores_one():
    x = FeatureSequence([E1, E2])
    cfg = SeqKernelConfig(n=2, lam=0.3)
    assert string_kernel(x, x, cfg) == pytest.approx(1.0, abs=0.0)


def test_orthogonal_tokens_score_zero():
    x = FeatureSequence([E1, E1])
    y = FeatureSequence([E2, E2])
    assert string_kernel(x, y, SeqKernelConfig(n=2, lam=0.7)) == 0.0


def test_hand_enumerated_three_token_case():
    x = FeatureSequence([E1, E2, E1])
    y = FeatureSequence([E1, E1])
    cfg = SeqKernelConfig(n=2, lam=0.5)
    assert string_kernel(x, y, cfg) == pytest.approx(0.5, abs=1e-15)


def test_too_short_sequences_give_zero():
    x = FeatureSequence([E1])
    y = FeatureSequence([E1, E2, E1])
    cfg = SeqKernelConfig(n=2, lam=0.5)
    assert string_kernel(x, y, cfg) == 0.0
    assert string_kernel(y, x, cfg) == 0.0


def test_dimension_mismatch_raises():
    x = FeatureSequence([E1, E2])
    y = FeatureSequence([np.ones(3), np.ones(3)])
    with pytest.raises(ShapeError):
        string_kernel(x, y, SeqKernelConfig(n=2, lam=0.5))


def test_length_guard():
    x = FeatureSequence([E1] * 17)
    with pytest.raises(GuardError):
        string_kernel(x, x, SeqKernelConfig(n=2, lam=0.5))


@pytest.mark.parametrize("composition", [MULTIPLICATIVE, ADDITIVE])
@pytest.mark.parametrize("normalization", [UNNORMALIZED, NORMALIZED])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetry_all_variants(composition, normalization, n):
    rng = np.random.default_rng(5)
    cfg = SeqKernelConfig(n=n, lam=0.4, composition=composition, normalization=normalization)
    for _ in range(5):
        x = rand_seq(rng, rng.integers(n, 6), 3)
        y = rand_seq(rng, rng.integers(n, 6), 3)
        assert string_kernel(x, y, cfg) == string_kernel(y, x, cfg)


def test_single_token_feature_map_is_token():
    x = FeatureSequence([E1])
    phi = explicit_feature_map(x, SeqKernelConfig(n=1, lam=0.9))
    assert np.allclose(phi, E1)


def test_empty_sequence_feature_map_is_zero():
    x = FeatureSequence((), dim=2)
    cfg = SeqKernelConfig(n=2, lam=0.5)
    assert np.allclose(explicit_feature_map(x, cfg), np.zeros(4))


def test_feature_map_capacity_guard():
    x = rand_seq(np.random.default_rng(0), 4, 40)
    with pytest.raises(GuardError):
        explicit_feature_map(x, SeqKernelConfig(n=4, lam=0.5))


@pytest.mark.parametrize("composition", [MULTIPLICATIVE, ADDITIVE])
@pytest.mark.parametrize("normalization", [UNNORMALIZED, NORMALIZED])
def test_feature_map_inner_product_matches_kernel(composition, normalization):
    rng = np.random.default_rng(11)
    cfg = SeqKernelConfig(n=2, lam=0.5, composition=composition, normalization=normalization)
    for _ in range(8):
        x = rand_seq(rng, rng.integers(2, 6), 2)
        y = rand_seq(rng, rng.integers(2, 6), 2)
        k = string_kernel(x, y, cfg)
        inner = float(np.dot(explicit_feature_map(x, cfg), explicit_feature_map(y, cfg)))
        assert abs(k - inner) <= 1e-12 * max(1.0, abs(k))


def test_suffix_weight_sum_matches_enumeration():
    lam, n, length = 0.6, 3, 7
    brute = sum(
        decay_pow(lam, length - (idx[0] + 1) - n + 1)
        for idx in itertools.combinations(range(length), n)
    )
    assert suffix_weight_sum(length, n, lam) == pytest.approx(brute, rel=1e-14)


def test_lambda_zero_keeps_only_contiguous_suffix():
    rng = np.random.default_rng(2)
    n = 3
    cfg = SeqKernelConfig(n=n, lam=0.0)
    x = rand_seq(rng, 6, 2)
    y = rand_seq(rng, 5, 2)
    suffix = lambda s: [s[len(s) - n + m] for m in range(n)]
    expected = 1.0
    for a, b in zip(suffix(x.tokens), suffix(y.tokens)):
        expected *= float(np.dot(a, b))
    assert string_kernel(x, y, cfg) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("composition", [MULTIPLICATIVE, ADDITIVE])
@pytest.mark.parametrize("normalization", [UNNORMALIZED, NORMALIZED])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_gram_matrices_are_psd(composition, normalization, n):
    rng = np.random.default_rng(23 + n)
    cfg = SeqKernelConfig(n=n, lam=0.5, composition=composition, normalization=normalization)
    seqs = [rand_seq(rng, rng.integers(n, 7), 3) for _ in range(8)]
    gram = gram_matrix(seqs, lambda a, b: string_kernel(a, b, cfg))
    assert np.array_equal(gram, gram.T)
    eig = np.linalg.eigvalsh(gram)
    assert eig.min() >= -1e-8 * max(eig.max(), 1e-30)


def test_gram_singleton_nonnegative_and_duplicates_repeat():
    rng = np.random.default_rng(1)
    cfg = SeqKernelConfig(n=2, lam=0.5)
    x = rand_seq(rng, 4, 2)
    g1 = gram_matrix([x], lambda a, b: string_kernel(a, b, cfg))
    assert g1.shape == (1, 1) and g1[0, 0] >= 0.0
    g2 = gram_matrix([x, x], lambda a, b: string_kernel(a, b, cfg))
    assert np.array_equal(g2[0], g2[1])


def test_unrolled_state_coordinates_equal_reference_kernel():
    # two independent paths: tuple enumeration of projected products vs the
    # pairwise kernel against the reference rows
    rng = np.random.default_rng(7)
    n, m, d, length = 3, 4, 3, 6
    ws = [rng.normal(size=(m, d)) for _ in range(n)]
    x = rand_seq(rng, length, d)
    cfg = SeqKernelConfig(n=n, lam=0.35)
    state = unrolled_state(x, ws, 0.35, "mult-unnorm")
    for i in range(m):
        ref = reference_sequence(ws, i)
        assert state[i] == pytest.approx(string_kernel(x, ref, cfg), rel=1e-12, abs=1e-12)


def test_gated_oracle_with_constant_gates_reduces_to_string_kernel():
    rng = np.random.default_rng(9)
    n, m, d, length, lam = 2, 3, 2, 5, 0.45
    ws = [rng.normal(size=(m, d)) for _ in range(n)]
    x = rand_seq(rng, length, d)
    gates = [np.full(m, lam) for _ in range(length)]
    cfg = SeqKernelConfig(n=n, lam=lam)
    for i in range(m):
        got = gated_string_kernel_state(x, gates, ws, i)
        want = string_kernel(x, reference_sequence(ws, i), cfg)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_gated_oracle_full_length_tuple_ignores_gates():
    rng = np.random.default_rng(13)
    n = 3
    ws = [rng.normal(size=(2, 2)) for _ in range(n)]
    x = rand_seq(rng, n, 2)
    gates_a = [rng.uniform(0.2, 0.8, size=2) for _ in range(n)]
    gates_b = [rng.uniform(0.2, 0.8, size=2) for _ in range(n)]
    for i in range(2):
        assert gated_string_kernel_state(x, gates_a, ws, i) == pytest.approx(
            gated_string_kernel_state(x, gates_b, ws, i), rel=1e-12
        )


def test_gated_oracle_rejects_out_of_range_gates():
    ws = [np.eye(2)]
    x = FeatureSequence([E1, E2])
    with pytest.raises(ContractError):
        gated_string_kernel_state(x, [np.array([0.5, 1.0])] * 2, ws, 0)


def test_deep_kernel_depth_one_is_string_kernel():
    rng = np.random.default_rng(21)
    cfg = SeqKernelConfig(n=2, lam=0.5)
    x = rand_seq(rng, 4, 2)
    y = rand_seq(rng, 3, 2)
    assert deep_sequence_kernel(x, y, 1, cfg) == pytest.approx(
        string_kernel(x, y, cfg), rel=1e-14
    )


def test_deep_kernel_short_inputs_zero():
    cfg = SeqKernelConfig(n=2, lam=0.5)
    x = FeatureSequence([E1])
    y = FeatureSequence([E1, E2, E1])
    assert deep_sequence_kernel(x, y, 2, cfg) == 0.0


def test_deep_kernel_symmetry():
    rng = np.random.default_rng(29)
    cfg = SeqKernelConfig(n=2, lam=0.5)
    for _ in range(3):
        x = rand_seq(rng, 3, 2)
        y = rand_seq(rng, 3, 2)
        a = deep_sequence_kernel(x, y, 2, cfg)
        b = deep_sequence_kernel(y, x, 2, cfg)
        assert a == pytest.approx(b, rel=1e-12)


def test_oracle_sums_satisfy_state_recurrence():
    # appending a token rescales old contributions by lam and adds the new column
    rng = np.random.default_rng(31)
    n, m, d, length, lam = 2, 3, 2, 5, 0.6
    ws = [rng.normal(size=(m, d)) for _ in range(n)]
    x = rand_seq(rng, length, d)
    for t in range(1, length + 1):
        c_n_t = unrolled_state(x, ws, lam, "mult-unnorm", t=t)
        c_n_prev = unrolled_state(x, ws, lam, "mult-unnorm", t=t - 1)
        c_nm1_prev = unrolled_state(x, ws[:-1], lam, "mult-unnorm", t=t - 1)
        step = c_nm1_prev * (ws[-1] @ x.tokens[t - 1])
        assert np.allclose(c_n_t, lam * c_n_prev + step, rtol=1e-12, atol=1e-12)
