"""The dynamic-programming string kernels against the exhaustive oracles and closed forms."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelnn import seq_dp
from kernelnn.cli import EXIT_OK, main
from kernelnn.errors import ContractError
from kernelnn.inputs import SeqKernelConfig
from kernelnn.seq_kernel import deep_sequence_kernel, string_kernel
from kernelnn.tensor import rel_error
from kernelnn.verify import SEQ_KERNEL_VARIANTS, random_kernel_pair


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    n=st.integers(1, 3),
    lam=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
    lx=st.integers(0, 16),
    ly=st.integers(0, 16),
    variant=st.sampled_from(SEQ_KERNEL_VARIANTS),
    onehot=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, lam=0.0, lx=16, ly=16, variant=SEQ_KERNEL_VARIANTS[1], onehot=False, seed=0)
@example(n=2, lam=0.5, lx=0, ly=5, variant=SEQ_KERNEL_VARIANTS[3], onehot=True, seed=0)
def test_string_kernel_matches_oracle(n, lam, lx, ly, variant, onehot, seed):
    cfg = SeqKernelConfig(n=n, lam=lam, composition=variant[0], normalization=variant[1])
    x, y, sim = random_kernel_pair(np.random.default_rng(seed), lx, ly, onehot)
    assert rel_error(seq_dp.string_kernel(sim, cfg), string_kernel(x, y, cfg)) <= 1e-10


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("variant", SEQ_KERNEL_VARIANTS, ids=lambda v: f"{v[0][:4]}-{v[1][:6]}")
def test_deep_sequence_kernel_matches_oracle(depth, variant):
    rng = np.random.default_rng(depth)
    for n in (1, 2, 3):
        cfg = SeqKernelConfig(n=n, lam=0.6, composition=variant[0], normalization=variant[1])
        x, y, sim = random_kernel_pair(rng, 6, 5, onehot=False)
        assert rel_error(seq_dp.deep_sequence_kernel(sim, depth, cfg),
                         deep_sequence_kernel(x, y, depth, cfg)) <= 1e-10


@pytest.mark.parametrize("variant", SEQ_KERNEL_VARIANTS, ids=lambda v: f"{v[0][:4]}-{v[1][:6]}")
@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.99])
def test_string_kernel_is_the_tables_last_entry_bit_for_bit(variant, lam):
    rng = np.random.default_rng(int(lam * 100))
    lengths = [(0, 0), (0, 6), (5, 0), (1, 1), (4, 3), (40, 40), (40, 17),
               *(tuple(rng.integers(0, 41, 2)) for _ in range(4))]
    for n in range(1, 5):
        cfg = SeqKernelConfig(n=n, lam=lam, composition=variant[0], normalization=variant[1])
        for lx, ly in lengths:
            sim = rng.normal(size=(lx, ly))
            want = seq_dp.prefix_kernel_table(sim, cfg)[-1, -1]
            assert np.float64(seq_dp.string_kernel(sim, cfg)).tobytes() == want.tobytes()


def test_table_holds_every_prefix_kernel():
    rng = np.random.default_rng(3)
    cfg = SeqKernelConfig(n=2, lam=0.7, composition="additive", normalization="normalized")
    x, y, sim = random_kernel_pair(rng, 7, 6, onehot=False)
    table = seq_dp.prefix_kernel_table(sim, cfg)
    assert table.shape == (8, 7)
    for i in range(8):
        for k in range(7):
            assert rel_error(table[i, k], string_kernel(x.prefix(i), y.prefix(k), cfg)) <= 1e-10


def _clear_caches():
    seq_dp._decay_matrix.cache_clear()
    seq_dp._longest_weights.cache_clear()


def assert_warm_and_cold_caches_agree():
    """Tables built with the caches as earlier calls left them, then cold, then warm from empty,
    over interleaved lambdas and lengths that cross BLOCK, all have the same bits.

    The last pass leaves every lambda in the caches at the current BLOCK.
    """
    rng = np.random.default_rng(21)
    cases = [(rng.normal(size=(length, (7 * length + 3) % 41)),
              SeqKernelConfig(n=n, lam=lam, composition=variant[0], normalization=variant[1]))
             for length in rng.permutation(41)
             for n, lam in ((1, 0.0), (3, 0.3), (2, 0.5), (3, 0.99))
             for variant in SEQ_KERNEL_VARIANTS]
    warm = [seq_dp.prefix_kernel_table(sim, cfg).tobytes() for sim, cfg in cases]
    for (sim, cfg), table in zip(cases, warm):
        _clear_caches()
        assert seq_dp.prefix_kernel_table(sim, cfg).tobytes() == table
    _clear_caches()
    assert [seq_dp.prefix_kernel_table(sim, cfg).tobytes() for sim, cfg in cases] == warm


def test_warm_and_cold_caches_agree_before_a_block_change():
    assert_warm_and_cold_caches_agree()


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.99])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("variant", SEQ_KERNEL_VARIANTS, ids=lambda v: f"{v[0][:4]}-{v[1][:6]}")
def test_block_carries_match_oracle(monkeypatch, variant, n, lam):
    # at the default block size no input of 16 tokens or fewer reaches the carry
    monkeypatch.setattr(seq_dp, "BLOCK", 3)
    cfg = SeqKernelConfig(n=n, lam=lam, composition=variant[0], normalization=variant[1])
    rng = np.random.default_rng(n)
    for lx in range(17):
        ly = (5 * lx + 3) % 17
        x, y, sim = random_kernel_pair(rng, lx, ly, onehot=lx % 2 == 0)
        assert rel_error(seq_dp.string_kernel(sim, cfg), string_kernel(x, y, cfg)) <= 1e-10
    x, y, sim = random_kernel_pair(rng, 7, 8, onehot=False)
    table = seq_dp.prefix_kernel_table(sim, cfg)
    for i in range(8):
        for k in range(9):
            assert rel_error(table[i, k], string_kernel(x.prefix(i), y.prefix(k), cfg)) <= 1e-10


def test_warm_and_cold_caches_agree_after_a_block_change(monkeypatch):
    assert_warm_and_cold_caches_agree()
    monkeypatch.setattr(seq_dp, "BLOCK", 3)  # the block size is part of the decay matrix's key
    assert_warm_and_cold_caches_agree()
    monkeypatch.undo()
    assert_warm_and_cold_caches_agree()


def test_cached_set_up_is_read_only():
    m = seq_dp._decay_matrix(0.5, seq_dp.BLOCK)
    w = seq_dp._tuple_weights(5, 2, 0.5)
    for array in (m, w[0], w[1]):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_tuple_weights_slice_the_longest_build():
    _clear_caches()
    seq_dp._tuple_weights(40, 3, 0.3)
    warm = seq_dp._tuple_weights(7, 3, 0.3)
    assert [len(a) for a in seq_dp._longest_weights(3, 0.3)] == [41] * 3  # one entry, the longest
    _clear_caches()
    cold = seq_dp._tuple_weights(7, 3, 0.3)
    assert [a.tobytes() for a in warm] == [a.tobytes() for a in cold]


def test_kernel_call_builds_the_decay_matrix_once(tmp_path, capsys):
    rng = np.random.default_rng(4)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("".join(" ".join(rng.choice(list("abcd"), size=8 + i % 9)) + "\n"
                             for i in range(32)))
    _clear_caches()
    code = main(["kernel", "--task", "seq", "--file", str(pairs), "--vocab",
                 str(Path(__file__).parent / "fixtures" / "vocab.txt"), "--n", "3",
                 "--lambda", "0.3", "--variant", "mult-norm"])
    assert code == EXIT_OK and len(capsys.readouterr().out.splitlines()) == 16
    assert seq_dp._decay_matrix.cache_info().misses == 1
    assert seq_dp._longest_weights.cache_info().misses == 1


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.999])
def test_order_one_closed_form_at_a_thousand_tokens(lam):
    rng = np.random.default_rng(11)
    x, y = rng.integers(0, 5, size=1000), rng.integers(0, 5, size=900)
    match = (x[:, None] == y[None, :]).astype(np.float64)
    # sum over a, b of lam**(Lx-1-a) lam**(Ly-1-b) [x_a = y_b], with 0**0 = 1
    wx = lam ** np.arange(len(x) - 1, -1, -1.0)
    wy = lam ** np.arange(len(y) - 1, -1, -1.0)
    want = float(wx @ match @ wy)
    got = seq_dp.string_kernel(match, SeqKernelConfig(n=1, lam=lam))
    assert rel_error(got, want) <= 1e-10


@pytest.mark.parametrize("n", [1, 3, 6])
def test_repeated_token_normalizes_to_one_at_a_thousand_tokens(n):
    sim = np.ones((1000, 1000))
    cfg = SeqKernelConfig(n=n, lam=0.9, normalization="normalized")
    assert abs(seq_dp.string_kernel(sim, cfg) - 1.0) <= 1e-12


def test_deep_kernel_rejects_depth_below_one():
    with pytest.raises(ContractError):
        seq_dp.deep_sequence_kernel(np.ones((2, 2)), 0, SeqKernelConfig(n=1, lam=0.5))
