"""The dynamic-programming string kernels against the exhaustive oracles and closed forms.

The stacked DP and its stack of one stay within ``C_EXACT * eps * K_abs`` of the exact value
of the prefix recursion, where K_abs is the recursion over |S|, also where the terms cancel
to 1e-4 of K_abs or less.
"""

from fractions import Fraction
from pathlib import Path
from unittest import mock

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

from helpers import exact_string_kernel


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


# ---------------------------------------------------------------------------
# the exact prefix recursion: |DP - exact| <= C_EXACT * eps * K_abs
# ---------------------------------------------------------------------------

EPS = np.finfo(np.float64).eps
# the largest |DP - exact| / (eps K_abs) seen: 2.10 over 700 random stacks drawn as below
# (the oracle 1.80 on the same inputs), with blocks of 3 rows, 17 tokens, order 4 and depth 3
C_EXACT = 8
DIM = 3


def dots(xs, ys) -> np.ndarray:
    """The similarity matrix as the oracle forms it, one float64 ``np.dot`` per token pair."""
    return np.array([[np.dot(a, b) for b in ys] for a in xs]).reshape(len(xs), len(ys))


def cancelled(xs, ys, cfg, depth, delta):
    """``xs`` with its last token scaled so that the kernel is ``delta`` times the kernel with
    that token zero.  The kernel is affine in the last token at every depth: no level reads
    the last row of its similarities but through its own last-row terms."""
    if len(xs) == 0:
        return xs
    k0, k1 = (exact_string_kernel(dots(np.vstack([xs[:-1], last]), ys), cfg, depth)[0]
              for last in (np.zeros(DIM), xs[-1]))
    if k1 == k0:
        return xs
    t = float(-(1 - Fraction(delta)) * k0 / (k1 - k0))
    return np.vstack([xs[:-1], t * xs[-1]])


def error_in_eps(got, want, k_abs):
    """|got - want| in units of eps * K_abs (0 where both are 0)."""
    err = abs(Fraction(float(got)) - want)
    return float(err / (Fraction(EPS) * k_abs)) if err else 0.0


@st.composite
def referee_stacks(draw):
    """A config, a depth, a block size, and a stack of 1-3 pairs of real features whose
    lengths all pad to one shape: 0-17 a side, so that sides of 16 or more cross the grid, or
    0-8 past depth 1, where the exact tables of 17 tokens take seconds.  The first pair's
    kernel may cancel to about 1e-5 or 2**-30 of itself."""
    variant = draw(st.sampled_from(SEQ_KERNEL_VARIANTS))
    cfg = SeqKernelConfig(n=draw(st.integers(1, 4)), lam=draw(st.one_of(
        st.just(0.0), st.floats(1e-3, 0.99))), composition=variant[0], normalization=variant[1])
    depth, block = draw(st.integers(1, 3)), draw(st.sampled_from([3, seq_dp.BLOCK]))
    sides = [draw(st.sampled_from([(0, 15), (16, 17)] if depth == 1 else [(0, 8)]))
             for _ in range(2)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        xs, ys = (rng.normal(size=(int(rng.integers(lo, hi + 1)), DIM)) for lo, hi in sides)
        pairs.append((xs, ys))
    delta = draw(st.sampled_from([None, 1e-5, 2.0**-30]))
    if delta is not None:
        xs, ys = pairs[0]
        pairs[0] = cancelled(xs, ys, cfg, depth, delta), ys
    return cfg, depth, block, [dots(xs, ys) for xs, ys in pairs]


def stack_of(sims) -> np.ndarray:
    """Similarity matrices of one padded shape, zero-padded into one stack."""
    stack = np.zeros((len(sims), *(seq_dp.padded(v) for v in sims[0].shape)))
    for p, sim in enumerate(sims):
        stack[p, :sim.shape[0], :sim.shape[1]] = sim
    return stack


@settings(derandomize=True, database=None, deadline=None, max_examples=45)
@given(referee_stacks())
def test_stacked_dp_and_its_stack_of_one_are_near_the_exact_value(case):
    cfg, depth, block, sims = case
    with mock.patch.object(seq_dp, "BLOCK", block):
        got = seq_dp.string_kernels(stack_of(sims), [sim.shape for sim in sims], depth, cfg)
        alone = [seq_dp.deep_sequence_kernel(sim, depth, cfg) for sim in sims]
    for p, sim in enumerate(sims):
        k, k_abs = exact_string_kernel(sim, cfg, depth)
        assert error_in_eps(got[p], k, k_abs) <= C_EXACT
        assert error_in_eps(alone[p], k, k_abs) <= C_EXACT


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("variant", SEQ_KERNEL_VARIANTS, ids=lambda v: f"{v[0][:4]}-{v[1][:6]}")
def test_the_cancelling_pairs_cancel(variant, depth):
    # the referee test above sees K_abs / |K| of 1e4 and more
    cfg = SeqKernelConfig(n=2, lam=0.7, composition=variant[0], normalization=variant[1])
    rng = np.random.default_rng(depth)
    xs, ys = rng.normal(size=(9, DIM)), rng.normal(size=(7, DIM))
    k, k_abs = exact_string_kernel(dots(cancelled(xs, ys, cfg, depth, 1e-5), ys), cfg, depth)
    assert k != 0 and k_abs / abs(k) >= 1e4


# ---------------------------------------------------------------------------
# a pair's bits depend on its own lengths only
# ---------------------------------------------------------------------------


@st.composite
def mixed_stacks(draw):
    """A config, a depth, and 1-6 real similarity matrices of one padded shape, with sides of
    0 to 40 tokens: some shorter than n, some crossing a block of 32 rows."""
    variant = draw(st.sampled_from(SEQ_KERNEL_VARIANTS))
    cfg = SeqKernelConfig(n=draw(st.integers(1, 4)), lam=draw(st.floats(0.0, 0.99)),
                          composition=variant[0], normalization=variant[1])
    sides = [draw(st.sampled_from([(0, 15), (16, 31), (32, 40)])) for _ in range(2)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sims = [rng.normal(size=tuple(int(rng.integers(lo, hi + 1)) for lo, hi in sides))
            for _ in range(draw(st.integers(1, 6)))]
    return cfg, draw(st.integers(1, 3)), sims


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(mixed_stacks())
def test_a_stack_of_one_gives_the_stacked_bits(case):
    cfg, depth, sims = case
    got = seq_dp.string_kernels(stack_of(sims), [sim.shape for sim in sims], depth, cfg)
    for p, sim in enumerate(sims):
        alone = (seq_dp.deep_sequence_kernel(sim, depth, cfg) if depth > 1
                 else seq_dp.string_kernel(sim, cfg))
        assert np.float64(alone).tobytes() == got[p].tobytes()
        if min(sim.shape) < cfg.n:
            assert got[p].tobytes() == np.float64(0.0).tobytes()


def test_string_kernels_refuses_a_stack_its_pairs_do_not_pad_to():
    cfg = SeqKernelConfig(n=2, lam=0.5)
    for sims, lengths in [(np.zeros((1, 31, 15)), [(15, 15)]), (np.zeros((1, 15, 15)), [(-1, 3)]),
                          (np.zeros((2, 15, 15)), [(3, 3)]), (np.zeros((15, 15)), [(3, 3)])]:
        with pytest.raises(ContractError):
            seq_dp.string_kernels(sims, lengths, 1, cfg)


def test_stacks_group_by_padded_shape_under_the_cell_budget():
    lengths = [(8, 16), (11, 11), (15, 15), (16, 3), (0, 0), (300, 300), (301, 250), (9, 9)]
    assert seq_dp.stacks(lengths) == [[0], [1, 2, 4, 7], [3], [5], [6]]
    per = seq_dp.STACK_CELLS // 16**2
    assert [len(s) for s in seq_dp.stacks([(3, 4)] * (per + 1))] == [per, 1]
