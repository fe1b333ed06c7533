import numpy as np
import pytest

from kernelnn.errors import ConfigError, ContractError, ShapeError
from kernelnn.inputs import FeatureSequence, SeqKernelConfig
from kernelnn.seq_kernel import (
    deep_sequence_kernel,
    gated_string_kernel_state,
    reference_sequence,
    string_kernel,
    unrolled_state,
)
from kernelnn.seq_nn import (
    SeqLayerParams,
    SeqModelConfig,
    forward_layer,
    forward_stack,
    init_seq_layer,
    init_seq_stack,
    logit,
)
from kernelnn.tensor import (
    Activation,
    Tape,
    Tensor,
    accumulate,
    dot,
    finite_diff_grad,
    mul,
    rel_error,
    row,
)

from helpers import tsum


def rand_seq(rng, length, dim):
    return FeatureSequence([rng.normal(size=dim) for _ in range(length)], dim=dim)


def range_residual(gram, values):
    sol, *_ = np.linalg.lstsq(gram, values, rcond=None)
    resid = gram @ sol - values
    denom = np.linalg.norm(values)
    return float(np.linalg.norm(resid) / denom) if denom > 0 else 0.0


# ---------------------------------------------------------------------------
# kernel equivalences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_states_equal_reference_kernels(n):
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        d, m, length = int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(n, 7))
        lam = float(rng.uniform(0.1, 0.9))
        cfg = SeqModelConfig(n=n, hidden=m, lam=lam, activation=Activation.IDENTITY)
        p = init_seq_layer(cfg, d, rng)
        x = rand_seq(rng, length, d)
        trace = forward_layer(x, p, cfg)
        ws = [w.data for w in p.W]
        for j in (1, n):
            kcfg = SeqKernelConfig(n=j, lam=lam)
            for t in range(1, length + 1):
                for i in range(m):
                    got = trace.state(j, t).data[i]
                    want = string_kernel(x.prefix(t), reference_sequence(ws[:j], i), kcfg)
                    assert abs(got - want) <= 1e-10 * max(1.0, abs(got), abs(want))


def test_cnn_degeneration_at_lambda_zero():
    rng = np.random.default_rng(4)
    n, d, m, length = 3, 3, 4, 6
    cfg = SeqModelConfig(n=n, hidden=m, lam=0.0, variant="add-norm", activation=Activation.TANH)
    p = init_seq_layer(cfg, d, rng)
    x = rand_seq(rng, length, d)
    trace = forward_layer(x, p, cfg)
    for t in range(1, length + 1):
        pre = np.zeros(m)
        for j in range(1, n + 1):
            tok = t - n + j
            if tok >= 1:
                pre += p.W[j - 1].data @ x.tokens[tok - 1]
        assert np.max(np.abs(trace.matrix(0).data[t - 1] - np.tanh(pre))) <= 1e-12


def test_all_zero_input_gives_sigma_of_zero():
    cfg = SeqModelConfig(n=2, hidden=3, lam=0.5, activation=Activation.SIGMOID)
    p = init_seq_layer(cfg, 2, np.random.default_rng(0))
    x = FeatureSequence([np.zeros(2)] * 4)
    trace = forward_layer(x, p, cfg)
    for t in range(1, 5):
        assert np.allclose(trace.state(2, t).data, 0.0)
        assert np.allclose(trace.matrix(0).data[t - 1], 0.5)


@pytest.mark.parametrize("variant", ["mult-unnorm", "mult-norm", "add-norm"])
def test_variants_match_unrolled_oracles(variant):
    for seed in range(4):
        rng = np.random.default_rng(200 + seed)
        n, d, m, length = 3, 2, 3, 5
        lam = float(rng.uniform(0.1, 0.9))
        cfg = SeqModelConfig(n=n, hidden=m, lam=lam, variant=variant, activation=Activation.IDENTITY)
        p = init_seq_layer(cfg, d, rng)
        x = rand_seq(rng, length, d)
        trace = forward_layer(x, p, cfg)
        ws = [w.data for w in p.W]
        for t in range(1, length + 1):
            want = unrolled_state(x, ws, lam, variant, t=t)
            assert rel_error(trace.state(n, t).data, want) <= 1e-10


@pytest.mark.parametrize("variant", ["mult-unnorm", "mult-norm", "add-norm"])
@pytest.mark.parametrize("decay", ["gated-input", "gated-input-state"])
def test_gated_constant_degeneration(variant, decay):
    rng = np.random.default_rng(31)
    n, d, m, length, lam = 2, 3, 3, 5, 0.55
    base = SeqModelConfig(n=n, hidden=m, lam=lam, variant=variant, activation=Activation.TANH)
    gated = SeqModelConfig(
        n=n, hidden=m, lam=lam, variant=variant, decay=decay, activation=Activation.TANH
    )
    p = init_seq_layer(gated, d, rng)
    gate_in = d if decay == "gated-input" else d + m
    p.gate_u = Tensor(np.zeros((m, gate_in)))
    p.gate_b = Tensor(np.full(m, logit(lam)))
    x = rand_seq(rng, length, d)
    t_gated = forward_layer(x, p, gated)
    t_const = forward_layer(x, p, base)
    for j in range(1, n + 1):
        for t in range(1, length + 1):
            diff = np.max(np.abs(t_gated.state(j, t).data - t_const.state(j, t).data))
            assert diff <= 1e-12


def test_gated_forward_matches_enumeration_oracle():
    rng = np.random.default_rng(77)
    n, d, m, length = 2, 2, 3, 4
    cfg = SeqModelConfig(
        n=n, hidden=m, lam=0.5, decay="gated-input-state", activation=Activation.TANH
    )
    p = init_seq_layer(cfg, d, rng)
    x = rand_seq(rng, length, d)
    trace = forward_layer(x, p, cfg)
    gates = trace.decay_arrays(m)
    ws = [w.data for w in p.W]
    for t in range(1, length + 1):
        for i in range(m):
            want = gated_string_kernel_state(x, gates, ws, i, t=t)
            got = trace.state(n, t).data[i]
            assert abs(got - want) <= 1e-10 * max(1.0, abs(got), abs(want))


def test_lstm_like_matches_gated_oracle_per_coordinate():
    # the order-1 normalized gated layer is the LSTM-like cell c = g*c + (1-g)*(W x)
    rng = np.random.default_rng(57)
    m = 3
    cfg = SeqModelConfig(
        n=1, hidden=m, lam=0.5, variant="mult-norm", decay="gated-input-state",
        activation=Activation.TANH,
    )
    p = init_seq_layer(cfg, 2, rng)
    x = rand_seq(rng, 6, 2)
    trace = forward_layer(x, p, cfg)
    gates = trace.decay_arrays(m)
    for t in range(1, 7):
        for i in range(m):
            want = gated_string_kernel_state(x, gates, [p.W[0].data], i, t=t, normalized=True)
            got = trace.state(1, t).data[i]
            assert abs(got - want) <= 1e-10 * max(1.0, abs(got), abs(want))


def test_learned_decay_equals_constant_at_matching_logit():
    rng = np.random.default_rng(8)
    lam = 0.37
    cfg_l = SeqModelConfig(n=2, hidden=3, lam=lam, decay="learned", activation=Activation.TANH)
    cfg_c = SeqModelConfig(n=2, hidden=3, lam=lam, decay="constant", activation=Activation.TANH)
    p = init_seq_layer(cfg_l, 2, rng)
    x = rand_seq(rng, 5, 2)
    t_l = forward_layer(x, p, cfg_l)
    t_c = forward_layer(x, p, cfg_c)
    for t in range(1, 6):
        assert np.max(np.abs(t_l.state(2, t).data - t_c.state(2, t).data)) <= 1e-12


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def test_causality_future_edits_do_not_touch_past_states():
    rng = np.random.default_rng(6)
    cfg = SeqModelConfig(n=2, hidden=3, lam=0.5, decay="gated-input-state")
    p = init_seq_layer(cfg, 2, rng)
    x = rand_seq(rng, 5, 2)
    edited = FeatureSequence(list(x.tokens[:3]) + [rng.normal(size=2) for _ in range(2)])
    t1 = forward_layer(x, p, cfg)
    t2 = forward_layer(edited, p, cfg)
    for j in (1, 2):
        for t in range(0, 4):
            assert np.array_equal(t1.state(j, t, 0).data, t2.state(j, t, 0).data)


def test_combination_output_is_weighted_state_sum():
    rng = np.random.default_rng(12)
    cfg = SeqModelConfig(n=3, hidden=2, lam=0.4, output="combination")
    p = init_seq_layer(cfg, 2, rng)
    p.comb = Tensor(rng.normal(size=3))
    x = rand_seq(rng, 4, 2)
    trace = forward_layer(x, p, cfg)
    for t in range(1, 5):
        want = sum(p.comb.data[j] * trace.state(j + 1, t).data for j in range(3))
        assert np.allclose(trace.scans[0].pre[t - 1], want, rtol=1e-12, atol=1e-12)


def test_zero_init_state():
    cfg = SeqModelConfig(n=2, hidden=3, lam=0.5)
    p = init_seq_layer(cfg, 2, np.random.default_rng(0))
    trace = forward_layer(rand_seq(np.random.default_rng(1), 3, 2), p, cfg)
    for j in (1, 2):
        assert np.array_equal(trace.state(j, 0).data, np.zeros(3))


@pytest.mark.parametrize("decay", ["constant", "learned", "gated-input", "gated-input-state"])
def test_decay_is_a_row_per_token_in_every_mode(decay):
    rng = np.random.default_rng(31)
    cfg = SeqModelConfig(n=2, hidden=3, layers=2, lam=0.4, decay=decay)
    params = init_seq_stack(cfg, 2, rng)
    trace = forward_stack(rand_seq(rng, 5, 2), params, cfg)
    for layer, scan in enumerate(trace.scans):
        assert isinstance(scan.decay, np.ndarray) and scan.decay.shape == (5, 3)
        assert np.array_equal(trace.decay_arrays(3, layer), scan.decay)
        with pytest.raises(ShapeError):
            trace.decay_arrays(4, layer)
    if decay == "constant":
        assert np.all(trace.scans[0].decay == 0.4)


@pytest.mark.parametrize("decay, highway", [
    ("constant", False), ("learned", False), ("gated-input", False),
    ("gated-input-state", False), ("gated-input-state", True)])
def test_carried_state_continues_the_window(decay, highway):
    rng = np.random.default_rng(32)
    cfg = SeqModelConfig(n=2, hidden=3, layers=2, lam=0.4, decay=decay, highway=highway,
                         variant="mult-norm")
    params = init_seq_stack(cfg, 3, rng)
    x = rng.normal(size=(7, 3))
    whole = forward_stack(Tensor(x), params, cfg)
    head = forward_stack(Tensor(x[:3]), params, cfg)
    tail = forward_stack(Tensor(x[3:]), params, cfg, state=head.carry())
    for l in range(cfg.layers):
        for got, want in ((head.scans[l].c[1:], whole.scans[l].c[1:4]),
                          (tail.scans[l].c, whole.scans[l].c[3:]),
                          (head.matrix(l).data, whole.matrix(l).data[:3]),
                          (tail.matrix(l).data, whole.matrix(l).data[3:])):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_a_start_state_of_the_wrong_shape_is_a_shape_error():
    cfg = SeqModelConfig(n=2, hidden=3, lam=0.5)
    p = init_seq_layer(cfg, 2, np.random.default_rng(0))
    x = rand_seq(np.random.default_rng(1), 3, 2)
    for state in ((np.zeros((2, 3)), np.zeros(2)), (np.zeros((3, 3)), np.zeros(3))):
        with pytest.raises(ShapeError):
            forward_layer(x, p, cfg, state=state)


def test_empty_sequence_rejected():
    cfg = SeqModelConfig(n=1, hidden=2, lam=0.5)
    p = init_seq_layer(cfg, 2, np.random.default_rng(0))
    with pytest.raises(ContractError):
        forward_layer(FeatureSequence((), dim=2), p, cfg)


def test_gated_mode_without_gate_params_is_config_error():
    cfg = SeqModelConfig(n=1, hidden=2, lam=0.5, decay="gated-input")
    p = SeqLayerParams(W=[Tensor(np.zeros((2, 2)))])
    with pytest.raises(ConfigError):
        forward_layer(FeatureSequence([np.ones(2)]), p, cfg)


def test_shape_mismatch_raises():
    cfg = SeqModelConfig(n=1, hidden=2, lam=0.5)
    p = SeqLayerParams(W=[Tensor(np.zeros((2, 3)))])
    with pytest.raises(ShapeError):
        forward_layer(FeatureSequence([np.ones(2)]), p, cfg)


# ---------------------------------------------------------------------------
# stacks and highway
# ---------------------------------------------------------------------------


def test_single_layer_stack_matches_forward_layer():
    rng = np.random.default_rng(3)
    cfg = SeqModelConfig(n=2, hidden=3, lam=0.6)
    params = init_seq_stack(cfg, 2, rng)
    x = rand_seq(rng, 4, 2)
    stacked = forward_stack(x, params, cfg)
    single = forward_layer(x, params[0], cfg)
    assert np.array_equal(stacked.matrix(0).data, single.matrix(0).data)


def test_highway_transform_gate_zero_passes_input_through():
    rng = np.random.default_rng(5)
    m = 3
    cfg = SeqModelConfig(
        n=1, hidden=m, lam=0.5, decay="gated-input-state", highway=True, layers=2
    )
    params = init_seq_stack(cfg, m, rng)
    for p in params:
        p.hw_u = Tensor(np.zeros((m, 2 * m)))
        p.hw_b = Tensor(np.full(m, -1000.0))
    x = rand_seq(rng, 4, m)
    trace = forward_stack(x, params, cfg)
    assert np.array_equal(trace.matrix(1).data, np.array(x.tokens))


def test_highway_needs_matching_dims():
    rng = np.random.default_rng(5)
    cfg = SeqModelConfig(n=1, hidden=3, lam=0.5, decay="gated-input-state", highway=True)
    params = init_seq_stack(cfg, 3, rng)
    with pytest.raises(ShapeError):
        forward_stack(rand_seq(rng, 3, 2), params, cfg)


def test_two_layer_states_lie_in_deep_kernel_gram_range():
    rng = np.random.default_rng(42)
    d, m, lam = 2, 3, 0.5
    cfg = SeqModelConfig(
        n=2, hidden=m, layers=2, lam=lam, activation=Activation.IDENTITY, output="last-state"
    )
    params = init_seq_stack(cfg, d, rng)
    seqs = [rand_seq(rng, 4, d) for _ in range(5)]
    kcfg = SeqKernelConfig(n=2, lam=lam)
    gram = np.array(
        [[deep_sequence_kernel(a, b, 2, kcfg) for b in seqs] for a in seqs]
    )
    for i in range(m):
        values = np.array(
            [forward_stack(s, params, cfg).state(2, len(s), 1).data[i] for s in seqs]
        )
        assert range_residual(gram, values) <= 1e-6


# ---------------------------------------------------------------------------
# gradients and dropout
# ---------------------------------------------------------------------------


def layer_gradient_error(cfg, seed, d=2, length=4):
    rng = np.random.default_rng(seed)
    p = init_seq_layer(cfg, d, rng)
    x = rand_seq(rng, length, d)
    probes = [rng.normal(size=cfg.hidden) for _ in range(length)]

    def run(params):
        h = forward_layer(x, params, cfg).matrix(0)
        return accumulate([dot(Tensor(r), row(h, t)) for t, r in enumerate(probes)])

    with Tape() as tape:
        loss = run(p)
    grads = tape.backward(loss)
    worst, coords = 0.0, 0
    for name, tensor in p.named("L").items():
        fd = finite_diff_grad(lambda t: run(p.with_named({name: t}, "L")).item(), tensor)
        got = grads.get(tensor, Tensor(np.zeros(tensor.shape)))
        worst = max(worst, rel_error(got, fd))
        coords += tensor.size
    return worst, coords


@pytest.mark.parametrize("variant", ["mult-unnorm", "mult-norm", "add-norm"])
@pytest.mark.parametrize("decay", ["constant", "learned", "gated-input", "gated-input-state"])
def test_gradients_match_finite_differences(variant, decay):
    cfg = SeqModelConfig(
        n=2, hidden=3, lam=0.5, variant=variant, decay=decay,
        activation=Activation.TANH, output="combination",
    )
    err, coords = layer_gradient_error(cfg, seed=9)
    assert coords >= 12
    assert err <= 1e-5


def test_highway_stack_gradients():
    rng = np.random.default_rng(19)
    m = 3
    cfg = SeqModelConfig(
        n=1, hidden=m, lam=0.5, decay="gated-input-state", highway=True, layers=2
    )
    params = init_seq_stack(cfg, m, rng)
    x = rand_seq(rng, 3, m)
    probe = rng.normal(size=m)

    def run(ps):
        h = forward_stack(x, ps, cfg).matrix()
        return dot(Tensor(probe), row(h, len(x) - 1))

    with Tape() as tape:
        loss = run(params)
    grads = tape.backward(loss)
    for l, p in enumerate(params):
        for name, tensor in p.named(f"L{l}").items():
            def f(t, l=l, name=name):
                swapped = list(params)
                swapped[l] = params[l].with_named({name: t}, f"L{l}")
                return run(swapped).item()

            fd = finite_diff_grad(f, tensor)
            got = grads.get(tensor, Tensor(np.zeros(tensor.shape)))
            assert rel_error(got, fd) <= 1e-5


def test_dropout_is_deterministic_under_fixed_seed_and_off_at_eval():
    rng_data = np.random.default_rng(2)
    cfg = SeqModelConfig(n=1, hidden=3, lam=0.5, dropout=0.4)
    params = init_seq_stack(cfg, 2, rng_data)
    x = rand_seq(rng_data, 5, 2)
    out1 = forward_stack(x, params, cfg, rng=np.random.default_rng(7), training=True)
    out2 = forward_stack(x, params, cfg, rng=np.random.default_rng(7), training=True)
    assert np.array_equal(out1.matrix(0).data, out2.matrix(0).data)
    ev1 = forward_stack(x, params, cfg)
    ev2 = forward_stack(x, params, cfg)
    assert np.array_equal(ev1.matrix(0).data, ev2.matrix(0).data)


# ---------------------------------------------------------------------------
# the whole-window scan node
# ---------------------------------------------------------------------------


def scan_gradient_error(cfg, seed, d, length=4):
    """Worst tape-vs-finite-difference error of one layer over its parameters and input.

    The layer starts from a carried (nonzero) state and the loss reads the
    (T, hidden) output matrix, so every gradient flows through the scan node.
    """
    rng = np.random.default_rng(seed)
    p = init_seq_layer(cfg, d, rng)
    p = p.with_named({name: Tensor(rng.uniform(-0.8, 0.8, size=t.shape))
                      for name, t in p.named().items()})
    x = Tensor(rng.normal(size=(length, d)))
    init_c = [rng.uniform(-0.5, 0.5, size=cfg.hidden) for _ in range(cfg.n)]
    init_h = rng.uniform(-0.5, 0.5, size=cfg.hidden)
    probe = Tensor(rng.normal(size=(length, cfg.hidden)))

    def run(params, inputs):
        trace = forward_layer(inputs, params, cfg, state=(init_c, init_h))
        return tsum(mul(probe, trace.matrix()))

    with Tape() as tape:
        loss = run(p, x)
    assert len(tape) == 3  # scan, probe product, sum
    grads = tape.backward(loss)
    named = p.named("L")
    checks = {name: (t, lambda v, name=name: run(p.with_named({name: v}, "L"), x).item())
              for name, t in named.items()}
    checks["x"] = (x, lambda v: run(p, v).item())
    worst = 0.0
    for t, f in checks.values():
        got = grads.get(t, Tensor(np.zeros(t.shape)))
        worst = max(worst, rel_error(got, finite_diff_grad(f, t)))
    return worst


@pytest.mark.parametrize("output", ["last-state", "combination"])
@pytest.mark.parametrize("variant", ["mult-unnorm", "mult-norm", "add-norm"])
@pytest.mark.parametrize("decay", ["constant", "learned", "gated-input", "gated-input-state"])
def test_scan_gradients_match_finite_differences(variant, decay, output):
    cfg = SeqModelConfig(n=3, hidden=3, lam=0.4, variant=variant, decay=decay,
                         activation=Activation.SIGMOID, output=output)
    assert scan_gradient_error(cfg, seed=21, d=2) <= 1e-5


@pytest.mark.parametrize("variant", ["mult-unnorm", "add-norm"])
@pytest.mark.parametrize("decay", ["gated-input", "gated-input-state"])
def test_highway_scan_gradients_match_finite_differences(variant, decay):
    cfg = SeqModelConfig(n=2, hidden=3, lam=0.4, variant=variant, decay=decay, highway=True)
    assert scan_gradient_error(cfg, seed=22, d=3) <= 1e-5


def test_highway_layers_hold_only_the_parameters_they_read():
    for decay in ("constant", "learned"):
        cfg = SeqModelConfig(n=1, hidden=3, lam=0.5, decay=decay, highway=True)
        p = init_seq_layer(cfg, 3, np.random.default_rng(0))
        assert p.gate_u is None and p.gate_b is None and p.comb is None
    with pytest.raises(ConfigError):
        SeqModelConfig(n=1, hidden=3, highway=True, output="combination")


def test_dropout_masks_match_per_token_draws():
    rng_data = np.random.default_rng(4)
    cfg = SeqModelConfig(n=2, hidden=3, layers=2, lam=0.5, dropout=0.4)
    params = init_seq_stack(cfg, 2, rng_data)
    x = rand_seq(rng_data, 6, 2)
    rng = np.random.default_rng(9)
    got = forward_stack(x, params, cfg, rng=rng, training=True)
    # reference: one mask draw per token, layer by layer, as separate vectors
    ref_rng = np.random.default_rng(9)
    keep = 1.0 - cfg.dropout
    inputs = [np.array(t) for t in x.tokens]
    for l, p in enumerate(params):
        masks = [(ref_rng.random(v.shape[0]) < keep).astype(np.float64) / keep for v in inputs]
        layer = forward_layer([Tensor(v * mk) for v, mk in zip(inputs, masks)], p, cfg)
        assert np.array_equal(got.matrix(l).data, layer.matrix(0).data)
        inputs = list(layer.matrix(0).data)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
