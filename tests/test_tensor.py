import numpy as np
import pytest

from kernelnn.errors import ContractError, EvaluationError, ShapeError
from kernelnn.tensor import (
    Activation,
    Tape,
    Tensor,
    Segments,
    accumulate,
    add,
    dot,
    emit,
    finite_diff_grad,
    gather_rows,
    matvec,
    mul,
    neighbor_sum,
    rel_error,
    scale,
    segment_sum,
    sub,
)

from helpers import tsum


def test_matvec_identity():
    w = Tensor(np.eye(2))
    x = Tensor([3.0, 4.0])
    assert np.allclose(matvec(w, x).data, [3.0, 4.0])


def test_matvec_zero_matrix():
    w = Tensor(np.zeros((3, 2)))
    x = Tensor([5.0, -1.0])
    assert np.allclose(matvec(w, x).data, np.zeros(3))


def test_matvec_hand_expansion():
    w = Tensor([[1.0, 2.0], [3.0, 4.0]])
    x = Tensor([1.0, 1.0])
    assert np.allclose(matvec(w, x).data, [3.0, 7.0])


def test_matvec_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        matvec(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
    assert "(2, 3)" in str(err.value) and "(2,)" in str(err.value)


def test_backward_sum_gives_ones():
    x = Tensor([1.0, -2.0, 5.0])
    with Tape() as tape:
        root = tsum(x)
    grads = tape.backward(root)
    assert np.allclose(grads[x].data, np.ones(3))


def test_backward_dot_wrt_w_is_x():
    w = Tensor([1.0, 2.0])
    x = Tensor([3.0, -4.0])
    with Tape() as tape:
        root = dot(w, x)
    grads = tape.backward(root)
    assert np.allclose(grads[w].data, x.data)
    assert np.allclose(grads[x].data, w.data)


def test_backward_rejects_nonscalar_root():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        y = add(x, x)
    with pytest.raises(ContractError):
        tape.backward(y)


def test_backward_composite_matches_finite_differences():
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(3, 4)))
    u = Tensor(rng.normal(size=(3, 3)))
    x = Tensor(rng.normal(size=4))
    b = Tensor(rng.normal(size=3))

    def run(wt, ut, xt, bt):
        z = Activation.TANH(add(matvec(wt, xt), bt))
        z2 = Activation.SIGMOID(matvec(ut, z))
        return tsum(mul(z2, sub(z2, Tensor(np.full(3, 0.25)))))

    with Tape() as tape:
        root = run(w, u, x, b)
    grads = tape.backward(root)
    for leaf in (w, u, x, b):
        def f(t, leaf=leaf):
            args = {id(w): w, id(u): u, id(x): x, id(b): b}
            args[id(leaf)] = t
            return run(args[id(w)], args[id(u)], args[id(x)], args[id(b)]).item()

        fd = finite_diff_grad(f, leaf, eps=1e-6)
        assert rel_error(grads[leaf], fd) < 1e-5


def test_backward_duplicate_parent_accumulates():
    x = Tensor([2.0, 3.0])
    with Tape() as tape:
        root = tsum(mul(x, x))
    grads = tape.backward(root)
    assert np.allclose(grads[x].data, 2.0 * x.data)


def test_emit_adopts_its_array_without_a_copy():
    arr = np.array([1.0, 2.0])
    out = emit(arr, "given", (), lambda g: ())
    assert np.shares_memory(out.data, arr) and not arr.flags.writeable
    with pytest.raises(EvaluationError):
        emit(np.array([1.0, np.nan]), "given", (), lambda g: ())


def test_backward_array_handed_to_two_parents_gives_each_its_own_gradient():
    a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
    with Tape() as tape:
        # twin hands one array to both parents, and a already holds that same
        # array from add, so the twin's contribution is a second one for a only
        twin = emit(a.data + b.data, "twin", (a, b), lambda g: (g, g))
        root = tsum(add(twin, a))
    grads = tape.backward(root)
    assert np.array_equal(grads[a].data, [2.0, 2.0])
    assert np.array_equal(grads[b].data, [1.0, 1.0])


def test_backward_leaf_gradients_are_read_only():
    x, c = Tensor([2.0, 3.0]), Tensor(0.5)
    with Tape() as tape:
        root = tsum(mul(add(x, c), x))
    grads = tape.backward(root)
    for leaf in (x, c):
        assert not grads[leaf].data.flags.writeable
        with pytest.raises(ValueError):
            grads[leaf].data[...] = 0.0


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(4, 4)))
    x = Tensor(rng.normal(size=4))

    def one_pass():
        with Tape() as tape:
            z = Activation.TANH(matvec(w, x))
            root = dot(z, z)
        return tape.backward(root)

    g1 = one_pass()
    g2 = one_pass()
    assert np.array_equal(g1[w].data, g2[w].data)
    assert np.array_equal(g1[x].data, g2[x].data)


def test_ops_shape_errors():
    a = Tensor([1.0, 2.0])
    b = Tensor([1.0, 2.0, 3.0])
    for op in (add, sub, mul):
        with pytest.raises(ShapeError):
            op(a, b)
    with pytest.raises(ShapeError):
        dot(a, b)


def test_scalar_arithmetic_and_sugar():
    a = Tensor([1.0, 2.0])
    assert np.allclose(scale(a, 0.5).data, [0.5, 1.0])


def test_matvec_applies_to_every_row():
    rng = np.random.default_rng(4)
    w = Tensor(rng.normal(size=(3, 2)))
    x = Tensor(rng.normal(size=(5, 2)))
    out = matvec(w, x).data
    for i in range(5):
        assert np.allclose(out[i], matvec(w, Tensor(x.data[i])).data)


def test_add_broadcasts_a_scalar_tensor():
    a = Tensor([1.0, 2.0, 3.0])
    b = Tensor(0.5)
    with Tape() as tape:
        root = tsum(mul(add(a, b), a))
    grads = tape.backward(root)
    assert np.allclose(grads[b].data, np.sum(a.data))
    assert np.allclose(grads[a].data, 2.0 * a.data + 0.5)
    with pytest.raises(ShapeError):
        add(b, a)


def test_segments_sum_rows_in_any_id_order():
    rows = np.arange(12.0).reshape(6, 2)
    for ids in ([0, 0, 2, 2, 2, 3], [3, 0, 2, 0, 2, 2], []):
        seg = Segments(ids, 5)
        want = np.zeros((5, 2))
        for r, i in zip(rows, ids):
            want[i] += r
        assert np.array_equal(seg.sum(rows[: len(ids)]), want)
    with pytest.raises(ContractError):
        Segments([0, 5], 5)


def test_gather_segment_and_neighbor_sums_match_finite_differences():
    rng = np.random.default_rng(5)
    # walk steps u -> v of a directed graph on 4 nodes; node 3 has no predecessor
    src = Segments([1, 2, 0, 0, 1], 4)
    dst = Segments([0, 0, 1, 2, 2], 4)
    graph_of = Segments([0, 0, 1, 1], 2)
    a = Tensor(rng.normal(size=(4, 3)))
    gate = Tensor(rng.normal(size=(5, 3)))
    probe = Tensor(rng.normal(size=(2, 3)))

    def run(t):
        nb = neighbor_sum(Activation.TANH(t), src, dst)
        gated = segment_sum(mul(gate, gather_rows(t, src)), dst)
        return tsum(mul(probe, segment_sum(mul(nb, gated), graph_of)))

    with Tape() as tape:
        root = run(a)
    grads = tape.backward(root)
    assert rel_error(grads[a], finite_diff_grad(lambda t: run(t).item(), a)) < 1e-6
    assert np.array_equal(neighbor_sum(a, src, dst).data,
                          segment_sum(gather_rows(a, src), dst).data)
    assert np.array_equal(neighbor_sum(a, src, dst).data[3], np.zeros(3))


def test_accumulate_orders_sum():
    ts = [Tensor([float(i)]) for i in range(5)]
    assert np.allclose(accumulate(ts).data, [10.0])


@pytest.mark.parametrize("act", list(Activation))
def test_activation_derivative_matches_finite_differences(act):
    rng = np.random.default_rng(17)
    zs = rng.uniform(-5.0, 5.0, size=100)
    for z in zs:
        arr = np.array([z])
        fd = finite_diff_grad(lambda t: float(act.f(t.data)[0]), Tensor(arr), eps=1e-6)
        analytic = act.deriv(arr)
        assert rel_error(fd, analytic) < 1e-6


def test_finite_diff_square():
    g = finite_diff_grad(lambda t: t.data[0] ** 2, Tensor([3.0]), eps=1e-5)
    assert abs(g.data[0] - 6.0) < 1e-6


def test_finite_diff_constant_is_zero():
    g = finite_diff_grad(lambda t: 4.2, Tensor([1.0, 2.0, 3.0]))
    assert np.allclose(g.data, 0.0)


def test_finite_diff_sigmoid_quarter():
    g = finite_diff_grad(lambda t: float(Activation.SIGMOID.f(t.data)[0]), Tensor([0.0]))
    assert abs(g.data[0] - 0.25) < 1e-8


def test_finite_diff_reports_bad_coordinate():
    def f(t):
        return float("nan") if t.data[1] > 0.5 else 1.0

    with pytest.raises(EvaluationError) as err:
        finite_diff_grad(f, Tensor([0.0, 0.5, 0.0]), eps=1.0)
    assert "(1,)" in str(err.value)


def test_tensor_rejects_non_finite():
    with pytest.raises(EvaluationError):
        Tensor([1.0, float("inf")])


def test_tensor_data_read_only():
    t = Tensor([1.0])
    with pytest.raises(ValueError):
        t.data[0] = 2.0
