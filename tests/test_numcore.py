"""Tape engine: values, gradients, determinism, and the checker itself."""

import contextlib
import gc
import weakref
import zlib

import numpy as np
import pytest

from normkd.errors import ContractError, NumericError
from normkd.numcore import (
    Tape,
    Tensor,
    _log_softmax_grad,
    _pick_grad,
    _std_grad,
    add,
    divide,
    exp,
    gather_rows,
    grad_check,
    log,
    log_softmax_rows,
    max_rows,
    maximum,
    mean_all,
    min_rows,
    multiply,
    std_rows,
    subtract,
    sum_all,
    sum_rows,
)


class TestMaximumAtZero:
    """``maximum(x, 0.0)`` is the MLP's ReLU: subgradient 0 at exactly 0."""

    def test_values(self):
        np.testing.assert_array_equal(
            maximum(np.array([[-1.0, 0.0, 2.0]]), 0.0), np.array([[0.0, 0.0, 2.0]])
        )

    def test_all_negative(self):
        np.testing.assert_array_equal(maximum(np.full((2, 3), -4.0), 0.0), np.zeros((2, 3)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 5))
        # keep probes away from the kink at 0
        x[np.abs(x) < 1e-4] = 0.5
        assert grad_check(lambda t: sum_all(maximum(t, 0.0)), x) < 1e-6

    def test_subgradient_at_zero_is_zero(self):
        tape = Tape()
        t = tape.leaf(np.array([[0.0, 1.0]]))
        out = sum_all(maximum(t, 0.0))
        tape.backward(out)
        np.testing.assert_array_equal(t.grad, np.array([[0.0, 1.0]]))


class TestBackward:
    def test_identity_gradient(self):
        tape = Tape()
        x = tape.leaf(np.array(3.0))
        tape.backward(sum_all(x))
        np.testing.assert_array_equal(x.grad, np.array(1.0))

    def test_product_rule(self):
        tape = Tape()
        x = tape.leaf(np.array(2.0))
        y = tape.leaf(np.array(3.0))
        tape.backward(sum_all(multiply(x, y)))
        assert float(x.grad) == 3.0
        assert float(y.grad) == 2.0

    def test_untouched_leaf_gets_zero(self):
        tape = Tape()
        x = tape.leaf(np.arange(3.0))
        unused = tape.leaf(np.arange(4.0))
        tape.backward(sum_all(x))
        np.testing.assert_array_equal(unused.grad, np.zeros(4))

    def test_every_live_grad_is_an_array_of_its_nodes_shape_and_dtype(self):
        """0-d nodes included.  A live node no gradient reached, and one
        whose only contribution is -0.0, read +0.0 bytes."""
        rng = np.random.default_rng(61)
        tape = Tape()
        x = tape.leaf(rng.normal(size=(4, 3)))
        s = tape.leaf(np.array(0.7))
        z = tape.leaf(rng.normal(size=(2, 2)))
        unused = tape.leaf(rng.normal(size=(2, 5)))
        dead_end = exp(multiply(x, 0.5))
        out = add(mean_all(multiply(max_rows(x), s)), sum_all(multiply(z, -0.0)))
        tape.backward(out)
        for node in tape.nodes:
            assert type(node.grad) is np.ndarray
            assert (node.grad.shape, node.grad.dtype) == (node.data.shape, node.data.dtype)
        for node in (z, unused, dead_end):
            assert node.grad.tobytes() == np.zeros(node.data.shape).tobytes()

    def test_non_scalar_output_rejected(self):
        tape = Tape()
        x = tape.leaf(np.arange(3.0))
        with pytest.raises(ContractError):
            tape.backward(x)

    def test_mixed_tapes_rejected(self):
        a = Tape().leaf(np.array(1.0))
        b = Tape().leaf(np.array(2.0))
        with pytest.raises(ContractError):
            multiply(a, b)

    def test_linearity_over_sum_of_losses(self):
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(3, 4))

        def loss_a(t):
            return sum_all(multiply(t, t))

        def loss_b(t):
            return mean_all(exp(multiply(t, 0.3)))

        tape = Tape()
        x = tape.leaf(x0)
        tape.backward(add(loss_a(x), loss_b(x)))
        combined = x.grad.copy()

        grads = []
        for loss in (loss_a, loss_b):
            tape = Tape()
            x = tape.leaf(x0)
            tape.backward(loss(x))
            grads.append(x.grad.copy())
        np.testing.assert_allclose(combined, grads[0] + grads[1], rtol=0, atol=1e-15)

    def test_forward_backward_bit_deterministic(self):
        rng = np.random.default_rng(19)
        x0 = rng.normal(size=(4, 6))

        def run():
            tape = Tape()
            x = tape.leaf(x0)
            out = mean_all(multiply(log_softmax_rows(x), exp(multiply(x, 0.1))))
            tape.backward(out)
            return float(out.data), x.grad.copy()

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        np.testing.assert_array_equal(g1, g2)


class TestPrimitiveGradients:
    """Every remaining primitive against central differences."""

    @pytest.mark.parametrize(
        "name,fn",
        [
            ("log_softmax", lambda t: mean_all(multiply(log_softmax_rows(t), 0.7))),
            ("exp", lambda t: mean_all(exp(t))),
            ("log_of_exp", lambda t: mean_all(log(exp(t)))),
            ("std_rows", lambda t: sum_all(std_rows(t))),
            ("std_rows_population", lambda t: sum_all(std_rows(t, corrected=False))),
            ("sum_rows", lambda t: sum_all(multiply(sum_rows(t), 2.0))),
            ("maximum_floor", lambda t: sum_all(maximum(t, 0.25))),
            ("division", lambda t: mean_all(divide(sum_rows(t), maximum(std_rows(t), 1e-8)))),
        ],
    )
    def test_gradient(self, name, fn):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        x = rng.normal(0.0, 1.5, size=(4, 5))
        # keep away from the maximum() kink
        x[np.abs(x - 0.25) < 1e-3] += 0.01
        assert grad_check(fn, x) < 1e-6

    def test_max_min_rows_gradients(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(5, 6))
        assert grad_check(lambda t: sum_all(max_rows(t)), x) < 1e-8
        assert grad_check(lambda t: sum_all(subtract(max_rows(t), min_rows(t))), x) < 1e-8

    def test_gather_rows_gradient_and_range_check(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(4, 5))
        idx = np.array([0, 4, 2, 1])
        assert grad_check(lambda t: sum_all(gather_rows(t, idx)), x) < 1e-8
        with pytest.raises(ContractError):
            gather_rows(x, np.array([0, 5, 2, 1]))

    def test_std_rows_zero_row_has_zero_gradient(self):
        tape = Tape()
        t = tape.leaf(np.array([[2.0, 2.0, 2.0], [1.0, 2.0, 3.0]]))
        tape.backward(sum_all(std_rows(t)))
        np.testing.assert_array_equal(t.grad[0], np.zeros(3))
        assert np.all(np.isfinite(t.grad))


def _contract_cases():
    """(id, function, arguments, positions of the taped arguments) per primitive."""
    rng = np.random.default_rng(43)
    x = rng.normal(0.0, 1.5, size=(4, 5))
    x[0] = 0.7  # constant row: std 0, every entry ties for max and min
    x[1, 1:3] = x[1].max() + 1.0  # tied row maximum
    x[2, 0] = 0.0  # subgradient point of maximum(x, 0.0)
    rng.normal(size=18)  # keeps the stream where the binary cases' inputs are drawn
    idx = np.array([4, 0, 2, 2])
    cases = [
        ("maximum_at_zero", lambda t: maximum(t, 0.0), (x,), (0,)),
        ("exp", exp, (x,), (0,)),
        ("log", log, (np.exp(x),), (0,)),
        ("maximum", lambda t: maximum(t, 0.25), (x,), (0,)),
        ("sum_all", sum_all, (x,), (0,)),
        ("mean_all", mean_all, (x,), (0,)),
        ("sum_rows", sum_rows, (x,), (0,)),
        ("log_softmax_rows", log_softmax_rows, (x,), (0,)),
        ("std_rows", std_rows, (x,), (0,)),
        ("std_rows_population", lambda t: std_rows(t, corrected=False), (x,), (0,)),
        ("max_rows", max_rows, (x,), (0,)),
        ("min_rows", min_rows, (x,), (0,)),
        ("gather_rows", lambda t: gather_rows(t, idx), (x,), (0,)),
    ]
    for op_name, op in BINARY_OPS:
        for sx, sy in BROADCAST_SHAPES:
            args = (rng.normal(size=sx), rng.uniform(0.5, 2.0, size=sy))
            for branch, taped in (("x", (0,)), ("y", (1,)), ("both", (0, 1))):
                cases.append((f"{op_name}-{sx}-{sy}-{branch}_taped", op, args, taped))
    return cases


BINARY_OPS = [("add", add), ("subtract", subtract), ("multiply", multiply), ("divide", divide)]
# (N, C) against (N, 1) and against 0-d, each side in turn the broadcast one
BROADCAST_SHAPES = [((4, 5), (4, 1)), ((4, 1), (4, 5)), ((4, 5), ()), ((), (4, 5))]
CONTRACT_CASES = _contract_cases()


class TestPrimitiveContract:
    """Each primitive records one node whose value is its untaped value, bit for bit."""

    @pytest.mark.parametrize(
        "fn,args,taped", [c[1:] for c in CONTRACT_CASES], ids=[c[0] for c in CONTRACT_CASES]
    )
    def test_taped_value_is_untaped_value_on_one_node(self, fn, args, taped):
        plain = fn(*args)
        tape = Tape()
        inputs = [tape.leaf(a) if i in taped else a for i, a in enumerate(args)]
        before = len(tape.nodes)
        out = fn(*inputs)
        assert isinstance(out, Tensor) and out.tape is tape
        assert len(tape.nodes) == before + 1 and tape.nodes[-1] is out
        assert out.data.dtype == plain.dtype and out.data.shape == plain.shape
        assert out.data.tobytes() == plain.tobytes()

    @pytest.mark.parametrize(
        "fn,args", [c[1:3] for c in CONTRACT_CASES], ids=[c[0] for c in CONTRACT_CASES]
    )
    def test_untaped_call_returns_plain_array_and_records_nothing(self, fn, args):
        tape = Tape()
        tape.leaf(args[0])
        out = fn(*args)
        assert isinstance(out, np.ndarray)
        assert len(tape.nodes) == 1

    def test_untaped_mean_of_empty_is_nan(self):
        with pytest.warns(RuntimeWarning):
            assert np.isnan(mean_all(np.zeros((0, 3))))

    @pytest.mark.parametrize("op", [op for _, op in BINARY_OPS], ids=[n for n, _ in BINARY_OPS])
    @pytest.mark.parametrize("sx,sy", BROADCAST_SHAPES)
    def test_binary_gradient_per_branch(self, op, sx, sy):
        rng = np.random.default_rng(zlib.crc32(f"{op.__name__}{sx}{sy}".encode()))
        x = rng.normal(size=sx)
        y = rng.uniform(0.5, 2.0, size=sy)
        w = rng.normal(size=np.broadcast_shapes(sx, sy))

        def weighted(out):
            return sum_all(multiply(out, w))

        branches = {
            "x_taped": (lambda t: weighted(op(t, y)), x),
            "y_taped": (lambda t: weighted(op(x, t)), y),
            "both_taped_grad_x": (lambda t: weighted(op(t, t.tape.leaf(y))), x),
            "both_taped_grad_y": (lambda t: weighted(op(t.tape.leaf(x), t)), y),
        }
        for branch, (f, point) in branches.items():
            assert grad_check(f, point) < 1e-6, branch


class TestGradCheck:
    def test_linear_function_is_exact(self):
        rng = np.random.default_rng(31)
        assert grad_check(sum_all, rng.normal(size=(3, 3))) <= 1e-10

    def test_softened_cross_entropy(self):
        from normkd.distill import cross_entropy

        rng = np.random.default_rng(37)
        x = rng.normal(size=(4, 6))
        labels = rng.integers(0, 6, size=4)
        assert grad_check(lambda t: cross_entropy(t, labels), x) <= 1e-6

    def test_detects_wrong_gradient(self):
        def doubled_gradient(t):
            out = mean_all(multiply(t, t))
            return out.tape._record(out.data.copy(), (out,), lambda g: (2.0 * g,))

        rng = np.random.default_rng(41)
        err = grad_check(doubled_gradient, rng.normal(size=(3, 3)) + 2.0)
        assert err >= 0.5

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ContractError):
            grad_check(sum_all, np.ones((2, 2)), step=0.0)

    def test_rejects_nan_step(self):
        with pytest.raises(ContractError, match="step must be positive"):
            grad_check(sum_all, np.ones((2, 2)), step=float("nan"))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0,)])
    def test_empty_point_rejected_before_taping(self, shape):
        def f(t):
            raise AssertionError("an empty point reached the function")

        with pytest.raises(ContractError, match=r"grad_check needs a point with entries"):
            grad_check(f, np.zeros(shape))
        with pytest.raises(ContractError, match=r"grad_check needs a point with entries"):
            grad_check(sum_all, np.zeros(shape))

    def test_non_finite_probe_raises(self):
        def log_loss(t):
            return sum_all(log(t))

        with pytest.raises(NumericError):
            grad_check(log_loss, np.array([[1e-6, 1.0]]), step=1e-5)

    def test_transposed_view_matches_its_contiguous_copy(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 3))

        def f(t):
            return sum_all(multiply(exp(multiply(t, 0.3)), w))

        err = grad_check(f, x.T)
        assert err < 1e-8
        assert np.float64(err).tobytes() == np.float64(grad_check(f, x.T.copy())).tobytes()

    def test_raising_probe_leaves_callers_array_unchanged(self):
        def log_loss(t):
            return sum_all(log(t))

        point = np.array([[1e-6, 1.0]])
        before = point.tobytes()
        with pytest.raises(NumericError):
            grad_check(log_loss, point, step=1e-5)
        assert point.tobytes() == before


@contextlib.contextmanager
def _no_cyclic_collector():
    """Only reference counting frees objects inside the block."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class TestTapeOwnership:
    """The tape holds its leaves; every other node lives while something uses it."""

    def test_dropped_interior_node_is_freed_while_the_tape_lives(self):
        with _no_cyclic_collector():
            tape = Tape()
            x = tape.leaf(np.arange(4.0))
            y = exp(x)
            ref = weakref.ref(y)
            del y
            assert ref() is None
            assert tape.nodes == [x]

    def test_dropped_tape_frees_every_interior_node_without_a_collection(self):
        from normkd.distill import distill_loss
        from normkd.logitstats import parse_rule

        rng = np.random.default_rng(47)
        z_s, z_t = rng.normal(size=(2, 1024, 100))
        labels = rng.integers(0, 100, size=1024)
        with _no_cyclic_collector():
            tape = Tape()
            leaf = tape.leaf(z_s)
            out = distill_loss(parse_rule("multiset:1,2,4"), leaf, z_t, labels).node
            tape.backward(out)
            interior = [weakref.ref(node) for node in tape.nodes if node is not leaf]
            assert len(interior) > 20
            del tape, leaf, out
            assert [ref for ref in interior if ref() is not None] == []

    def test_nodes_keep_creation_order_and_dropped_leaves(self):
        with _no_cyclic_collector():
            tape = Tape()
            a = tape.leaf(np.ones(2))
            tape.leaf(np.zeros(3))
            b = multiply(a, 2.0)
            c = tape.leaf(np.ones(1))
            nodes = tape.nodes
            assert len(nodes) == 4
            assert nodes[0] is a and nodes[2] is b and nodes[3] is c
            assert nodes[1].data.tobytes() == np.zeros(3).tobytes()
            tape.backward(sum_all(b))
            assert nodes[1].grad.tobytes() == np.zeros(3).tobytes()

    def test_dropped_dead_end_leaves_gradient_bytes_unchanged(self):
        rng = np.random.default_rng(53)
        x0 = rng.normal(size=(5, 7))
        w = rng.normal(size=(5, 7))

        def run(keep_dead_end):
            tape = Tape()
            x = tape.leaf(x0)
            h = log_softmax_rows(x)
            dead_end = exp(multiply(x, 0.5))
            out = mean_all(multiply(h, w))
            if not keep_dead_end:
                del dead_end
            count = len(tape.nodes)
            tape.backward(out)
            return count, x.grad.tobytes()

        with _no_cyclic_collector():
            held_count, held_grad = run(True)
            dropped_count, dropped_grad = run(False)
        assert held_count - dropped_count == 2
        assert dropped_grad == held_grad


def test_leaf_rejects_non_finite():
    with pytest.raises(NumericError):
        Tape().leaf(np.array([1.0, np.inf]))


class TestSharedBackwardRules:
    """The rules ``distill.logit_grad`` shares with the tape give, from the
    gradient a node received, its leaf's gradient bit for bit: the first
    contribution plus 0.0, under a random upstream gradient."""

    @staticmethod
    def _received_and_leaf(op, x):
        """The gradient ``op(x)``'s node received and its leaf's, under a random
        upstream gradient."""
        tape = Tape()
        leaf = tape.leaf(x)
        out = op(leaf)
        upstream = np.random.default_rng(3).normal(size=out.data.shape)
        tape.backward(sum_all(multiply(out, upstream)))
        return out.grad, out.data, leaf.grad

    def test_log_softmax_rows(self):
        x = np.random.default_rng(5).normal(0.0, 2.0, size=(6, 5))
        g, out, want = self._received_and_leaf(log_softmax_rows, x)
        assert np.add(_log_softmax_grad(g, out), 0.0).tobytes() == want.tobytes()

    @pytest.mark.parametrize("corrected", [True, False])
    def test_std_rows_with_a_constant_row(self, corrected):
        x = np.random.default_rng(7).normal(0.0, 2.0, size=(6, 5))
        x[2] = 1.5
        g, out, want = self._received_and_leaf(lambda t: std_rows(t, corrected), x)
        centered = x - x.mean(axis=1, keepdims=True)
        assert np.add(_std_grad(g, centered, out, corrected), 0.0).tobytes() == want.tobytes()
        assert not want[2].any()

    @pytest.mark.parametrize("name", ["max_rows", "min_rows", "gather_rows"])
    def test_picks_on_rows_with_ties(self, name):
        x = np.random.default_rng(11).normal(0.0, 2.0, size=(6, 5))
        x[:, 3] = x.max(axis=1)  # every row's maximum twice: the first index is picked
        x[::2, 4] = x[::2].min(axis=1)
        labels = np.array([0, 3, 4, 1, 3, 2])
        op, col = {
            "max_rows": (max_rows, x.argmax(axis=1)),
            "min_rows": (min_rows, x.argmin(axis=1)),
            "gather_rows": (lambda t: gather_rows(t, labels), labels),
        }[name]
        g, _, want = self._received_and_leaf(op, x)
        assert np.add(_pick_grad(g, x, col[:, None]), 0.0).tobytes() == want.tobytes()
        assert ((want != 0.0).sum(axis=1) == 1).all()  # one entry per row, ties or not
