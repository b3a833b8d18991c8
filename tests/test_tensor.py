import ast
import gc
import importlib
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from winmt import corpus as C
from winmt import synth
from winmt import tensor as T
from winmt import trainer as TR
from winmt.model import TransformerModel
from winmt.rng import stream


def scalar(x):
    return T.Tensor(np.asarray(x, dtype=np.float64))


class TestForwardPrimitives:
    def test_softmax_symmetry(self):
        out = T.softmax(scalar([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_matmul_identity(self):
        m = scalar([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(scalar(np.eye(2)), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_layer_norm_hand_case(self):
        # mean = 2, variance = 1, so [1, 3] maps to [-1, 1] up to epsilon
        out = T.layer_norm(scalar([1.0, 3.0]), scalar([1.0, 1.0]), scalar([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-4)

    def test_matmul_shape_error_names_op_and_shapes(self):
        with pytest.raises(T.ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            T.matmul(scalar(np.ones((2, 3))), scalar(np.ones((2, 3))))

    def test_softmax_rows_sum_to_one(self):
        for seed in range(20):
            x = scalar(stream(seed, "sm").normal(0, 3, (4, 7)))
            y = T.softmax(x).data
            assert y.min() >= 0
            np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-9)

    def test_softmax_with_neg_inf_mask_is_exactly_zero(self):
        x = np.array([1.0, 2.0, -np.inf])
        y = T.softmax(scalar(x)).data
        assert y[2] == 0.0
        np.testing.assert_allclose(y.sum(), 1.0, atol=1e-12)

    def test_forward_deterministic(self):
        def run():
            x = T.Tensor(stream(3, "det").normal(0, 1, (5, 5)))
            return T.softmax(T.matmul(x, x)).data

        assert np.array_equal(run(), run())


class TestBackward:
    def test_square_gradient(self):
        x = scalar(3.0)
        with T.record(T.Graph()):
            loss = T.mul(x, x)
        T.backward(loss)
        assert x.grad == pytest.approx(6.0)

    def test_softmax_sum_grad_is_zero(self):
        z = scalar([0.3, -1.2, 2.0])
        with T.record(T.Graph()):
            loss = T.reduce_sum(T.softmax(z))
        T.backward(loss)
        np.testing.assert_allclose(z.grad, 0.0, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = scalar([1.0, 2.0])
        with T.record(T.Graph()):
            y = T.mul(x, x)
        with pytest.raises(T.GraphError, match="scalar"):
            T.backward(y)

    def test_detached_loss_rejected(self):
        y = T.mul(scalar(2.0), scalar(3.0))  # built outside any graph
        with pytest.raises(T.GraphError, match="detached"):
            T.backward(y)

    def test_double_backward_rejected(self):
        x = scalar(2.0)
        with T.record(T.Graph()):
            loss = T.mul(x, x)
        T.backward(loss)
        with pytest.raises(T.GraphError, match="already ran"):
            T.backward(loss)

    def test_intermediates_receive_grads(self):
        x = scalar([1.0, 2.0])
        with T.record(T.Graph()):
            y = T.mul(x, x)
            loss = T.reduce_sum(y)
        T.backward(loss)
        assert y.grad.tobytes() == np.ones(2).tobytes()
        assert x.grad.tobytes() == np.array([2.0, 4.0]).tobytes()

    def test_tensor_used_several_times_sums_in_walk_order(self):
        x = scalar(stream(5, "reuse").normal(0, 1, 64))
        with T.record(T.Graph()):
            h = T.mul_const(x, 3.0)
            loss = T.reduce_sum(T.add(T.mul(h, h), h))
        T.backward(loss)
        # the walk reaches add's gradient (ones) before mul's two (h each)
        want = (1.0 + h.data) + h.data
        assert not np.array_equal(want, 1.0 + (h.data + h.data))  # the order shows
        assert h.grad.tobytes() == want.tobytes()
        assert x.grad.tobytes() == (want * 3.0).tobytes()

    def test_tensor_of_a_consumed_graph_is_a_leaf_of_the_next(self):
        x = scalar([1.0, 2.0])
        with T.record(T.Graph()):
            h = T.mul_const(x, 2.0)
            first = T.reduce_sum(h)
        T.backward(first)
        with T.record(T.Graph()):
            second = T.reduce_sum(T.mul(h, h))
        T.backward(second)
        # h keeps its first gradient (ones) and adds 2h; x is not reached again
        assert h.grad.tobytes() == np.array([5.0, 9.0]).tobytes()
        assert x.grad.tobytes() == np.array([2.0, 2.0]).tobytes()

    def test_replaced_backward_function_takes_effect(self):
        """The benchmark tracer wraps ``graph.nodes[t.node_id].backward_fn``."""
        x = scalar([1.0, 2.0])
        graph = T.Graph()
        with T.record(graph):
            h = T.mul_const(x, 2.0)
            loss = T.reduce_sum(h)
        node = graph.nodes[h.node_id]
        inner = node.backward_fn
        node.backward_fn = lambda g: tuple(gi * 10.0 for gi in inner(g))
        T.backward(loss)
        assert x.grad.tobytes() == np.array([20.0, 20.0]).tobytes()

    def test_backward_frees_tape_without_cyclic_gc(self):
        x = scalar([1.0, -2.0, 3.0])
        gc.disable()
        try:
            with T.record(T.Graph()):
                h = T.relu(T.mul(x, x))
                loss = T.reduce_sum(h)
            activation = weakref.ref(h.data)
            T.backward(loss)
            with pytest.raises(T.GraphError, match="already ran"):
                T.backward(loss)
            del h, loss
            assert activation() is None
        finally:
            gc.enable()

    def test_unwalked_tape_is_freed_without_cyclic_gc(self):
        """A forward that raises mid-step leaves a tape backward never walks."""
        x = scalar([1.0, -2.0, 3.0])
        gc.disable()
        try:
            with T.record(T.Graph()):
                h = T.softmax(T.mul(x, x))  # softmax's backward keeps its output's data
                loss = T.reduce_sum(h)
            activation = weakref.ref(h.data)
            del h, loss
            assert activation() is None
        finally:
            gc.enable()

    def test_tape_keeps_no_output_no_backward_reads(self):
        x = scalar(np.ones(1 << 17))  # 1 MiB
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with T.record(T.Graph()):
                h = x
                for _ in range(16):
                    h = T.mul_const(h, 0.5)
                loss = T.reduce_sum(h)
            del h
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        # mul_const's backward reads no array; keeping the outputs would hold 16 MiB
        assert held < 4 * 2 ** 20
        T.backward(loss)
        assert x.grad.tobytes() == np.full(1 << 17, 0.5 ** 16).tobytes()

    def test_backward_frees_each_node_once_walked(self):
        x = scalar(np.ones(1 << 17))  # 1 MiB
        with T.record(T.Graph()):
            h = x
            for _ in range(16):
                h = T.mul_const(h, 0.5)
            loss = T.reduce_sum(h)
        del h
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a gradient at a time, not one per node (17 MiB)
        assert peak - start < 4 * 2 ** 20
        assert x.grad.tobytes() == np.full(1 << 17, 0.5 ** 16).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_forward_and_gradient_exact(self, dtype):
        a = np.array([[-2.5, -0.0, 0.0, 1e-30, 3.0],
                      [-1e-30, 7.0, -7.0, 0.5, -0.5]], dtype=dtype)
        upstream = np.arange(1.0, 11.0, dtype=dtype).reshape(2, 5)
        x = T.Tensor(a)
        with T.record(T.Graph()):
            y = T.relu(x)
            loss = T.reduce_sum(T.mul(y, T.Tensor(upstream)))
        T.backward(loss)
        mask = a > 0
        expected = np.where(mask, a, 0.0)
        assert y.data.dtype == expected.dtype == dtype
        assert y.data.tobytes() == expected.tobytes()
        assert x.grad.tobytes() == (upstream * mask).tobytes()

    def test_mlp_matches_finite_differences(self):
        # random 2-layer MLP: loss = sum(relu(x @ w1 + b1) @ w2)
        rng = stream(11, "mlp")
        w1 = rng.normal(0, 1, (4, 6))
        b1 = rng.normal(0, 1, 6)
        w2 = rng.normal(0, 1, (6, 2))
        x0 = rng.normal(0, 1, (3, 4))

        def f(x):
            h = T.relu(T.add(T.matmul(x, T.Tensor(w1)), T.Tensor(b1)))
            return T.reduce_sum(T.matmul(h, T.Tensor(w2)))

        assert T.finite_diff_check(f, T.Tensor(x0), 1e-5) < 1e-4


class TestFiniteDiffCheck:
    def test_linear_function_tiny_error(self):
        rng = stream(5, "lin")
        w = rng.normal(0, 1, 8)

        def f(x):
            return T.reduce_sum(T.mul(x, T.Tensor(w)))

        err = T.finite_diff_check(f, T.Tensor(rng.normal(0, 1, 8)), 1e-5)
        assert err < 1e-8

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            T.finite_diff_check(lambda x: T.reduce_sum(x), T.Tensor(np.ones(3)), 0.0)

    def test_coordinate_subset(self):
        def f(x):
            return T.reduce_sum(T.mul(x, x))

        err = T.finite_diff_check(f, T.Tensor(np.arange(1.0, 6.0)), 1e-5, coords=[0, 4])
        assert err < 1e-8


ORACLE_OPS = [
    "matmul", "linear", "attention", "add", "sub", "mul", "relu", "softmax", "log_softmax",
    "layer_norm", "reshape", "transpose", "reduce_sum", "gather_last", "embedding",
    "mul_const", "add_const", "dropout", "take_rows", "scatter_rows", "copy_rows",
]
# the names in tensor.__all__ that are not differentiable ops
NOT_OPS = {"GraphError", "ShapeError", "Graph", "Tensor", "record", "backward",
           "finite_diff_check"}


def test_every_differentiable_op_is_in_the_gradient_oracle():
    assert set(T.__all__) - NOT_OPS == set(ORACLE_OPS)


def test_ops_the_benchmark_tracer_times_stay_exported():
    # perfbench/tracer.py looks each name of TENSOR_OPS up in winmt.tensor, and each
    # (module, attribute path) of SPANS in winmt, with getattr
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text()
    lists = {node.targets[0].id: ast.literal_eval(node.value)
             for node in ast.parse(source).body if isinstance(node, ast.Assign)
             and getattr(node.targets[0], "id", None) in ("TENSOR_OPS", "SPANS")}
    names = lists["TENSOR_OPS"]
    assert len(names) == 16
    assert set(names) <= set(T.__all__)
    assert all(callable(getattr(T, name)) for name in names)
    assert len(lists["SPANS"]) == 28
    for module_name, path, _ in lists["SPANS"]:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module_name}.{path} is not a function"


def test_trainer_passes_the_train_flag_the_benchmark_tracer_splits_on(tmp_path, monkeypatch,
                                                                      one_worker):
    # perfbench/tracer.py times TransformerModel.forward as model.forward_train
    # when it gets the keyword train=True, and as model.forward_eval otherwise
    docs, _ = synth.gen_synthetic(0, n_docs=20, vocab_size=32)
    train_docs, dev_docs, _ = C.split_documents(docs, (80, 20, 0))
    C.write_corpus(tmp_path / "train.txt", train_docs)
    C.write_corpus(tmp_path / "dev.txt", dev_docs)
    trainer = TR.Trainer(TR.TrainConfig(data_dir=str(tmp_path), out_dir=str(tmp_path / "run"),
                                        layers=1, heads=2, hidden=16, ffn=32))
    calls = []
    forward = TransformerModel.forward

    def spy(self, *args, **kwargs):
        calls.append(kwargs)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(TransformerModel, "forward", spy)
    trainer._train_step(trainer.train_windows[:4], 1)
    assert len(calls) == 1 and calls[0].get("train") is True
    calls.clear()
    trainer._validate()
    assert calls and not any("train" in kwargs for kwargs in calls)


@pytest.mark.parametrize("op_name", ORACLE_OPS)
def test_primitive_gradients_over_100_seeds(op_name):
    """Every differentiable primitive matches central finite differences."""
    for seed in range(100):
        rng = stream(seed, "gradcheck/" + op_name)
        if op_name == "matmul":
            b = rng.normal(0, 1, (3, 2))
            f = lambda x: T.reduce_sum(T.matmul(x, T.Tensor(b)))
            x0 = rng.normal(0, 1, (2, 3))
        elif op_name == "linear":
            # the point is x (2-D or stacked 3-D), the weight or the bias in turn
            args = [rng.normal(0, 1, (2, 3) if seed % 2 else (2, 2, 3)),
                    rng.normal(0, 1, (3, 4)), rng.normal(0, 1, 4)]
            w = T.Tensor(rng.normal(0, 1, args[0].shape[:-1] + (4,)))
            which = seed % 3
            x0 = args[which]

            def f(x):
                ts = [x if i == which else T.Tensor(a) for i, a in enumerate(args)]
                return T.reduce_sum(T.mul(T.linear(*ts), w))
        elif op_name == "attention":
            # q, k or v in turn over 2 heads; keys masked with -inf; dropout
            # on even seeds
            args = [rng.normal(0, 1, (2, 3, 4)), rng.normal(0, 1, (2, 5, 4)),
                    rng.normal(0, 1, (2, 5, 4))]
            mask = np.zeros((2, 1, 1, 5))
            mask[0, ..., 4] = mask[1, ..., 2:] = -np.inf
            w = T.Tensor(rng.normal(0, 1, (2, 3, 4)))
            rate = 0.0 if seed % 2 else 0.3
            which = seed % 3
            x0 = args[which]

            def f(x):
                ts = [x if i == which else T.Tensor(a) for i, a in enumerate(args)]
                out, _ = T.attention(*ts, 2, mask, rate, stream(seed, "attn-drop"))
                return T.reduce_sum(T.mul(out, w))
        elif op_name == "dropout":
            w = T.Tensor(rng.normal(0, 1, (3, 4)))
            f = lambda x: T.reduce_sum(T.mul(T.dropout(x, 0.4, stream(seed, "drop")), w))
            x0 = rng.normal(0, 1, (3, 4))
        elif op_name in ("add", "sub", "mul"):
            b = T.Tensor(rng.normal(0, 1, (1, 3)))  # broadcasting path
            op = getattr(T, op_name)
            f = lambda x: T.reduce_sum(op(x, b))
            x0 = rng.normal(0, 1, (2, 3))
        elif op_name == "relu":
            f = lambda x: T.reduce_sum(T.relu(x))
            x0 = rng.normal(0, 1, 6) + 0.1  # keep away from the kink
        elif op_name == "softmax":
            w = T.Tensor(rng.normal(0, 1, (2, 4)))
            f = lambda x: T.reduce_sum(T.mul(T.softmax(x), w))
            x0 = rng.normal(0, 1, (2, 4))
        elif op_name == "log_softmax":
            w = T.Tensor(rng.normal(0, 1, (2, 4)))
            f = lambda x: T.reduce_sum(T.mul(T.log_softmax(x), w))
            x0 = rng.normal(0, 1, (2, 4))
        elif op_name == "layer_norm":
            g = T.Tensor(rng.normal(1, 0.1, 5))
            bb = T.Tensor(rng.normal(0, 0.1, 5))
            w = rng.normal(0, 1, (2, 5))
            f = lambda x: T.reduce_sum(T.mul(T.layer_norm(x, g, bb), T.Tensor(w)))
            x0 = rng.normal(0, 1, (2, 5))
        elif op_name == "reshape":
            w = T.Tensor(rng.normal(0, 1, (3, 2)))
            f = lambda x: T.reduce_sum(T.mul(T.reshape(x, (3, 2)), w))
            x0 = rng.normal(0, 1, (2, 3))
        elif op_name == "transpose":
            w = T.Tensor(rng.normal(0, 1, (3, 2)))
            f = lambda x: T.reduce_sum(T.mul(T.transpose(x, (1, 0)), w))
            x0 = rng.normal(0, 1, (2, 3))
        elif op_name == "reduce_sum":
            w = T.Tensor(rng.normal(0, 1, 2))
            f = lambda x: T.reduce_sum(T.mul(T.reduce_sum(x, axis=1), w))
            x0 = rng.normal(0, 1, (2, 3))
        elif op_name == "gather_last":
            idx = rng.integers(0, 4, (3,))
            f = lambda x: T.reduce_sum(T.gather_last(x, idx))
            x0 = rng.normal(0, 1, (3, 4))
        elif op_name == "embedding":
            ids = rng.integers(0, 5, (2, 3))
            w = T.Tensor(rng.normal(0, 1, (2, 3, 4)))
            f = lambda x: T.reduce_sum(T.mul(T.embedding(x, ids), w))
            x0 = rng.normal(0, 1, (5, 4))
        elif op_name == "take_rows":
            idx = rng.permutation(5)[:3]
            w = T.Tensor(rng.normal(0, 1, (3, 4)))
            f = lambda x: T.reduce_sum(T.mul(T.take_rows(x, idx), w))
            x0 = rng.normal(0, 1, (5, 4))
        elif op_name == "scatter_rows":
            idx = rng.permutation(5)[:3]
            w = T.Tensor(rng.normal(0, 1, (5, 4)))
            f = lambda x: T.reduce_sum(T.mul(T.scatter_rows(x, idx, 5), w))
            x0 = rng.normal(0, 1, (3, 4))
        elif op_name == "copy_rows":
            rows = rng.permutation(5)
            dst = rows[:2]
            src = rows[[2, 2]] if seed % 2 else rows[2:4]  # odd seeds: one source, two copies
            w = T.Tensor(rng.normal(0, 1, (5, 4)))
            f = lambda x: T.reduce_sum(T.mul(T.copy_rows(x, dst, src), w))
            x0 = rng.normal(0, 1, (5, 4))
        elif op_name == "mul_const":
            c = rng.normal(0, 1, (2, 3))
            f = lambda x: T.reduce_sum(T.mul_const(x, c))
            x0 = rng.normal(0, 1, (2, 3))
        else:  # add_const
            c = rng.normal(0, 1, (2, 3))
            f = lambda x: T.reduce_sum(T.mul(T.add_const(x, c), T.Tensor(c)))
            x0 = rng.normal(0, 1, (2, 3))
        assert T.finite_diff_check(f, T.Tensor(x0), 1e-5) < 1e-4, f"{op_name} seed {seed}"


def _old_linear(x, w, b):
    return T.add(T.matmul(x, w), b)


def _old_attention(q, k, v, heads, mask_add, p, rng):
    shape, groups, hidden = q.shape, k.shape[0], k.shape[-1]
    split = lambda a: T.transpose(T.reshape(a, (groups, -1, heads, hidden // heads)),
                                  (0, 2, 1, 3))
    q, k, v = split(q), split(k), split(v)
    scores = T.mul_const(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(q.shape[-1]))
    probs = T.softmax(T.add_const(scores, mask_add), axis=-1)
    out = T.matmul(T.dropout(probs, p, rng) if p else probs, v)
    return T.reshape(T.transpose(out, (0, 2, 1, 3)), shape), probs.data


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("x_shape", [(6, 8), (3, 2, 8), (6, 1, 8)])
def test_fused_ops_equal_the_primitive_chain_bitwise(dtype, rate, x_shape):
    """linear and attention give the bytes of the op chains they replace,
    forward and backward. The (6, 1, 8) rows are decode's case: three beam
    rows of a window share its one key set."""
    rng = stream(int(rate * 10) + len(x_shape), "fused", np.dtype(dtype).itemsize)
    values = {"x": rng.normal(0, 1, x_shape), "w": rng.normal(0, 1, (8, 8)),
              "b": rng.normal(0, 1, 8), "wk": rng.normal(0, 1, (8, 8)),
              "wv": rng.normal(0, 1, (8, 8))}
    groups = {(6, 8): 2, (3, 2, 8): 3, (6, 1, 8): 2}[x_shape]  # windows
    length = math.prod(x_shape[:-1]) // groups  # keys per window
    mask = np.zeros((groups, 1, 1, length))
    mask[-1, ..., -1] = -np.inf
    up = rng.normal(0, 1, x_shape[:-1] + (8,))
    results = []
    for lin, attn in ((T.linear, T.attention), (_old_linear, _old_attention)):
        ts = {name: T.Tensor(a.astype(dtype)) for name, a in values.items()}
        with T.record(T.Graph()):
            h = lin(ts["x"], ts["w"], ts["b"])
            grid = lambda a: T.reshape(a, (groups, length, 8))
            k, v = grid(T.matmul(h, ts["wk"])), grid(lin(h, ts["wv"], ts["b"]))
            out, probs = attn(h, k, v, 2, mask.astype(dtype), rate, stream(5, "fused-drop"))
            loss = T.reduce_sum(T.mul(out, T.Tensor(up.astype(dtype))))
        T.backward(loss)
        results.append([out.data, probs] + [t.grad for t in ts.values()])
    for fused, old in zip(*results):
        assert fused.dtype == old.dtype == dtype
        assert fused.tobytes() == old.tobytes()


def test_attention_rejects_nonconforming_operands():
    q, k = T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((2, 5, 4)))
    with pytest.raises(T.ShapeError, match="attention"):
        T.attention(q, k, T.Tensor(np.zeros((2, 4, 4))), 2, 0.0, 0.0, None)
    with pytest.raises(T.ShapeError, match="attention"):
        T.attention(q, k, k, 2, np.zeros((2, 3, 4)), 0.0, None)
    with pytest.raises(T.ShapeError, match="attention"):  # 4 columns over 3 heads
        T.attention(q, k, k, 3, 0.0, 0.0, None)
    with pytest.raises(T.ShapeError, match="attention"):  # 6 query rows over 4 key sets
        T.attention(q, T.Tensor(np.zeros((4, 5, 4))), T.Tensor(np.zeros((4, 5, 4))), 2,
                    0.0, 0.0, None)
    with pytest.raises(T.ShapeError, match="linear"):
        T.linear(q, T.Tensor(np.zeros((4, 2))), T.Tensor(np.zeros(4)))


def _closure_arrays(fn, seen=None) -> list[np.ndarray]:
    """The arrays ``fn`` keeps alive through its closure and its closures' closures."""
    seen = set() if seen is None else seen
    found = []
    for cell in getattr(fn, "__closure__", None) or ():
        value = cell.cell_contents
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            found.append(value)
        elif callable(value):
            found += _closure_arrays(value, seen)
    return found


def test_attention_backward_keeps_only_probs_of_the_scores_shape():
    """Under dropout the backward remakes ``probs * keep * keep_scale``
    rather than keeping a second float array of the scores' shape."""
    rng = stream(0, "attn-tape")
    q, k, v = (T.Tensor(rng.normal(0, 1, shape).astype(np.float32))
               for shape in ((2, 5, 8), (2, 6, 8), (2, 6, 8)))
    graph = T.Graph()
    with T.record(graph):
        out, probs = T.attention(q, k, v, 2, np.zeros((2, 1, 1, 6), np.float32), 0.3,
                                 stream(1, "attn-tape-drop"))
    arrays = _closure_arrays(graph.nodes[out.node_id].backward_fn)
    scores_shaped = [a for a in arrays if a.shape == probs.shape and a.dtype.kind == "f"]
    assert len(scores_shaped) == 1 and scores_shaped[0] is probs
    assert any(a.shape == probs.shape and a.dtype == bool for a in arrays)  # the keep mask


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embedding_gradient_equals_add_at_bitwise(dtype):
    rng = stream(2, "emb-grad")
    ids = rng.integers(0, 6, (7, 50))  # ids 0-5 repeat many times; 6 and 7 never occur
    ids[3, 7] = 8  # once
    table = T.Tensor(rng.normal(0, 1, (9, 16)).astype(dtype))
    up = rng.normal(0, 1, (7, 50, 16)).astype(dtype)
    up[ids == 2] = -0.0  # np.add.at sums from +0.0, so id 2's row is +0.0
    with T.record(T.Graph()):
        loss = T.reduce_sum(T.mul(T.embedding(table, ids), T.Tensor(up)))
    T.backward(loss)
    expected = np.zeros((9, 16), dtype=dtype)
    np.add.at(expected, ids.reshape(-1), up.reshape(-1, 16))
    assert table.grad.dtype == dtype
    assert table.grad.tobytes() == expected.tobytes()


def test_take_and_scatter_rows_are_inverse_and_zero_elsewhere():
    rng = stream(0, "rows")
    idx = np.array([4, 0, 2])
    x = T.Tensor(rng.normal(0, 1, (5, 3)))
    w = T.Tensor(rng.normal(0, 1, (3, 3)))
    with T.record(T.Graph()):
        taken = T.take_rows(x, idx)
        loss = T.reduce_sum(T.mul(taken, w))
    T.backward(loss)
    np.testing.assert_array_equal(taken.data, x.data[idx])
    np.testing.assert_array_equal(x.grad[idx], w.data)
    np.testing.assert_array_equal(x.grad[[1, 3]], 0.0)  # rows not taken

    grid = T.scatter_rows(taken, idx, 5)
    np.testing.assert_array_equal(grid.data[idx], x.data[idx])
    np.testing.assert_array_equal(grid.data[[1, 3]], 0.0)
    np.testing.assert_array_equal(T.take_rows(grid, idx).data, taken.data)


def test_row_ops_reject_bad_indices():
    x = T.Tensor(np.zeros((3, 2)))
    with pytest.raises(T.ShapeError, match="take_rows"):
        T.take_rows(x, np.array([0, 3]))
    with pytest.raises(T.ShapeError, match="take_rows"):
        T.take_rows(x, np.array([0.0]))
    with pytest.raises(T.ShapeError, match="scatter_rows"):
        T.scatter_rows(x, np.array([0, 1]), 4)  # one index per row of x
    with pytest.raises(T.ShapeError, match="scatter_rows"):
        T.scatter_rows(x, np.array([0, 1, 4]), 4)
    with pytest.raises(T.ShapeError, match="copy_rows"):
        T.copy_rows(x, np.array([0, 1]), np.array([2]))
    with pytest.raises(T.ShapeError, match="copy_rows"):
        T.copy_rows(x, np.array([0]), np.array([3]))


def test_dropout_inverted_scaling_and_grad():
    x = T.Tensor(np.ones((1000,)))
    rng = stream(7, "drop")
    with T.record(T.Graph()):
        y = T.dropout(x, 0.25, rng)
        loss = T.reduce_sum(y)
    T.backward(loss)
    kept = y.data > 0
    np.testing.assert_allclose(y.data[kept], 1.0 / 0.75)
    assert abs(y.data.mean() - 1.0) < 0.1  # unbiased in expectation
    np.testing.assert_array_equal(x.grad[kept], 1.0 / 0.75)
    np.testing.assert_array_equal(x.grad[~kept], 0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_equals_the_float_mask_formula_bitwise(dtype):
    special = [0.0, -0.0, np.inf, -np.inf, 1e-30, -3.5, 7.25, np.pi]
    a = np.resize(np.array(special, dtype=dtype), (4, 50))
    upstream = np.resize(np.array(special[::-1], dtype=dtype), (4, 50))
    x = T.Tensor(a)
    with np.errstate(invalid="ignore"):  # a dropped inf is NaN in both formulas
        with T.record(T.Graph()):
            y = T.dropout(x, 0.3, stream(5, "drop"))
            loss = T.reduce_sum(T.mul(y, T.Tensor(upstream)))
        T.backward(loss)
        mask = T._keep_mask(a.shape, 0.3, stream(5, "drop")) * dtype(1.0 / 0.7)
        expected_y, expected_grad = a * mask, upstream * mask
    assert 0 < np.count_nonzero(mask) < mask.size
    assert y.data.dtype == x.grad.dtype == dtype
    assert y.data.tobytes() == expected_y.tobytes()
    assert x.grad.tobytes() == expected_grad.tobytes()


def test_dropout_keeps_each_entry_with_probability_one_minus_p():
    x = T.Tensor(np.ones(200_001, dtype=np.float32))
    for p in (0.1, 0.3, 0.5):
        kept = T.dropout(x, p, stream(1, "rate", int(p * 10))).data > 0
        assert abs(kept.mean() - (1 - p)) < 0.005  # about 5 standard deviations
    again = T.dropout(x, 0.3, stream(1, "rate", 3)).data
    assert again.tobytes() == T.dropout(x, 0.3, stream(1, "rate", 3)).data.tobytes()


def test_dropout_zero_rate_is_identity():
    x = T.Tensor(np.arange(4.0))
    assert T.dropout(x, 0.0, stream(0, "d")) is x


def test_nested_recording_rejected():
    with T.record(T.Graph()):
        with pytest.raises(T.GraphError):
            with T.record(T.Graph()):
                pass
