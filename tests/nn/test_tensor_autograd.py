"""Gradient correctness of the autodiff core.

Every differentiable operation is checked against central finite differences
on random inputs.  If these tests pass, the CMSF training code can trust the
gradients it receives.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import (Tensor, as_tensor, concatenate, maximum, no_grad,
                             stack, where)


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar-valued function."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build_loss, x_value: np.ndarray, atol: float = 1e-5) -> None:
    """Compare autograd gradient against finite differences."""
    x = Tensor(x_value.copy(), requires_grad=True)
    loss = build_loss(x)
    loss.backward()
    analytic = x.grad.copy()

    def scalar_fn(value: np.ndarray) -> float:
        return float(build_loss(Tensor(value)).item())

    numeric = numerical_gradient(scalar_fn, x_value.copy())
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-4)


class TestBasicOps:
    def test_add_gradient(self, rng):
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 3))
        check_gradient(lambda t: (t + Tensor(y)).sum(), x)

    def test_add_broadcast_gradient(self, rng):
        x = rng.normal(size=(4, 3))
        bias = rng.normal(size=(3,))
        check_gradient(lambda t: (t + Tensor(bias)).sum(), x)
        # gradient w.r.t. the broadcast operand
        check_gradient(lambda t: (Tensor(x) + t).sum(), bias.copy())

    def test_mul_gradient(self, rng):
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=(5, 2))
        check_gradient(lambda t: (t * Tensor(y) * 2.0).sum(), x)

    def test_div_gradient(self, rng):
        x = rng.normal(size=(3, 3)) + 3.0
        y = rng.normal(size=(3, 3)) + 3.0
        check_gradient(lambda t: (Tensor(y) / t).sum(), x)

    def test_pow_gradient(self, rng):
        x = rng.random((4, 4)) + 0.5
        check_gradient(lambda t: (t ** 3).sum(), x)

    def test_neg_and_sub(self, rng):
        x = rng.normal(size=(3, 4))
        check_gradient(lambda t: (-t - Tensor(np.ones((3, 4)))).sum(), x)

    def test_matmul_gradient(self, rng):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 5))
        check_gradient(lambda t: (t @ Tensor(b)).sum(), a)
        check_gradient(lambda t: (Tensor(a) @ t).sum(), b)

    def test_matmul_vector_gradient(self, rng):
        a = rng.normal(size=(4, 3))
        v = rng.normal(size=(3,))
        check_gradient(lambda t: (t @ Tensor(v)).sum(), a)
        check_gradient(lambda t: (Tensor(a) @ t).sum(), v)

    def test_exp_log_gradient(self, rng):
        x = rng.random((3, 3)) + 0.5
        check_gradient(lambda t: t.exp().sum(), x)
        check_gradient(lambda t: t.log().sum(), x)

    def test_abs_gradient(self, rng):
        x = rng.normal(size=(4, 4)) + 0.1  # keep away from the kink at 0
        check_gradient(lambda t: t.abs().sum(), x)

    def test_clip_gradient(self, rng):
        x = rng.normal(size=(5, 5))
        check_gradient(lambda t: t.clip(-0.5, 0.5).sum(), x, atol=1e-4)


class TestReductionsAndShapes:
    def test_sum_axis_gradient(self, rng):
        x = rng.normal(size=(4, 5))
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), x)
        check_gradient(lambda t: (t.sum(axis=1, keepdims=True) ** 2).sum(), x)

    def test_mean_gradient(self, rng):
        x = rng.normal(size=(6, 2))
        check_gradient(lambda t: (t.mean(axis=0) ** 2).sum(), x)
        check_gradient(lambda t: t.mean(), x)

    def test_max_gradient(self, rng):
        x = rng.normal(size=(4, 5))
        check_gradient(lambda t: t.max(axis=1).sum(), x)

    def test_reshape_gradient(self, rng):
        x = rng.normal(size=(4, 6))
        check_gradient(lambda t: (t.reshape(2, 12) ** 2).sum(), x)
        check_gradient(lambda t: (t.reshape(4, 2, 3) ** 2).sum(), x)

    def test_transpose_gradient(self, rng):
        x = rng.normal(size=(3, 5))
        check_gradient(lambda t: (t.T @ Tensor(np.ones((3, 2)))).sum(), x)

    def test_getitem_gradient(self, rng):
        x = rng.normal(size=(6, 4))
        index = np.array([0, 2, 2, 5])
        check_gradient(lambda t: (t[index] ** 2).sum(), x)
        check_gradient(lambda t: (t[:, 1:3] ** 2).sum(), x)

    def test_concatenate_gradient(self, rng):
        x = rng.normal(size=(3, 4))
        y = rng.normal(size=(3, 2))
        check_gradient(lambda t: (concatenate([t, Tensor(y)], axis=1) ** 2).sum(), x)
        check_gradient(lambda t: (concatenate([Tensor(x), t], axis=1) ** 2).sum(), y)

    def test_stack_gradient(self, rng):
        x = rng.normal(size=(3, 4))
        y = rng.normal(size=(3, 4))
        check_gradient(lambda t: (stack([t, Tensor(y)], axis=0) ** 2).sum(), x)

    def test_where_and_maximum_gradient(self, rng):
        x = rng.normal(size=(4, 4)) + 0.05
        cond = rng.random((4, 4)) > 0.5
        check_gradient(lambda t: where(cond, t, Tensor(np.zeros((4, 4)))).sum(), x)
        other = rng.normal(size=(4, 4))
        check_gradient(lambda t: maximum(t, Tensor(other)).sum(), x, atol=1e-4)


class TestAutogradMechanics:
    def test_gradient_accumulates_over_multiple_uses(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        loss = (x * x).sum() + x.sum()
        loss.backward()
        np.testing.assert_allclose(x.grad, 2 * x.data + 1.0)

    def test_backward_requires_scalar_without_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_backward_with_explicit_gradient(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = x * 3.0
        y.backward(np.full((2, 2), 2.0))
        np.testing.assert_allclose(x.grad, np.full((2, 2), 6.0))

    def test_no_grad_context_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2).sum()
        assert y._backward is None
        assert y._parents == ()

    def test_detach_cuts_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x.detach() * 5).sum()
        assert not y.requires_grad

    def test_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_gradient(self, rng):
        # f(x) = sum((x*2) * (x+1)) exercises shared parents in the tape.
        x_value = rng.normal(size=(4,))
        check_gradient(lambda t: ((t * 2.0) * (t + 1.0)).sum(), x_value)

    def test_repr_and_item(self):
        x = Tensor(np.array([2.5]), requires_grad=True)
        assert "requires_grad" in repr(x)
        assert x.item() == pytest.approx(2.5)

    def test_as_tensor_idempotent(self):
        x = Tensor(np.ones(3))
        assert as_tensor(x) is x
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_comparison_returns_numpy(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]))
        mask = x > 1.5
        assert isinstance(mask, np.ndarray)
        assert mask.tolist() == [False, True, True]


class TestTapeRelease:
    """``backward()`` consumes the graph: activations and intermediate
    gradients are freed as it goes, leaves keep their gradients."""

    def test_non_leaves_are_released_and_leaves_keep_grads(self, rng):
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 3)))
        hidden = x.matmul(w) + b
        active = F.relu(hidden)
        loss = (active * active).sum()
        loss.backward()
        for node in (hidden, active, loss):
            assert node.grad is None and node._parents == ()
        assert w.grad is not None and w.grad.shape == w.shape
        assert b.grad is not None and b.grad.shape == b.shape
        assert x.grad is None   # a leaf without requires_grad gets none

    def test_second_backward_through_a_consumed_graph_raises(self, rng):
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        hidden = x * 2.0
        loss = hidden.sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            (hidden * 3.0).sum().backward()

    def test_master_forward_tape_is_freed_by_backward(self, tiny_graph):
        """A one-layer MAGA master forward: what is still allocated after
        ``backward()`` (parameter gradients, with ``loss`` still referenced)
        is a small fraction of the tape that forward recorded."""
        from repro.core import CMSFConfig
        from repro.core.master import MasterModel
        from repro.nn.losses import binary_cross_entropy

        config = CMSFConfig(hidden_dim=16, image_reduce_dim=16,
                            classifier_hidden=8, maga_layers=1, maga_heads=2,
                            num_clusters=6, dropout=0.0, seed=0)
        model = MasterModel(poi_dim=tiny_graph.poi_dim,
                            img_dim=tiny_graph.image_dim, config=config,
                            rng=np.random.default_rng(0))
        plan = model.graph_plan(tiny_graph)
        labelled = tiny_graph.labeled_indices()
        targets = tiny_graph.labels[labelled].astype(np.float64)

        def loss_of_one_forward():
            return binary_cross_entropy(model(tiny_graph, plan=plan)[labelled],
                                        targets)

        loss_of_one_forward().backward()   # warm every lazily built cache
        for param in model.parameters():
            param.zero_grad()
        tracemalloc.start()
        try:
            loss = loss_of_one_forward()
            tape, _ = tracemalloc.get_traced_memory()
            loss.backward()
            still_allocated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert still_allocated < 0.1 * tape, (still_allocated, tape)
        assert loss.grad is None and loss._parents == ()


class TestThreadLocalScopes:
    """``no_grad``/``dtype_scope`` must be private to their thread.

    Regression for a serving-concurrency bug: the flags were module
    globals, so two threads interleaving enter/exit could restore each
    other's saved state and leave autograd disabled process-wide — any
    training run afterwards silently skipped backprop.
    """

    def test_crossed_no_grad_interleaving_cannot_stick(self):
        import threading

        from repro.nn.tensor import is_grad_enabled

        steps = [threading.Event() for _ in range(4)]
        states = {}

        def first():
            scope = no_grad()
            scope.__enter__()          # A enters (saves True)
            steps[0].set()
            steps[1].wait(5)           # ... B enters meanwhile
            scope.__exit__(None, None, None)
            steps[2].set()
            states["first"] = is_grad_enabled()

        def second():
            steps[0].wait(5)
            scope = no_grad()
            scope.__enter__()          # with a global flag this saved False
            steps[1].set()
            steps[2].wait(5)
            scope.__exit__(None, None, None)
            states["second"] = is_grad_enabled()

        threads = [threading.Thread(target=first),
                   threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert states == {"first": True, "second": True}
        assert is_grad_enabled()

    def test_no_grad_in_worker_does_not_leak_to_main(self):
        import threading

        from repro.nn.tensor import is_grad_enabled

        inside = threading.Event()
        release = threading.Event()

        def worker():
            with no_grad():
                inside.set()
                release.wait(5)

        thread = threading.Thread(target=worker)
        thread.start()
        assert inside.wait(5)
        assert is_grad_enabled()       # the worker's scope is its own
        release.set()
        thread.join(10)

    def test_dtype_scope_is_per_thread(self):
        import threading

        from repro.nn.tensor import dtype_scope, get_default_dtype

        inside = threading.Event()
        release = threading.Event()
        seen = {}

        def worker():
            with dtype_scope(np.float32):
                seen["worker"] = get_default_dtype()
                inside.set()
                release.wait(5)
            seen["worker_after"] = get_default_dtype()

        thread = threading.Thread(target=worker)
        thread.start()
        assert inside.wait(5)
        assert get_default_dtype() == np.float64
        release.set()
        thread.join(10)
        assert seen == {"worker": np.float32, "worker_after": np.float64}
