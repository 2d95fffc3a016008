"""Tests for the module system, layers, initialisers and serialization."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.nn import MLP, Dropout, Linear, LogisticRegression, Sequential
from repro.nn import init as initmod
from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.serialization import (load_state_dict, model_size_mbytes,
                                    parameter_count, save_state_dict)
from repro.nn.tensor import Tensor


class _ToyModel(Module):
    def __init__(self, rng):
        super().__init__()
        self.first = Linear(4, 8, rng)
        self.second = Linear(8, 2, rng)
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        return self.second(self.first(x)) * self.scale


class TestModuleSystem:
    def test_named_parameters_are_qualified_and_ordered(self, rng):
        model = _ToyModel(rng)
        names = [name for name, _ in model.named_parameters()]
        assert names == ["scale", "first.weight", "first.bias",
                         "second.weight", "second.bias"]

    def test_parameter_count(self, rng):
        model = _ToyModel(rng)
        expected = 1 + (8 * 4 + 8) + (2 * 8 + 2)
        assert model.num_parameters() == expected
        assert parameter_count(model) == expected

    def test_zero_grad_clears_all(self, rng):
        model = _ToyModel(rng)
        out = model(Tensor(np.ones((3, 4)))).sum()
        out.backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_train_eval_propagates(self, rng):
        model = Sequential(Linear(3, 3, rng), Dropout(0.5, rng))
        model.eval()
        assert all(not m.training for _, m in model.named_modules())
        model.train()
        assert all(m.training for _, m in model.named_modules())

    def test_evaluating_scope_is_per_thread(self, rng):
        """While thread A sits in ``evaluating()``, thread B (here, the
        test's own thread) still sees every submodule in training mode."""
        model = _ToyModel(rng)
        inside, release = threading.Event(), threading.Event()
        seen = {}

        def evaluate():
            with model.evaluating():
                seen["a"] = [m.training for _, m in model.named_modules()]
                inside.set()
                release.wait(10)

        thread = threading.Thread(target=evaluate)
        thread.start()
        try:
            assert inside.wait(10)
            assert all(m.training for _, m in model.named_modules())
        finally:
            release.set()
            thread.join(10)
        assert seen["a"] == [False, False, False]

    def test_evaluating_writes_no_flag_and_nests(self, rng):
        model = _ToyModel(rng)
        other = Dropout(0.5, rng)
        model.second.eval()

        def modes():
            return {name: m.training for name, m in model.named_modules()}

        before = modes()
        assert before == {"": True, "first": True, "second": False}
        with model.evaluating():
            # the scope covers the whole thread, not just this model
            assert not other.training
            with model.first.evaluating():
                assert not any(modes().values())
            assert not any(modes().values())
            model.second.train()  # a flag set inside the scope persists
            assert not model.second.training
        assert modes() == {"": True, "first": True, "second": True}
        model.second.eval()
        with pytest.raises(RuntimeError):
            with model.evaluating():
                raise RuntimeError("unwinds")
        assert modes() == before and other.training

    def test_state_dict_roundtrip(self, rng):
        model = _ToyModel(rng)
        other = _ToyModel(np.random.default_rng(999))
        assert not np.allclose(model.first.weight.data, other.first.weight.data)
        other.load_state_dict(model.state_dict())
        np.testing.assert_allclose(model.first.weight.data, other.first.weight.data)

    def test_load_state_dict_strict_mismatch(self, rng):
        model = _ToyModel(rng)
        state = model.state_dict()
        state.pop("scale")
        with pytest.raises(KeyError):
            model.load_state_dict(state)
        model.load_state_dict(state, strict=False)  # tolerated when not strict

    def test_load_state_dict_shape_mismatch(self, rng):
        model = _ToyModel(rng)
        state = model.state_dict()
        state["first.weight"] = np.ones((2, 2))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_module_list_registration(self, rng):
        modules = ModuleList([Linear(2, 2, rng), Linear(2, 2, rng)])
        assert len(modules) == 2
        assert len(list(modules.named_parameters())) == 4
        with pytest.raises(RuntimeError):
            modules(Tensor(np.ones((1, 2))))


class TestLayers:
    def test_linear_shapes_and_bias(self, rng):
        layer = Linear(5, 3, rng)
        out = layer(Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)
        no_bias = Linear(5, 3, rng, bias=False)
        assert no_bias.bias is None
        assert no_bias.num_parameters() == 15

    def test_linear_invalid_dims(self, rng):
        with pytest.raises(ValueError):
            Linear(0, 3, rng)

    def test_linear_matches_manual_computation(self, rng):
        layer = Linear(4, 2, rng)
        x = rng.normal(size=(3, 4))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_mlp_output_shape_and_depth(self, rng):
        mlp = MLP(6, [8, 4], 2, rng, dropout=0.1)
        out = mlp(Tensor(np.ones((5, 6))))
        assert out.shape == (5, 2)
        # 3 Linear + 2 Activation + 2 Dropout
        assert len(mlp.net) == 7

    def test_mlp_no_hidden_layers(self, rng):
        mlp = MLP(3, [], 1, rng)
        assert mlp(Tensor(np.ones((2, 3)))).shape == (2, 1)

    def test_mlp_out_activation(self, rng):
        mlp = MLP(3, [4], 1, rng, out_activation="sigmoid")
        out = mlp(Tensor(np.random.default_rng(0).normal(size=(10, 3)))).data
        assert (out > 0).all() and (out < 1).all()

    def test_logistic_regression_outputs_probabilities(self, rng):
        lr = LogisticRegression(4, rng)
        out = lr(Tensor(rng.normal(size=(6, 4)))).data
        assert out.shape == (6,)
        assert (out > 0).all() and (out < 1).all()

    def test_dropout_module_respects_eval(self, rng):
        layer = Dropout(0.9, rng)
        layer.eval()
        x = Tensor(np.ones((4, 4)))
        np.testing.assert_allclose(layer(x).data, 1.0)

    def test_dropout_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.5, rng)


class TestInitializers:
    def test_xavier_uniform_bounds(self, rng):
        weights = initmod.xavier_uniform((64, 32), rng)
        limit = np.sqrt(6.0 / (32 + 64))
        assert np.abs(weights).max() <= limit

    def test_kaiming_scale_decreases_with_fan_in(self, rng):
        wide = initmod.kaiming_uniform((16, 1000), rng)
        narrow = initmod.kaiming_uniform((16, 4), rng)
        assert wide.std() < narrow.std()

    def test_lookup_and_errors(self, rng):
        assert initmod.get_initializer("zeros")((3,), rng).sum() == 0
        with pytest.raises(KeyError):
            initmod.get_initializer("does-not-exist")

    def test_deterministic_given_seed(self):
        a = initmod.xavier_normal((4, 4), np.random.default_rng(5))
        b = initmod.xavier_normal((4, 4), np.random.default_rng(5))
        np.testing.assert_allclose(a, b)


class TestSerialization:
    def test_save_and_load_roundtrip(self, rng, tmp_path):
        model = _ToyModel(rng)
        path = save_state_dict(model, str(tmp_path / "model"))
        assert path.endswith(".npz")
        restored = load_state_dict(path)
        assert set(restored) == set(model.state_dict())
        fresh = _ToyModel(np.random.default_rng(321))
        fresh.load_state_dict(restored)
        np.testing.assert_allclose(fresh.second.weight.data, model.second.weight.data)

    def test_model_size_reporting(self, rng):
        model = _ToyModel(rng)
        assert model_size_mbytes(model) == pytest.approx(
            model.num_parameters() * 4 / 1024 ** 2)
