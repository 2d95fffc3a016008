"""Module and parameter abstractions (a small torch.nn-style layer system).

A :class:`Module` owns :class:`Parameter` objects and child modules, exposes
``parameters()`` / ``named_parameters()`` for optimisers, ``state_dict()`` /
``load_state_dict()`` for serialisation, and ``train()`` / ``eval()`` to
switch behaviours such as dropout.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .tensor import Tensor, _state, get_default_dtype


class Parameter(Tensor):
    """A tensor that is registered as a trainable model parameter.

    Parameters are stored in the default tensor dtype active at construction
    time (see :func:`repro.nn.tensor.set_default_dtype`): float64 unless a
    model opts into the float32 fast path.
    """

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(np.asarray(data, dtype=get_default_dtype()),
                         requires_grad=True, name=name)


class Module:
    """Base class for all neural network modules."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training: bool = True

    # ------------------------------------------------------------------
    # attribute registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, param: Parameter) -> None:
        """Explicitly register a parameter under ``name``."""
        self._parameters[name] = param
        object.__setattr__(self, name, param)

    def add_module(self, name: str, module: "Module") -> None:
        """Explicitly register a child module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs depth-first."""
        for name, param in self._parameters.items():
            yield (prefix + name, param)
        for child_name, module in self._modules.items():
            yield from module.named_parameters(prefix + child_name + ".")

    def parameters(self) -> List[Parameter]:
        """Return all parameters as a flat list (deterministic order)."""
        return [param for _, param in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` pairs including ``self``."""
        yield prefix.rstrip("."), self
        for child_name, module in self._modules.items():
            yield from module.named_modules(prefix + child_name + ".")

    def children(self) -> Iterator["Module"]:
        """Iterate over immediate child modules."""
        return iter(self._modules.values())

    # ------------------------------------------------------------------
    # mode and gradient management
    # ------------------------------------------------------------------
    @property
    def training(self) -> bool:
        """This module's own mode, read as False inside :meth:`evaluating`."""
        return self._training and not _state.evaluating

    @training.setter
    def training(self, mode: bool) -> None:
        self._training = bool(mode)

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively."""
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    @contextmanager
    def evaluating(self) -> Iterator["Module"]:
        """Evaluation mode for the calling thread inside the block.

        Per-thread, like :class:`~repro.nn.tensor.no_grad`, and thread-wide:
        every module the thread runs, not only this one, reads ``training``
        as False.  It writes no module attribute, so other threads keep
        their mode and share the model without a lock.  Scopes nest.
        """
        previous = _state.evaluating
        _state.evaluating = True
        try:
            yield self
        finally:
            _state.evaluating = previous

    def zero_grad(self) -> None:
        """Clear the gradient of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(param.size for param in self.parameters()))

    def model_size_bytes(self) -> int:
        """Size of all parameters in bytes (at their actual storage dtype)."""
        return int(sum(param.data.nbytes for param in self.parameters()))

    def parameter_dtype(self) -> np.dtype:
        """Storage dtype of the parameters (first parameter's dtype)."""
        for param in self.parameters():
            return param.data.dtype
        return np.dtype(np.float64)

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of every parameter keyed by qualified name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter values from ``state``.

        Parameters
        ----------
        state:
            Mapping from qualified parameter name to numpy array.
        strict:
            If true, missing or unexpected keys raise ``KeyError``.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                "state dict mismatch: missing=%s unexpected=%s"
                % (sorted(missing), sorted(unexpected))
            )
        for name, param in own.items():
            if name not in state:
                continue
            # Cast to the parameter's own dtype so float32 modules stay in
            # the fast path when restoring snapshots or loading bundles.
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    "shape mismatch for %r: expected %s, got %s"
                    % (name, param.data.shape, value.shape)
                )
            param.data = value.copy()

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError("Module subclasses must implement forward()")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_repr = ", ".join(self._modules)
        return f"{type(self).__name__}({child_repr})"


class ModuleList(Module):
    """A list of modules that registers its entries as children."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self.add_module(str(len(self._items)), module)
        self._items.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called directly")
