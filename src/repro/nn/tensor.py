"""Reverse-mode automatic differentiation on top of numpy arrays.

This module provides the :class:`Tensor` class, the computational core of the
``repro.nn`` substrate.  The paper's models (MAGA, GSCM, MS-Gate and all
baselines) are expressed as compositions of the differentiable operations
defined here.  The implementation follows the classic tape-based design:

* every operation returns a new :class:`Tensor` holding its forward value,
  a reference to its parent tensors and a closure computing the local
  vector-Jacobian product;
* :meth:`Tensor.backward` topologically sorts the tape, accumulates
  gradients into every leaf created with ``requires_grad=True`` and
  consumes the tape as it goes, so a training step holds at most one
  forward pass's activations.

Gradients are always stored as ``numpy.ndarray`` objects with the same shape
as the tensor's data.  Broadcasting performed by numpy during the forward
pass is undone during the backward pass by :func:`_unbroadcast`.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

#: dtypes the substrate supports as a compute precision
_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class _ThreadState(threading.local):
    """Per-thread autograd/dtype/evaluation flags.

    These used to be module globals, which made ``no_grad`` and
    ``dtype_scope`` racy under concurrency: two serving threads
    interleaving their enter/exit could restore each *other's* saved
    value and leave grad construction disabled (or the wrong dtype
    active) for the whole process — silently breaking any training run
    that followed.  Thread-locality keeps single-threaded behaviour
    bit-identical while making every scope private to its thread.  Note
    new threads always start with the defaults below; they do not
    inherit the spawning thread's scopes (entry points wrap themselves
    in ``dtype_scope(config.dtype)``, so this is the behaviour the
    stack already assumes).
    """

    def __init__(self) -> None:
        self.grad_enabled = True
        self.default_dtype = np.dtype(np.float64)
        self.evaluating = False  # inside a Module.evaluating() scope


_state = _ThreadState()


def set_default_dtype(dtype) -> np.dtype:
    """Set the floating dtype used for tensor data; returns the previous one.

    Every :class:`Tensor` (and :class:`~repro.nn.module.Parameter`) created
    afterwards stores its data in this dtype, which is how the float32 fast
    path is switched on: under float32 the whole forward/backward pass —
    activations, gradients, optimiser state — stays in single precision.
    The default is float64, under which results are bit-identical to the
    historical behaviour.  The setting is per-thread (see
    :class:`_ThreadState`).
    """
    dtype = np.dtype(dtype)
    if dtype not in _SUPPORTED_DTYPES:
        raise ValueError("default dtype must be float32 or float64, got %r"
                         % (dtype,))
    previous = _state.default_dtype
    _state.default_dtype = dtype
    return previous


def get_default_dtype() -> np.dtype:
    """The floating dtype new tensors are created with (per-thread)."""
    return _state.default_dtype


class dtype_scope:
    """Context manager pinning the default tensor dtype within a block.

    Model construction, training and inference entry points wrap themselves
    in ``dtype_scope(config.dtype)`` so a float32 model keeps computing in
    float32 even when the ambient default is float64 (and vice versa).
    Scopes nest and restore the previous default on exit.
    """

    def __init__(self, dtype) -> None:
        self._dtype = np.dtype(dtype)
        if self._dtype not in _SUPPORTED_DTYPES:
            raise ValueError("dtype_scope requires float32 or float64, got %r"
                             % (self._dtype,))

    def __enter__(self) -> "dtype_scope":
        self._previous = set_default_dtype(self._dtype)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        set_default_dtype(self._previous)


class no_grad:
    """Context manager disabling graph construction.

    Used during inference and evaluation so that forward passes do not retain
    references to intermediate tensors.
    """

    def __enter__(self) -> "no_grad":
        self._previous = _state.grad_enabled
        _state.grad_enabled = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _state.grad_enabled = self._previous


def is_grad_enabled() -> bool:
    """Whether autograd graph construction is enabled in this thread."""
    return _state.grad_enabled


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if dtype is None:
        dtype = _state.default_dtype
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so that it matches ``shape``.

    numpy broadcasting can both prepend dimensions and stretch size-1 axes;
    the adjoint of broadcasting is summation over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended dimensions.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were stretched from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _consumed(grad: np.ndarray) -> None:
    """Backward closure of a node whose graph a backward pass already freed."""
    raise RuntimeError("backward() through a graph that an earlier backward() "
                       "already consumed; run the forward pass again")


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")
    __array_priority__ = 200  # make numpy defer to Tensor's reflected ops

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Tuple["Tensor", ...] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents if is_grad_enabled() else ()
        self._backward = backward if is_grad_enabled() else None
        self.name = name

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    # ------------------------------------------------------------------
    # autograd machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            if isinstance(grad, np.ndarray) and grad.dtype == self.data.dtype:
                # Alias instead of copying: gradient arrays are never
                # mutated in place anywhere in the package (accumulation
                # and optimisers rebind), so the defensive copy on the
                # first accumulation only cost memory bandwidth.
                self.grad = grad
            else:
                self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode differentiation from this tensor, consuming its graph.

        Nodes are visited in reverse topological order.  Once a non-leaf
        node (a tensor made by an op) has passed its gradient to its
        parents, its ``.grad``, its parents and its backward closure are
        dropped, so each activation is freed as soon as the nodes that use
        it are done and intermediate gradients are not kept.  Leaves
        (tensors made directly, such as parameters) keep their ``.grad``.
        The graph can therefore be walked once: a second ``backward()``
        through a consumed node raises :class:`RuntimeError` instead of
        silently producing no parameter gradients.

        Parameters
        ----------
        grad:
            The incoming gradient.  Defaults to 1 for scalar tensors.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient is only supported "
                    "for scalar tensors; got shape %s" % (self.shape,)
                )
            grad = np.ones_like(self.data)
        grad = _as_array(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            node_id = id(node)
            if node_id in visited:
                continue
            visited.add(node_id)
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        while topo:
            node = topo.pop()
            step, node_grad = node._backward, node.grad
            if step is None:  # a leaf keeps its gradient
                continue
            node._backward, node._parents, node.grad = _consumed, (), None
            if node_grad is not None:
                step(node_grad)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(value: Union["Tensor", ArrayLike]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _needs_graph(self, *others: "Tensor") -> bool:
        if not is_grad_enabled():
            return False
        return self.requires_grad or any(o.requires_grad for o in others)

    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data
        if not self._needs_graph(other):
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor(out_data, requires_grad=True, parents=(self, other), backward=backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other).__add__(self)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data - other.data
        if not self._needs_graph(other):
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape))

        return Tensor(out_data, requires_grad=True, parents=(self, other), backward=backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data
        if not self._needs_graph(other):
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor(out_data, requires_grad=True, parents=(self, other), backward=backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other).__mul__(self)

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data
        if not self._needs_graph(other):
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                )

        return Tensor(out_data, requires_grad=True, parents=(self, other), backward=backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("Tensor exponents are not supported; use exp/log instead")
        out_data = self.data ** exponent
        if not self._needs_graph():
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * (self.data ** (exponent - 1)))

        return Tensor(out_data, requires_grad=True, parents=(self,), backward=backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data
        if not self._needs_graph(other):
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    if a.ndim == 1:
                        grad_a = grad * b
                    else:
                        grad_a = np.outer(grad, b) if grad.ndim == 1 else grad[..., None] * b
                else:
                    grad_mat = grad[..., None, :] if a.ndim == 1 else grad
                    grad_a = grad_mat @ np.swapaxes(b, -1, -2)
                    if a.ndim == 1:
                        grad_a = grad_a.reshape(a.shape)
                self._accumulate(_unbroadcast(grad_a, self.shape))
            if other.requires_grad:
                if a.ndim == 1:
                    if b.ndim == 1:
                        grad_b = grad * a
                    else:
                        grad_b = np.outer(a, grad)
                else:
                    grad_mat = grad[..., None] if b.ndim == 1 else grad
                    grad_b = np.swapaxes(a, -1, -2) @ grad_mat
                    if b.ndim == 1:
                        grad_b = grad_b.reshape(b.shape)
                other._accumulate(_unbroadcast(grad_b, other.shape))

        return Tensor(out_data, requires_grad=True, parents=(self, other), backward=backward)

    # ------------------------------------------------------------------
    # elementwise transcendental functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        if not self._needs_graph():
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor(out_data, requires_grad=True, parents=(self,), backward=backward)

    def log(self, eps: float = 0.0) -> "Tensor":
        out_data = np.log(self.data + eps)
        if not self._needs_graph():
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / (self.data + eps))

        return Tensor(out_data, requires_grad=True, parents=(self,), backward=backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        if not self._needs_graph():
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor(out_data, requires_grad=True, parents=(self,), backward=backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        if not self._needs_graph():
            return Tensor(out_data)

        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor(out_data, requires_grad=True, parents=(self,), backward=backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if not self._needs_graph():
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor(out_data, requires_grad=True, parents=(self,), backward=backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        if not self._needs_graph():
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                out = np.expand_dims(out, axis=axis)
            mask = (self.data == out).astype(self.data.dtype)
            # Split gradient equally between ties to keep the op well defined.
            normaliser = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(g * mask / normaliser)

        return Tensor(out_data, requires_grad=True, parents=(self,), backward=backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -(-self).max(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        if not self._needs_graph():
            return Tensor(out_data)

        original_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return Tensor(out_data, requires_grad=True, parents=(self,), backward=backward)

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        out_data = np.transpose(self.data, axes)
        if not self._needs_graph():
            return Tensor(out_data)

        if axes is None:
            inverse = None
        else:
            inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.transpose(grad, inverse))

        return Tensor(out_data, requires_grad=True, parents=(self,), backward=backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        if not self._needs_graph():
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor(out_data, requires_grad=True, parents=(self,), backward=backward)

    # ------------------------------------------------------------------
    # comparison helpers (non-differentiable, returned as plain arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other) -> np.ndarray:
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other) -> np.ndarray:
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other) -> np.ndarray:
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other) -> np.ndarray:
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other


# ----------------------------------------------------------------------
# free functions operating on tensors
# ----------------------------------------------------------------------
def as_tensor(value: Union[Tensor, ArrayLike]) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor` (no copy for tensors)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    if not (is_grad_enabled() and any(t.requires_grad for t in tensors)):
        return Tensor(out_data)

    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if not tensor.requires_grad:
                continue
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(int(start), int(stop))
            tensor._accumulate(grad[tuple(slicer)])

    return Tensor(out_data, requires_grad=True, parents=tuple(tensors), backward=backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking of same-shaped tensors along a new axis."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    if not (is_grad_enabled() and any(t.requires_grad for t in tensors)):
        return Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor(out_data, requires_grad=True, parents=tuple(tensors), backward=backward)


def where(condition: np.ndarray, a: Union[Tensor, ArrayLike], b: Union[Tensor, ArrayLike]) -> Tensor:
    """Differentiable ``where`` with a boolean (non-differentiable) condition."""
    a, b = as_tensor(a), as_tensor(b)
    condition = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    out_data = np.where(condition, a.data, b.data)
    if not (is_grad_enabled() and (a.requires_grad or b.requires_grad)):
        return Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * condition, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * (~condition.astype(bool)), b.shape))

    return Tensor(out_data, requires_grad=True, parents=(a, b), backward=backward)


def maximum(a: Union[Tensor, ArrayLike], b: Union[Tensor, ArrayLike]) -> Tensor:
    """Elementwise differentiable maximum (gradient goes to the larger input)."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.maximum(a.data, b.data)
    if not (is_grad_enabled() and (a.requires_grad or b.requires_grad)):
        return Tensor(out_data)

    mask = (a.data >= b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * mask, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * (~mask), b.shape))

    return Tensor(out_data, requires_grad=True, parents=(a, b), backward=backward)
