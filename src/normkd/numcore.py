"""Dense float64 arrays on a reverse-mode differentiation tape.

Every primitive in this module accepts any mix of :class:`Tensor` handles
and plain numpy arrays (or scalars).  When at least one argument is a
Tensor the result is a Tensor recorded on that argument's tape; when all
arguments are plain values the same numpy computation runs untaped and the
raw array comes back.  Loss code is therefore written once and works both
taped, differentiated with respect to the logits, and for evaluation.
Training tapes nothing: ``distill.logit_grad`` replays the taped losses'
backward on plain arrays, bit for bit, and the trainer the MLP's.  The
tape serves ``grad_check``, the reference tests and direct callers.

A primitive is a forward value plus a backward rule ``g -> (grad, ...)``,
one gradient per taped parent, recorded by ``_binary`` (two broadcasting
operands), ``_unary`` (one operand) or ``_pick`` (one entry per row); the
replay calls the ``_*_grad`` rules of log-softmax, std and picks too.  A
rule reads only arrays the forward made or received, and none of them is
mutated after recording, so a rule may derive a mask or ``exp(out)`` at
backward time and get the bits it would have got in the forward.

Conventions that matter for reproducibility:

* all values are float64; inputs are validated/coerced at the boundary;
* ``maximum(x, c)`` passes gradient only where ``x > c``, so a
  statistic that sits exactly at its floor ``c`` has subgradient 0;
* row max/min route gradient to the first extremal index (numpy argmax
  order), which is the measure-zero tie convention;
* the backward pass walks nodes in reverse creation order, running once
  the rule of each node a gradient reached, so repeated runs are bit-identical.

Ownership: a tape holds its leaves; every other node lives while
something uses it, its caller or a later node that has it as a parent.
``Tape.backward`` fills ``.grad`` on every live node.  A dropped tape and
output free their interior arrays at once by reference counting; only
the cycle between a tape and its leaves waits for the cyclic collector.

Tapes are single-owner while being built and must not be shared between
threads; finished values (numpy arrays) are safe to read concurrently.
"""

from __future__ import annotations

import operator
import weakref
from typing import Callable

import numpy as np

from .errors import ContractError, DimensionError, NumericError

Array = np.ndarray


def as_array(value, name: str = "value") -> Array:
    """Coerce to a float64 array, rejecting non-finite entries."""
    arr = np.asarray(value, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NumericError(f"{name} contains non-finite entries")
    return arr


def as_matrix(value, name: str = "matrix") -> Array:
    arr = as_array(value, name)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def as_vector(value, name: str = "vector") -> Array:
    arr = as_array(value, name)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


def log_softmax_values(z: Array) -> Array:
    """Row-wise log-softmax with max subtraction, on plain arrays.

    Accepts a vector or a matrix; the reduction runs over the last axis.
    This is the single stabilized implementation shared by the tape
    primitive and by all teacher-side (constant) computations, so taped
    and untaped paths produce bit-identical values.
    """
    z = np.asarray(z, dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    shifted = z - m
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class Tensor:
    """A node on a :class:`Tape`: a float64 array plus backward metadata.
    It has no operators: nodes combine through ``add``, ``multiply`` etc."""

    __slots__ = ("tape", "data", "grad", "_parents", "_vjp", "__weakref__")

    def __init__(self, tape: "Tape", data: Array, parents=(), vjp=None):
        self.tape = tape
        self.data = data
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = parents
        self._vjp: Callable[[Array], tuple[Array, ...]] | None = vjp

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, tape_nodes={len(self.tape.nodes)})"


class Tape:
    """Ordered record of primitive operations for one backward pass.

    Nodes are recorded in construction order, which is automatically a
    topological order: operands exist before the operations that consume
    them.

    The tape holds its leaves and only weak references to every other
    node.  An interior node lives while its caller, or a later node
    through its parents, still uses it; once the output and the handles
    the caller kept are dropped, reference counting frees the interior
    arrays at once.  The one cycle left, a leaf's ``tape`` and
    the tape's leaves, holds only the leaf copies and waits for the
    cyclic collector.
    """

    def __init__(self) -> None:
        self._leaves: list[Tensor] = []
        self._refs: list[weakref.ref] = []

    @property
    def nodes(self) -> list[Tensor]:
        """The live nodes in creation order; every leaf is live."""
        return [node for ref in self._refs if (node := ref()) is not None]

    def leaf(self, value) -> Tensor:
        """Register an input whose gradient will be accumulated.

        The tape keeps the leaf alive, so its ``.grad`` is filled even
        when the caller keeps no handle to it.
        """
        node = Tensor(self, as_array(value, "leaf").copy())
        self._leaves.append(node)
        self._refs.append(weakref.ref(node))
        return node

    def _record(self, data: Array, parents: tuple[Tensor, ...], vjp) -> Tensor:
        node = Tensor(self, data, parents, vjp)
        self._refs.append(weakref.ref(node))
        return node

    def backward(self, output: Tensor) -> None:
        """Fill ``.grad`` on every live node with d(output)/d(node).

        ``output`` must be a scalar node of this tape.  In reverse creation
        order, each node that received a gradient runs its local backward
        rule once; one that received none, such as a leaf that does not
        influence the output, gets zeros and runs no rule.  A gradient is
        its first contribution plus 0.0, then ``+=`` the others: bit for bit
        their sum onto zeros.  A node nothing uses any more is neither
        listed nor visited: its gradient would be zero.
        """
        if output.tape is not self:
            raise ContractError("output tensor belongs to a different tape")
        if output.data.size != 1:
            raise ContractError(
                f"backward requires a scalar output, got shape {output.data.shape}"
            )
        nodes = self.nodes
        for node in nodes:
            node.grad = None
        output.grad = np.ones_like(output.data)
        for node in reversed(nodes):
            if node.grad is None:  # its users all come later, and none reached it
                node.grad = np.zeros_like(node.data)
            elif node._vjp is not None:
                for parent, pg in zip(node._parents, node._vjp(node.grad)):
                    if parent.grad is None:  # ``zeros + pg`` bit for bit, a 0-d sum kept an array
                        parent.grad = np.asarray(np.add(pg, 0.0))
                    else:
                        parent.grad += pg


def _split(x) -> tuple[Array, Tensor | None]:
    if isinstance(x, Tensor):
        return x.data, x
    return np.asarray(x, dtype=np.float64), None


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _binary(x, y, forward, grad_x, grad_y):
    """Record ``forward(xd, yd)``; each taped operand's gradient is
    ``grad_*(g, xd, yd)`` reduced back to that operand's shape."""
    xd, xt = _split(x)
    yd, yt = _split(y)
    out = forward(xd, yd)
    if yt is None:
        return _unary(xt, out, lambda g: (_unbroadcast(grad_x(g, xd, yd), xd.shape),))
    if xt is None:
        return _unary(yt, out, lambda g: (_unbroadcast(grad_y(g, xd, yd), yd.shape),))
    if xt.tape is not yt.tape:
        raise ContractError("operands live on different tapes")

    def vjp(g):
        return (
            _unbroadcast(grad_x(g, xd, yd), xd.shape),
            _unbroadcast(grad_y(g, xd, yd), yd.shape),
        )

    return xt.tape._record(out, (xt, yt), vjp)


def _unary(xt: Tensor | None, out: Array, vjp):
    """``out`` itself when untaped, else ``out`` recorded with parent ``xt``."""
    if xt is None:
        return out
    return xt.tape._record(out, (xt,), vjp)


def _pick(xd: Array, xt: Tensor | None, col: Array):
    """One entry per row, ``xd[n, col[n, 0]]``; gradient scatters back to it."""
    return _unary(xt, xd[np.arange(xd.shape[0])[:, None], col],
                  lambda g: (_pick_grad(g, xd, col),))


def _pick_grad(g, xd: Array, col: Array) -> Array:
    """Zeros shaped as ``xd`` with ``g`` at ``xd[n, col[n, 0]]``, row by row."""
    gx = np.zeros_like(xd)
    gx[np.arange(xd.shape[0])[:, None], col] = g
    return gx


def add(x, y):
    return _binary(x, y, operator.add, lambda g, xd, yd: g, lambda g, xd, yd: g)


def subtract(x, y):
    return _binary(x, y, operator.sub, lambda g, xd, yd: g, lambda g, xd, yd: -g)


def multiply(x, y):
    return _binary(x, y, operator.mul, lambda g, xd, yd: g * yd, lambda g, xd, yd: g * xd)


def divide(x, y):
    return _binary(
        x, y, operator.truediv, lambda g, xd, yd: g / yd, lambda g, xd, yd: -g * xd / (yd * yd)
    )


def exp(x):
    xd, xt = _split(x)
    out = np.exp(xd)
    return _unary(xt, out, lambda g: (g * out,))


def log(x):
    xd, xt = _split(x)
    return _unary(xt, np.log(xd), lambda g: (g / xd,))


def maximum(x, floor: float):
    """Elementwise ``max(x, floor)`` against a constant.

    Gradient passes only where ``x > floor``, so a floored statistic stops
    contributing to the gradient once it is clamped.
    """
    xd, xt = _split(x)
    return _unary(xt, np.maximum(xd, floor), lambda g: (g * (xd > floor),))


def sum_all(x):
    xd, xt = _split(x)
    return _unary(xt, np.asarray(xd.sum()), lambda g: (np.broadcast_to(g, xd.shape).copy(),))


def mean_all(x):
    xd, xt = _split(x)
    return _unary(
        xt,
        np.asarray(np.add.reduce(xd, axis=None) / xd.size),
        lambda g: (np.broadcast_to(g * (1.0 / xd.size), xd.shape).copy(),),
    )


def sum_rows(x):
    """Row sums of a matrix, kept as a (N, 1) column."""
    xd, xt = _split(x)
    return _unary(
        xt, xd.sum(axis=1, keepdims=True), lambda g: (np.broadcast_to(g, xd.shape).copy(),)
    )


def log_softmax_rows(x):
    """Row-wise log-softmax of a matrix, stabilized by max subtraction."""
    xd, xt = _split(x)
    out = log_softmax_values(xd)
    return _unary(xt, out, lambda g: (_log_softmax_grad(g, out),))


def _log_softmax_grad(g, out: Array) -> Array:
    """The input gradient of a row log-softmax whose output ``out`` gets ``g``."""
    return g - np.exp(out) * g.sum(axis=1, keepdims=True)


def std_rows(x, corrected: bool = True):
    """Per-row standard deviation as a (N, 1) column.

    ``corrected=True`` divides by C-1 (the framework-default sample
    estimator), ``False`` divides by C.  Rows need at least two entries
    for the corrected form.  The gradient is zero for constant rows,
    matching the floor that downstream users apply.
    """
    xd, xt = _split(x)
    if xd.ndim != 2:
        raise DimensionError(f"std_rows expects a matrix, got shape {xd.shape}")
    n = xd.shape[1]
    ddof = 1 if corrected else 0
    if n - ddof < 1:
        raise ContractError(f"std_rows needs at least {ddof + 1} columns, got {n}")
    mu = xd.mean(axis=1, keepdims=True)
    centered = xd - mu
    # only the backward rule reads ``centered``; untaped, square it in place as np.std does
    squares = np.multiply(centered, centered, out=None if xt is not None else centered)
    out = np.sqrt(squares.sum(axis=1, keepdims=True) / (n - ddof))
    return _unary(xt, out, lambda g: (_std_grad(g, centered, out, corrected),))


def _std_grad(g, centered: Array, out: Array, corrected: bool) -> Array:
    """``std_rows``' input gradient from its centered rows and output ``out``."""
    denom = (centered.shape[1] - (1 if corrected else 0)) * out
    return centered * np.where(denom > 0.0, g / np.where(denom > 0.0, denom, 1.0), 0.0)


def max_rows(x):
    """Per-row maximum as a (N, 1) column; gradient to the first argmax."""
    xd, xt = _split(x)
    return _pick(xd, xt, xd.argmax(axis=1)[:, None])


def min_rows(x):
    xd, xt = _split(x)
    return _pick(xd, xt, xd.argmin(axis=1)[:, None])


def gather_rows(x, indices):
    """Pick one entry per row: out[n, 0] = x[n, indices[n]]."""
    xd, xt = _split(x)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.shape[0] != xd.shape[0]:
        raise DimensionError(
            f"gather_rows: indices shape {idx.shape} does not match rows of {xd.shape}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= xd.shape[1]):
        raise ContractError(
            f"gather_rows: index out of range [0, {xd.shape[1]}) in {idx.tolist()}"
        )
    return _pick(xd, xt, idx[:, None])


def value_of(x) -> Array:
    """The plain array behind either a Tensor or an array."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _central_probes(point: Array, step: float) -> Array:
    """Every central-difference probe of ``point``, stacked: row 2i is ``point``
    with its i-th entry (in C order) plus ``step``, row 2i+1 with it minus ``step``."""
    flat = point.reshape(-1)
    probes = np.repeat(flat[None, :], 2 * flat.size, axis=0)
    np.fill_diagonal(probes[0::2], flat + step)
    np.fill_diagonal(probes[1::2], flat - step)
    return probes.reshape((-1,) + point.shape)


def _fd_error(analytic: Array, values: Array, step: float) -> float:
    """``max_i |analytic_i - fd_i| / max(1e-12, |fd_i|)``, ``fd`` the difference
    quotients of the ``values`` a function took at ``_central_probes``."""
    if not np.isfinite(values).all():
        raise NumericError("function is non-finite at a finite-difference probe")
    fd = ((values[0::2] - values[1::2]) / (2.0 * step)).reshape(analytic.shape)
    return float((np.abs(analytic - fd) / np.maximum(1e-12, np.abs(fd))).max())


def grad_check(
    f: Callable[[Tensor], Tensor],
    point,
    step: float = 1e-5,
) -> float:
    """Compare the taped gradient of ``f`` against central differences.

    ``f`` receives a leaf Tensor and must return a scalar Tensor.  Returns
    ``max_i |analytic_i - fd_i| / max(1e-12, |fd_i|)`` over all coordinates
    of a non-empty ``point``.  Raises if ``f`` is non-finite at any probe.
    """
    if not step > 0.0:
        raise ContractError(f"grad_check step must be positive, got {step}")
    point = as_array(point, "point")
    if not point.size:
        raise ContractError(f"grad_check needs a point with entries, got shape {point.shape}")
    tape = Tape()
    x = tape.leaf(point)
    out = f(x)
    if not isinstance(out, Tensor):
        raise ContractError("grad_check function must return a Tensor")
    tape.backward(out)
    with np.errstate(all="ignore"):
        values = np.array([float(f(Tape().leaf(p)).data) for p in _central_probes(point, step)])
    return _fd_error(x.grad, values, step)
