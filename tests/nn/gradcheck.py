"""Numerical gradient checking for the autodiff engine.

The test oracle for every op in :mod:`repro.nn`: each analytic gradient
is compared against central finite differences computed here.
Both functions take float64 inputs only: the default 1e-6 step is below
float32 resolution (~1.2e-7 relative), so on a float32 input the finite
differences are rounding noise and a correct gradient would read as a
mismatch.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn import Tensor


def _require_float64(inputs: Sequence[Tensor]) -> None:
    for index, tensor in enumerate(inputs):
        if tensor.data.dtype != np.float64:
            raise TypeError(
                f"gradcheck needs float64 inputs; input {index} is "
                f"{tensor.data.dtype}"
            )


def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    index: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central finite-difference gradient of ``fn`` w.r.t. ``inputs[index]``.

    ``fn`` must return a scalar :class:`Tensor`.  Raises ``TypeError``
    when an input is not float64.
    """
    _require_float64(inputs)
    target = inputs[index]
    grad = np.zeros_like(target.data)
    flat = target.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = float(fn(*inputs).data)
        flat[i] = original - eps
        lower = float(fn(*inputs).data)
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2.0 * eps)
    return grad


def check_gradients(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    atol: float = 1e-5,
    rtol: float = 1e-4,
    eps: float = 1e-6,
) -> None:
    """Assert analytic gradients of ``fn`` match finite differences.

    Raises ``AssertionError`` naming the offending input on mismatch, and
    ``TypeError`` when an input is not float64.
    """
    _require_float64(inputs)
    for tensor in inputs:
        tensor.zero_grad()
    out = fn(*inputs)
    if out.data.size != 1:
        raise ValueError("gradcheck requires a scalar-valued function")
    out.backward()
    for index, tensor in enumerate(inputs):
        if not tensor.requires_grad:
            continue
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        numeric = numerical_gradient(fn, inputs, index, eps=eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = float(np.max(np.abs(analytic - numeric)))
            raise AssertionError(
                f"gradient mismatch on input {index}: max abs error {worst:.3e}"
            )
