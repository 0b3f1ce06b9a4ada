"""Adam optimizer with bias correction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from wsdetect.tensornet.graph import FlatParams

_FLOAT_MAX = np.finfo(np.float64).max
_GRAD_CLIP = 1e150  # squares to 1e300, far below _FLOAT_MAX


@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    # first and second moments, laid out as the flat parameter buffer
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    # two float scratch buffers and one boolean, allocated on the first step
    scratch: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False)


def adam_step(state: AdamState, flat: FlatParams) -> AdamState:
    """One Adam update of `flat.params` from `flat.grads`, in place.

    The step counter increments before the update. Non-finite gradients
    fail fast, naming their parameter, before anything changes. Finite
    gradients too large to square are clipped for both moments. Every
    entry goes through the same elementwise operations in the same order
    as a per-array update, written into preallocated buffers.
    """
    p, g = flat.params, flat.grads
    if state.scratch is None:
        state.scratch = (np.empty_like(p), np.empty_like(p),
                         np.empty(p.shape, dtype=bool))
    step, denom, finite = state.scratch
    if not np.isfinite(g, out=finite).all():
        bad = int(np.argmin(finite))
        raise ValueError(f"non-finite gradient for parameter {flat.name_at(bad)!r}")
    if state.m is None:
        state.m, state.v = np.zeros_like(p), np.zeros_like(p)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    m, v = state.m, state.v
    overflow = []
    with np.errstate(over="call", call=lambda kind, flag: overflow.append(kind)):
        np.multiply(1.0 - b2, g, out=step)
        np.multiply(step, g, out=step)
        if overflow:
            # A gradient above about 4e155 overflows (1 - beta2) * g * g.
            # Left at inf, v would hold its entry still for good; clamped
            # alone, v would forget the gradient's size and the next steps
            # would be far above lr. So this step's gradients are clipped
            # to +-1e150 for both moments: m and v stay at one scale and
            # the entry moves about lr per step. Gradients within the clip
            # are unchanged, bit for bit.
            g = np.clip(g, -_GRAD_CLIP, _GRAD_CLIP, out=denom)
            np.multiply(1.0 - b2, g, out=step)
            np.multiply(step, g, out=step)
        m *= b1
        m += np.multiply(1.0 - b1, g, out=denom)
        v *= b2
        v += step
        np.divide(v, bias2, out=denom)
    if overflow:
        # a run of gradients just below 4e155, unclipped, can still carry
        # v, or v over its bias correction, past the largest float: both
        # are held there, so the entry keeps moving
        with np.errstate(over="ignore"):
            np.minimum(v, _FLOAT_MAX, out=v)
            np.divide(v, bias2, out=denom)
            np.minimum(denom, _FLOAT_MAX, out=denom)
    # p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
    np.divide(m, bias1, out=step)
    np.multiply(state.lr, step, out=step)
    np.sqrt(denom, out=denom)
    denom += state.eps
    p -= np.divide(step, denom, out=step)
    return state
