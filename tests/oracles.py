"""Independent references the tests check the package against.

* ``first_spike_event_prob``: the exact product form of the first-spike event
  probability, itself checked against brute-force enumeration;
* ``ml_loss``: the maximum-likelihood first-spike loss on a probability
  table, the reference for the fused ``coding.ml_loss_logits_batch``;
* ``smoothed_spike``: the smooth relaxation of the hard threshold whose exact
  derivative is the arctan surrogate, for finite-difference networks;
* ``backward`` and ``adam_step``: the reverse sweep and the Adam update as
  they stood before they reused per-step buffers, kept verbatim (with the
  surrogate they call; the synaptic helper is the package's own, the
  sweep reads each layer's input where the tape now holds it, and it hands
  back layer 0's drive gradient summed over time, as the package's does)
  so that tests can demand bit-identical gradients and parameters from
  the package's versions;
* ``output_gradient``: the choice of output-layer gradient that the reverse
  sweep made from its loss before ``train._batch_loss`` took it over, keyed
  by model kind, the reference for the trainer's;
* ``det_lif_step`` and ``stoch_lif_step``: the LIF updates as they stood
  before ``network.step`` advanced each state in its own buffers, kept
  verbatim, read-only and allocating every step, so that tests can demand
  the same bytes from the in-place versions;
* ``run_network``: evaluation as it stood before it stepped row blocks,
  every batch simulated whole at each timestep, kept verbatim for a
  deterministic network so that tests can demand the same results from the
  runs that still take one block per batch: noisy runs;
* ``keyed_uniform``: one keyed uniform of ``rng.rng_uniform(..., rows=)``,
  SplitMix64 in plain Python integers, the reference for the vectorised
  hash.
"""

import math

import numpy as np

from spikefirst.bptt import Tape, sign_estimator_backward, synaptic_backward
from spikefirst.coding import LossValue
from spikefirst.errors import NumericalError, ParameterError, ShapeError, SpikeFirstError
from spikefirst.inference import InferenceResult
from spikefirst.network import CODINGS, NetworkSpec, step, synaptic_drive
from spikefirst.neurons import LayerState, first_spike_times, sigmoid
from spikefirst.rng import RngStream, rng_gaussian, rng_uniform
from spikefirst.tensor import pool2d_backward
from spikefirst.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState


class StateError(SpikeFirstError):
    """An object is not in a valid state for the requested operation."""


# ml_loss clamps probabilities away from {0, 1} so the loss stays finite
PROB_CLAMP = 1e-7


def smoothed_spike(v: np.ndarray, alpha: float = 2.0) -> np.ndarray:
    """Smooth arctan relaxation of the hard threshold.

    Antiderivative of ``arctan_surrogate_grad``, the backward pass's
    surrogate: (2 / (pi^2 * alpha)) * arctan(pi * v * alpha / 2).  Same arctan shape as the usual smoothed
    spike, normalized so its exact slope is the backward rule in use (the
    published gradient formula carries a 1/pi prefactor rather than the
    literal derivative's alpha/2).
    """
    z = np.pi * np.asarray(v, dtype=np.float64) * (alpha / 2.0)
    return (2.0 / (np.pi * np.pi * alpha)) * np.arctan(z)


def first_spike_event_prob(probs, correct: int, t: int) -> float:
    """Probability that the correct neuron fires first, at exactly time t.

    P_t = p_c^t * prod_{i != c} prod_{t' <= t} (1 - p_i^{t'})
              * prod_{t' < t} (1 - p_c^{t'})

    i.e. no wrong neuron fires at or before t and the correct neuron stays
    silent until firing at t.  Exact product, no clamping.
    """
    p = np.asarray(probs, dtype=np.float64)
    horizon, n = p.shape
    if not 1 <= t <= horizon:
        raise IndexError(f"t={t} outside horizon 1..{horizon}")
    if not 0 <= correct < n:
        raise IndexError(f"correct={correct} out of range for {n} neurons")
    q = 1.0 - p
    wrong = np.prod([q[: t, i].prod() for i in range(n) if i != correct]) if n > 1 else 1.0
    silent_before = q[: t - 1, correct].prod()
    return float(p[t - 1, correct] * wrong * silent_before)


def _ml_loss_core(p: np.ndarray, targets: np.ndarray):
    """Batched ML loss in log space.

    p: (N, T, n) clamped firing probabilities; targets: (N,).
    Returns (per-sample losses (N,), grads (N, T, n)).

    Uses log P_t = log p_c^t - log(1 - p_c^t) + sum_{t' <= t} sum_i log(1 - p_i^{t'})
    and logsumexp over t, so long horizons cannot underflow.
    """
    n_samples, horizon, n = p.shape
    idx = np.arange(n_samples)
    q = 1.0 - p
    lq = np.log(q)
    a = np.cumsum(lq.sum(axis=2), axis=1)                     # (N, T)
    pc = p[idx, :, targets]                                   # (N, T)
    qc = q[idx, :, targets]
    logp_t = np.log(pc) - np.log(qc) + a
    m = logp_t.max(axis=1, keepdims=True)
    scaled = np.exp(logp_t - m)                               # (N, T)
    s = scaled.sum(axis=1, keepdims=True)
    losses = -(m[:, 0] + np.log(s[:, 0]))
    if not np.all(np.isfinite(losses)):
        raise NumericalError("sum of first-spike event probabilities underflowed")
    r = scaled / s                                            # P_t / sum P
    # Suffix sums R_s = sum_{t >= s} r_t.
    suffix = np.cumsum(r[:, ::-1], axis=1)[:, ::-1]           # (N, T)
    suffix_next = np.concatenate([suffix[:, 1:], np.zeros((n_samples, 1))], axis=1)
    # Wrong neurons: dL/dp_i^s = R_s / (1 - p_i^s).
    grads = suffix[:, :, None] / q
    # Correct neuron: dL/dp_c^s = -(r_s / p_c^s - R_{s+1} / (1 - p_c^s)).
    grads[idx, :, targets] = -(r / pc - suffix_next / qc)
    return losses, grads


def ml_loss(probs, correct: int) -> LossValue:
    """ML first-spike loss for one sample: -log sum_t P_t with exact gradient.

    The gradient is w.r.t. the (T, n) probability table.
    """
    p = np.asarray(probs, dtype=np.float64)
    n = p.shape[-1]
    if not 0 <= correct < n:
        raise IndexError(f"correct={correct} out of range for {n} neurons")
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    losses, grads = _ml_loss_core(pc[None], np.asarray([correct]))
    return LossValue(value=float(losses[0]), grad=grads[0])


# ---- reference copies of the package's reverse sweep and Adam update

def arctan_surrogate_grad(v: np.ndarray, alpha: float = 2.0) -> np.ndarray:
    """Elementwise (1/pi) / (1 + (pi * v * alpha / 2)^2).

    Used as d(spike)/dV in the backward pass, evaluated at V - v_th.
    """
    z = np.pi * np.asarray(v, dtype=np.float64) * (alpha / 2.0)
    return (1.0 / np.pi) / (1.0 + z * z)


def output_gradient(tape: Tape, loss, model_kind: str) -> np.ndarray:
    """The (T, N, n) gradient at the output layer from ``loss``, the
    LossValue of ``model_kind``'s loss on the taped output.

    D-F routes dL/dt through the sign estimator at the output's first-spike
    times, D-R spreads dL/d(count) over every timestep, and S-F supplies the
    fused dL/dV at the membrane potential of a stochastic output layer, the
    only gradient such a layer takes.
    """
    horizon = tape.horizon
    out = tape.traces[-1]
    if tape.neuron == "stoch":
        if model_kind != "S-F-BPTT":
            raise StateError(f"a stochastic output layer takes the fused S-F loss, "
                             f"got model kind {model_kind!r}")
        # already fused through the output sigmoid; (N, T, n) seen time-major
        return np.moveaxis(loss.grad, 1, 0)
    if model_kind == "D-F-BPTT":
        return sign_estimator_backward(loss.grad, first_spike_times(out.spikes), horizon)
    if model_kind == "D-R-BPTT":
        # accumulated count is a plain sum over time: same gradient each step
        return np.broadcast_to(loss.grad, (horizon,) + loss.grad.shape)
    raise StateError(f"model kind {model_kind!r} does not apply to a deterministic "
                     "output layer")


def backward(tape: Tape, g_top: np.ndarray):
    """Reverse sweep over a recorded forward pass.

    ``g_top`` is the (T, N, n) loss gradient at the output layer, as
    ``output_gradient`` gives it.  Returns ``(grads, g_drive0)``, as the
    package's ``backward`` does: a dict mapping the weight names of layers 1
    and up to gradients, each summed over the timesteps from t = T-1 down
    to 0, and layer 0's drive gradient summed over time.

    The sweep is time-major (see the module docstring): each gradient passed
    from layer to layer, and each neuron layer's carry, is one step's
    (N, ...) array, so apart from ``g_top`` its memory is O(N * width)
    whatever the horizon.

    ``backward`` writes only into buffers it allocated: neither ``g_top``
    nor any array on the tape is modified, so a tape can be swept again.
    """
    horizon = tape.horizon
    traces = tape.traces
    last = len(traces) - 1

    grads: dict[str, np.ndarray] = {}
    carry: dict[int, np.ndarray] = {}   # per neuron layer: dL/dV_t from step t+1
    folded = None                       # layer 0: sum_t of its g_drive
    for t in range(horizon - 1, -1, -1):
        g = g_top[t]
        for i in range(last, -1, -1):
            trace = traces[i]
            layer = trace.layer
            if layer.kind == "pool":
                # layer i's input is layer i-1's output, passed as taped:
                # max pooling casts it to float64, average pooling reads
                # only its shape
                g = pool2d_backward(g, traces[i - 1].spikes[t], layer.window, layer.pool_mode)
                continue

            if tape.neuron == "det":
                # dV_t/dV_{t-1}: leak path only; the reset indicator is treated
                # as a constant in the backward pass.
                sur = arctan_surrogate_grad(trace.v[t] - layer.v_th)
                gv = g * sur + carry.get(i, 0.0)
                carry[i] = gv * layer.leak
                g = gv
            elif tape.neuron == "stoch":
                if i == last:
                    direct = g                 # already dL/dV
                else:
                    # straight through the Bernoulli draw, then the sigmoid
                    p = trace.probs[t]
                    direct = g * p * (1.0 - p)
                inv_k = 1.0 / layer.k
                gv = direct + carry.get(i, 0.0)
                carry[i] = gv * (layer.leak * inv_k)
                g = gv * inv_k
            else:
                raise StateError(f"unknown neuron model {tape.neuron!r}")

            # g is step t's drive gradient, a buffer this sweep allocated
            if i == 0:
                # the input is the same at every step:
                # sum_t g_t^T x = (sum_t g_t)^T x, computed after the sweep
                if folded is None:
                    folded = g
                else:
                    folded += g
                continue
            g, grad_w = synaptic_backward(layer, trace.weight, g, traces[i - 1].spikes[t])
            if trace.wname in grads:
                grads[trace.wname] += grad_w
            else:
                grads[trace.wname] = grad_w

    return grads, folded


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              weight_decay: float = 0.0) -> None:
    """Bias-corrected Adam update in place; L2 decay added to the gradient."""
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name in sorted(params):
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"NaN/Inf gradient for parameter {name!r}")
        if weight_decay:
            g = g + weight_decay * params[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        params[name] -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---- reference copies of the package's LIF updates

def _drive(state: LayerState, drive) -> np.ndarray:
    drive = np.asarray(drive, dtype=np.float64)
    if drive.shape != state.v.shape:
        raise ShapeError(f"drive shape {drive.shape} != state shape {state.v.shape}")
    return drive


def det_lif_step(state: LayerState, layer, drive: np.ndarray):
    """One deterministic LIF timestep of ``layer`` (a LayerSpec); returns
    (new_state, spikes).

    Evaluated as ((leak * V) + drive) - (fired_prev * v_th) in two fresh
    buffers: ``v`` takes the sum, ``spikes`` first the reset term and then
    the comparison ``v >= v_th`` as 0.0 / 1.0.  ``state`` and ``drive`` are
    only read; ``inference.run_network`` passes one hoisted drive at every
    step.
    """
    drive = _drive(state, drive)
    v = np.multiply(layer.leak, state.v, out=np.empty(state.v.shape))
    v += drive
    spikes = np.multiply(state.fired_prev, layer.v_th, out=np.empty(v.shape))
    v -= spikes
    np.greater_equal(v, layer.v_th, out=spikes)
    return LayerState(v=v, fired_prev=spikes), spikes


def stoch_lif_step(state: LayerState, layer, drive: np.ndarray, stream: RngStream, *, rows):
    """One stochastic LIF timestep of ``layer`` (a LayerSpec); returns
    (new_state, spikes, probs).  ``rows`` keys each row's draws."""
    drive = _drive(state, drive)
    # (leak * V + drive) / k, evaluated in that order in v's own buffer
    v = layer.leak * state.v
    v += drive
    v /= layer.k
    probs = sigmoid(v)
    # the draw's buffer receives its own comparison as 0.0 / 1.0
    spikes = rng_uniform(stream, probs.shape, rows=rows)
    np.less(spikes, probs, out=spikes)
    return LayerState(v=v, fired_prev=spikes), spikes, probs


# ---- reference keyed uniform

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_ROW_STEP = 0xDB4F0B9175AE2165


def _mix64(z: int) -> int:
    """SplitMix64's finaliser (Steele, Lea & Flood, OOPSLA 2014)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def keyed_uniform(seed: int, stream_id: int, counter: int, row: int, col: int) -> float:
    """Entry ``col`` of row ``row`` of a keyed uniform draw at stream state
    (seed, stream_id, counter): a key absorbs the three state words in turn,
    each added with one Weyl increment and finalised; the row's 64-bit word
    col // 2 is the finaliser of that key plus ``row`` row steps and
    col // 2 + 1 Weyl increments; even columns take its low 32 bits, odd
    ones its high, over 2**32."""
    key = 0
    for word in (seed, stream_id, counter):
        key = _mix64((key + word + _GAMMA) & _MASK64)
    word = _mix64((key + row * _ROW_STEP + (col // 2 + 1) * _GAMMA) & _MASK64)
    return (word >> 32 if col % 2 else word & 0xFFFFFFFF) / 2**32


# ---- reference copy of the package's evaluation loop

def run_network(spec: NetworkSpec, params: dict, images: np.ndarray,
                mode: str = "first-to-spike", horizon: int | None = None,
                seed: int = 0, batch_size: int = 512, input_noise_std: float = 0.0,
                noise_seed: int = 1234) -> InferenceResult:
    """Simulate the network over a dataset; see module docstring for rules.

    ``images`` is (N, C, H, W) or (N, F); direct encoding applies the image
    as constant drive every step, so layer 0's drive is computed once per
    batch.  ``input_noise_std`` > 0 adds fresh elementwise Gaussian noise to
    the image at every timestep, drawn only for the samples still active, and
    layer 0's drive is then computed at every step.  The noise of sample i
    at step t is keyed by (noise_seed, i, t), where i is the sample's index
    in ``images``: a sample's noise depends neither on the batch size nor on
    which other samples exited, and results are reproducible.  ``seed``
    keyed a stochastic network's draws, which this copy no longer runs.
    """
    if spec.neuron == "stoch":
        raise ParameterError("the reference loop runs deterministic networks only")
    if mode not in CODINGS:
        raise ParameterError(f"unknown inference mode {mode!r}")
    horizon = spec.horizon if horizon is None else int(horizon)
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    if batch_size < 1:
        raise ParameterError(f"batch size must be >= 1, got {batch_size}")
    if not (math.isfinite(input_noise_std) and input_noise_std >= 0):
        raise ParameterError(f"input noise std must be finite and >= 0, "
                             f"got {input_noise_std}")
    n_total = images.shape[0]
    if n_total == 0:
        raise ParameterError("empty dataset")

    fts = mode == "first-to-spike"

    predictions = np.full(n_total, -1, dtype=np.int64)
    latencies = np.full(n_total, float(horizon))
    totals = [0.0 for _ in spec.layers]
    # layer 0's clean input is the same at every step: its total is summed per sample
    row_sums0 = np.zeros(n_total)
    # step t draws every sample's noise at counter t, one keyed row per sample
    noise = RngStream(noise_seed) if input_noise_std > 0 else None

    for b_start in range(0, n_total, batch_size):
        b_end = min(b_start + batch_size, n_total)
        x0 = np.asarray(images[b_start:b_end], dtype=np.float64)
        nb = b_end - b_start
        active = np.arange(nb)
        row_sums0[b_start:b_end] = x0.reshape(nb, -1).sum(axis=1)
        drive0 = None
        if noise is None:
            # layer 0's drive is the same at every step: computed once, and
            # compacted with the states when samples exit
            drive0 = synaptic_drive(spec.layers[0], params["layer0.w"], x0)
        states = {}
        # the active samples' summed output: membrane potential in
        # first-to-spike mode (for timeouts), spike counts in rate mode
        out_acc = None

        for t in range(1, horizon + 1):
            if noise is not None:
                # fresh noise for the active samples, whose images x0 holds
                drive0 = None       # frees the last step's drive before the next
                noise.counter = t
                drive0 = synaptic_drive(spec.layers[0], params["layer0.w"], x0 + rng_gaussian(
                    noise, x0.shape, input_noise_std, rows=b_start + active))
            for i, (v, out, probs) in enumerate(step(spec, params, drive0, states, None)):
                totals[i] += out.sum()
            # the output layer's; the next step overwrites these buffers
            out_v, out_spikes, out_probs = v, out, probs
            if out_acc is None:
                out_acc = np.zeros_like(out_v)
            out_acc += out_v if fts else out_spikes

            if fts:
                fired = out_spikes.any(axis=1)
                if fired.any():
                    out_score = out_v if out_probs is None else out_probs
                    masked = np.where(out_spikes[fired] > 0, out_score[fired], -np.inf)
                    done = b_start + active[fired]
                    predictions[done] = masked.argmax(axis=1)
                    latencies[done] = t
                    keep = ~fired
                    active = active[keep]
                    out_acc = out_acc[keep]
                    states = {i: LayerState(v=s.v[keep], fired_prev=s.fired_prev[keep])
                              for i, s in states.items()}
                    if noise is None:
                        drive0 = drive0[keep]
                    else:
                        x0 = x0[keep]
                    if active.size == 0:
                        break

        # first-to-spike timeouts, or every sample in rate mode
        predictions[b_start + active] = out_acc.argmax(axis=1)

    return InferenceResult(predictions=predictions, latencies=latencies,
                           steps=latencies.astype(np.int64),
                           input_total=float((row_sums0 * latencies).sum()),
                           layer_totals=[float(t) for t in totals])
