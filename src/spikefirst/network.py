"""Declarative architecture construction and the unrolled forward pass.

``build`` resolves an architecture name (mlp2 / lenet5 / vgg15) and model kind
(D-F-BPTT / S-F-BPTT / D-R-BPTT) into a fully specified layer stack.  ``step``
is the simulator core: it advances every layer by one timestep (pooling, the
synaptic op, then the LIF update of ``neurons``) and returns each layer's
input, membrane potential, spikes and firing probabilities; the network
input reaches it only as layer 0's drive, which the caller computes.  ``forward``
calls it for t = 1..T and records the BPTT tape; ``inference.run_network``
calls it with early exit.  First-to-spike coding applies only to the final
output layer; hidden layers always communicate through their spike trains.

Layers carry no bias terms; thresholds (deterministic) and membrane scales
(stochastic) play that role and are the quantities the evolutionary tuner
adjusts per layer.
"""

from __future__ import annotations

import ast
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bptt import LayerTrace, Tape
from .errors import ParameterError, ShapeError
# sigmoid is re-exported: bench/test_bench.py reaches it through this module
from .neurons import LayerState, det_lif_step, sigmoid, stoch_lif_step  # noqa: F401
from .rng import RngStream, rng_uniform
from .tensor import conv2d, pool2d

MODEL_KINDS = ("D-F-BPTT", "S-F-BPTT", "D-R-BPTT")
ARCHS = ("mlp2", "lenet5", "vgg15")

# Table-level defaults: leak 0.9 for deterministic models, 0.7 for stochastic.
DET_LEAK = 0.9
STOCH_LEAK = 0.7
DEFAULT_HIDDEN = 800
DEFAULT_ALPHA = 2.0


@dataclass
class LayerSpec:
    """One layer: synaptic op parameters plus its neuron model."""

    kind: str                   # linear | conv | pool
    neuron: str = "none"        # det | stoch | none
    in_features: int = 0
    out_features: int = 0
    in_channels: int = 0
    out_channels: int = 0
    kernel: int = 0
    stride: int = 1
    pad: int = 0
    window: int = 0
    pool_mode: str = "average"
    v_th: float = 1.0
    k: float = 1.0
    leak: float = DET_LEAK

    def __post_init__(self):
        self.v_th, self.k, self.leak = float(self.v_th), float(self.k), float(self.leak)
        if not 0.0 < self.v_th < np.inf:
            raise ParameterError(f"v_th must be finite and > 0, got {self.v_th}")
        if not 0.0 < self.k < np.inf:
            raise ParameterError(f"k must be finite and > 0, got {self.k}")
        if not 0.0 <= self.leak <= 1.0:
            raise ParameterError(f"leak must be in [0, 1], got {self.leak}")


@dataclass
class NetworkSpec:
    """Ordered layer stack plus coding mode and time horizon."""

    layers: list
    coding: str                 # first-to-spike | rate
    horizon: int
    model_kind: str
    arch: str
    alpha: float = DEFAULT_ALPHA

    def neuron_layers(self):
        return [l for l in self.layers if l.neuron != "none"]

    def weighted_layers(self):
        return [(i, l) for i, l in enumerate(self.layers) if l.kind in ("linear", "conv")]


def normalize_model_kind(kind: str) -> str:
    k = kind.upper().replace("_", "-")
    if k not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    return k


def _mlp2_layers(hidden: int) -> list:
    return [
        LayerSpec(kind="linear", in_features=784, out_features=hidden, neuron="det"),
        LayerSpec(kind="linear", in_features=hidden, out_features=10, neuron="det"),
    ]


def _lenet5_layers() -> list:
    # conv(1->6, 5x5, pad 2) keeps 28x28 so the classic 400-unit flatten holds.
    return [
        LayerSpec(kind="conv", in_channels=1, out_channels=6, kernel=5, pad=2, neuron="det"),
        LayerSpec(kind="pool", window=2, pool_mode="average"),
        LayerSpec(kind="conv", in_channels=6, out_channels=16, kernel=5, neuron="det"),
        LayerSpec(kind="pool", window=2, pool_mode="average"),
        LayerSpec(kind="linear", in_features=400, out_features=120, neuron="det"),
        LayerSpec(kind="linear", in_features=120, out_features=84, neuron="det"),
        LayerSpec(kind="linear", in_features=84, out_features=10, neuron="det"),
    ]


def _vgg15_layers() -> list:
    # 13 conv + 2 linear; max pooling after each channel block (CIFAR 32x32).
    cfg = [64, 64, "M", 128, 128, "M", 256, 256, 256, "M", 512, 512, 512, "M",
           512, 512, 512, "M"]
    layers = []
    c_in = 3
    for item in cfg:
        if item == "M":
            layers.append(LayerSpec(kind="pool", window=2, pool_mode="max"))
        else:
            layers.append(LayerSpec(kind="conv", in_channels=c_in, out_channels=item,
                                    kernel=3, pad=1, neuron="det"))
            c_in = item
    layers.append(LayerSpec(kind="linear", in_features=512, out_features=512, neuron="det"))
    layers.append(LayerSpec(kind="linear", in_features=512, out_features=10, neuron="det"))
    return layers


def build(arch_name: str, model_kind: str, overrides: dict | None = None) -> NetworkSpec:
    """Resolve an architecture + model kind into a concrete NetworkSpec.

    ``overrides`` may set ``hidden``, ``horizon``, ``leak`` and ``alpha``;
    ``tuner.apply_candidate`` sets per-layer thresholds and scales.
    """
    overrides = dict(overrides or {})
    kind = normalize_model_kind(model_kind)
    if arch_name not in ARCHS:
        raise ValueError(f"unknown architecture {arch_name!r}; expected one of {ARCHS}")

    if arch_name == "mlp2":
        layers = _mlp2_layers(int(overrides.pop("hidden", DEFAULT_HIDDEN)))
    elif arch_name == "lenet5":
        overrides.pop("hidden", None)
        layers = _lenet5_layers()
    else:
        overrides.pop("hidden", None)
        layers = _vgg15_layers()

    stochastic = kind.startswith("S")
    leak = float(overrides.pop("leak", STOCH_LEAK if stochastic else DET_LEAK))
    for i, l in enumerate(layers):
        if l.neuron != "none":
            layers[i] = replace(l, neuron="stoch" if stochastic else "det", leak=leak)

    coding = "rate" if kind == "D-R-BPTT" else "first-to-spike"
    horizon = int(overrides.pop("horizon", 15 if coding == "rate" else 20))
    alpha = float(overrides.pop("alpha", DEFAULT_ALPHA))
    if overrides:
        raise ValueError(f"unknown override keys: {sorted(overrides)}")
    return NetworkSpec(layers=layers, coding=coding, horizon=horizon,
                       model_kind=kind, arch=arch_name, alpha=alpha)


def weight_shape(layer: LayerSpec) -> tuple:
    if layer.kind == "linear":
        return (layer.out_features, layer.in_features)
    if layer.kind == "conv":
        return (layer.out_channels, layer.in_channels, layer.kernel, layer.kernel)
    raise ShapeError(f"layer kind {layer.kind!r} has no weights")


def init_params(spec: NetworkSpec, stream: RngStream) -> dict:
    """Uniform fan-in-scaled weight initialization, one stream per layer."""
    params = {}
    for i, layer in spec.weighted_layers():
        shape = weight_shape(layer)
        fan_in = int(np.prod(shape[1:]))
        bound = 1.0 / np.sqrt(fan_in)
        sub = stream.split((i + 1) * 1000)
        params[f"layer{i}.w"] = (rng_uniform(sub, shape) * 2.0 - 1.0) * bound
    return params


def synaptic_drive(layer: LayerSpec, weight: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Synaptic input of a linear or conv layer for one timestep."""
    if layer.kind == "linear":
        flat = x.reshape(x.shape[0], -1)
        if flat.shape[1] != layer.in_features:
            raise ShapeError(f"linear layer expects {layer.in_features} features, "
                             f"got {flat.shape[1]} (input shape {x.shape})")
        return flat @ weight.T
    return conv2d(x, weight, layer.stride, layer.pad)


def step(spec: NetworkSpec, params: dict, drive0: np.ndarray, states: dict,
         streams) -> list:
    """Advance every layer of ``spec`` by one timestep.

    ``drive0`` is layer 0's synaptic drive at this step, (N, ...); layer 0 is
    a linear or conv layer.  ``states`` maps layer index to its
    ``LayerState``; missing entries start at rest and the dict is updated in
    place.  ``streams`` holds one RngStream per neuron layer (entries of
    deterministic layers are ignored; None for a deterministic network).
    Returns one ``(input, v, spikes, probs)`` tuple per layer: a pool layer
    has only its input, a deterministic layer no probs, and layer 0 no input.
    """
    out = []
    n = 0
    for i, layer in enumerate(spec.layers):
        if i == 0:
            inp, drive = None, drive0
        elif layer.kind == "pool":
            out.append((x, None, None, None))
            x = pool2d(x, layer.window, layer.pool_mode)
            continue
        else:
            inp, drive = x, synaptic_drive(layer, params[f"layer{i}.w"], x)
        state = states.get(i)
        if state is None:
            state = LayerState(v=np.zeros_like(drive))
        probs = None
        if layer.neuron == "det":
            state, spikes = det_lif_step(state, layer, drive)
        elif layer.neuron == "stoch":
            stream = streams[n] if streams is not None else None
            if stream is None:
                raise ShapeError("stochastic network requires RNG streams")
            state, spikes, probs = stoch_lif_step(state, layer, drive, stream)
        else:
            raise ShapeError(f"weighted layer without neuron model at index {i}")
        states[i] = state
        n += 1
        out.append((inp, state.v, spikes, probs))
        x = spikes
    return out


def forward(spec: NetworkSpec, params: dict, encoded: np.ndarray,
            streams: list | None = None):
    """Simulate all layers for t = 1..T, recording spikes and the BPTT tape.

    ``encoded`` is time-major: (T, N, ...).  For stochastic networks
    ``streams`` supplies one RngStream per neuron layer.  Returns
    (records, tape) where records is a list of per-neuron-layer spike arrays
    (T, N, ...) of 0/1 ``uint8``, the same arrays as the tape's ``spikes``.

    The tape holds only what ``bptt.backward`` reads: the membrane potential
    ``v`` of deterministic layers and of the output layer, the firing
    probabilities ``probs`` of hidden stochastic layers, every spike train
    (shared as the next layer's ``inputs``) and any other synaptic input.

    ``encoded`` must be direct-encoded: the same input at every step, stride
    0 along time, as ``data.encode_direct`` returns it; any other array
    raises ShapeError.  Layer 0's drive is computed once and reused at every
    step, and its tape entry holds the input once, as (N, ...); ``backward``
    folds that layer's weight gradient over time.
    """
    horizon = encoded.shape[0]
    if horizon != spec.horizon:
        raise ShapeError(f"encoded input has {horizon} steps, spec expects {spec.horizon}")
    if encoded.strides[0] != 0:
        raise ShapeError("forward takes a direct-encoded input: the same input at every "
                         "step, stride 0 along time, as data.encode_direct returns it")
    traces = []
    for i, layer in enumerate(spec.layers):
        trace = LayerTrace(layer=layer)
        if layer.kind in ("linear", "conv"):
            trace.wname = f"layer{i}.w"
            trace.weight = params[trace.wname]
        traces.append(trace)

    traces[0].inputs = encoded[0]
    drive0 = synaptic_drive(spec.layers[0], traces[0].weight, encoded[0])

    # A neuron layer's spike train is the next layer's input: it is taped once.
    shared = [i for i in range(1, len(traces)) if spec.layers[i - 1].neuron != "none"]
    taped = []
    for i, layer in enumerate(spec.layers):
        names = set() if i == 0 or i in shared else {"inputs"}
        if layer.neuron != "none":
            hidden_stoch = layer.neuron == "stoch" and i < len(spec.layers) - 1
            names |= {"spikes", "probs" if hidden_stoch else "v"}
        taped.append(names)
    states = {}
    for t in range(horizon):
        for trace, names, values in zip(traces, taped,
                                        step(spec, params, drive0, states, streams)):
            for name, value in zip(("inputs", "v", "spikes", "probs"), values):
                if name not in names:
                    continue
                buf = getattr(trace, name)
                if buf is None:
                    buf = np.empty((horizon,) + value.shape,
                                   np.uint8 if name == "spikes" else np.float64)
                    setattr(trace, name, buf)
                buf[t] = value
    for i in shared:
        traces[i].inputs = traces[i - 1].spikes

    tape = Tape(horizon=horizon, alpha=spec.alpha, traces=traces, complete=True)
    records = [traces[i].spikes for i, l in enumerate(spec.layers) if l.neuron != "none"]
    return records, tape


def serialize_spec(spec: NetworkSpec) -> str:
    """Human-readable key-value block embedded in checkpoints."""
    lines = [
        f"arch={spec.arch}",
        f"model_kind={spec.model_kind}",
        f"coding={spec.coding}",
        f"horizon={spec.horizon}",
        f"alpha={spec.alpha!r}",
        f"n_layers={len(spec.layers)}",
    ]
    for i, l in enumerate(spec.layers):
        fields_txt = ",".join(
            f"{name}={getattr(l, name)!r}"
            for name in ("kind", "neuron", "in_features", "out_features",
                         "in_channels", "out_channels", "kernel", "stride",
                         "pad", "window", "pool_mode", "v_th", "k", "leak"))
        lines.append(f"layer{i}: {fields_txt}")
    return "\n".join(lines) + "\n"


def parse_spec(text: str) -> NetworkSpec:
    """Inverse of serialize_spec.

    Values are read as Python literals only, so checkpoint text cannot run
    code.  Malformed text raises ValueError, SyntaxError, TypeError or
    KeyError; text the parser would only warn about (``1if 1 else 0``, or an
    invalid escape, a DeprecationWarning before Python 3.12) raises
    SyntaxError too.
    """
    header = {}
    layers = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", SyntaxWarning)
        warnings.simplefilter("error", DeprecationWarning)
        for line in text.strip().splitlines():
            if line.startswith("layer") and ":" in line:
                _, _, body = line.partition(":")
                kwargs = {}
                for item in body.strip().split(","):
                    name, _, val = item.partition("=")
                    kwargs[name] = ast.literal_eval(val)
                layers.append(LayerSpec(**kwargs))
            else:
                name, _, val = line.partition("=")
                header[name] = val
        alpha = float(ast.literal_eval(header["alpha"]))
    return NetworkSpec(
        layers=layers,
        coding=header["coding"],
        horizon=int(header["horizon"]),
        model_kind=header["model_kind"],
        arch=header["arch"],
        alpha=alpha,
    )
