"""Declarative architecture construction and the unrolled forward pass.

``build`` resolves an architecture name (mlp2 / lenet5 / vgg15) and model kind
(D-F-BPTT / S-F-BPTT / D-R-BPTT) into a fully specified layer stack;
``forward`` simulates it over the time horizon, recording spikes and the BPTT
tape.  First-to-spike coding applies only to the final output layer; hidden
layers always communicate through their spike trains.

Layers carry no bias terms; thresholds (deterministic) and membrane scales
(stochastic) play that role and are the quantities the evolutionary tuner
adjusts per layer.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace

import numpy as np

from .bptt import LayerTrace, Tape
from .errors import ShapeError
from .neurons import LayerState, sigmoid
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

    ``overrides`` may set ``hidden``, ``horizon``, ``leak``, ``alpha`` and the
    per-layer lists ``v_th`` / ``k`` (tuner output, one value per neuron
    layer, applied in order).
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

    neuron_layers = [i for i, l in enumerate(layers) if l.neuron != "none"]
    for key in ("v_th", "k"):
        values = overrides.pop(key, None)
        if values is not None:
            values = list(np.atleast_1d(values).astype(float))
            if len(values) != len(neuron_layers):
                raise ValueError(f"{key} override needs {len(neuron_layers)} values, "
                                 f"got {len(values)}")
            for idx, val in zip(neuron_layers, values):
                layers[idx] = replace(layers[idx], **{key: val})

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


def synaptic_drive(layer: LayerSpec, weight: np.ndarray, x: np.ndarray):
    """Synaptic input for one timestep; returns (drive, flattened_input)."""
    if layer.kind == "linear":
        flat = x.reshape(x.shape[0], -1)
        if flat.shape[1] != layer.in_features:
            raise ShapeError(f"linear layer expects {layer.in_features} features, "
                             f"got {flat.shape[1]} (input shape {x.shape})")
        return flat @ weight.T, flat
    return conv2d(x, weight, layer.stride, layer.pad), x


def forward(spec: NetworkSpec, params: dict, encoded: np.ndarray,
            streams: list | None = None):
    """Simulate all layers for t = 1..T, recording spikes and the BPTT tape.

    ``encoded`` is time-major: (T, N, ...).  For stochastic networks
    ``streams`` supplies one RngStream per neuron layer.  Returns
    (records, tape) where records is a list of per-neuron-layer spike arrays
    (T, N, n) and, for stochastic layers, the tape also holds probabilities.

    When ``encoded`` is time-broadcast (stride 0 along time, as
    ``data.encode_direct`` returns it) and layer 0 is linear or conv, layer
    0's drive is computed once and reused at every step, and its tape entry
    holds the input once as (N, ...) with ``time_constant`` set; ``backward``
    then folds that layer's weight gradient over time.  Any other input is
    simulated step by step.
    """
    horizon = encoded.shape[0]
    if horizon != spec.horizon:
        raise ShapeError(f"encoded input has {horizon} steps, spec expects {spec.horizon}")
    batch = encoded.shape[1]
    tape = Tape(horizon=horizon, batch=batch, alpha=spec.alpha)

    n_neuron_layers = len(spec.neuron_layers())
    if streams is None:
        streams = [None] * n_neuron_layers

    # Per-layer running activations, time-major buffers filled step by step.
    traces = []
    for i, layer in enumerate(spec.layers):
        trace = LayerTrace(layer=layer)
        if layer.kind in ("linear", "conv"):
            trace.wname = f"layer{i}.w"
            trace.weight = params[trace.wname]
        traces.append(trace)
    tape.traces = traces

    states = {}
    neuron_idx = {}
    ni = 0
    for i, layer in enumerate(spec.layers):
        if layer.neuron != "none":
            neuron_idx[i] = ni
            ni += 1

    # a time-broadcast input gives layer 0 the same drive at every step
    if encoded.strides[0] == 0 and spec.layers[0].kind in ("linear", "conv"):
        drive0, traces[0].inputs = synaptic_drive(spec.layers[0], traces[0].weight, encoded[0])
        traces[0].time_constant = True

    for t in range(horizon):
        x = encoded[t]
        for i, layer in enumerate(spec.layers):
            trace = traces[i]
            if layer.kind == "pool":
                if trace.inputs is None:
                    trace.inputs = np.empty((horizon,) + x.shape)
                trace.inputs[t] = x
                x = pool2d(x, layer.window, layer.pool_mode)
                continue
            if trace.time_constant:
                drive = drive0
            else:
                drive, flat = synaptic_drive(layer, trace.weight, x)
                if trace.inputs is None:
                    trace.inputs = np.empty((horizon,) + flat.shape)
                    trace.input_step_shape = x.shape[1:]
                trace.inputs[t] = flat
            if trace.v is None:
                trace.v = np.empty((horizon,) + drive.shape)
                trace.spikes = np.empty((horizon,) + drive.shape)
                if layer.neuron == "stoch":
                    trace.probs = np.empty((horizon,) + drive.shape)
            if i not in states:
                states[i] = LayerState.zeros(drive.shape)
            state = states[i]
            if layer.neuron == "det":
                v = layer.leak * state.v + drive - state.fired_prev * layer.v_th
                spikes = (v >= layer.v_th).astype(np.float64)
            elif layer.neuron == "stoch":
                v = (layer.leak * state.v + drive) / layer.k
                probs = sigmoid(v)
                stream = streams[neuron_idx[i]]
                if stream is None:
                    raise ShapeError("stochastic network requires RNG streams")
                spikes = (rng_uniform(stream, probs.shape) < probs).astype(np.float64)
                trace.probs[t] = probs
            else:
                raise ShapeError(f"weighted layer without neuron model at index {i}")
            trace.v[t] = v
            trace.spikes[t] = spikes
            states[i] = LayerState(v=v, fired_prev=spikes)
            x = spikes

    tape.complete = True
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
    KeyError.
    """
    header = {}
    layers = []
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
    return NetworkSpec(
        layers=layers,
        coding=header["coding"],
        horizon=int(header["horizon"]),
        model_kind=header["model_kind"],
        arch=header["arch"],
        alpha=float(ast.literal_eval(header["alpha"])),
    )
