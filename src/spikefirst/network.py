"""Declarative architecture construction and the unrolled forward pass.

``build`` resolves an architecture name (mlp2 / lenet5 / vgg15) and model kind
(D-F-BPTT / S-F-BPTT / D-R-BPTT) into a fully specified layer stack.  The
model kind alone fixes the neuron model of every linear and conv layer and
the output coding (``KIND_MODELS``).  ``step`` is the simulator core: it
advances every layer by one timestep (pooling, the synaptic op, then the LIF
update of ``neurons`` in the layer state's own buffers) and returns each
layer's membrane potential, output and firing probabilities; layer i's input
is layer i-1's output, and the network input reaches it only as layer 0's
drive, which the caller computes.
``forward`` calls it for t = 1..T and records the BPTT tape;
``inference.run_network`` calls it with early exit.  First-to-spike coding
applies only to the final output layer; hidden layers always communicate
through their spike trains.

Layers carry no bias terms; thresholds (deterministic) and membrane scales
(stochastic) play that role and are the quantities the evolutionary tuner
adjusts per layer.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .bptt import LayerTrace, Tape
from .errors import ParameterError, ShapeError
from .heap import SIMULATION_MAPPED_BYTES
# sigmoid is re-exported: bench/test_bench.py reaches it through this module
from .neurons import LayerState, det_lif_step, sigmoid, stoch_lif_step  # noqa: F401
from .rng import RngStream, rng_uniform
from .tensor import _L2_BYTES, _conv_out_size, _pow2_fit, conv2d, linear, pool2d

# Each model kind's neuron model, that of every layer but the pool layers,
# and its output coding.
KIND_MODELS = {"D-F-BPTT": ("det", "first-to-spike"),
               "S-F-BPTT": ("stoch", "first-to-spike"),
               "D-R-BPTT": ("det", "rate")}
MODEL_KINDS = tuple(KIND_MODELS)
CODINGS = ("first-to-spike", "rate")
ARCHS = ("mlp2", "lenet5", "vgg15")
LAYER_KINDS = ("linear", "conv", "pool")
POOL_MODES = ("average", "max")

# Table-level defaults: leak 0.9 for deterministic models, 0.7 for stochastic.
DET_LEAK = 0.9
STOCH_LEAK = 0.7
DEFAULT_HIDDEN = 800

# a block's widest neuron layer (v, fired_prev and drive, float64) fits
# _L2_BYTES, the L2 size conv runs are cut to; blocks are powers of two of at
# least _MIN_BLOCK_ROWS rows
_BYTES_PER_NEURON = 24
_MIN_BLOCK_ROWS = 8
# an evaluation batch is at most _MAX_BATCH_ROWS rows: mlp2's 784->800
# layer-0 GEMM keeps the 512 rows it has always run at, and with them its bits
_MAX_BATCH_ROWS = 512


@dataclass
class LayerSpec:
    """One layer: its synaptic op and, unless it is a pool layer, the
    parameters of its neurons, whose model the spec's model kind fixes."""

    kind: str                   # linear | conv | pool
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
        # each kind checks the fields it reads, and the others must keep their
        # defaults (kernel 0 on linear layers, window 0 on conv layers)
        if self.kind not in LAYER_KINDS:
            raise ParameterError(f"layer kind must be one of {LAYER_KINDS}, got {self.kind!r}")
        if self.kind == "linear":
            minima = {"in_features": 1, "out_features": 1}
        elif self.kind == "conv":
            minima = {"in_channels": 1, "out_channels": 1, "kernel": 1, "stride": 1, "pad": 0}
        else:
            if self.pool_mode not in POOL_MODES:
                raise ParameterError(f"pool mode must be one of {POOL_MODES}, "
                                     f"got {self.pool_mode!r}")
            minima = {"window": 1}
        reads = {*minima, *(("pool_mode",) if self.kind == "pool" else ("v_th", "k", "leak"))}
        for name, default in _LAYER_DEFAULTS.items():
            value = getattr(self, name)
            if name not in reads and (type(value) is not type(default) or value != default):
                raise ParameterError(f"a {self.kind} layer does not read {name}; it must "
                                     f"keep its default {default!r}, got {value!r}")
        for name, minimum in minima.items():
            setattr(self, name, _count(getattr(self, name), f"{self.kind} layer {name}", minimum))
        self.v_th, self.k, self.leak = (_real(getattr(self, name), name)
                                        for name in ("v_th", "k", "leak"))
        if not 0.0 < self.v_th < np.inf:
            raise ParameterError(f"v_th must be finite and > 0, got {self.v_th}")
        if not 0.0 < self.k < np.inf:
            raise ParameterError(f"k must be finite and > 0, got {self.k}")
        if not 0.0 <= self.leak <= 1.0:
            raise ParameterError(f"leak must be in [0, 1], got {self.leak}")


# every LayerSpec field but the kind, and its default
_LAYER_DEFAULTS = {f.name: f.default for f in fields(LayerSpec) if f.name != "kind"}


def _count(value, what: str, minimum: int) -> int:
    """``value`` as a Python int, if it is an integer (not a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ParameterError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """``value`` as a Python float, if it is an int or a float (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ParameterError(f"{what} must be an int or a float, got {value!r}")
    return float(value)


@dataclass
class NetworkSpec:
    """Ordered layer stack plus time horizon and model kind.

    ``model_kind`` is the one statement of the neuron model and the coding:
    ``neuron`` and ``coding`` look them up in ``KIND_MODELS``.  The checks
    reject any spec the network cannot run as stored: layer 0 is linear or
    conv and the last layer is linear, since every loss and prediction reads
    an (N, n_out) output; a linear layer takes the features of the linear
    layer before it, and a conv layer the channels of the conv layer before
    it; nothing but linear layers follows a linear layer.  Two shapes depend
    on the input image and stay runtime ShapeErrors: the channels that reach
    layer 0, and the flattened size where a conv or pool layer feeds a
    linear one.
    """

    layers: list
    horizon: int
    model_kind: str
    arch: str

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ParameterError(f"model kind must be one of {MODEL_KINDS}, "
                                 f"got {self.model_kind!r}")
        if self.arch not in ARCHS:
            raise ParameterError(f"arch must be one of {ARCHS}, got {self.arch!r}")
        self.horizon = _count(self.horizon, "horizon", 1)
        layers = self.layers
        if not layers:
            raise ParameterError("a network needs at least one layer")
        if layers[0].kind == "pool":
            raise ParameterError("layer 0 is a pool layer; it must be linear or conv")
        if layers[-1].kind == "pool":
            raise ParameterError("the last layer is a pool layer")
        channels = layers[0].out_channels
        for i, (prev, layer) in enumerate(zip(layers, layers[1:]), start=1):
            if prev.kind == "linear":
                if layer.kind != "linear":
                    raise ParameterError(f"{layer.kind} layer {i} follows a linear layer")
                if layer.in_features != prev.out_features:
                    raise ParameterError(f"linear layer {i} takes {layer.in_features} "
                                         f"features, layer {i - 1} gives {prev.out_features}")
            elif layer.kind == "conv":
                if layer.in_channels != channels:
                    raise ParameterError(f"conv layer {i} takes {layer.in_channels} "
                                         f"channels, {channels} reach it")
                channels = layer.out_channels
        if layers[-1].kind == "conv":
            raise ParameterError("the last layer is a conv layer; the output layer "
                                 "must be linear")

    @property
    def neuron(self) -> str:
        """det | stoch: the neuron model of every layer but the pool layers."""
        return KIND_MODELS[self.model_kind][0]

    @property
    def coding(self) -> str:
        """first-to-spike | rate"""
        return KIND_MODELS[self.model_kind][1]

    def neuron_layers(self):
        return [l for l in self.layers if l.kind != "pool"]

    def weighted_layers(self):
        return [(i, l) for i, l in enumerate(self.layers) if l.kind in ("linear", "conv")]


def normalize_model_kind(kind: str) -> str:
    if not isinstance(kind, str):
        raise ParameterError(f"model kind must be a string, got {kind!r}")
    k = kind.upper().replace("_", "-")
    if k not in MODEL_KINDS:
        raise ParameterError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    return k


def _mlp2_layers(hidden: int) -> list:
    return [
        LayerSpec(kind="linear", in_features=784, out_features=hidden),
        LayerSpec(kind="linear", in_features=hidden, out_features=10),
    ]


def _lenet5_layers() -> list:
    # conv(1->6, 5x5, pad 2) keeps 28x28 so the classic 400-unit flatten holds.
    return [
        LayerSpec(kind="conv", in_channels=1, out_channels=6, kernel=5, pad=2),
        LayerSpec(kind="pool", window=2, pool_mode="average"),
        LayerSpec(kind="conv", in_channels=6, out_channels=16, kernel=5),
        LayerSpec(kind="pool", window=2, pool_mode="average"),
        LayerSpec(kind="linear", in_features=400, out_features=120),
        LayerSpec(kind="linear", in_features=120, out_features=84),
        LayerSpec(kind="linear", in_features=84, out_features=10),
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
                                    kernel=3, pad=1))
            c_in = item
    layers.append(LayerSpec(kind="linear", in_features=512, out_features=512))
    layers.append(LayerSpec(kind="linear", in_features=512, out_features=10))
    return layers


def build(arch_name: str, model_kind: str, overrides: dict | None = None) -> NetworkSpec:
    """Resolve an architecture + model kind into a concrete NetworkSpec.

    ``overrides`` may set ``hidden`` (mlp2's width; the other archs' are
    fixed), ``horizon`` and ``leak``; ``tuner.apply_candidate`` sets
    per-layer thresholds and scales.
    """
    overrides = dict(overrides or {})
    kind = normalize_model_kind(model_kind)
    if arch_name not in ARCHS:
        raise ParameterError(f"unknown architecture {arch_name!r}; expected one of {ARCHS}")

    hidden = _count(overrides.pop("hidden", DEFAULT_HIDDEN), "hidden", 1)
    if arch_name != "mlp2" and hidden != DEFAULT_HIDDEN:
        raise ParameterError(f"hidden sets the mlp2 width; lenet5 and vgg15 have fixed "
                             f"widths and take only {DEFAULT_HIDDEN}: got {hidden} on {arch_name}")
    layers = (_mlp2_layers(hidden) if arch_name == "mlp2"
              else _lenet5_layers() if arch_name == "lenet5" else _vgg15_layers())

    neuron, coding = KIND_MODELS[kind]
    leak = _real(overrides.pop("leak", STOCH_LEAK if neuron == "stoch" else DET_LEAK), "leak")
    for i, l in enumerate(layers):
        if l.kind != "pool":
            layers[i] = replace(l, leak=leak)

    horizon = _count(overrides.pop("horizon", 15 if coding == "rate" else 20), "horizon", 1)
    if overrides:
        raise ParameterError(f"unknown override keys: {sorted(overrides)}")
    return NetworkSpec(layers=layers, horizon=horizon, model_kind=kind, arch=arch_name)


def weight_shape(layer: LayerSpec) -> tuple:
    if layer.kind == "linear":
        return (layer.out_features, layer.in_features)
    if layer.kind == "conv":
        return (layer.out_channels, layer.in_channels, layer.kernel, layer.kernel)
    raise ShapeError(f"layer kind {layer.kind!r} has no weights")


def layer_shapes(spec: NetworkSpec, input_hw: tuple) -> list:
    """Per-sample output shape of every layer for an (H, W) input: linear
    ``(out_features,)``, conv ``(C_O, OH, OW)``, pool ``(C, H/w, W/w)``."""
    h, w = input_hw
    shapes = []
    for layer in spec.layers:
        if layer.kind == "linear":
            shapes.append((layer.out_features,))
            continue
        if layer.kind == "conv":
            c = layer.out_channels
            h = _conv_out_size(h, layer.kernel, layer.stride, layer.pad)
            w = _conv_out_size(w, layer.kernel, layer.stride, layer.pad)
        else:
            h, w = h // layer.window, w // layer.window
        shapes.append((c, h, w))
    return shapes


def block_rows(spec: NetworkSpec, input_hw: tuple) -> int:
    """Rows per block of a block-major simulation, for (H, W) inputs: the
    largest power of two whose widest neuron layer fits ``_L2_BYTES``, and at
    least ``_MIN_BLOCK_ROWS``.  Training and evaluation both step a batch
    one block of rows at a time, so that a block's state stays in cache from
    one step to the next."""
    shapes = layer_shapes(spec, input_hw)
    widest = max(math.prod(shapes[i]) for i, _ in spec.weighted_layers())
    return max(_MIN_BLOCK_ROWS, _pow2_fit(_L2_BYTES, _BYTES_PER_NEURON * widest))


def batch_rows(spec: NetworkSpec, input_hw: tuple) -> int:
    """Rows per evaluation batch, for (H, W) inputs: the largest power of two
    whose state over every layer fits ``heap.SIMULATION_MAPPED_BYTES``, the
    size below which a simulation's arrays stay on the heap; at most
    ``_MAX_BATCH_ROWS``; and at least ``block_rows``, so that a clean batch
    is cut into whole blocks.  512 rows on mlp2, 128 on lenet5, 8 on vgg15
    (28x28 and 32x32 inputs)."""
    state = _BYTES_PER_NEURON * sum(math.prod(s) for s in layer_shapes(spec, input_hw))
    return max(block_rows(spec, input_hw),
               min(_MAX_BATCH_ROWS, _pow2_fit(SIMULATION_MAPPED_BYTES, state)))


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
        return linear(x, weight)
    return conv2d(x, weight, layer.stride, layer.pad)


def step(spec: NetworkSpec, params: dict, drive0: np.ndarray, states: dict,
         streams, rows=None) -> list:
    """Advance every layer of ``spec`` by one timestep.

    ``drive0`` is layer 0's synaptic drive at this step, (N, ...); layer 0 is
    a linear or conv layer.  ``states`` maps layer index to its
    ``LayerState``; missing entries start at rest and the dict is updated in
    place.  ``streams`` holds one RngStream per neuron layer of a stochastic
    network and ``rows`` the sample id of each of the N rows, which keys
    their draws; a deterministic network ignores both (None).
    Returns one ``(v, out, probs)`` tuple per layer.  ``out`` is the layer's
    output, a neuron layer's spikes or a pool layer's pooled map, and layer
    i's input is layer i-1's ``out``.  A pool layer has no ``v`` and no
    ``probs``, a deterministic layer no ``probs``.

    Each neuron layer's state is advanced in its own buffers, so no step
    allocates a new membrane or spike array: the returned ``v`` and spikes
    are ``states[i].v`` and ``states[i].fired_prev`` themselves.  They are
    valid until the next ``step`` on the same ``states``, which overwrites
    them; a caller that keeps them longer copies them.
    """
    outs = []
    n = 0
    stochastic = spec.neuron == "stoch"
    for i, layer in enumerate(spec.layers):
        if layer.kind == "pool":
            x = pool2d(x, layer.window, layer.pool_mode)
            outs.append((None, x, None))
            continue
        drive = drive0 if i == 0 else synaptic_drive(layer, params[f"layer{i}.w"], x)
        state = states.get(i)
        if state is None:
            state = states[i] = LayerState(v=np.zeros(drive.shape))
        probs = None
        if stochastic:
            stream = streams[n] if streams is not None else None
            if stream is None or rows is None:
                raise ShapeError("stochastic network requires RNG streams and row ids")
            spikes, probs = stoch_lif_step(state, layer, drive, stream, rows=rows)
        else:
            spikes = det_lif_step(state, layer, drive)
        n += 1
        outs.append((state.v, spikes, probs))
        x = spikes
    return outs


def _pool_tape_dtype(layer: LayerSpec, prev: LayerSpec):
    """The dtype that tapes pool ``layer``'s output exactly, ``prev`` being
    the layer before it.  Pooling a neuron layer's 0/1 spikes, a max pool
    gives 0/1 (``uint8``) and an average pool over a w x w window k/w² for
    k = 0..w², which is exact in float32 when w² is a power of two of at
    most 2^24; any other pool output is taped as float64."""
    if prev.kind == "pool":
        return np.float64
    if layer.pool_mode == "max":
        return np.uint8
    area = layer.window * layer.window
    return np.float32 if area & (area - 1) == 0 and area <= 1 << 24 else np.float64


def forward(spec: NetworkSpec, params: dict, encoded: np.ndarray,
            streams: list | None = None, rows=None, drive0: np.ndarray | None = None):
    """Simulate all layers for t = 1..T, recording spikes and the BPTT tape.

    ``encoded`` is time-major: (T, N, ...).  For stochastic networks
    ``streams`` supplies one RngStream per neuron layer and ``rows`` (default
    ``arange(N)``) the sample id of each row, which keys its draws.  Returns
    (records, tape) where records is a list of per-neuron-layer spike arrays
    (T, N, ...) of 0/1 ``uint8``, the same arrays as the tape's ``spikes``.
    ``train`` reads only the tape; the records stay in the result because
    the benchmark's rate check (``bench/harness.py``, ``check_rate``) reads
    the output layer's spikes as ``records[-1]``.

    The tape holds what the ``bptt`` module docstring lists; each taped
    array is allocated up front, from ``layer_shapes``, and a pool layer's
    output in the narrowest dtype that holds it exactly
    (``_pool_tape_dtype``), which every reader casts back to float64.

    ``encoded`` must be direct-encoded: the same input at every step, stride
    0 along time, as ``data.encode_direct`` returns it; any other array
    raises ShapeError.  Layer 0's drive is computed once and reused at every
    step, and layer 0's ``inputs``, the only ones on the tape, hold the
    input once, as (N, ...).  A caller that already has layer 0's drive for
    these rows passes it as ``drive0`` ((N, ...), read only), as ``train``
    does with its rows of the batch's drive; otherwise it is computed from
    ``encoded[0]``.
    """
    horizon = encoded.shape[0]
    if horizon != spec.horizon:
        raise ShapeError(f"encoded input has {horizon} steps, spec expects {spec.horizon}")
    if encoded.strides[0] != 0:
        raise ShapeError("forward takes a direct-encoded input: the same input at every "
                         "step, stride 0 along time, as data.encode_direct returns it")
    n = encoded.shape[1]
    traces = []
    for i, (layer, shape) in enumerate(zip(spec.layers, layer_shapes(spec, encoded.shape[-2:]))):
        full = (horizon, n) + shape
        if layer.kind == "pool":
            dtype = _pool_tape_dtype(layer, spec.layers[i - 1])
            traces.append(LayerTrace(layer=layer, spikes=np.empty(full, dtype)))
            continue
        name = f"layer{i}.w"
        trace = LayerTrace(layer=layer, wname=name, weight=params[name],
                           spikes=np.empty(full, np.uint8))
        if spec.neuron == "stoch" and i < len(spec.layers) - 1:
            trace.probs = np.empty(full)
        else:
            trace.v = np.empty(full)
        traces.append(trace)

    traces[0].inputs = encoded[0]
    rows = np.arange(n) if rows is None else rows
    if drive0 is None:
        drive0 = synaptic_drive(spec.layers[0], traces[0].weight, encoded[0])
    elif len(drive0) != n:
        raise ShapeError(f"drive0 has {len(drive0)} rows, the input {n}")
    states = {}
    for t in range(horizon):
        for trace, (v, out, probs) in zip(traces, step(spec, params, drive0, states,
                                                       streams, rows)):
            trace.spikes[t] = out
            if trace.v is not None:
                trace.v[t] = v
            if trace.probs is not None:
                trace.probs[t] = probs

    tape = Tape(horizon=horizon, neuron=spec.neuron, traces=traces)
    records = [traces[i].spikes for i, l in enumerate(spec.layers) if l.kind != "pool"]
    return records, tape


def serialize_spec(spec: NetworkSpec) -> str:
    """The spec as one line of JSON with sorted keys: a checkpoint's spec section."""
    return json.dumps(asdict(spec), sort_keys=True)


def parse_spec(text: str | bytes) -> NetworkSpec:
    """Inverse of serialize_spec; ``text`` is the JSON as str or bytes.

    json reads data only, so a checkpoint's spec cannot run code.  The field
    checks live in ``LayerSpec`` and ``NetworkSpec``.  Malformed text raises
    ValueError (``json.JSONDecodeError`` and bad UTF-8 included), TypeError
    (a non-object, an unknown or missing field), KeyError (no ``layers``),
    OverflowError, RecursionError (too deeply nested) or ParameterError.
    """
    data = json.loads(text)
    return NetworkSpec(**{**data, "layers": [LayerSpec(**l) for l in data["layers"]]})
