"""Direct training and tradeoff analysis of spiking networks with
first-to-spike output coding.

The package trains deterministic and stochastic LIF networks by
backpropagation through time, evaluates the accuracy / latency / sparsity /
energy tradeoff axes, and tunes per-layer neuron parameters with
differential evolution.
"""

__version__ = "0.1.0"

from .bptt import (Tape, arctan_surrogate_grad, backward,
                   sign_estimator_backward, straight_through_backward)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .coding import (LossValue, first_spike_event_prob, fts_ce_loss,
                     fts_softmax, ml_loss, rate_ce_loss)
from .data import (Dataset, LabeledImage, encode_direct, load_cifar10_bin,
                   load_mnist_idx)
from .metrics import (MetricsReport, energy_cost, evaluate, layer_ops,
                      noise_sweep)
from .network import LayerSpec, NetworkSpec, build, forward, init_params, step
from .neurons import LayerState, det_lif_step, first_spike_times, stoch_lif_step
from .rng import RngStream, rng_gaussian, rng_uniform
from .tensor import conv2d, conv2d_backward, pool2d, pool2d_backward
from .train import (AdamState, PRESETS, TrainConfig, adam_step, lr_at, train)
from .tuner import DeConfig, DeResult, de_minimize, de_optimize, tradeoff_objective

__all__ = [name for name in dir() if not name.startswith("_")]
