"""Walk through the two neuron models at the heart of the package.

A deterministic LIF neuron integrates leaky membrane potential and fires at a
hard threshold, soft-resetting by threshold subtraction one step after the
crossing.  A stochastic LIF neuron turns its (scaled) membrane potential into
a firing probability and draws a Bernoulli spike, with no reset.  Run this
script to see both trajectories side by side under the same constant drive.
"""

import numpy as np

from spikefirst import (LayerSpec, LayerState, RngStream, det_lif_step,
                        first_spike_times, stoch_lif_step)

HORIZON = 12
DRIVE = 0.55


def main():
    # a one-neuron layer of each kind; the step functions read v_th / k / leak
    det = LayerSpec(kind="linear", in_features=1, out_features=1, v_th=1.0, leak=0.9)
    sto = LayerSpec(kind="linear", in_features=1, out_features=1, k=1.0, leak=0.7)
    det_state = LayerState(v=np.zeros(1))
    sto_state = LayerState(v=np.zeros(1))
    stream = RngStream(seed=7, stream_id=1)

    print(f"constant drive {DRIVE}, {HORIZON} timesteps")
    print(f"{'t':>3} {'det V':>8} {'det spike':>9} {'sto V':>8} {'p(fire)':>8} {'sto spike':>9}")
    det_spikes, sto_spikes = [], []
    for t in range(1, HORIZON + 1):
        drive = np.array([DRIVE])
        det_state, ds = det_lif_step(det_state, det, drive)
        sto_state, ss, p = stoch_lif_step(sto_state, sto, drive, stream, rows=[0])
        det_spikes.append(ds)
        sto_spikes.append(ss)
        print(f"{t:>3} {det_state.v[0]:>8.4f} {int(ds[0]):>9} "
              f"{sto_state.v[0]:>8.4f} {p[0]:>8.4f} {int(ss[0]):>9}")

    for name, spikes in (("deterministic", det_spikes), ("stochastic", sto_spikes)):
        t_first = first_spike_times(np.array(spikes))[0]
        label = f"t={int(t_first)}" if t_first <= HORIZON else "never (sentinel T+1)"
        print(f"{name} neuron first spike: {label}")


if __name__ == "__main__":
    main()
