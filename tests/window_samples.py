"""Hand-written adversary window samples as the diversity audit's window
table (see aoijam.age_exact._window_runs)."""

import numpy as np


def window_table(samples, n_sub):
    """The window table of `samples`, a list of samples over n_sub
    sub-carriers, each a list of (start, stop, weights) windows."""
    windows = [window for sample in samples for window in sample]
    owner = np.repeat(np.arange(len(samples)),
                      [len(sample) for sample in samples])
    start = np.array([window[0] for window in windows], dtype=int)
    stop = np.array([window[1] for window in windows], dtype=int)
    weights = np.array([window[2] for window in windows], dtype=float)
    return (len(samples), owner, start, stop,
            weights.reshape(len(windows), n_sub))
