"""Machine-speed probe used to scale measured times.

The CPU speed of the 2-core VM this benchmark was built on drifts by tens of
percent over seconds to minutes (a fixed pure-Python loop measured 105-160 ms
per chunk over one minute), more than any regression bound worth setting.
So a fixed slice of work that does not touch conicstab (dict updates and
small numpy calls, the mix the package itself runs) is timed next to the
work, and each time is also reported scaled to the slice's reference
duration:  t * REFERENCE_S / (slice duration measured next to it).  Raw
times are kept in the report beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# Slice duration that scaled times are expressed against (a typical reading
# on the machine the baseline was measured on), and how much operation time
# may pass between two slices.
REFERENCE_S = 1.2e-3
REFERENCE_EVERY_S = 0.02
_REF_MATRIX = np.array([
    [4.0, 1.0, 0.5, 0.0, 0.2, 0.1],
    [1.0, 3.0, 0.3, 0.1, 0.0, 0.0],
    [0.5, 0.3, 5.0, 0.2, 0.1, 0.0],
    [0.0, 0.1, 0.2, 2.0, 0.3, 0.4],
    [0.2, 0.0, 0.1, 0.3, 6.0, 0.5],
    [0.1, 0.0, 0.0, 0.4, 0.5, 3.0],
])


def reference_slice() -> float:
    """Seconds taken by a fixed piece of work independent of conicstab."""
    t0 = time.perf_counter()
    terms: dict = {}
    for k in range(600):
        e = (k % 7, k % 5, k % 3)
        terms[e] = terms.get(e, 0j) + complex(k, 1)
    x = np.linspace(-1.0, 1.0, 64)
    for _ in range(40):
        np.linalg.eigvalsh(_REF_MATRIX)
        np.convolve(x[:8], x[:5])
        x = np.abs(np.sin(x)) - 0.5
    return time.perf_counter() - t0


def scaled(t: float, slice_s: float) -> float:
    """``t`` as it would read on a machine where the slice takes REFERENCE_S."""
    return t * REFERENCE_S / slice_s
