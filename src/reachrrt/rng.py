"""Deterministic random-stream derivation.

Every random draw in the package comes from a substream derived from one
master seed plus an integer purpose key.  Two substreams with different keys
are statistically independent, and the same (seed, key) always yields the
same stream regardless of how many other streams were consumed in between.
That property is what makes plans replayable and runs byte-reproducible.
"""

import numpy as np

# Purpose keys.  Never reuse a value; streams are keyed by (domain, *indices).
DOMAIN_INIT = 1       # initial particle states and parameters
DOMAIN_PLANNER = 2    # planner loop draws (samples, controls, tie-breaks)
DOMAIN_EXTEND = 3     # per-extension disturbance blocks, keyed (ext_id, substep)
DOMAIN_VALIDATE = 4   # Monte-Carlo validation draws
DOMAIN_CHECK = 5      # test-only draws (tests/)


def substream(seed, *key):
    """Return a Generator for the given master seed and purpose key.

    Uses a counter-based bit generator so streams are cheap to create and
    independent across keys.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))
