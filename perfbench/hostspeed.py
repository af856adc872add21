"""A fixed reference kernel that measures how fast the host runs Python now.

On a shared host the CPU time of the same code changes by up to 2x from
one second to the next, as other tenants load the core: one pass of
cusp_ci took 1.39 s to 2.50 s of CPU time in ten fresh processes.  The
worker therefore times this kernel between verdicts and scales each
verdict's CPU time by REF_MS over the kernel's time around it, so that
the benchmark reads as at one fixed host speed.

The kernel is a sparse polynomial product over F_7 in the style of the
engine's inner loops (dicts keyed by exponent tuples, small-integer
arithmetic), but it does not call fliftlab, so no change to the program
moves it.  The collector is off while it runs, so that a collection the
program's heap triggers is charged to the program, not to the kernel.
"""

from __future__ import annotations

import gc
import random
import time

# CPU milliseconds of one probe inside a benchmark pass on the seed
# machine (2 vCPUs under KVM, Python 3.11.7) when its host was quiet: a
# fixed scale, so that scaled times are near that machine's CPU times.
REF_MS = 0.6


def _operand(rnd: random.Random) -> dict:
    return {(rnd.randrange(12), rnd.randrange(12), rnd.randrange(12)):
            rnd.randrange(1, 7) for _ in range(64)}


_RND = random.Random(0)
_A = _operand(_RND)
_B = _operand(_RND)


def _kernel() -> dict:
    out: dict = {}
    for (a0, a1, a2), c in _A.items():
        for (b0, b1, b2), d in _B.items():
            m = (a0 + b0, a1 + b1, a2 + b2)
            v = (out.get(m, 0) + c * d) % 7
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def probe() -> float:
    """CPU milliseconds of one kernel run in this thread.

    An untimed run first brings the kernel's operands back into the
    caches, so that the timed run does not depend on how much memory the
    program touched before it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        start = time.thread_time()
        _kernel()
        return (time.thread_time() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()
