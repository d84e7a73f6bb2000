"""The one-bit channel: every client releases a single bit about its example.

It is the randomized-response simulation of `localsq.ldp` with c = 1:
Pr[+1] = (1 + phi(z)) / 2 and each client spends one bit. No privacy
scaling is involved, so batches are a factor 4/c^2 smaller than their
locally-private counterparts.
"""

from __future__ import annotations

from .ldp import Channel, ChannelOracle, compile_sq

# An integer budget, so that reports carry "bits": 1.
ONE_BIT = Channel(c=1.0, budget_key="bits", budget=1, hoeffding=2.0,
                  seed_label="comm-query")


def comm_estimate_mean(S, span, phi, seed: int) -> float:
    """Estimate E[phi] from one extracted bit per client of a stream span."""
    return ONE_BIT.estimate_mean(S, span, phi, seed)


def compile_sq_to_comm(driver, S, tau: float, delta: float,
                       seed: int = 0) -> tuple[object, ChannelOracle]:
    """compile_sq on the one-bit channel."""
    return compile_sq(driver, S, ONE_BIT, tau, delta, seed)
