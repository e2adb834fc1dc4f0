"""Adaptive latency estimation for gray-failure detection (Jacobson/Karels).

Fixed timeouts are tuned for a healthy fabric: degrade a link to a quarter
of its bandwidth and every deadline derived from the clean-link RTT starts
false-positiving, even though messages still arrive.  The classic fix —
TCP's Jacobson/Karels retransmission-timer estimator, and its descendant,
the phi-accrual failure detector — is to *measure* latency and derive
deadlines from the observed mean and deviation instead of a constant.

:class:`RttEstimator` is the scalar core: exponentially-weighted moving
average of samples (``srtt``) plus a mean-deviation estimate (``rttvar``),
with the standard ``mean + k * dev`` deadline rule.  The failure detector
keeps per-peer estimators of heartbeat inter-arrival times and RTT probe
round trips (see :mod:`repro.mpi.detector`).

Everything here is pure arithmetic on observed virtual-time samples — no
randomness, no simulator state — so determinism is inherited from the
sample stream.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["RttEstimator"]


class RttEstimator:
    """EWMA mean + mean-deviation estimator (Jacobson/Karels).

    ``alpha`` weights the mean update, ``beta`` the deviation update; both
    are the TCP constants (1/8 and 1/4).  The first sample initialises the
    mean exactly (dev = sample / 2, as in RFC 6298).

    The estimator also keeps a decaying *peak* watermark: the largest
    recent sample, relaxing toward the mean with a ~32-sample time
    constant.  ``mean + k * dev`` alone is blind to rare-but-recurring
    spikes — under random message loss the deviation estimate converges
    back toward the per-sample jitter while the occasional loss *streak*
    still produces a multi-period gap.  A deadline floored at the peak
    treats any gap the channel has already survived once as survivable.
    """

    __slots__ = ("mean", "dev", "peak", "samples", "peak_decay")

    alpha = 0.125
    beta = 0.25

    #: Default per-sample decay of the peak watermark toward the mean.
    #: 1/32 keeps a spike relevant for roughly a hundred samples — long
    #: enough to bridge recurring loss streaks, short enough to forget a
    #: one-off outage after the fabric heals.  An estimator pooled over
    #: ``m`` streams should divide this by ``m``: decay is per *sample*,
    #: and a pool sees ``m`` samples in the time one stream sees one.
    PEAK_DECAY = 1.0 / 32.0

    def __init__(self, peak_decay: Optional[float] = None):
        if peak_decay is None:
            peak_decay = self.PEAK_DECAY
        if not (0 < peak_decay <= 1):
            raise ValueError("peak_decay must be in (0, 1]")
        self.peak_decay = peak_decay
        self.mean = 0.0
        self.dev = 0.0
        self.peak = 0.0
        self.samples = 0

    def observe(self, sample: float) -> None:
        """Fold one latency sample into the estimate."""
        if sample < 0:
            raise ValueError("latency samples must be non-negative")
        if self.samples == 0:
            self.mean = sample
            self.dev = sample / 2.0
            self.peak = sample
        else:
            err = sample - self.mean
            self.mean += self.alpha * err
            self.dev += self.beta * (abs(err) - self.dev)
            decayed = self.mean + (self.peak - self.mean) * (1.0 - self.peak_decay)
            self.peak = max(sample, decayed)
        self.samples += 1

    def deadline(self, k: float = 4.0) -> float:
        """The classic ``mean + k * dev`` timeout rule."""
        return self.mean + k * self.dev

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RttEstimator(mean={self.mean:.3g}, dev={self.dev:.3g}, "
            f"n={self.samples})"
        )
