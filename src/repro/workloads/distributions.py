"""Empirical flow-size distributions used throughout the paper.

* **Web Search** — the DCTCP production workload [Alizadeh et al. 2010;
  Roy et al. 2015].  Heavy-tailed: ~62% of flows are 0–100KB but most
  bytes come from multi-MB flows; average ~1.6MB (paper Table 2).
* **Data Mining** — the VL2 workload [Greenberg et al. 2009].  Extremely
  polarized: ~83% of flows under 100KB alongside flows up to 100MB+;
  average ~7.41MB (paper Table 2).
* **Memcached W1** — the Facebook Memcached workload used by Homa
  (paper §6.3.2): >70% of flows under 1000 bytes, all under 100KB.
* **ETC / YouTube HTTP** — message-size proxies for the §4.1
  identification-accuracy validation.

Each distribution is an :class:`EmpiricalCdf` of ``(size_bytes,
cumulative_probability)`` breakpoints transcribed from the literature,
sampled by inversion with linear interpolation between breakpoints.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Optional, Sequence, Tuple


class EmpiricalCdf:
    """Piecewise-linear inverse-CDF sampler over flow sizes."""

    def __init__(self, name: str, points: Sequence[Tuple[float, float]]):
        if len(points) < 2:
            raise ValueError("need at least two CDF points")
        sizes = [p[0] for p in points]
        probs = [p[1] for p in points]
        if sizes != sorted(sizes):
            raise ValueError("sizes must be non-decreasing")
        if probs != sorted(probs):
            raise ValueError("probabilities must be non-decreasing")
        if probs[0] != 0.0 or abs(probs[-1] - 1.0) > 1e-9:
            raise ValueError("CDF must start at 0 and end at 1")
        self.name = name
        self._sizes = [float(s) for s in sizes]
        self._probs = [float(p) for p in probs]

    def sample(self, rng: random.Random, cap: Optional[int] = None) -> int:
        """Draw one flow size in bytes (>= 1, optionally capped)."""
        u = rng.random()
        idx = bisect.bisect_left(self._probs, u)
        if idx == 0:
            size = self._sizes[0]
        else:
            p0, p1 = self._probs[idx - 1], self._probs[idx]
            s0, s1 = self._sizes[idx - 1], self._sizes[idx]
            if p1 == p0:
                size = s1
            else:
                size = s0 + (s1 - s0) * (u - p0) / (p1 - p0)
        size = max(1, int(size))
        if cap is not None:
            size = min(size, cap)
        return size

    def mean(self, cap: Optional[int] = None) -> float:
        """Analytic mean under linear interpolation (optionally capped).

        With a cap this is the exact ``E[min(S, cap)]`` of the sampler:
        sizes are uniform on each segment, so a segment the cap
        straddles contributes the uncapped trapezoid over the fraction
        ``f = (cap - s0) / (s1 - s0)`` below the cap plus ``cap`` itself
        over the remaining ``1 - f`` — clamping both trapezoid endpoints
        to the cap (the old code) under-counted the capped portion and
        made a capped Poisson stream offer the wrong load.
        """
        total = 0.0
        for i in range(1, len(self._sizes)):
            p = self._probs[i] - self._probs[i - 1]
            s0, s1 = self._sizes[i - 1], self._sizes[i]
            if cap is None or cap >= s1:
                total += p * (s0 + s1) / 2.0
            elif cap <= s0:
                total += p * cap
            else:
                f = (cap - s0) / (s1 - s0)
                total += p * (f * (s0 + cap) / 2.0 + (1.0 - f) * cap)
        return total

    def fraction_below(self, size: float) -> float:
        """CDF value at ``size`` (linear interpolation)."""
        if size <= self._sizes[0]:
            return self._probs[0]
        if size >= self._sizes[-1]:
            return 1.0
        idx = bisect.bisect_right(self._sizes, size)
        s0, s1 = self._sizes[idx - 1], self._sizes[idx]
        p0, p1 = self._probs[idx - 1], self._probs[idx]
        if s1 == s0:
            return p1
        return p0 + (p1 - p0) * (size - s0) / (s1 - s0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EmpiricalCdf {self.name} mean={self.mean()/1e6:.2f}MB>"


WEB_SEARCH = EmpiricalCdf("web-search", [
    (1_000, 0.00),
    (6_000, 0.15),
    (13_000, 0.20),
    (19_000, 0.30),
    (33_000, 0.40),
    (53_000, 0.53),
    (100_000, 0.62),
    (667_000, 0.70),
    (1_333_000, 0.80),
    (3_333_000, 0.90),
    (6_667_000, 0.96),
    (30_000_000, 1.00),
])

DATA_MINING = EmpiricalCdf("data-mining", [
    (100, 0.00),
    (180, 0.10),
    (250, 0.20),
    (560, 0.30),
    (900, 0.40),
    (1_100, 0.50),
    (1_870, 0.60),
    (3_160, 0.70),
    (10_000, 0.80),
    (100_000, 0.83),
    (400_000, 0.90),
    (3_160_000, 0.95),
    (35_000_000, 0.98),
    (660_000_000, 1.00),
])

MEMCACHED_W1 = EmpiricalCdf("memcached-w1", [
    (64, 0.00),
    (128, 0.20),
    (256, 0.45),
    (512, 0.62),
    (1_000, 0.73),
    (2_000, 0.80),
    (5_000, 0.87),
    (10_000, 0.92),
    (30_000, 0.97),
    (100_000, 1.00),
])

# Memcached ETC value-size trace proxy (Atikoglu et al., SIGMETRICS 2012):
# mostly sub-KB values with a tail of multi-KB objects.
MEMCACHED_ETC = EmpiricalCdf("memcached-etc", [
    (24, 0.00),
    (100, 0.30),
    (300, 0.55),
    (700, 0.70),
    (1_000, 0.76),
    (2_000, 0.84),
    (5_000, 0.91),
    (10_000, 0.95),
    (50_000, 0.99),
    (500_000, 1.00),
])

# YouTube HTTP response-size proxy (Jorgensen et al. 2023): chunked video
# segments; responses from tens of KB to several MB.
YOUTUBE_HTTP = EmpiricalCdf("youtube-http", [
    (2_000, 0.00),
    (10_000, 0.15),
    (30_000, 0.35),
    (100_000, 0.55),
    (300_000, 0.72),
    (1_000_000, 0.87),
    (3_000_000, 0.95),
    (10_000_000, 1.00),
])

WORKLOADS = {
    cdf.name: cdf
    for cdf in (WEB_SEARCH, DATA_MINING, MEMCACHED_W1, MEMCACHED_ETC,
                YOUTUBE_HTTP)
}


def sample_sizes(cdf: EmpiricalCdf, n: int, seed: int = 0,
                 cap: Optional[int] = None) -> List[int]:
    """Convenience: draw ``n`` sizes with a private RNG."""
    rng = random.Random(seed)
    return [cdf.sample(rng, cap) for _ in range(n)]
