"""Epoch arithmetic: durations, link delays in epochs, capacities in chunks.

Every whole-chunk model (the one-shot MILP, A*'s rounds and the estimator's
coarse models) takes its link timing from `link_timing`, which applies the
replay's whole-chunk rule: a link that moves less than one chunk per epoch
holds a chunk for kappa epochs, so its capacity binds over windows of kappa
epochs and every delay is widened by the slowest link's kappa - 1. The
copy-free LP moves fractions, which the replay does not widen, and uses the
plain `compute_delta` and `cap_chunks`, which is `link_timing`'s `_budgets`
over one-epoch windows, so both place capacity overrides one way.

Ratios are computed with Fraction so that exact boundaries (a link that is an
integer multiple of the epoch) never fall on the wrong side of a ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import ValidationError
from .topology import Edge, Topology

SLOWEST = "slowest"
FASTEST = "fastest"


@dataclass(frozen=True)
class EpochConfig:
    tau: float  # epoch duration, seconds
    K: int  # epoch count; epoch indices run 0..K-1
    chunk_size: int = 1  # bytes

    def __post_init__(self):
        if self.tau <= 0:
            raise ValidationError("tau must be positive")
        if self.K < 1:
            raise ValidationError("K must be >= 1")

    def with_horizon(self, K: int) -> "EpochConfig":
        return EpochConfig(self.tau, K, self.chunk_size)


def epoch_duration(t: Topology, chunk_size: int, mode: str = FASTEST,
                   em: int = 1) -> float:
    """Seconds one epoch lasts: em times the chunk time of the slowest or fastest link."""
    if mode not in (SLOWEST, FASTEST):
        raise ValidationError(f"unknown duration mode {mode!r}")
    if em < 1:
        raise ValidationError("epoch multiplier must be >= 1")
    caps = [e.capacity for e in t.edges]
    if not caps:
        raise ValidationError("topology has no edges")
    ref = min(caps) if mode == SLOWEST else max(caps)
    return float(em * Fraction(chunk_size) / _frac(ref))


def compute_delta(edge: Edge, tau: float) -> int:
    """Link latency in whole epochs: ceil(alpha / tau)."""
    if tau <= 0:
        raise ValidationError("tau must be positive")
    if edge.alpha == 0:
        return 0
    return _ceil(_frac(edge.alpha) / _frac(tau))


def cap_chunks(t: Topology, cfg: EpochConfig) -> dict:
    """Capacity of every edge (src, dst) during each epoch k < K, in chunks
    per epoch: `link_timing`'s budgets over one-epoch windows."""
    timing = link_timing(t, cfg)
    base = {pair: float(r) for pair, r in timing.rate.items()}
    return _budgets(dict.fromkeys(base, 1), timing.rate, base, timing.overrides, 0, cfg.K)


@dataclass(frozen=True)
class LinkTiming:
    """How a whole-chunk model times each edge (src, dst) over K epochs."""

    kappa: dict  # epochs one chunk occupies the edge
    delta: dict  # epochs from a send to its arrival at the far end
    budget: dict  # per epoch k < K: chunks the kappa-epoch window ending at k may carry
    rate: dict  # chunks per epoch at the edge's base capacity
    base: dict  # the budget of a window at base capacity, kappa * rate, as a float
    overrides: dict  # (src, dst, epoch) -> chunks per epoch, every override of the topology

    @property
    def max_delta(self) -> int:
        return max(self.delta.values(), default=0)

    def from_epoch(self, k0: int, K: int) -> "LinkTiming":
        """The timing of a K-epoch model whose epoch 0 is epoch k0 here: the
        same kappa and delays, budgets from the overrides of epochs k0 on,
        epochs before k0 counting at k0's capacity."""
        return replace(self, budget=_budgets(self.kappa, self.rate, self.base, self.overrides,
                                             k0, K))


def link_timing(t: Topology, cfg: EpochConfig) -> LinkTiming:
    """Kappa, delay and window budget of every edge, by the replay's rule.

    kappa is the epochs one whole chunk needs at the edge's base capacity.
    Every delay is ceil(alpha / tau) plus the largest kappa minus 1, so no
    chunk is forwarded while any link could still be transmitting it. The
    window ending at epoch k sums the capacities of epochs k-kappa+1..k,
    epochs before 0 counting at epoch 0's. With every kappa 1 this is plain
    per-epoch capacity and latency.
    """
    kap, rate, per_capacity = {}, {}, {}
    per_alpha = {a: compute_delta(e, cfg.tau) for a, e in {e.alpha: e for e in t.edges}.items()}
    for e in t.edges:
        pair = (e.src, e.dst)
        if e.capacity not in per_capacity:  # each distinct capacity and alpha converted once
            r = _chunks_per_epoch(e.capacity, cfg)
            if r <= 0:
                raise ValidationError(f"edge ({e.src!r},{e.dst!r}) has no capacity")
            per_capacity[e.capacity] = r, max(1, _ceil(1 / r))
        rate[pair], kap[pair] = per_capacity[e.capacity]
    overrides = {key: _chunks_per_epoch(c, cfg) for key, c in t.capacity_overrides.items()}
    widen = max(kap.values(), default=1) - 1
    delta = {(e.src, e.dst): per_alpha[e.alpha] + widen for e in t.edges}
    base = {pair: float(w * rate[pair]) for pair, w in kap.items()}
    return LinkTiming(kap, delta, _budgets(kap, rate, base, overrides, 0, cfg.K), rate, base,
                      overrides)


def _budgets(kap: dict, rate: dict, base: dict, overrides: dict, k0: int, K: int) -> dict:
    """Window budgets of epochs k0..k0+K-1, epochs before k0 at k0's capacity:
    `base` on an edge with no override in those epochs, else exact sums."""
    cap: dict = {}
    for (i, j, k), c in overrides.items():
        if 0 <= k - k0 < K:
            cap.setdefault((i, j), [rate[(i, j)]] * K)[k - k0] = c
    budget = {}
    for pair, w in kap.items():
        per_epoch = cap.get(pair)
        if per_epoch is None:
            budget[pair] = [base[pair]] * K
            continue
        window = w * per_epoch[0]
        budget[pair] = [float(window)]
        for k in range(1, K):
            window += per_epoch[k] - per_epoch[max(k - w, 0)]
            budget[pair].append(float(window))
    return budget


def _chunks_per_epoch(capacity: float, cfg: EpochConfig) -> Fraction:
    return _frac(capacity) * _frac(cfg.tau) / Fraction(cfg.chunk_size)


def _frac(x) -> Fraction:
    # Snap floats to the nearest short rational so quantities that began life
    # as round numbers (5e-7s epochs, 25 GB/s links) divide exactly; a ratio
    # landing at 0.5 - 1ulp would otherwise push a ceiling up a whole epoch.
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(x).limit_denominator(10 ** 12)


def _ceil(q: Fraction) -> int:
    return -int((-q) // 1) if q > 0 else 0


def ceil_frac(q) -> int:
    return _ceil(_frac(q))
