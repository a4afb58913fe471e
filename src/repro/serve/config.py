"""Configuration of the micro-batching optimizer service."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServeConfig"]


@dataclass
class ServeConfig:
    """Knobs of :class:`repro.serve.OptimizerService`.

    Attributes
    ----------
    max_batch_size:
        Largest number of queued requests drained into one batched
        ``predict_join_orders`` call.
    max_wait_ms:
        Upper bound on how long the drain loop holds an incomplete
        batch open waiting for more arrivals.  The window closes early
        once every caller (thread) the previous batch released has
        queued its next request.  A request from any other thread does
        not count, so when a released caller never returns, or returns
        only after the bound, the window runs the full bound.  The
        batching latency/throughput trade-off knob: 0 degenerates to
        "take whatever is queued right now".
    max_queue_depth:
        Backpressure bound: requests arriving while this many are
        already queued are rejected with
        :class:`repro.serve.ServiceOverloadedError` instead of queued.
    plan_cache_size:
        Bound of the LRU plan cache keyed by structural query/plan
        signature.  ``0`` disables caching entirely (every request runs
        the model).
    beam_width / enforce_legality / rerank_with_cost:
        Passed through to :meth:`MTMLFQO.predict_join_orders` (``None``
        defers to the model config, exactly like a direct call).  They
        are service-level — part of the cache key — so every request of
        one service decodes under the same policy.
    request_timeout_s:
        Default per-request wait bound in :meth:`optimize`, > 0;
        ``None`` waits forever.
    """

    max_batch_size: int = 16
    max_wait_ms: float = 2.0
    max_queue_depth: int = 256
    plan_cache_size: int = 1024
    beam_width: int | None = None
    enforce_legality: bool = True
    rerank_with_cost: bool | None = None
    request_timeout_s: float | None = 30.0

    def decode_kwargs(self) -> dict:
        """The decode-policy keywords for ``predict_join_orders``.

        The single source of truth for "what this service's policy
        means as model-call arguments" — the drain loop, the
        adaptation gate, and the federation gate all decode under
        exactly these keywords, so a new policy knob added here reaches
        every gate and serving path at once.
        """
        return {
            "beam_width": self.beam_width,
            "enforce_legality": self.enforce_legality,
            "rerank_with_cost": self.rerank_with_cost,
        }

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.plan_cache_size < 0:
            raise ValueError(f"plan_cache_size must be >= 0, got {self.plan_cache_size}")
        if self.beam_width is not None and self.beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            # 0 would time out every request the plan cache does not answer.
            raise ValueError(f"request_timeout_s must be > 0 or None, got {self.request_timeout_s}")
