"""``repro.serve`` — the always-on micro-batching optimizer service.

Coalesces concurrent single-query ``optimize`` requests into the
batched ``MTMLFQO.predict_join_orders`` path, with a bounded LRU plan
cache keyed by structural query/plan signatures, queue-depth
backpressure, and per-request latency / throughput instrumentation
(rendered by ``repro.eval.reporting.format_serving_report``).
See DESIGN.md "Serving architecture".

The online-adaptation layer closes the paper's learning loop:
``OptimizerService.attach_feedback`` forwards served orders to a
:class:`FeedbackCollector`, which executes them and fills a bounded,
deduped :class:`ExperienceBuffer`; an :class:`AdaptationWorker`
fine-tunes a warm-started trainer on that experience and hot-swaps the
serving model only after a join-order-regret regression gate passes.
See DESIGN.md "Online adaptation".
"""

from .adaptation import (
    AdaptationConfig,
    AdaptationWorker,
    GateResult,
    RoundConfig,
    evaluate_regret_gate,
    split_experience,
)
from .cache import CacheStats, PlanCache
from .config import ServeConfig
from .feedback import ExperienceBuffer, FeedbackCollector, FeedbackConfig
from .service import (
    OptimizerService,
    ServiceOverloadedError,
    ServiceStoppedError,
    ServiceTimeoutError,
)
from .stats import ServiceStats, ServingReport

__all__ = [
    "AdaptationConfig",
    "AdaptationWorker",
    "CacheStats",
    "ExperienceBuffer",
    "FeedbackCollector",
    "FeedbackConfig",
    "GateResult",
    "OptimizerService",
    "PlanCache",
    "RoundConfig",
    "ServeConfig",
    "ServiceOverloadedError",
    "ServiceStoppedError",
    "ServiceTimeoutError",
    "ServiceStats",
    "ServingReport",
    "evaluate_regret_gate",
    "split_experience",
]
