"""``repro.federation`` — the live federated multi-tenant serving fleet.

The paper's Section 7 cloud deployment as a running system: each
:class:`TenantNode` serves one customer database through the
micro-batching :class:`~repro.serve.OptimizerService` while a
:class:`~repro.serve.feedback.FeedbackCollector` accumulates private
execution-labeled experience; a :class:`FleetCoordinator` runs
asynchronous FedAvg rounds that harvest shared-(S)/(T)-only updates
from tenants with fresh traffic, merge them example-weighted,
checkpoint every global round, and push the merged model back through
each tenant's regression gate + hot-swap — featurizers (F) and raw
tuples never leave a tenant, and a bad round can never degrade a
healthy one.  New tenants onboard by training only a featurizer and
deploying the global (S)/(T) zero-shot.  See DESIGN.md
"Federation fleet".
"""

from .coordinator import FleetCoordinator, FleetRound
from .node import TenantNode
from .report import FleetReport

__all__ = [
    "FleetCoordinator",
    "FleetReport",
    "FleetRound",
    "TenantNode",
]
