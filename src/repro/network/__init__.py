"""Network substrate: requests, sources, firewall, load balancer."""

from .fabric import FlowletEcmpFabric, ecmp_path, splitmix64
from .firewall import NullFirewall, RateLimitFirewall
from .load_balancer import (
    LeastLoadedPolicy,
    NetworkLoadBalancer,
    RandomPolicy,
    RetryPolicy,
    RoundRobinPolicy,
)
from .request import (
    FAULT_OUTCOMES,
    POLICY_OUTCOMES,
    CompletionRecord,
    Request,
    RequestOutcome,
)
from .sources import SourcePool, SourceRegistry

__all__ = [
    "Request",
    "RequestOutcome",
    "FAULT_OUTCOMES",
    "POLICY_OUTCOMES",
    "CompletionRecord",
    "SourcePool",
    "SourceRegistry",
    "RateLimitFirewall",
    "NullFirewall",
    "NetworkLoadBalancer",
    "RetryPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "RandomPolicy",
    "FlowletEcmpFabric",
    "ecmp_path",
    "splitmix64",
]
