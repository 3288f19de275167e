"""Network substrate: requests, sources, firewall, load balancer, pools."""

from .fabric import FlowletEcmpFabric, ecmp_path, splitmix64
from .firewall import NullFirewall, RateLimitFirewall
from .load_balancer import NetworkLoadBalancer, RetryPolicy, RoundRobinPolicy
from .pool import ServerPool
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
    "ServerPool",
    "FlowletEcmpFabric",
    "ecmp_path",
    "splitmix64",
]
