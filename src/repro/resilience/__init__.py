"""Client-side resilience for interoperable portal services.

The paper makes provider substitution *possible* (common WSDL interfaces,
common error vocabulary); this package makes it *useful* under failure:

- :mod:`repro.resilience.policy` — retry policies with clock-advancing
  backoff, call deadlines propagated as SOAP headers, and the
  retryable/terminal classification over :mod:`repro.faults`.
- :mod:`repro.resilience.breaker` — per-endpoint circuit breakers
  (closed/open/half-open) inside :class:`repro.transport.client.HttpClient`.
- :mod:`repro.resilience.failover` — :class:`FailoverClient`, which resolves
  every provider of an interface from UDDI/WSIL/container discovery and
  rotates across them on failure.  It is imported from its submodule: it
  builds on the SOAP client, which itself imports this package's policy
  module, so the package root stays free of it.
- :mod:`repro.resilience.chaos` — a seeded, deterministic chaos harness
  driving fault schedules into the virtual network.
- :mod:`repro.resilience.events` — every retry/trip/failover/shed recorded
  as an :class:`repro.faults.ErrorReport` for the monitoring portlet.
"""

from repro.resilience.breaker import (
    BreakerOpenError,
    CircuitBreaker,
    CircuitBreakerPolicy,
)
from repro.resilience.chaos import (
    ChaosConfig,
    ChaosHarness,
    ChaosMonkey,
    ChaosReport,
)
from repro.resilience.events import ResilienceLog
from repro.resilience.policy import (
    NO_RETRY,
    Deadline,
    RetryPolicy,
    is_retryable,
)

__all__ = [
    "BreakerOpenError",
    "ChaosConfig",
    "ChaosHarness",
    "ChaosMonkey",
    "ChaosReport",
    "CircuitBreaker",
    "CircuitBreakerPolicy",
    "Deadline",
    "NO_RETRY",
    "ResilienceLog",
    "RetryPolicy",
    "is_retryable",
]
