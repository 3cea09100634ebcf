"""Fault-taxonomy sins: an exposed service leaking a stdlib exception."""

from repro.faults import PortalError
from repro.soap.server import SoapService


class DemoError(PortalError):  # expected: REP202 + REP203 (no code, no retryable)
    pass


class DemoService:
    def frob(self, value: str) -> str:
        if not value:
            raise ValueError("value must be non-empty")  # expected: REP901
        return self._polish(value)

    def _polish(self, value: str) -> str:
        if value == "broken":
            raise RuntimeError("cannot polish")  # expected: REP901 (via helper)
        return value.strip()


def deploy_demo(soap: SoapService) -> DemoService:
    impl = DemoService()
    soap.expose(impl.frob)
    return impl
