"""Per-request trace context carried across the REE/TEE boundary.

A :class:`TraceContext` is minted by the serving gateway when a request
is admitted, rides on the :class:`~repro.serve.request.ServeRequest`,
and is threaded through ``TZLLM`` across the SMC into the TA and the
prefill pipeline.  Each hop emits a Chrome *flow event* (``ph: s/t/f``)
bound to ``flow_id`` so Perfetto draws an arrow from the gateway span to
the TEE-lane compute spans that served it.
"""

from dataclasses import dataclass
from typing import Optional

__all__ = ["TraceContext"]


@dataclass(frozen=True)
class TraceContext:
    """Identity of one request as it crosses lanes and worlds.

    ``request_id`` identifies the request at the gateway; ``span_id``
    distinguishes retries/attempts of the same request so a retried
    flow does not alias its first attempt in the trace viewer.  At the
    fleet tier the router mints one context per *attempt* with
    ``device`` set, so the two racing legs of a hedged ticket carry
    distinct flow identities instead of aliasing each other.
    """

    request_id: int
    span_id: int = 0
    tenant: Optional[str] = None
    device: Optional[str] = None

    @property
    def flow_id(self):
        """Stable integer id binding this request's flow events."""
        return self.request_id * 1000 + self.span_id

    @property
    def flow_name(self):
        """Display name shared by every event in the flow."""
        if self.device is not None:
            return "ticket t%d attempt %d @%s" % (
                self.request_id, self.span_id, self.device,
            )
        return "request r%d" % self.request_id

    def child(self):
        """Context for the next attempt of the same request."""
        return TraceContext(self.request_id, self.span_id + 1, self.tenant, self.device)
