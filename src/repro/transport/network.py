"""The virtual network: hosts, links, wire accounting, failure injection."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.transport.clock import SimClock
from repro.transport.http import HttpRequest, HttpResponse


class TransportError(ConnectionError):
    """A network-level failure (host down, injected fault, no route)."""


class ServiceCrash(TransportError):
    """The serving process died mid-request.

    Raised *inside* a handler to model process death: the caller observes a
    dropped connection (a transport failure, hence retryable), never a
    response.  Host disks (:class:`HostDisk`) survive the crash; process
    state does not.
    """


class HostDisk:
    """A host's durable storage: named append-only logs that survive
    :meth:`VirtualNetwork.take_down` / :meth:`VirtualNetwork.bring_up`.

    Process state (service objects, handlers) dies with the host; whatever a
    service wrote to its disk is still there when a fresh process attaches
    after restart.  The log entries themselves are managed by
    :class:`repro.durability.journal.Journal`; the disk just owns the lists.
    """

    def __init__(self, host: str):
        self.host = host
        self._logs: dict[str, list] = {}
        #: when True, appends must fail (the paper's canonical error: "the
        #: file didn't get transferred because the disk was full") — the
        #: journal layer maps this onto ``Portal.ResourceExhausted``
        self.full = False

    def log(self, name: str) -> list:
        """The named append-only log (created empty on first access)."""
        return self._logs.setdefault(name, [])

    def log_names(self) -> list[str]:
        return sorted(self._logs)

    def set_full(self, full: bool) -> None:
        """Inject (or clear) the disk-full condition.  Existing records
        stay readable; only new appends are refused while full."""
        self.full = bool(full)

    def wipe(self) -> None:
        """Destroy all durable state (disk replacement, not a crash)."""
        self._logs.clear()
        self.full = False


@dataclass
class LinkSpec:
    """Timing parameters of a (directed) link between two hosts.

    ``connect_latency`` models TCP(+TLS/GSI handshake) setup and is paid once
    per *connection*; ``latency`` is the one-way propagation delay paid per
    message; ``bandwidth`` (bytes/second) converts message size to serialization
    delay.  Defaults approximate a 2002 wide-area path between IU and SDSC.
    """

    latency: float = 0.020
    bandwidth: float = 1.25e6  # 10 Mbit/s
    connect_latency: float = 0.060

    def transfer_time(self, nbytes: int) -> float:
        return self.latency + nbytes / self.bandwidth


@dataclass
class WireStats:
    """Cumulative wire accounting for benchmarks and tests.

    ``requests`` / ``per_host_requests`` count *attempts* to any registered
    host, including ones that fail in flight (host down, injected fault,
    partition) — that is what lets tests assert a circuit breaker caps
    traffic to a dead provider.  ``partition_blocked`` counts attempts cut
    by an active partition (full, one-way, or a partial-loss drop), with
    ``per_pair_blocked`` keyed ``"source->host"`` so split-brain drills can
    assert exactly which directions went dark.  ``bytes_*`` only accumulate
    for delivered messages.
    """

    connections: int = 0
    requests: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    per_host_requests: dict[str, int] = field(default_factory=dict)
    partition_blocked: int = 0
    per_pair_blocked: dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> "WireStats":
        return WireStats(
            self.connections,
            self.requests,
            self.bytes_sent,
            self.bytes_received,
            dict(self.per_host_requests),
            self.partition_blocked,
            dict(self.per_pair_blocked),
        )

    def delta(self, earlier: "WireStats") -> "WireStats":
        """Stats accumulated since an earlier :meth:`snapshot`."""
        return WireStats(
            self.connections - earlier.connections,
            self.requests - earlier.requests,
            self.bytes_sent - earlier.bytes_sent,
            self.bytes_received - earlier.bytes_received,
            {
                host: count - earlier.per_host_requests.get(host, 0)
                for host, count in self.per_host_requests.items()
            },
            self.partition_blocked - earlier.partition_blocked,
            {
                pair: count - earlier.per_pair_blocked.get(pair, 0)
                for pair, count in self.per_pair_blocked.items()
            },
        )


@dataclass(frozen=True)
class PartitionSpec:
    """One active network partition between two host groups.

    ``mode`` selects the failure shape:

    - ``"full"``: no traffic crosses in either direction (the classic
      split-brain cut);
    - ``"oneway"``: traffic from ``side_a`` to ``side_b`` is cut, replies
      and independent calls the other way still flow (an asymmetric route
      loss — the shape that breaks naive heartbeat protocols);
    - ``"partial"``: each crossing attempt is dropped independently with
      probability ``loss`` (a flaky inter-region trunk), drawn from the
      network's seeded PRNG so runs stay reproducible.
    """

    side_a: frozenset[str]
    side_b: frozenset[str]
    mode: str = "full"
    loss: float = 1.0

    def blocks(self, source: str, host: str) -> bool:
        """Whether this spec (deterministically) cuts source -> host.

        Partial partitions are probabilistic and resolved by the caller;
        this returns whether the pair *crosses* the cut in a blocked
        direction.
        """
        if source in self.side_a and host in self.side_b:
            return True
        if self.mode != "oneway" and source in self.side_b and host in self.side_a:
            return True
        return False


Handler = Callable[[HttpRequest], HttpResponse]


class VirtualNetwork:
    """An in-process network of named hosts.

    Hosts are registered with a request handler (usually an
    :class:`repro.transport.server.HttpServer`).  ``send`` routes a request,
    advances the shared virtual clock by the modelled transfer time, updates
    :class:`WireStats`, and applies any injected failures.  Everything is
    deterministic: jitter comes from a seeded PRNG.
    """

    def __init__(self, clock: SimClock | None = None, *, seed: int = 0):
        self.clock = clock or SimClock()
        self.stats = WireStats()
        self._hosts: dict[str, Handler] = {}
        self._default_link = LinkSpec()
        self._links: dict[tuple[str, str], LinkSpec] = {}
        self._down: set[str] = set()
        self._fail_next: dict[str, int] = {}
        self._error_rate: dict[str, float] = {}
        self._latency_spike: dict[str, tuple[float, float]] = {}
        self._flapping: dict[str, tuple[float, float, float]] = {}
        self._partitions: dict[int, PartitionSpec] = {}
        self._partition_ids = itertools.count(1)
        self._jitter = 0.0
        self._rng = random.Random(seed)
        self._disks: dict[str, HostDisk] = {}
        #: the ambient observability bundle, if installed (see
        #: repro.observability.runtime.Observability.install); clients and
        #: services discover it here and instrument themselves
        self.observability = None

    # -- topology ------------------------------------------------------------

    def register(self, host: str, handler: Handler) -> None:
        """Attach a request handler to a host name."""
        self._hosts[host] = handler

    def unregister(self, host: str) -> None:
        self._hosts.pop(host, None)

    def hosts(self) -> list[str]:
        return sorted(self._hosts)

    def disk(self, host: str) -> HostDisk:
        """The host's durable disk (created on first access).

        Disks are keyed by host name and survive :meth:`take_down`,
        :meth:`bring_up`, and :meth:`unregister` — a restarted service
        attaches to the same disk its previous incarnation journaled to.
        """
        existing = self._disks.get(host)
        if existing is None:
            existing = self._disks[host] = HostDisk(host)
        return existing

    def disks(self) -> list[HostDisk]:
        """Every host disk created so far, host-name sorted (the simtest
        journal oracle walks these after restarts)."""
        return [self._disks[host] for host in sorted(self._disks)]

    def set_default_link(self, link: LinkSpec) -> None:
        self._default_link = link

    def set_link(self, src: str, dst: str, link: LinkSpec) -> None:
        """Override timing for the directed link src -> dst."""
        self._links[(src, dst)] = link

    def link(self, src: str, dst: str) -> LinkSpec:
        return self._links.get((src, dst), self._default_link)

    def set_jitter(self, fraction: float) -> None:
        """Multiply transfer times by ``1 ± U(0, fraction)`` (deterministic)."""
        self._jitter = max(0.0, fraction)

    # -- failure injection -----------------------------------------------------

    def take_down(self, host: str) -> None:
        """Make a host unreachable until :meth:`bring_up`.  Idempotent:
        taking a down host down again is a no-op."""
        self._down.add(host)

    def bring_up(self, host: str) -> None:
        """Restore a host (idempotent), cancelling any flapping schedule."""
        self._down.discard(host)
        self._flapping.pop(host, None)

    def fail_next(self, host: str, times: int = 1) -> None:
        """Inject *times* transport failures for the next requests to host.

        Counts decrement once per failed request and never go negative;
        injecting zero failures is a no-op rather than clearing prior ones.
        """
        if times < 0:
            raise ValueError(f"cannot inject {times} failures")
        if times:
            self._fail_next[host] = self._fail_next.get(host, 0) + times

    def pending_failures(self, host: str) -> int:
        """How many injected :meth:`fail_next` failures are still queued."""
        return self._fail_next.get(host, 0)

    def clear_failures(self, host: str) -> int:
        """Drop any queued :meth:`fail_next` charges for *host*; returns how
        many were still armed (the heal-everything cleanup path)."""
        return self._fail_next.pop(host, 0)

    def set_error_rate(self, host: str, rate: float) -> None:
        """Fail each request to *host* independently with probability *rate*
        (drawn from the seeded PRNG — deterministic across runs).  Rate 0
        clears the fault."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"error rate must be in [0, 1]: {rate}")
        if rate:
            self._error_rate[host] = rate
        else:
            self._error_rate.pop(host, None)

    def set_latency_spike(
        self, host: str, probability: float, magnitude: float
    ) -> None:
        """With *probability*, add *magnitude* virtual seconds to a request
        to *host* — a garbage-collection pause or queue blip, not an error.
        Probability 0 clears the fault."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"spike probability must be in [0, 1]: {probability}")
        if probability and magnitude > 0:
            self._latency_spike[host] = (probability, magnitude)
        else:
            self._latency_spike.pop(host, None)

    def set_flapping(
        self, host: str, up_for: float, down_for: float, start: float | None = None
    ) -> None:
        """Make a host alternate reachable/unreachable on a clock-driven
        cycle: up for *up_for* seconds, then down for *down_for*, repeating
        from *start* (default: now).  :meth:`bring_up` cancels the schedule."""
        if up_for <= 0 or down_for <= 0:
            raise ValueError("flap phases must be positive")
        base = self.clock.now if start is None else float(start)
        self._flapping[host] = (up_for, down_for, base)

    def partition(self, side_a: set[str], side_b: set[str]) -> int:
        """Cut all traffic between two groups of hosts (both directions).
        Client sources count as hosts for membership purposes.  Returns a
        partition id for selective healing via :meth:`heal_partition`."""
        return self._add_partition(PartitionSpec(frozenset(side_a), frozenset(side_b)))

    def partition_oneway(self, src_side: set[str], dst_side: set[str]) -> int:
        """Cut only traffic *from* ``src_side`` *to* ``dst_side`` (asymmetric:
        the reverse direction still flows).  Returns a partition id."""
        return self._add_partition(
            PartitionSpec(frozenset(src_side), frozenset(dst_side), mode="oneway")
        )

    def partition_partial(
        self, side_a: set[str], side_b: set[str], loss: float
    ) -> int:
        """Drop each crossing attempt independently with probability *loss*
        (both directions, seeded PRNG).  Returns a partition id."""
        if not 0.0 < loss <= 1.0:
            raise ValueError(f"partial-partition loss must be in (0, 1]: {loss}")
        return self._add_partition(
            PartitionSpec(frozenset(side_a), frozenset(side_b), mode="partial",
                          loss=loss)
        )

    def _add_partition(self, spec: PartitionSpec) -> int:
        partition_id = next(self._partition_ids)
        self._partitions[partition_id] = spec
        return partition_id

    def heal_partition(self, partition_id: int) -> bool:
        """Remove one partition by id; returns whether it was active."""
        return self._partitions.pop(partition_id, None) is not None

    def heal_partitions(self) -> None:
        """Remove every network partition."""
        self._partitions.clear()

    def active_partitions(self) -> list[tuple[int, PartitionSpec]]:
        """The live partitions as (id, spec), id-sorted (for drills/portlets)."""
        return sorted(self._partitions.items())

    def is_up(self, host: str) -> bool:
        """Whether the host is currently reachable (down set + flap phase)."""
        if host in self._down:
            return False
        flap = self._flapping.get(host)
        if flap is not None:
            up_for, down_for, base = flap
            phase = (self.clock.now - base) % (up_for + down_for)
            if phase >= up_for:
                return False
        return True

    def _partitioned(self, source: str, host: str) -> bool:
        """Whether an attempt source -> host is cut right now.

        Full and one-way partitions block deterministically; a partial
        partition draws from the seeded PRNG per attempt (so two same-seed
        runs drop the same attempts).
        """
        for partition_id in sorted(self._partitions):
            spec = self._partitions[partition_id]
            if spec.mode == "partial":
                crosses = (source in spec.side_a and host in spec.side_b) or (
                    source in spec.side_b and host in spec.side_a
                )
                if crosses and self._rng.random() < spec.loss:
                    return True
            elif spec.blocks(source, host):
                return True
        return False

    def _note_partition_block(self, source: str, host: str) -> None:
        self.stats.partition_blocked += 1
        pair = f"{source}->{host}"
        self.stats.per_pair_blocked[pair] = (
            self.stats.per_pair_blocked.get(pair, 0) + 1
        )

    # -- the wire ------------------------------------------------------------

    def send(
        self,
        request: HttpRequest,
        *,
        source: str = "client",
        new_connection: bool = True,
    ) -> HttpResponse:
        """Deliver a request and return the response, advancing the clock.

        ``new_connection=False`` models a kept-alive connection (no
        connection-setup latency); the HTTP client below manages this and the
        xml_call experiment (C2) depends on it.
        """
        host = request.url.host
        if host not in self._hosts:
            raise TransportError(f"no route to host {host!r}")
        self.stats.requests += 1
        self.stats.per_host_requests[host] = (
            self.stats.per_host_requests.get(host, 0) + 1
        )
        if not self.is_up(host):
            raise TransportError(f"host {host!r} is down")
        if self._partitioned(source, host):
            self._note_partition_block(source, host)
            raise TransportError(
                f"network partition between {source!r} and {host!r}"
            )
        remaining = self._fail_next.get(host, 0)
        if remaining > 0:
            if remaining == 1:
                self._fail_next.pop(host)
            else:
                self._fail_next[host] = remaining - 1
            raise TransportError(f"injected transport failure contacting {host!r}")
        error_rate = self._error_rate.get(host, 0.0)
        if error_rate and self._rng.random() < error_rate:
            raise TransportError(f"transient transport failure contacting {host!r}")

        link = self.link(source, host)
        forward = 0.0
        if new_connection:
            self.stats.connections += 1
            forward += link.connect_latency
        # each size read re-encodes the body, so read it once per message
        request_size = request.size
        forward += link.transfer_time(request_size)
        spike = self._latency_spike.get(host)
        if spike is not None and self._rng.random() < spike[0]:
            forward += spike[1]
        factor = (
            1.0 + self._rng.uniform(-self._jitter, self._jitter)
            if self._jitter
            else 1.0
        )

        # the clock advances by the forward-path time *before* the handler
        # runs, so the server observes the request's true arrival time (this
        # is what lets it shed work whose deadline passed in flight)
        self.clock.advance(forward * factor)
        self.stats.bytes_sent += request_size

        response = self._hosts[host](request)

        response_size = response.size
        back = self.link(host, source).transfer_time(response_size)
        self.clock.advance(back * factor)
        self.stats.bytes_received += response_size
        return response

    def reset_stats(self) -> None:
        self.stats = WireStats()
