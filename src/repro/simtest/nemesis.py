"""The nemesis composition DSL: seeded, composable fault schedules.

A *nemesis* (the Jepsen term) is one source of adversity — partitions,
crash/restarts, crashes mid-write, breaker-tripping failure bursts, disk
exhaustion, clock stalls — that pre-generates its fault events for a run's
whole horizon from its own derived sub-seed.  :func:`compose` merges any
set of nemeses into one :class:`NemesisSchedule`: an explicit, serializable
list of :class:`NemesisEvent` in a *seeded total order* — events are
sorted by ``(t, id)`` where the ids are a seeded permutation, so two
events due at the same virtual tick always apply in the same order and the
whole schedule round-trips byte-identically through JSON.

Explicitness is the point: the schedule is data, so the shrinker
(:mod:`repro.simtest.shrink`) can delta-debug it down to a minimal failing
subsequence, and a printed seed+schedule re-runs byte-identically.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.resilience.chaos import (
    BREAKER_FLAP_KIND as BREAKER_FLAP,
    CLOCK_STALL_KIND as CLOCK_STALL,
    CRASH_KIND as CRASH,
    DISK_FULL_KIND as DISK_FULL,
    FLAP_KIND as FLAP,
    KIND_ARGS,
    LATENCY_SPIKE_KIND as LATENCY_SPIKE,
    PARTITION_KIND as PARTITION,
)

SCHEDULE_SCHEMA = "repro.simtest.schedule/v1"

# -- event kinds: the chaos monkey interprets its own; a crash mid-write
# needs the simulation run's client, so the run interprets that one ----------

CRASH_MID_WRITE = "crash-mid-write"

#: every event kind a schedule may hold -> the arguments its events carry,
#: each with its converter
EVENT_ARGS = {**KIND_ARGS, CRASH_MID_WRITE: {"host": str}}
EVENT_KINDS = tuple(EVENT_ARGS)


@dataclass(frozen=True)
class NemesisEvent:
    """One scheduled fault: fires at tick ``t``, ties broken by ``id``."""

    t: float
    id: int
    kind: str
    args: dict

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "id": self.id,
            "kind": self.kind,
            "args": {key: self.args[key] for key in sorted(self.args)},
        }

    @staticmethod
    def from_dict(raw: dict) -> "NemesisEvent":
        return NemesisEvent(
            t=float(raw["t"]),
            id=int(raw["id"]),
            kind=str(raw["kind"]),
            args=dict(raw.get("args", {})),
        )

    def describe(self) -> str:
        args = " ".join(f"{k}={self.args[k]}" for k in sorted(self.args))
        return f"t={self.t:g} #{self.id} {self.kind} {args}".rstrip()


@dataclass(frozen=True)
class NemesisSchedule:
    """An explicit fault schedule: the unit the runner replays and the
    shrinker subsets.  ``events`` are already in application order."""

    seed: str
    events: tuple[NemesisEvent, ...]

    def __len__(self) -> int:
        return len(self.events)

    def subset(self, events) -> "NemesisSchedule":
        """A schedule containing only *events* (same order) — shrinking."""
        keep = {(e.t, e.id) for e in events}
        return NemesisSchedule(
            seed=self.seed,
            events=tuple(e for e in self.events if (e.t, e.id) in keep),
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": SCHEDULE_SCHEMA,
                "seed": self.seed,
                "events": [event.to_dict() for event in self.events],
            },
            sort_keys=True,
            indent=2,
        ) + "\n"

    @staticmethod
    def from_json(text: str) -> "NemesisSchedule":
        """Read a schedule document, each event argument converted.  Raises
        ``ValueError``, with a one-line message naming the fault and the
        event, on text that is not JSON or not a :data:`SCHEDULE_SCHEMA`
        document, and on an event that could not be applied: a malformed
        one, one of a kind outside :data:`EVENT_ARGS`, one without an
        argument its kind reads, or one whose argument does not convert."""
        try:
            raw = json.loads(text)
        except ValueError as err:
            raise ValueError(f"not JSON: {err}") from None
        schema = raw.get("schema") if isinstance(raw, dict) else None
        if schema != SCHEDULE_SCHEMA:
            raise ValueError(f"not a {SCHEDULE_SCHEMA} document: {schema!r}")
        entries = raw.get("events", [])
        if not isinstance(entries, list):
            raise ValueError("events is not a list")
        events = []
        for index, entry in enumerate(entries):
            try:
                event = NemesisEvent.from_dict(entry)
            except (KeyError, TypeError, ValueError):
                raise ValueError(
                    f"event {index} is malformed: {entry!r}"
                ) from None
            converters = EVENT_ARGS.get(event.kind)
            if converters is None:
                raise ValueError(
                    f"event {event.describe()}: unknown kind {event.kind!r}"
                )
            missing = [name for name in converters if name not in event.args]
            if missing:
                raise ValueError(
                    f"event {event.describe()}: a {event.kind} event needs "
                    + ", ".join(missing)
                )
            args = dict(event.args)
            for name, convert in converters.items():
                try:
                    args[name] = convert(args[name])
                except (TypeError, ValueError):
                    raise ValueError(
                        f"event {event.describe()}: {name}={args[name]!r} "
                        f"does not convert to {convert.__name__}"
                    ) from None
            events.append(NemesisEvent(event.t, event.id, event.kind, args))
        return NemesisSchedule(seed=str(raw.get("seed", "")), events=tuple(events))

    def describe(self) -> str:
        return "\n".join(event.describe() for event in self.events)


# -- the nemeses --------------------------------------------------------------


class Nemesis:
    """One adversity source.  Subclasses draw their events for the whole
    horizon from the PRNG :func:`compose` hands them (derived from the
    schedule seed and the nemesis name, so adding a nemesis never perturbs
    the schedules of the others)."""

    name = "nemesis"

    def generate(
        self, rng: random.Random, ticks: int
    ) -> list[tuple[float, str, dict]]:
        """The events as ``(tick, kind, args)`` triples."""
        raise NotImplementedError

    def _times(
        self, rng: random.Random, ticks: int, every: tuple[float, float]
    ) -> list[float]:
        """Seeded firing times: accumulate U(*every*) gaps over the horizon."""
        times: list[float] = []
        t = rng.uniform(*every)
        while t < ticks:
            times.append(round(t, 6))
            t += rng.uniform(*every)
        return times


class PartitionNemesis(Nemesis):
    """Region cuts: full, one-way (asymmetric loss), or partial loss."""

    name = "partition"

    def __init__(
        self,
        regions: tuple[str, ...],
        *,
        every: tuple[float, float] = (8.0, 16.0),
        duration: tuple[float, float] = (2.0, 6.0),
        modes: tuple[str, ...] = ("full", "oneway", "partial"),
        loss: float = 0.75,
    ):
        self.regions = tuple(sorted(regions))
        self.every = every
        self.duration = duration
        self.modes = tuple(modes)
        self.loss = loss

    def generate(self, rng, ticks):
        events = []
        for t in self._times(rng, ticks, self.every):
            if len(self.regions) < 2:
                break
            region_a, region_b = rng.sample(self.regions, 2)
            mode = self.modes[rng.randrange(len(self.modes))]
            events.append((t, PARTITION, {
                "a": region_a,
                "b": region_b,
                "mode": mode,
                "duration": round(rng.uniform(*self.duration), 6),
                "loss": self.loss,
            }))
        return events


class CrashNemesis(Nemesis):
    """Crash/restart: the host dies, its disk survives, a rebuilder replays
    the journals when the outage ends."""

    name = "crash"

    def __init__(
        self,
        hosts: tuple[str, ...],
        *,
        every: tuple[float, float] = (10.0, 20.0),
        outage: tuple[float, float] = (2.0, 5.0),
    ):
        self.hosts = tuple(sorted(hosts))
        self.every = every
        self.outage = outage

    def generate(self, rng, ticks):
        return [
            (t, CRASH, {
                "host": self.hosts[rng.randrange(len(self.hosts))],
                "outage": round(rng.uniform(*self.outage), 6),
            })
            for t in self._times(rng, ticks, self.every)
        ]


class MidWriteCrashNemesis(Nemesis):
    """Arm a one-shot process death in the middle of the next batch run —
    the write-ahead discipline's sharpest test."""

    name = "crash-mid-write"

    def __init__(self, host: str, *, every: tuple[float, float] = (12.0, 24.0)):
        self.host = host
        self.every = every

    def generate(self, rng, ticks):
        return [
            (t, CRASH_MID_WRITE, {"host": self.host})
            for t in self._times(rng, ticks, self.every)
        ]


class FlapNemesis(Nemesis):
    """Link flapping: a host alternates reachable/unreachable on a cycle."""

    name = "flap"

    def __init__(
        self,
        hosts: tuple[str, ...],
        *,
        every: tuple[float, float] = (14.0, 26.0),
        phases: tuple[float, float] = (1.0, 3.0),
        duration: tuple[float, float] = (3.0, 6.0),
    ):
        self.hosts = tuple(sorted(hosts))
        self.every = every
        self.phases = phases
        self.duration = duration

    def generate(self, rng, ticks):
        return [
            (t, FLAP, {
                "host": self.hosts[rng.randrange(len(self.hosts))],
                "up": self.phases[0],
                "down": self.phases[1],
                "duration": round(rng.uniform(*self.duration), 6),
            })
            for t in self._times(rng, ticks, self.every)
        ]


class BreakerFlapNemesis(Nemesis):
    """Failure bursts sized to trip circuit breakers, spaced so they
    half-open and recover in between — the breaker state machine under
    churn."""

    name = "breaker-flap"

    def __init__(
        self,
        hosts: tuple[str, ...],
        *,
        every: tuple[float, float] = (5.0, 11.0),
        size: tuple[int, int] = (2, 5),
    ):
        self.hosts = tuple(sorted(hosts))
        self.every = every
        self.size = size

    def generate(self, rng, ticks):
        return [
            (t, BREAKER_FLAP, {
                "host": self.hosts[rng.randrange(len(self.hosts))],
                "size": rng.randint(*self.size),
            })
            for t in self._times(rng, ticks, self.every)
        ]


class LatencySpikeNemesis(Nemesis):
    """Garbage-collection-pause-shaped latency added to one host."""

    name = "latency-spike"
    #: how long a spike lasts, in virtual seconds: a pause, not a new
    #: steady state, so the range is fixed
    duration = (1.0, 3.0)

    def __init__(
        self,
        hosts: tuple[str, ...],
        *,
        every: tuple[float, float] = (6.0, 13.0),
        magnitude: tuple[float, float] = (0.5, 2.5),
    ):
        self.hosts = tuple(sorted(hosts))
        self.every = every
        self.magnitude = magnitude

    def generate(self, rng, ticks):
        return [
            (t, LATENCY_SPIKE, {
                "host": self.hosts[rng.randrange(len(self.hosts))],
                "magnitude": round(rng.uniform(*self.magnitude), 6),
                "duration": round(rng.uniform(*self.duration), 6),
            })
            for t in self._times(rng, ticks, self.every)
        ]


class DiskFullNemesis(Nemesis):
    """Disk exhaustion: journal appends refuse with the taxonomy's
    retryable ``Portal.ResourceExhausted`` until space frees up."""

    name = "disk-full"

    def __init__(
        self,
        hosts: tuple[str, ...],
        *,
        every: tuple[float, float] = (15.0, 28.0),
        duration: tuple[float, float] = (2.0, 4.0),
    ):
        self.hosts = tuple(sorted(hosts))
        self.every = every
        self.duration = duration

    def generate(self, rng, ticks):
        return [
            (t, DISK_FULL, {
                "host": self.hosts[rng.randrange(len(self.hosts))],
                "duration": round(rng.uniform(*self.duration), 6),
            })
            for t in self._times(rng, ticks, self.every)
        ]


class ClockStallNemesis(Nemesis):
    """A global virtual-time jump (checkpoint stall, VM pause): deadline
    budgets burn, flap phases shift, breaker cooldowns expire at once."""

    name = "clock-stall"

    def __init__(
        self,
        *,
        every: tuple[float, float] = (9.0, 19.0),
        stall: tuple[float, float] = (1.0, 4.0),
    ):
        self.every = every
        self.stall = stall

    def generate(self, rng, ticks):
        return [
            (t, CLOCK_STALL, {"seconds": round(rng.uniform(*self.stall), 6)})
            for t in self._times(rng, ticks, self.every)
        ]


# -- composition --------------------------------------------------------------


class Composition:
    """An ordered set of nemeses that generates merged seeded schedules."""

    def __init__(self, nemeses: tuple[Nemesis, ...]):
        self.nemeses = tuple(nemeses)

    def schedule(self, seed, ticks: int) -> NemesisSchedule:
        """The merged schedule for *seed* over *ticks* virtual-tick horizon.

        Each nemesis draws from ``Random(f"{seed}/{index}/{name}")`` — the
        string-seeded PRNG is stable across processes — so the same seed
        always yields the same events, and adding or reordering one nemesis
        never perturbs what the others generate.  Event ids are a seeded
        permutation of ``1..n``; the final ``(t, id)`` sort is the
        schedule's deterministic same-tick tie-break.
        """
        raw: list[tuple[float, str, dict]] = []
        for index, nemesis in enumerate(self.nemeses):
            sub = random.Random(f"{seed}/{index}/{nemesis.name}")
            raw.extend(nemesis.generate(sub, ticks))
        order = list(range(1, len(raw) + 1))
        random.Random(f"{seed}/event-order").shuffle(order)
        events = [
            NemesisEvent(t=t, id=order[i], kind=kind, args=dict(args))
            for i, (t, kind, args) in enumerate(raw)
        ]
        events.sort(key=lambda event: (event.t, event.id))
        return NemesisSchedule(seed=str(seed), events=tuple(events))


def compose(*nemeses: Nemesis) -> Composition:
    """Bundle nemeses into a schedule generator: the DSL's entry point.

    ::

        compose(
            PartitionNemesis(("iu", "sdsc")),
            CrashNemesis(("globusrun.sdsc.edu",)),
            DiskFullNemesis(("globusrun.sdsc.edu",)),
        ).schedule(seed=7, ticks=30)
    """
    return Composition(tuple(nemeses))
