"""The four portal workloads: seeded inputs, the ops, and their checks.

Each workload builds its stack on a fresh :class:`VirtualNetwork` — no
sockets, no threads — and drives it as one simulated caller in a closed
loop: the next op starts when the previous reply is in.  Inputs (op order,
payload bytes, paths, words) come from the workload seed alone; the
program sees only the generated inputs.

An op is ``Op(call, check, fault)``: ``call()`` runs it, ``check(result)``
says whether a reply is right, and ``fault`` names the classified fault the
op must raise instead (empty: the op must succeed).  Ops come in cycles of
fixed composition; the seed shuffles each cycle, so per-op modelled cost
over whole cycles hardly moves from seed to seed, and cycles cost alike.
"""

from __future__ import annotations

import base64
import random
import xml.etree.ElementTree as ET
from typing import Any, Callable, NamedTuple

#: O1's job-descriptor payload (benchmarks/test_o1_tracing_overhead.py),
#: with its variable fields drawn from the seed
RSL_TEMPLATE = (
    "&(executable=/usr/local/bin/povray)"
    '(arguments="+i scene{scene}.pov" "+o frame{job}.png" "+w {w}" "+h {h}")'
    "(directory=/home/gridsphere/renders/job-{job})"
    "(stdout=frame{job}.out)(stderr=frame{job}.err)"
    "(count={count})(maxWallTime={wall})(queue=normal)"
)
_SIZES = ((640, 480), (800, 600), (1024, 768), (1280, 1024), (1600, 1200))
_WORDS = (
    "basis", "grid", "kernel", "lattice", "mesh", "orbital", "plasma", "quark",
    "solver", "spectra", "tensor", "vortex", "wave", "yield", "zone", "flux",
)

ECHO_NAMESPACE = "urn:bench:echo"
SPP_NAMESPACE = "urn:bench:protected"


class Op(NamedTuple):
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    fault: str = ""


def rsl_payloads(rng: random.Random, count: int) -> list[str]:
    out = []
    for _ in range(count):
        width, height = rng.choice(_SIZES)
        out.append(RSL_TEMPLATE.format(
            scene=rng.randrange(100), job=rng.randrange(1, 10_000),
            w=width, h=height, count=rng.randrange(1, 129),
            wall=rng.randrange(5, 1441),
        ))
    return out


def words(rng: random.Random, count: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(count))


class Workload:
    """A seeded op generator bound to the stack it builds."""

    name = ""
    #: ops in one cycle; the deterministic pass runs two cycles
    cycle_length = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.network = None
        #: the PortalDeployment, for stacks that build one
        self.deployment = None
        #: the SPP's AssertionInterceptor, on saml-signed
        self.interceptor = None
        #: called with the new network when a workload deploys a fresh stack
        #: mid-run (the layer trace attaches to it)
        self.on_new_stack: Callable | None = None

    def build(self) -> None:
        """Deploy the stack, log in, and store the workload's fixtures."""
        raise NotImplementedError

    def cycle(self, index: int) -> list[Op]:
        """The ops of cycle *index*, in their seeded order."""
        raise NotImplementedError

    def _shuffled(self, ops: list[Op], index: int) -> list[Op]:
        random.Random(self.seed * 1_000_003 + index).shuffle(ops)
        return ops


class SoapEcho(Workload):
    name = "soap-echo"
    cycle_length = 64

    def build(self) -> None:
        from repro.soap.client import SoapClient
        from repro.soap.server import SoapService
        from repro.transport.network import VirtualNetwork
        from repro.transport.server import HttpServer

        self.network = network = VirtualNetwork()
        service = SoapService("Echo", ECHO_NAMESPACE)
        service.expose(lambda text: text.upper(), name="shout")
        url = service.mount(HttpServer("echo.bench.org", network), "/echo")
        client = SoapClient(network, url, ECHO_NAMESPACE, source="bench")
        payloads = rsl_payloads(random.Random(self.seed), self.cycle_length)
        self._ops = [
            Op(lambda p=p: client.call("shout", p),
               lambda result, p=p: result == p.upper())
            for p in payloads
        ]

    def cycle(self, index: int) -> list[Op]:
        return self._ops


class SrbBulk(Workload):
    name = "srb-bulk"
    cycle_length = 24
    FILES = 8          # bulk paths, each put and got once per cycle
    PAYLOADS = 16      # distinct 64 KiB contents rotated through them
    BATCHES = 8        # xml_call requests per cycle
    TEXTS = 8          # small text files the batches ls and cat

    def build(self) -> None:
        from repro.portal.uiserver import PortalDeployment
        from repro.services.datamgmt import SRBWS_NAMESPACE, make_request_xml
        from repro.soap.client import SoapClient

        rng = random.Random(self.seed)
        tag = f"{rng.getrandbits(24):06x}"
        self.bulk = [f"/home/portal/bulk/{tag}-{i}.dat" for i in range(self.FILES)]
        self.payloads = [
            base64.b64encode(rng.randbytes(64 * 1024)).decode("ascii")
            for _ in range(self.PAYLOADS)
        ]
        texts = {
            f"/home/portal/text/{rng.choice(_WORDS)}-{i}.txt": words(rng, 60)
            for i in range(self.TEXTS)
        }
        batches = []
        for _ in range(self.BATCHES):
            # the same 8 ls + 8 cat in every batch, so batches cost alike
            commands = [("ls", ["/home/portal/text"])] * 8 + [
                ("cat", [path]) for path in rng.sample(sorted(texts), 8)
            ]
            rng.shuffle(commands)
            expected = [
                texts[args[0]] if name == "cat" else None for name, args in commands
            ]
            batches.append((make_request_xml(commands), expected))

        self.deployment = PortalDeployment.build()
        self.network = self.deployment.network
        client = self.client = SoapClient(
            self.network, self.deployment.endpoints["srb"], SRBWS_NAMESPACE,
            source="ui.bench",
        )
        client.call("xml_call", make_request_xml(
            [("mkdir", ["/home/portal/bulk"]), ("mkdir", ["/home/portal/text"])]
        ))
        for path, text in texts.items():
            client.call("put", path, base64.b64encode(text.encode()).decode())
        #: path -> the base64 content last put there
        self.stored = {}
        for i, path in enumerate(self.bulk):
            client.call("put", path, self.payloads[i])
            self.stored[path] = self.payloads[i]
        self._batch_ops = [
            Op(lambda req=req: client.call("xml_call", req),
               lambda result, exp=exp: self._check_batch(result, exp))
            for req, exp in batches
        ]

    def _put(self, path: str, data: str) -> Op:
        def check(size: int) -> bool:
            self.stored[path] = data
            return size == 64 * 1024

        return Op(lambda: self.client.call("put", path, data), check)

    def _get(self, path: str) -> Op:
        return Op(lambda: self.client.call("get", path),
                  lambda result: result == self.stored[path])

    @staticmethod
    def _check_batch(result: str, expected: list[str | None]) -> bool:
        """One ``status="ok"`` result per command; cat returns the text."""
        nodes = ET.fromstring(result).findall("result")
        if len(nodes) != len(expected):
            return False
        for node, text in zip(nodes, expected):
            if node.get("status") != "ok":
                return False
            if text is not None and node.findtext("value") != text:
                return False
            if text is None and len(node.findall("item")) != SrbBulk.TEXTS:
                return False
        return True

    def cycle(self, index: int) -> list[Op]:
        ops = []
        for i, path in enumerate(self.bulk):
            payload = self.payloads[(index * self.FILES + i + 1) % self.PAYLOADS]
            ops.append(self._put(path, payload))
            ops.append(self._get(path))
        return self._shuffled(ops + list(self._batch_ops), index)


class PortalShellWorkload(Workload):
    name = "portal-shell"
    cycle_length = 24
    #: cycles per session; the next session starts on a freshly built portal.
    #: Every job runapp and submit create stays in the schedulers' tables and
    #: gridload scans them all, so without an end to the session its cost
    #: would keep growing with run length and take over the tail.
    SESSION_CYCLES = 100
    NOTES = 4
    TARGETS = 4
    #: scheduler -> a directive only its dialect emits
    DIRECTIVES = {"PBS": "#PBS", "GRD": "#$", "LSF": "#BSUB", "NQS": "#QSUB"}
    FAULT = "Portal.ResourceNotFound"

    def build(self) -> None:
        rng = random.Random(self.seed)
        tag = f"{rng.getrandbits(24):06x}"
        self.notes = {
            f"/home/portal/{tag}-note{i}.txt": words(rng, 16)
            for i in range(self.NOTES)
        }
        self.targets = [f"/home/portal/{tag}-job{i}.pbs" for i in range(self.TARGETS)]
        self._start_session()

    def _start_session(self) -> None:
        """Log in to a freshly built portal and store the session's files."""
        from repro.portal.uiserver import PortalDeployment, UserInterfaceServer

        self.deployment = PortalDeployment.build(
            observe=True, observe_seed=self.seed, sampling=True,
            collector_capacity=256,
        )
        self.network = self.deployment.network
        ui = UserInterfaceServer(self.deployment, host="ui.bench")
        ui.login("alice", "alpine")
        self.shell = ui.make_shell("alice")
        for path, text in self.notes.items():
            self.shell.run(f"echo {text} | srbput {path}")
        for path in self.targets:
            self.shell.run(f"echo pending | srbput {path}")
        self.hosts = sorted(self.deployment.testbed)
        if self.on_new_stack is not None:
            self.on_new_stack(self.network)

    def _line(self, line: str, check: Callable[[str], bool]) -> Op:
        shell = self.shell
        return Op(lambda: shell.run(line), check)

    def _genscript(self, rng: random.Random, scheduler: str) -> str:
        app = rng.choice(_WORDS)
        return (f"genscript {scheduler} executable=/apps/{app}/bin/{app} "
                f"cpus={rng.randrange(1, 33)} wallTime={rng.randrange(60, 3600)}")

    def cycle(self, index: int) -> list[Op]:
        if index and index % self.SESSION_CYCLES == 0:
            self._start_session()
        rng = random.Random(self.seed * 7_919 + index)
        notes = sorted(self.notes)
        ops = []
        for scheduler, marker in self.DIRECTIVES.items():
            ops.append(self._line(self._genscript(rng, scheduler),
                                  lambda out, m=marker: m in out))
        for k in range(2):
            target = self.targets[(2 * index + k) % self.TARGETS]
            stored = lambda out, t=target: out.startswith("stored ") and out.endswith(t)
            ops.append(self._line(
                f"{self._genscript(rng, 'PBS')} | srbput {target}", stored))
            ops.append(self._line(
                f"{self._genscript(rng, 'PBS')} | validate PBS | srbput {target}",
                stored))
            ops.append(self._line(
                "srbls /home/portal",
                lambda out: all(path.rsplit("/", 1)[1] in out for path in notes)))
            note = rng.choice(notes)
            ops.append(self._line(f"srbcat {note}",
                                  lambda out, n=note: out == self.notes[n]))
            note = rng.choice(notes)
            session = f"alice/bench/s{rng.randrange(4)}"
            ops.append(self._line(
                f"srbcat {note} | archive {session}",
                lambda out, n=note, s=session:
                    out == f"archived {len(self.notes[n])} bytes to {s}"))
            said = words(rng, 3)
            host = self.hosts[(index + k) % len(self.hosts)]
            ops.append(self._line(f"submit {host} /bin/echo {said}",
                                  lambda out, w=said: out == w + "\n"))
        ops.append(self._line(
            "gridload",
            lambda out: [row.split()[0] for row in out.splitlines()] == self.hosts))
        ops.append(self._line(
            "describe MM5", lambda out: "MM5" in out))
        ops.append(self._line(
            "runapp Gaussian modi4.iu.edu basisSize=40",
            lambda out: "Normal termination of Gaussian" in out))
        ops.append(self._line(
            "runapp MM5 blue.sdsc.edu forecastHours=2 cpus=4",
            lambda out: out.startswith("MM5 forecast complete: 2h on 4 cpus")))
        ops.append(self._line(
            "apps", lambda out: all(a in out for a in ("Gaussian", "ANSYS", "MM5"))))
        ops.append(self._line("describe Gaussian", lambda out: "Gaussian" in out))
        missing = f"/home/portal/missing-{rng.getrandbits(16):04x}.txt"
        ops.append(Op(lambda: self.shell.run(f"srbcat {missing}"),
                      lambda out: False, self.FAULT))
        ops.append(Op(lambda: self.shell.run("runapp NoSuchCode modi4.iu.edu"),
                      lambda out: False, self.FAULT))
        return self._shuffled(ops, index)


class SamlSigned(Workload):
    name = "saml-signed"
    #: short cycles (an op costs ~1 ms), so that the calibrations between
    #: them follow the host's slowdowns closely
    cycle_length = 8
    PAYLOADS = 32

    def build(self) -> None:
        from repro.portal.uiserver import PortalDeployment
        from repro.security.authservice import (
            AssertionInterceptor,
            ClientSecuritySession,
        )
        from repro.soap.client import SoapClient
        from repro.soap.server import SoapService
        from repro.transport.server import HttpServer

        self.deployment = deployment = PortalDeployment.build()
        self.network = network = deployment.network
        auth_url = deployment.endpoints["auth"]
        spp = SoapService("spp.bench", SPP_NAMESPACE)
        spp.expose(lambda x: x, "echo")
        self.interceptor = AssertionInterceptor(
            network, auth_url, spp_host="spp.bench", clock=network.clock,
            cache=True,
        )
        spp.add_interceptor(self.interceptor)
        url = spp.mount(HttpServer("spp.bench", network), "/svc")
        session = ClientSecuritySession(
            network, deployment.kdc, auth_url, ui_host="ui.bench"
        )
        session.login("alice", "alpine")
        client = session.secure(SoapClient(network, url, SPP_NAMESPACE,
                                           source="ui.bench"))
        auth = deployment.auth

        def call(payload: str) -> tuple[int, Any]:
            before = auth.verifications
            return before, client.call("echo", payload)

        def check(result: tuple[int, Any], payload: str) -> bool:
            before, echoed = result
            return echoed == payload and auth.verifications == before + 1

        self._ops = [
            Op(lambda p=p: call(p), lambda result, p=p: check(result, p))
            for p in rsl_payloads(random.Random(self.seed), self.PAYLOADS)
        ]

    def cycle(self, index: int) -> list[Op]:
        start = index * self.cycle_length % self.PAYLOADS
        return self._ops[start:start + self.cycle_length]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SoapEcho, SrbBulk, PortalShellWorkload, SamlSigned)
}


def fault_code(exc: BaseException) -> str:
    """The portal fault code an op raised, looking through wrapping errors
    (the portal shell re-raises a service's fault as a ShellError)."""
    while exc is not None:
        code = getattr(exc, "code", "")
        if isinstance(code, str) and code:
            return code
        exc = exc.__cause__
    return ""


def program_counters(workload: Workload) -> dict[str, float]:
    """Cumulative counters the program keeps itself, read between ops."""
    import gc

    from repro.soap.client import SoapClient

    stats = workload.network.stats
    counters = {
        "transport.requests": stats.requests,
        "transport.connections": stats.connections,
        "wire_bytes": stats.bytes_sent + stats.bytes_received,
        "vtime_s": workload.network.clock.now,
        "resilience.retries": sum(
            obj.retries_performed for obj in gc.get_objects()
            if isinstance(obj, SoapClient)
        ),
    }
    deployment = workload.deployment
    if deployment is not None:
        counters["security.verify_calls"] = deployment.auth.verifications
        counters["grid.jobs_retained"] = sum(
            len(resource.scheduler.jobs()) for resource in deployment.testbed.values()
        )
        controllers = deployment.load.controllers.values()
        counters["loadmgmt.refused"] = sum(c.shed for c in controllers)
        counters["loadmgmt.admitted"] = sum(c.admitted for c in controllers)
        counters["loadmgmt.wait_s"] = sum(
            lane.wait_total for c in controllers for lane in c.lane_stats.values()
        )
        sampler = getattr(deployment.observability, "sampler", None)
        if sampler is not None:
            counters["observability.kept"] = sampler.kept_traces
            counters["observability.decided"] = (
                sampler.kept_traces + sampler.dropped_traces
            )
    cache = getattr(workload.interceptor, "cache", None)
    if cache is not None:
        counters["security.cache_hits"] = cache.hits
        counters["security.cache_lookups"] = cache.hits + cache.misses
        counters["security.cache_entries"] = len(cache)
    return counters
