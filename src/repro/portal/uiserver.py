"""The User Interface server and the one-call full-portal deployment.

:class:`PortalDeployment` stands up the *entire* Figure 4 architecture on a
virtual network — grid testbed, SRB, security, discovery, every core web
service, the application web service, and a portal host — and is the
fixture used by the integration tests, the examples, and the Figure 4
benchmark.  :class:`UserInterfaceServer` is the user-facing tier: per-user
logins, SOAP client proxies, portal shells, and the portlet container.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field

from repro.faults import InvalidRequestError
from repro.appws.catalog import build_catalog
from repro.appws.service import (
    APPWS_NAMESPACE,
    ApplicationWebService,
    deploy_application_service,
)
from repro.discovery.registry import ContainerRegistry, deploy_discovery
from repro.grid.resources import ComputeResource, build_testbed
from repro.portal.shell import PortalShell, parse_kv_args, require_args
from repro.portlets.container import PortletContainer
from repro.portlets.registry import PortletEntry
from repro.security.authservice import (
    AuthenticationService,
    ClientSecuritySession,
    deploy_auth_service,
)
from repro.security.gsi import SimpleCA
from repro.security.kerberos import Kdc
from repro.services.batchscript import (
    BSG_NAMESPACE,
    IuBatchScriptGenerator,
    SdscBatchScriptGenerator,
    deploy_batch_script_generator,
)
from repro.services.context import (
    CONTEXT_NAMESPACE,
    ContextManagerService,
    deploy_context_manager,
)
from repro.services.datamgmt import (
    SRBWS_NAMESPACE,
    SrbWebService,
    deploy_srb_service,
)
from repro.services.jobsubmit import (
    GLOBUSRUN_NAMESPACE,
    GlobusrunService,
    deploy_globusrun,
)
from repro.loadmgmt import AdmissionController, LoadRegistry
from repro.loadmgmt.metascheduler import (
    METASCHEDULER_NAMESPACE,
    MetaSchedulerService,
    deploy_metascheduler,
)
from repro.loadmgmt.portlet import LoadPortlet
from repro.resilience.breaker import CircuitBreakerPolicy
from repro.resilience.events import ResilienceLog
from repro.resilience.failover import FailoverClient
from repro.resilience.policy import RetryPolicy
from repro.services.monitoring import (
    MONITORING_NAMESPACE,
    JobMonitoringService,
    MetricsPortlet,
    ReplicationPortlet,
    ResilienceEventsPortlet,
    SLOPortlet,
    TraceViewPortlet,
    deploy_monitoring,
)
from repro.soap.client import SoapClient
from repro.srb.commands import Scommands
from repro.srb.server import SrbServer
from repro.srb.storage import StorageResource
from repro.transport.network import VirtualNetwork
from repro.uddi.model import (
    BindingTemplate,
    BusinessEntity,
    BusinessService,
    TModel,
)
from repro.uddi.registry import UddiRegistry
from repro.uddi.service import deploy_uddi
from repro.wizard.generator import SchemaWizard

PORTAL_IDENTITY = "/O=Grid/O=Reproduction/CN=portal-services"


@dataclass
class PortalDeployment:
    """Everything Figure 4 needs, deployed and wired."""

    network: VirtualNetwork
    ca: SimpleCA
    kdc: Kdc
    testbed: dict[str, ComputeResource]
    srb: SrbServer
    auth: AuthenticationService
    uddi: UddiRegistry
    discovery: ContainerRegistry
    globusrun: GlobusrunService
    srb_ws: SrbWebService
    context: ContextManagerService
    appws: ApplicationWebService
    monitoring: JobMonitoringService
    resilience: ResilienceLog = field(default_factory=ResilienceLog)
    endpoints: dict[str, str] = field(default_factory=dict)
    users: dict[str, str] = field(default_factory=dict)
    #: the observability bundle when built with ``observe=True``
    observability: object | None = None
    #: the metascheduler placement service (see repro.loadmgmt)
    metascheduler: MetaSchedulerService | None = None
    #: the registry of admission controllers guarding service endpoints
    load: LoadRegistry | None = None
    #: the multi-region topology when built with ``regions`` (see
    #: repro.replication) — None for the classic single-region portal
    replication: object | None = None
    #: host -> closure re-deploying that host's services from its surviving
    #: disk (populated with ``durable=True`` and/or ``regions``); hand this
    #: to a ChaosMonkey so a repaired host restarts instead of staying a
    #: registered-but-empty shell
    rebuilders: dict[str, object] = field(default_factory=dict)

    @staticmethod
    def build(
        network: VirtualNetwork | None = None,
        *,
        users: dict[str, str] | None = None,
        observe: bool = False,
        observe_seed: int = 0,
        sampling: bool | object = False,
        collector_capacity: int = 0,
        slos: tuple | None = None,
        admission_capacity: float = 64.0,
        admission_lanes: dict | None = None,
        regions: tuple[str, ...] | None = None,
        replication_seed: int = 0,
        durable: bool = False,
    ) -> "PortalDeployment":
        """Deploy the full architecture; ``users`` maps user -> password.

        ``observe=True`` installs the tracing/metrics layer
        (:class:`repro.observability.Observability`) on the network *before*
        any service deploys, bridges the deployment-wide resilience log into
        it, and stands up the trace-collector endpoint.  ``sampling``
        (``True`` for the seeded default chain, or a preconfigured
        :class:`~repro.observability.sampling.TailSampler`),
        ``collector_capacity`` (ring-buffer bound, 0 = unbounded), and
        ``slos`` (:class:`~repro.observability.slo.SLO` definitions for
        the bundle's burn-rate engine) pass through to the install.

        The Globusrun endpoint is always deployed behind admission control
        (``admission_capacity`` requests/s of modeled service capacity;
        ``admission_lanes`` maps principal -> :class:`~repro.loadmgmt.LaneConfig`
        for weighted fair sharing), and a MetaScheduler service is stood up
        over it with ``least-loaded`` as the default placement policy.

        ``regions`` (e.g. ``("iu", "sdsc")``) additionally stands up the
        multi-region replication topology of :mod:`repro.replication` — a
        replicated registry + context replica per region, seeded
        anti-entropy gossip, and quorum context writes — wired into the
        resilience log and the monitoring service's
        ``replication_summary`` view.
        """
        network = network or VirtualNetwork()
        users = dict(users or {"alice": "alpine", "bob": "builder"})
        observability = None
        if observe:
            from repro.observability import Observability

            observability = Observability.install(
                network,
                seed=observe_seed,
                sampling=sampling,
                collector_capacity=collector_capacity,
                slos=slos,
            )
        ca = SimpleCA()
        kdc = Kdc("GRIDPORTAL.ORG", network.clock)
        now = network.clock.now

        # grid testbed and the portal's delegated service credential
        testbed = build_testbed(network, ca)
        service_cred = ca.issue_credential(
            PORTAL_IDENTITY, lifetime=365 * 86400.0, now=now
        )
        service_proxy = service_cred.sign_proxy(lifetime=30 * 86400.0, now=now)
        for resource in testbed.values():
            resource.gatekeeper.add_gridmap_entry(PORTAL_IDENTITY, "portal")

        # SRB
        srb = SrbServer(ca, network.clock)
        srb.add_resource(StorageResource("sdsc-disk"), default=True)
        srb.add_resource(StorageResource("sdsc-hpss"))
        srb.register_user(PORTAL_IDENTITY, "portal")
        scommands = Scommands(srb, service_proxy)

        # security
        auth, auth_url = deploy_auth_service(network, kdc)
        for user, password in users.items():
            kdc.add_user(user, password)
            srb.register_user(f"/O=Grid/O=Reproduction/CN={user}", user)

        # discovery
        uddi, uddi_url = deploy_uddi(network)
        discovery, discovery_url = deploy_discovery(network)

        # core services
        resilience = ResilienceLog()
        traces_url = ""
        if observability is not None:
            observability.observe_log(resilience)
            from repro.observability import deploy_trace_collector

            _, traces_url = deploy_trace_collector(
                network, observability.collector
            )
        load = LoadRegistry()
        admission = AdmissionController(
            network.clock,
            capacity=admission_capacity,
            lanes=admission_lanes,
            service="Globusrun",
            log=resilience,
        )
        load.register(admission)
        globusrun, globusrun_url = deploy_globusrun(
            network, testbed, service_proxy, durable=durable,
            admission=admission, resilience_log=resilience,
        )
        metascheduler, metascheduler_url = deploy_metascheduler(
            network, testbed, [globusrun_url],
            seed=observe_seed, log=resilience,
        )
        replication = None
        if regions:
            from repro.replication import MultiRegionReplication

            replication = MultiRegionReplication.build(
                network, tuple(regions), seed=replication_seed, log=resilience,
            )
        monitoring, monitoring_url = deploy_monitoring(
            network, testbed, resilience_log=resilience,
            observability=observability, load=load, replication=replication,
        )
        srb_ws, srb_ws_url = deploy_srb_service(network, scommands)
        context, context_url = deploy_context_manager(network)
        iu_bsg_url, iu_wsdl = deploy_batch_script_generator(
            network, IuBatchScriptGenerator(), "bsg.iu.edu"
        )
        sdsc_bsg_url, sdsc_wsdl = deploy_batch_script_generator(
            network, SdscBatchScriptGenerator(), "bsg.sdsc.edu"
        )

        # register the batch script generators with both discovery systems
        iu_entity = uddi.save_business(
            BusinessEntity("", "Community Grids Lab, Indiana University")
        )
        sdsc_entity = uddi.save_business(
            BusinessEntity("", "San Diego Supercomputer Center")
        )
        interface_tmodel = uddi.save_tmodel(
            TModel("", "gce:BatchScriptGenerator", "the agreed common interface")
        )
        for entity, name, url, wsdl_doc, schedulers in (
            (iu_entity, "Gateway Batch Script Generator", iu_bsg_url, iu_wsdl,
             ("PBS", "GRD")),
            (sdsc_entity, "HotPage Batch Script Generator", sdsc_bsg_url, sdsc_wsdl,
             ("LSF", "NQS")),
        ):
            uddi.save_service(
                BusinessService(
                    "",
                    entity.key,
                    name,
                    description="schedulers: " + ",".join(schedulers),
                    bindings=[
                        BindingTemplate("", "", url, [interface_tmodel.key],
                                        url + ".wsdl")
                    ],
                )
            )
            discovery.register_service(
                f"portals/{'IU' if entity is iu_entity else 'SDSC'}"
                f"/script-generators/{name.split()[0].lower()}",
                {
                    "queuing-system": list(schedulers),
                    "interface": BSG_NAMESPACE,
                    "wsdl": url + ".wsdl",
                    "endpoint": url,
                },
            )

        # application web service
        appws, appws_url = deploy_application_service(
            network,
            build_catalog(
                {
                    "batch-script-generation": iu_bsg_url,
                    "job-submission": globusrun_url,
                    "file-transfer": srb_ws_url,
                    "context-management": context_url,
                }
            ),
            bsg_endpoints={
                "PBS": iu_bsg_url,
                "GRD": iu_bsg_url,
                "LSF": sdsc_bsg_url,
                "NQS": sdsc_bsg_url,
            },
            globusrun_endpoint=globusrun_url,
            context_endpoint=context_url,
        )

        deployment = PortalDeployment(
            network=network,
            ca=ca,
            kdc=kdc,
            testbed=testbed,
            srb=srb,
            auth=auth,
            uddi=uddi,
            discovery=discovery,
            globusrun=globusrun,
            srb_ws=srb_ws,
            context=context,
            appws=appws,
            monitoring=monitoring,
            resilience=resilience,
            observability=observability,
            metascheduler=metascheduler,
            load=load,
            replication=replication,
            endpoints={
                **({"traces": traces_url} if traces_url else {}),
                "auth": auth_url,
                "uddi": uddi_url,
                "discovery": discovery_url,
                "globusrun": globusrun_url,
                "metascheduler": metascheduler_url,
                "monitoring": monitoring_url,
                "srb": srb_ws_url,
                "context": context_url,
                "bsg-iu": iu_bsg_url,
                "bsg-sdsc": sdsc_bsg_url,
                "appws": appws_url,
            },
            users=users,
        )
        if durable:
            globusrun_host = "globusrun.sdsc.edu"

            def rebuild_globusrun() -> None:
                # the crash-restart path: a fresh process attaches to the
                # host's surviving disk, replays its journals, and replaces
                # the deployment's handle so callers see the new incarnation
                impl, _ = deploy_globusrun(
                    network, testbed, service_proxy, durable=True,
                    admission=admission, resilience_log=resilience,
                )
                deployment.globusrun = impl

            deployment.rebuilders[globusrun_host] = rebuild_globusrun
        if replication is not None:
            deployment.rebuilders.update(replication.rebuilders())
        return deployment


class UserInterfaceServer:
    """The user-facing tier of Figure 4, on one host.

    Holds per-user security sessions and client proxies; builds per-user
    portal shells whose commands encapsulate core-service calls; hosts the
    portlet container and the wizard-generated application editors.
    """

    def __init__(self, deployment: PortalDeployment, host: str = "ui.gridportal.org"):
        self.deployment = deployment
        self.network = deployment.network
        self.host = host
        self.sessions: dict[str, ClientSecuritySession] = {}
        self.container = PortletContainer(self.network, host + ":portal")
        self._clients: dict[str, SoapClient] = {}
        self._workflow_runtime = None
        self.wizard = SchemaWizard(self.network, source_host=host)

    # -- proxies ------------------------------------------------------------------

    def client(self, service: str) -> SoapClient:
        """A (cached) client proxy to a deployed service by short name."""
        if service not in self._clients:
            namespaces = {
                "globusrun": GLOBUSRUN_NAMESPACE,
                "metascheduler": METASCHEDULER_NAMESPACE,
                "monitoring": MONITORING_NAMESPACE,
                "srb": SRBWS_NAMESPACE,
                "context": CONTEXT_NAMESPACE,
                "bsg-iu": BSG_NAMESPACE,
                "bsg-sdsc": BSG_NAMESPACE,
                "appws": APPWS_NAMESPACE,
            }
            endpoint = self.deployment.endpoints.get(service)
            if endpoint is None or service not in namespaces:
                raise KeyError(f"unknown service {service!r}")
            self._clients[service] = SoapClient(
                self.network, endpoint, namespaces[service], source=self.host
            )
        return self._clients[service]

    def failover_client(
        self,
        interface_tmodel: str = "gce:BatchScriptGenerator",
        namespace: str = BSG_NAMESPACE,
        *,
        sticky: bool = True,
        timeout: float | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker_policy: CircuitBreakerPolicy | None = None,
    ) -> FailoverClient:
        """A proxy bound to *every* registered provider of an interface.

        Providers are resolved from the deployment's UDDI registry over
        SOAP, so a newly published implementation becomes a failover target
        without portal code changes; retry/trip/failover events land in the
        deployment-wide resilience log the monitoring portlet renders.
        """
        return FailoverClient.from_uddi(
            self.network,
            self.deployment.endpoints["uddi"],
            interface_tmodel,
            namespace,
            source=self.host,
            sticky=sticky,
            timeout=timeout,
            retry_policy=retry_policy or RetryPolicy(max_attempts=2),
            breaker_policy=breaker_policy or CircuitBreakerPolicy(),
            resilience_log=self.deployment.resilience,
            service_name=interface_tmodel,
        )

    def add_resilience_portlet(self, *, tail: int = 20) -> ResilienceEventsPortlet:
        """Register the resilience-events window with the portlet container."""
        portlet = ResilienceEventsPortlet(
            self.network,
            self.deployment.endpoints["monitoring"],
            source=self.host,
            tail=tail,
        )
        self.container.add_local_portlet(portlet)
        return portlet

    def add_trace_portlet(self, *, trace_id: str = "") -> TraceViewPortlet:
        """Register the span-waterfall window with the portlet container."""
        portlet = TraceViewPortlet(
            self.network,
            self.deployment.endpoints["monitoring"],
            source=self.host,
            trace_id=trace_id,
        )
        self.container.add_local_portlet(portlet)
        return portlet

    def add_load_portlet(self, *, tail: int = 10) -> LoadPortlet:
        """Register the load-management window (admission lanes, queue
        drain rates, metascheduler placements) with the portlet container."""
        portlet = LoadPortlet(
            self.network,
            self.deployment.endpoints["monitoring"],
            self.deployment.endpoints.get("metascheduler", ""),
            source=self.host,
            tail=tail,
        )
        self.container.add_local_portlet(portlet)
        return portlet

    def add_metrics_portlet(self) -> MetricsPortlet:
        """Register the RED-metrics window with the portlet container."""
        portlet = MetricsPortlet(
            self.network,
            self.deployment.endpoints["monitoring"],
            source=self.host,
        )
        self.container.add_local_portlet(portlet)
        return portlet

    def add_replication_portlet(self) -> ReplicationPortlet:
        """Register the multi-region replication window with the container."""
        portlet = ReplicationPortlet(
            self.network,
            self.deployment.endpoints["monitoring"],
            source=self.host,
        )
        self.container.add_local_portlet(portlet)
        return portlet

    def add_slo_portlet(self) -> SLOPortlet:
        """Register the SLO/burn-rate window with the portlet container."""
        portlet = SLOPortlet(
            self.network,
            self.deployment.endpoints["monitoring"],
            source=self.host,
        )
        self.container.add_local_portlet(portlet)
        return portlet

    # -- the workflow engine (repro.shell) ------------------------------------

    def workflow_runtime(self):
        """The (cached) :class:`~repro.shell.runtime.WorkflowRuntime` binding
        the stage catalog to this deployment's endpoints from this host."""
        if getattr(self, "_workflow_runtime", None) is None:
            from repro.shell.runtime import WorkflowRuntime

            self._workflow_runtime = WorkflowRuntime.from_deployment(
                self.deployment, source=self.host
            )
        return self._workflow_runtime

    def workflow_executor(
        self,
        workflow,
        *,
        run_id: str = "run-0",
        seed: int = 0,
        journal_name: str = "",
        max_width: int = 4,
    ):
        """A journaled :class:`~repro.shell.executor.WorkflowExecutor` for
        *workflow* on this host's disk.

        The journal lives on the UI host's surviving disk, so a crashed
        portal process resumes the run by asking a fresh server for an
        executor with the same ``journal_name`` — the constructor recovers
        completed stages and only unfinished ones are re-driven.  Stage
        attempts pass through the deployment's Globusrun admission
        controller, competing with interactive portal traffic.
        """
        from repro.durability.journal import Journal
        from repro.shell.executor import WorkflowExecutor

        journal = Journal(
            self.network.disk(self.host),
            journal_name or f"wf-{workflow.name}-{run_id}",
            clock=self.network.clock,
        )
        admission = None
        if self.deployment.load is not None:
            admission = self.deployment.load.controllers.get("Globusrun")
        return WorkflowExecutor(
            workflow,
            self.workflow_runtime(),
            journal=journal,
            run_id=run_id,
            seed=seed,
            admission=admission,
            max_width=max_width,
        )

    def add_workflow_portlet(self, store, run: str):
        """Register the provenance-tree window for one workflow run."""
        from repro.shell.portlet import WorkflowPortlet

        portlet = WorkflowPortlet(store, run)
        self.container.add_local_portlet(portlet)
        return portlet

    # -- login --------------------------------------------------------------------------

    def login(self, user: str, password: str) -> ClientSecuritySession:
        session = ClientSecuritySession(
            self.network,
            self.deployment.kdc,
            self.deployment.endpoints["auth"],
            ui_host=self.host,
        )
        session.login(user, password)
        self.sessions[user] = session
        return session

    # -- the portal shell -------------------------------------------------------------------

    def make_shell(self, user: str = "guest") -> PortalShell:
        """Build the tool chest: one command per core-service operation."""
        shell = PortalShell(user)
        appws = self.client("appws")
        globusrun = self.client("globusrun")
        srb = self.client("srb")
        context = self.client("context")

        def cmd_apps(args: list[str], stdin: str) -> str:
            return "\n".join(
                f"{a['name']} {a['version']}: {a['description']}"
                for a in appws.call("list_applications")
            )

        def cmd_describe(args: list[str], stdin: str) -> str:
            require_args(args, 1, "describe <application>")
            return appws.call("get_descriptor", args[0])

        def cmd_genscript(args: list[str], stdin: str) -> str:
            require_args(args, 1, "genscript <scheduler> key=value...")
            scheduler = args[0].upper()
            _pos, params = parse_kv_args(args[1:])
            bsg = self.client("bsg-iu" if scheduler in ("PBS", "GRD") else "bsg-sdsc")
            return bsg.call("generateScript", scheduler, params)

        def cmd_submit(args: list[str], stdin: str) -> str:
            require_args(args, 2, "submit <host> <executable> [args...] [key=value...]")
            positional, settings = parse_kv_args(args)
            host, executable, *rest = positional
            return globusrun.call(
                "run",
                host,
                executable,
                " ".join(rest),
                int(settings.get("count", "1")),
                settings.get("queue", ""),
                int(settings.get("walltime", "3600")),
            )

        def cmd_gridload(args: list[str], stdin: str) -> str:
            rows = self.client("monitoring").call("grid_load")
            return "\n".join(
                f"{row['host']:<18} {row['system']:<4} "
                f"{row['free_cpus']:>4}/{row['cpus']:<4} free  "
                f"run={row['running']} queued={row['queued']}"
                for row in rows
            )

        def cmd_qstat(args: list[str], stdin: str) -> str:
            require_args(args, 1, "qstat <host>")
            rows = self.client("monitoring").call("qstat", args[0])
            if not rows:
                return "(no jobs)"
            return "\n".join(
                f"{row['job_id']:<24} {row['name']:<16} "
                f"{str(row['queue']):<8} {row['state']}"
                for row in rows
            )

        def cmd_validate(args: list[str], stdin: str) -> str:
            require_args(args, 1, "validate <scheduler>  (stdin is the script)")
            scheduler = args[0].upper()
            bsg = self.client("bsg-iu" if scheduler in ("PBS", "GRD") else "bsg-sdsc")
            problems = bsg.call("validateScript", scheduler, stdin)
            if problems:
                raise InvalidRequestError("; ".join(problems))
            return stdin  # pass the validated script downstream

        def cmd_srbls(args: list[str], stdin: str) -> str:
            require_args(args, 1, "srbls <collection>")
            return "\n".join(srb.call("ls", args[0], ""))

        def cmd_srbcat(args: list[str], stdin: str) -> str:
            require_args(args, 1, "srbcat <path>")
            return srb.call("cat", args[0])

        def cmd_srbput(args: list[str], stdin: str) -> str:
            require_args(args, 1, "srbput <path>  (stdin is the content)")
            encoded = base64.b64encode(stdin.encode("utf-8")).decode("ascii")
            size = srb.call("put", args[0], encoded)
            return f"stored {size} bytes at {args[0]}"

        def cmd_archive(args: list[str], stdin: str) -> str:
            require_args(args, 1, "archive <user/problem/session>  (stdin is the descriptor)")
            parts = args[0].strip("/").split("/")
            if len(parts) != 3:
                return "archive path must be user/problem/session"
            context.call("createUserContext", parts[0])
            context.call("createProblemContext", parts[0], parts[1])
            context.call("createSessionContext", *parts)
            context.call("setSessionDescriptor", *parts, stdin)
            return f"archived {len(stdin)} bytes to {args[0]}"

        def cmd_run_app(args: list[str], stdin: str) -> str:
            require_args(args, 2, "runapp <application> <host> key=value...")
            _pos, choices = parse_kv_args(args[2:])
            instance = appws.call("prepare", args[0], args[1], choices)
            appws.call("run", instance)
            return appws.call("get_output", instance)

        shell.register("apps", cmd_apps, "apps - list deployed applications")
        shell.register("describe", cmd_describe,
                       "describe <app> - the application descriptor XML")
        shell.register("genscript", cmd_genscript,
                       "genscript <scheduler> key=value... - batch script generation")
        shell.register("submit", cmd_submit,
                       "submit <host> <exe> [args] - run a job via Globusrun")
        shell.register("gridload", cmd_gridload,
                       "gridload - free cpus and queue depth per resource")
        shell.register("qstat", cmd_qstat, "qstat <host> - the host's job table")
        shell.register("validate", cmd_validate,
                       "validate <scheduler> - validate the script on stdin")
        shell.register("srbls", cmd_srbls, "srbls <collection> - SRB listing")
        shell.register("srbcat", cmd_srbcat, "srbcat <path> - SRB file contents")
        shell.register("srbput", cmd_srbput, "srbput <path> - store stdin in SRB")
        shell.register("archive", cmd_archive,
                       "archive <u/p/s> - store stdin as the session descriptor")
        shell.register("runapp", cmd_run_app,
                       "runapp <app> <host> key=value... - full application run")

        # wire '<' / '>' redirection to the SRB web service
        def read_file(path: str) -> str:
            return srb.call("cat", path)

        def write_file(path: str, data: str) -> None:
            srb.call("put", path, base64.b64encode(data.encode()).decode())

        shell.register_store(read_file, write_file)
        return shell

    # -- portlets over the service UIs -----------------------------------------------------------

    def add_remote_ui_portlet(self, name: str, url: str, *, title: str = "") -> None:
        self.container.registry.register(
            PortletEntry(name=name, type="WebFormPortlet", url=url, title=title)
        )
