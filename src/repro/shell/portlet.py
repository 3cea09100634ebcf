"""The workflow window: a portlet rendering a run's provenance tree.

A *local* portlet by design: the provenance store lives with the executor
on the UI host (its journal is the UI host's disk), so there is no SOAP
hop to make — the portlet walks the same sealed records the offline
reporter does and renders them as nested lists.  Unlike the reporter's
byte-identity tree, the portlet may show the trace side channel: each
sealed stage links its exemplar trace id, giving the operator a jump
from a provenance node to the span waterfall that produced it.
"""

from __future__ import annotations

from repro.portlets.base import Portlet, _esc
from repro.shell.provenance import ProvenanceStore


class WorkflowPortlet(Portlet):
    """Render one run's provenance chain as a tree of stage nodes."""

    def __init__(
        self,
        store: ProvenanceStore,
        run: str,
        *,
        name: str = "workflow",
        title: str = "Workflow Provenance",
    ):
        super().__init__(name, title)
        self.store = store
        self.run = run

    def render(self, container_base: str) -> str:
        by_stage: dict[str, tuple[str, dict]] = {}
        for address, record in self.store.records().items():
            if record.get("run") == self.run:
                by_stage[record["stage"]] = (address, record)
        children: dict[str, list[str]] = {stage: [] for stage in by_stage}
        roots: list[str] = []
        for stage in sorted(by_stage):
            _, record = by_stage[stage]
            parents = sorted(
                name for name in record.get("parents", {}) if name in by_stage
            )
            if parents:
                children[parents[0]].append(stage)
            else:
                roots.append(stage)
        problems = self.store.verify()
        chain = (
            '<p class="ok">chain verified</p>'
            if not problems
            else f'<p class="error">chain broken: {_esc("; ".join(problems))}</p>'
        )
        out = [
            f"<h3>{_esc(self.title)}</h3>",
            f"<p>run {_esc(self.run)}: {len(by_stage)} sealed stage(s)</p>",
            chain,
        ]

        def node(stage: str) -> str:
            address, record = by_stage[stage]
            status = record.get("status", "ok")
            cells = [
                f"<b>{_esc(stage)}</b>",
                f"<i>{_esc(record.get('kind', '?'))}</i>",
                f'<span class="{_esc(status)}">{_esc(status)}</span>',
                f"<code>{_esc(address[:16])}</code>",
            ]
            if status != "ok":
                code = record.get("error", {}).get("code", "?")
                cells.append(f'<span class="error">{_esc(code)}</span>')
            trace = self.store.exemplar(address)
            if trace:
                cells.append(f"<small>trace {_esc(trace)}</small>")
            line = "<li>" + " ".join(cells)
            kids = sorted(children[stage])
            if kids:
                line += "<ul>" + "".join(node(kid) for kid in kids) + "</ul>"
            return line + "</li>"

        out.append("<ul>" + "".join(node(root) for root in sorted(roots)) + "</ul>")
        return "\n".join(out)
