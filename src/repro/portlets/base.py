"""The portlet interface, simple local portlets, and the escaping table
renderer the dashboard portlets share."""

from __future__ import annotations

import html
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence


class Portlet:
    """One component window on a portal page.

    ``render()`` returns the portlet's current HTML fragment.
    ``interact(...)`` handles a user action routed back to this portlet by
    the container (following a link or submitting a form inside the portlet
    window) and returns the new fragment.
    """

    def __init__(self, name: str, title: str = ""):
        self.name = name
        self.title = title or name

    def render(self, container_base: str) -> str:
        raise NotImplementedError

    def interact(
        self,
        container_base: str,
        *,
        target: str,
        method: str = "GET",
        fields: dict[str, str] | None = None,
    ) -> str:
        """Default: interactions just re-render (local portlets rarely care)."""
        return self.render(container_base)


class LocalPortlet(Portlet):
    """A portlet rendering locally generated content ("portlet types exist
    to retrieve both local and remote web content")."""

    def __init__(
        self,
        name: str,
        renderer: Callable[[], str],
        title: str = "",
    ):
        super().__init__(name, title)
        self._renderer = renderer

    def render(self, container_base: str) -> str:
        return self._renderer()


def _esc(value: Any) -> str:
    """Service-returned strings (hostnames, job and principal names, error
    messages, workflow stage names) are untrusted and must not inject
    markup into the portal page."""
    return html.escape(str(value), quote=True)


class Markup(str):
    """A cell the caller has already rendered as HTML, escaping any
    untrusted part itself; :func:`html_table` emits it verbatim."""


class Row(NamedTuple):
    """A table row that carries a ``class`` attribute."""

    css_class: str
    cells: Sequence[Any]


def html_table(
    css_class: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    attrs: Mapping[str, Any] | None = None,
) -> str:
    """One ``<table>``: a header row, then one row per item of *rows*.

    A row is a sequence of cells, or a :class:`Row` to give it a class.
    Every header, cell, row class and attribute value is escaped, except
    cells marked :class:`Markup`.
    """
    extra = "".join(
        f' {key}="{_esc(value)}"' for key, value in (attrs or {}).items()
    )
    out = [f'<table class="{css_class}"{extra}><tr>']
    out.extend(f"<th>{_esc(header)}</th>" for header in headers)
    out.append("</tr>")
    for row in rows:
        row_class, cells = row if isinstance(row, Row) else ("", row)
        out.append(f'<tr class="{_esc(row_class)}">' if row_class else "<tr>")
        out.extend(
            f"<td>{cell if isinstance(cell, Markup) else _esc(cell)}</td>"
            for cell in cells
        )
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)
