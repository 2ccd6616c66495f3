"""Markdown run-log emitter: request, reasoning traces, initial and final
topologies (Mermaid), per-task table, event timeline and edit summary."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..report import RunReport

_EDGE_ARROWS = {
    "UNCONDITIONAL": "-->",
    "SUCCESS_ONLY": "-->|on success|",
    "CONDITIONAL": "-.->",
}


def mermaid_block(document: Optional[Dict[str, Any]]) -> str:
    lines = ["```mermaid", "graph TD"]
    if document:
        for task in document.get("tasks", []):
            label = f"{task['id']}[\"{task['name']} ({task['device']}) {task['status']}\"]"
            lines.append(f"    {label}")
        for edge in document.get("dependencies", []):
            arrow = _EDGE_ARROWS.get(edge["dep_type"], "-->")
            lines.append(f"    {edge['from_task']} {arrow} {edge['to_task']}")
    lines.append("```")
    return "\n".join(lines)


def emit_markdown_log(report: RunReport) -> str:
    out: List[str] = []
    out.append(f"# Run: {report.request or '(no request)'}")
    out.append("")
    outcome = report.outcome.value if report.outcome else "UNFINISHED"
    out.append(f"**Outcome:** {outcome}  ")
    out.append(f"**Finished at:** {_fmt(report.finished_at)} virtual s  ")
    if report.result:
        out.append(f"**Result:** {report.result}")
    out.append("")

    out.append("## Planner trace")
    out.append("")
    if report.edit_cycles:
        for cycle in report.edit_cycles:
            batch = ", ".join(
                f"{e['kind']}({e.get('task_id', '')})" for e in cycle.batch
            ) or "(empty batch)"
            out.append(f"### Round {cycle.round_index} @ {_fmt(cycle.committed_at)} s")
            out.append("")
            out.append(f"- **Batch:** {batch}")
            out.append(f"- **Observation:** {cycle.observation}")
            out.append(f"- **Thought:** {cycle.thought}")
            out.append(f"- **Next state:** {cycle.next_state}")
            if cycle.summary:
                changes = ", ".join(f"{k}={v}" for k, v in sorted(cycle.summary.items()) if v)
                out.append(f"- **Delta:** {changes or 'no changes'} (version {cycle.version_after})")
            out.append("")
    else:
        out.append("(no planner rounds)")
        out.append("")

    out.append("## Initial constellation")
    out.append("")
    out.append(mermaid_block(report.initial_document))
    out.append("")
    out.append("## Final constellation")
    out.append("")
    out.append(mermaid_block(report.final_document))
    out.append("")

    out.append("## Tasks")
    out.append("")
    out.append("| Task | Device | Status | Start | End | Duration |")
    out.append("|------|--------|--------|-------|-----|----------|")
    final_tasks = (report.final_document or {}).get("tasks", [])
    for task in final_tasks:
        timing = report.timings.get(task["id"])
        if timing is None:
            out.append(f"| {task['id']} | {task['device']} | {task['status']} | — | — | — |")
        else:
            out.append(
                f"| {task['id']} | {task['device']} | {task['status']} "
                f"| {_fmt(timing.dispatched_at)} | {_fmt(timing.finished_at)} "
                f"| {_fmt(timing.duration)} |"
            )
    out.append("")

    out.append("## Event timeline")
    out.append("")
    if report.events:
        for event in report.events:
            detail = ""
            payload = event.get("payload", {})
            if "result" in payload:
                detail = f" — {payload['result']}"
            elif "failure_reason" in payload:
                detail = f" — {payload['failure_reason']}"
            out.append(
                f"- `{_fmt(event['at'])}` {event['kind']} {event.get('task_id', '')}{detail}"
            )
    else:
        out.append("(no events)")
    out.append("")

    out.append("## Edit summary")
    out.append("")
    out.append("| Category | Count |")
    out.append("|----------|-------|")
    for key, count in report.edit_summary_totals.items():
        out.append(f"| {key.replace('_', ' ')} | {count} |")
    out.append("")
    return "\n".join(out)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "—"
    return f"{value:.3f}"
