"""Phase-attributed trace reports (``repro trace summarize/compare``).

The interpreter analogue of the paper's Table IV kernel breakdown: given a
trace file, attribute recorded time to phases (selection, merge, dispatch,
transfer, ...) and render where a run actually spent itself — the question
every perf regression investigation starts with. ``compare`` diffs two
traces phase by phase, the reading-a-trace counterpart of
``repro bench compare``.

Attribution is over *self* time, so nested spans are never counted twice.
Span nesting is declared, not guessed from timestamps:

* ``iteration`` and ``level`` are envelopes (:data:`ENCLOSING_SPANS`): they
  enclose the per-phase spans, are reported as their own rows, and take no
  share.
* ``selection`` and ``merge`` run inside ``dispatch`` on the host fused path
  (:data:`NESTED_SPANS`): ``dispatch`` is reported at its self time, its
  total minus its children's.

Shares are every other phase's self time over their sum, so they add up to
100% of the attributed time.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .trace_file import TraceDoc
from .tracer import TraceEvent

__all__ = ["phase_breakdown", "phase_self_times", "render_summary",
           "render_compare"]

#: Envelope spans that enclose the phase spans; reported, never shared.
ENCLOSING_SPANS = ("iteration", "level")

#: Declared span nesting: child phase -> the phase span that encloses it.
#: ``run_iteration_host`` emits ``selection`` and ``merge`` per chunk inside
#: the engine's per-iteration ``dispatch`` span.
NESTED_SPANS = {"selection": "dispatch", "merge": "dispatch"}


def phase_breakdown(events: Sequence[TraceEvent]
                    ) -> Dict[str, Tuple[int, int, float]]:
    """Per-phase ``(events, units, total_seconds)`` in first-seen order."""
    out: Dict[str, Tuple[int, int, float]] = {}
    for event in events:
        n_events, units, total = out.get(event.name, (0, 0, 0.0))
        out[event.name] = (n_events + 1, units + int(event.count),
                           total + float(event.dur))
    return out


def phase_self_times(breakdown: Dict[str, Tuple[int, int, float]]
                     ) -> Dict[str, float]:
    """Self seconds of every non-envelope phase: its total minus the totals
    of the phases nested in it (:data:`NESTED_SPANS`), never below zero."""
    children: Dict[str, float] = {}
    for child, parent in NESTED_SPANS.items():
        if child in breakdown:
            children[parent] = children.get(parent, 0.0) + breakdown[child][2]
    return {name: max(total - children.get(name, 0.0), 0.0)
            for name, (_, _, total) in breakdown.items()
            if name not in ENCLOSING_SPANS}


def _format_rows(headers: List[str], rows: List[List[str]]) -> str:
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
              else len(headers[i]) for i in range(len(headers))]
    def line(cells: List[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) if i == 0 else
                         cell.rjust(widths[i]) for i, cell in enumerate(cells))
    rule = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), rule] + [line(r) for r in rows])


def _workers_in(events: Sequence[TraceEvent]) -> List[str]:
    return sorted({e.labels["worker"] for e in events if "worker" in e.labels})


def render_summary(doc: TraceDoc, source: Optional[str] = None) -> str:
    """Human-readable per-phase breakdown of one trace."""
    breakdown = phase_breakdown(doc.events)
    self_times = phase_self_times(breakdown)
    attributed = sum(self_times.values())
    rows: List[List[str]] = []
    ordered = sorted(breakdown.items(),
                     key=lambda kv: -self_times.get(kv[0], kv[1][2]))
    for name, (n_events, units, total) in ordered:
        own = self_times.get(name)
        share = (f"{100.0 * own / attributed:.1f}%"
                 if own is not None and attributed > 0 else "-")
        rows.append([name, str(n_events), str(units), f"{total * 1e3:.2f}",
                     "-" if own is None else f"{own * 1e3:.2f}", share])
    meta = doc.meta
    head = [f"trace{f' {source}' if source else ''}: "
            f"schema {doc.schema_version}, {len(doc.events)} event(s)"
            + (f", {doc.dropped} dropped" if doc.dropped else "")]
    described = ", ".join(f"{k}={meta[k]}" for k in sorted(meta))
    if described:
        head.append(f"meta: {described}")
    workers = _workers_in(doc.events)
    if workers:
        head.append(f"workers: {', '.join(workers)}")
    table = _format_rows(["phase", "events", "units", "total ms", "self ms",
                          "share"], rows)
    return "\n".join(head + [table])


def render_compare(old: TraceDoc, new: TraceDoc) -> str:
    """Phase-by-phase diff of two traces (old -> new), in self time for
    phases and total time for the envelopes."""
    def seconds(doc: TraceDoc) -> Tuple[Dict[str, float], float]:
        breakdown = phase_breakdown(doc.events)
        self_times = phase_self_times(breakdown)
        per_phase = {name: self_times.get(name, total)
                     for name, (_, _, total) in breakdown.items()}
        return per_phase, sum(self_times.values())

    old_phases, old_total = seconds(old)
    new_phases, new_total = seconds(new)
    names = list(old_phases)
    names.extend(n for n in new_phases if n not in old_phases)
    rows: List[List[str]] = []
    for name in sorted(names, key=lambda n: -(new_phases.get(n, 0.0)
                                              or old_phases.get(n, 0.0))):
        old_s = old_phases.get(name, 0.0)
        new_s = new_phases.get(name, 0.0)
        ratio = f"{new_s / old_s:.2f}x" if old_s > 0 else "-"
        rows.append([name, f"{old_s * 1e3:.2f}", f"{new_s * 1e3:.2f}", ratio])
    total_ratio = (f"{new_total / old_total:.2f}x" if old_total > 0 else "-")
    head = (f"trace compare: {len(old.events)} -> {len(new.events)} event(s), "
            f"attributed {old_total * 1e3:.2f} -> {new_total * 1e3:.2f} ms "
            f"({total_ratio})")
    table = _format_rows(["phase", "old ms", "new ms", "ratio"], rows)
    return "\n".join([head, table])
