"""Telemetry sinks and the JSONL event schema.

A sink receives flat telemetry *events* (plain dicts): one per span at
export time, one per metric instrument at flush time, plus a leading
``meta`` header.  Two implementations:

- :class:`JsonlSink` — one JSON object per line, append-only, the
  interchange format ``repro-analyze --trace-out`` writes and
  ``repro-trace`` reads;
- :class:`MemorySink` — an in-memory event list for tests.

Event schema (version :data:`SCHEMA`) — documented normatively in
``docs/OBSERVABILITY.md`` and validated by
``benchmarks/check_trace_schema.py``:

``{"event": "meta", "schema": "repro.trace/1", ...}``
    First event of every stream.  Extra keys (tool, arguments,
    timestamps) are free-form.

``{"event": "span", "id": i, "parent": j|null, "name": str,
"start_s": float, "wall_s": float, "attrs": {}, "counters": {}}``
    One per span, parents before children (pre-order), ids unique and
    increasing within the stream; ``start_s`` is relative to the
    span's root.

``{"event": "metric", "kind": "counter"|"gauge", "name": str,
"value": num}`` and ``{"event": "metric", "kind": "histogram",
"name": str, "buckets": [...], "counts": [...], "sum": num,
"count": num}``
    One per registry instrument at flush time.

:func:`write_trace` serializes span forests + a metrics snapshot into
a sink; :func:`read_trace` rebuilds ``(meta, roots, snapshot)`` from a
JSONL file — the round trip the sink tests and ``repro-trace`` rely
on.
"""

from __future__ import annotations

import json

from repro.obs.spans import Span

__all__ = [
    "SCHEMA",
    "Sink",
    "MemorySink",
    "JsonlSink",
    "span_events",
    "metric_events",
    "write_trace",
    "read_trace",
]

#: Schema identifier stamped into every stream's meta event.
SCHEMA = "repro.trace/1"


class Sink:
    """Interface: receives events, then a close."""

    def emit(self, event):
        """Consume one event dict."""
        raise NotImplementedError

    def close(self):
        """Flush and release resources (default: nothing)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class MemorySink(Sink):
    """Collects events in a list (tests, in-process consumers)."""

    def __init__(self):
        self.events = []
        self.closed = False

    def emit(self, event):
        """Append the event."""
        self.events.append(event)

    def close(self):
        """Mark the sink closed."""
        self.closed = True


class JsonlSink(Sink):
    """Writes one JSON object per line to *path* (or a file object)."""

    def __init__(self, path):
        if hasattr(path, "write"):
            self._handle = path
            self._owns = False
        else:
            self._handle = open(path, "w")
            self._owns = True

    def emit(self, event):
        """Serialize the event as one JSONL line."""
        self._handle.write(json.dumps(event, sort_keys=True, default=str))
        self._handle.write("\n")

    def close(self):
        """Flush, and close the handle if this sink opened it."""
        self._handle.flush()
        if self._owns:
            self._handle.close()


def span_events(roots):
    """Flatten span trees into ``span`` events, pre-order, with
    stream-unique ids and parent links."""
    events = []

    def visit(node, parent_id, origin):
        identifier = len(events)
        events.append({
            "event": "span",
            "id": identifier,
            "parent": parent_id,
            "name": node.name,
            "start_s": round(node.started - origin, 9),
            "wall_s": node.wall_s,
            "attrs": dict(node.attrs),
            "counters": dict(node.counters),
        })
        for child in node.children:
            visit(child, identifier, origin)

    for root in roots:
        visit(root, None, root.started)
    return events


def metric_events(snapshot):
    """One ``metric`` event per instrument in a registry snapshot."""
    events = []
    for name, value in snapshot.get("counters", {}).items():
        events.append({
            "event": "metric", "kind": "counter",
            "name": name, "value": value,
        })
    for name, value in snapshot.get("gauges", {}).items():
        if value is not None:
            events.append({
                "event": "metric", "kind": "gauge",
                "name": name, "value": value,
            })
    for name, data in snapshot.get("histograms", {}).items():
        events.append({
            "event": "metric", "kind": "histogram",
            "name": name,
            "buckets": list(data["buckets"]),
            "counts": list(data["counts"]),
            "sum": data["sum"],
            "count": data["count"],
        })
    return events


def write_trace(sink, roots, snapshot=None, meta=None):
    """Emit a full telemetry stream: meta, spans, then metrics.

    *sink* may be a :class:`Sink` or a path (opened as JSONL).
    Returns the number of events emitted.
    """
    if not isinstance(sink, Sink):
        sink = JsonlSink(sink)
    header = {"event": "meta", "schema": SCHEMA}
    header.update(meta or {})
    count = 0
    with sink:
        sink.emit(header)
        count += 1
        for event in span_events(roots):
            sink.emit(event)
            count += 1
        if snapshot is not None:
            for event in metric_events(snapshot):
                sink.emit(event)
                count += 1
    return count


def read_trace(path):
    """Parse a JSONL telemetry stream back into
    ``(meta, roots, snapshot)`` — the inverse of :func:`write_trace`.

    Unknown event types are ignored (forward compatibility); a missing
    or foreign meta event raises ``ValueError``.
    """
    meta = None
    spans = {}
    roots = []
    snapshot = {"counters": {}, "gauges": {}, "histograms": {}}
    with open(path) as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                raise ValueError(
                    "%s:%d: not valid JSON" % (path, line_number)
                ) from None
            kind = event.get("event")
            if kind == "meta":
                if meta is None:
                    meta = event
                continue
            if kind == "span":
                node = Span(event["name"], event.get("attrs") or {})
                node.counters = event.get("counters")
                node.started = event.get("start_s", 0.0)
                node.wall_s = event.get("wall_s", 0.0)
                spans[event["id"]] = node
                parent = event.get("parent")
                if parent is None:
                    roots.append(node)
                else:
                    spans[parent].add_child(node)
                continue
            if kind == "metric":
                if event.get("kind") == "counter":
                    snapshot["counters"][event["name"]] = event["value"]
                elif event.get("kind") == "gauge":
                    snapshot["gauges"][event["name"]] = event["value"]
                elif event.get("kind") == "histogram":
                    snapshot["histograms"][event["name"]] = {
                        "buckets": event["buckets"],
                        "counts": event["counts"],
                        "sum": event["sum"],
                        "count": event["count"],
                    }
    if meta is None or meta.get("schema") != SCHEMA:
        raise ValueError(
            "%s: missing or unrecognized meta event (expected schema %r)"
            % (path, SCHEMA)
        )
    return meta, roots, snapshot
