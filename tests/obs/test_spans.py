"""Spans and tracers: nesting, exception safety, ambient attachment."""

import pickle

import pytest

from repro.obs import Span, Tracer, activate, active_tracer, span


class TestSpanBasics:
    def test_counters_accumulate(self):
        node = Span("work")
        node.inc("rows")
        node.inc("rows", 4)
        assert node.counters == {"rows": 5}

    def test_attrs_cleaned_to_json_atomic(self):
        node = Span("work", {"n": 3, "ok": True, "what": ("a", 1)})
        assert node.attrs["n"] == 3
        assert node.attrs["ok"] is True
        assert node.attrs["what"] == "('a', 1)"
        node.set(obj=object())
        assert isinstance(node.attrs["obj"], str)

    def test_walk_is_preorder(self):
        root = Span("r")
        a, b, c = Span("a"), Span("b"), Span("c")
        root.children = [a, b]
        a.children = [c]
        assert [s.name for s in root.walk()] == ["r", "a", "c", "b"]
        assert [s.name for s in root.find("c")] == ["c"]

    def test_self_time_excludes_children(self):
        root = Span("r")
        root.wall_s = 1.0
        child = Span("c")
        child.wall_s = 0.25
        root.children = [child]
        assert root.self_s == pytest.approx(0.75)

    def test_dict_round_trip(self):
        root = Span("r", {"k": "v"})
        root.started = 10.0
        root.wall_s = 1.0
        child = Span("c")
        child.started = 10.5
        child.wall_s = 0.25
        child.inc("rows", 3)
        root.children = [child]
        twin = Span.from_dict(root.to_dict())
        assert twin.name == "r"
        assert twin.attrs == {"k": "v"}
        assert twin.children[0].counters == {"rows": 3}
        assert twin.children[0].started == pytest.approx(0.5)
        assert twin.children[0].wall_s == pytest.approx(0.25)


    def test_bare_span_round_trips_unchanged(self, tmp_path):
        # No counters and no children: dict, pickle and repro.trace/1
        # forms still carry an empty mapping and an empty list.
        from repro.obs.sinks import read_trace, span_events, write_trace

        bare = Span("leaf", {"k": 1})
        bare.started = 2.0
        bare.wall_s = 0.5
        expected = {
            "name": "leaf", "start_s": 0.0, "wall_s": 0.5,
            "attrs": {"k": 1}, "counters": {}, "children": [],
        }
        assert bare.to_dict() == expected
        assert Span.from_dict(expected).to_dict() == expected
        assert pickle.loads(pickle.dumps(bare)).to_dict() == expected
        assert bare.counters == {} and list(bare.children) == []
        [event] = span_events([bare])
        assert event["counters"] == {}
        path = tmp_path / "bare.jsonl"
        write_trace(path, [bare])
        _, [twin], _ = read_trace(path)
        assert twin.to_dict() == expected
        assert span_events([twin]) == [event]

    def test_empty_containers_are_read_only(self):
        bare = Span("leaf")
        with pytest.raises(TypeError):
            bare.counters["rows"] = 1
        with pytest.raises(AttributeError):
            bare.children.append(Span("child"))
        bare.inc("rows")
        bare.add_child(Span("child"))
        assert bare.counters == {"rows": 1}
        assert [child.name for child in bare.children] == ["child"]

class TestTracerNesting:
    def test_parent_child_links(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        assert [r.name for r in tracer.roots] == ["outer"]
        assert [c.name for c in tracer.roots[0].children] == [
            "inner", "sibling",
        ]

    def test_wall_time_recorded(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.roots[0], tracer.roots[0].children[0]
        assert outer.wall_s >= inner.wall_s >= 0.0

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer._stack == []
        assert active_tracer() is None
        inner = tracer.roots[0].children[0]
        assert inner.wall_s > 0.0

    def test_pickle_drops_open_stack(self):
        tracer = Tracer()
        with tracer.span("done"):
            pass
        with tracer.span("open"):
            clone = pickle.loads(pickle.dumps(tracer))
        assert [r.name for r in clone.roots] == ["done", "open"]
        assert clone._stack == []

    def test_adopt_grafts_roots(self):
        ours, theirs = Tracer(), Tracer()
        with theirs.span("imported"):
            pass
        ours.adopt(theirs.roots)
        assert [s.name for s in ours.iter_spans()] == ["imported"]


class TestAmbientSpan:
    def test_detached_without_tracer(self):
        assert active_tracer() is None
        with span("orphan") as node:
            node.inc("rows", 2)
        assert node.counters == {"rows": 2}

    def test_attaches_under_open_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with span("library.work", kind="test") as node:
                node.inc("rows")
        child = tracer.roots[0].children[0]
        assert child is node
        assert child.attrs == {"kind": "test"}

    def test_activate_without_open_span(self):
        tracer = Tracer()
        with activate(tracer):
            with span("rootless"):
                pass
        assert active_tracer() is None
        assert [r.name for r in tracer.roots] == ["rootless"]

    def test_nested_tracers_restore_previous(self):
        outer_tracer, inner_tracer = Tracer(), Tracer()
        with outer_tracer.span("outer"):
            with inner_tracer.span("detour"):
                assert active_tracer() is inner_tracer
            assert active_tracer() is outer_tracer
            with span("back") as node:
                pass
        assert node in outer_tracer.roots[0].children
