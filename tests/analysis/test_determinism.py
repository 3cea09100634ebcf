"""DeterminismChecker: REP101-REP104."""

from repro.analysis.checkers.determinism import DeterminismChecker

from tests.analysis.conftest import codes


def run(analyze, code):
    return analyze({"mod.py": code}, checkers=[DeterminismChecker()])


def test_wall_clock_direct_and_aliased(analyze):
    result = run(analyze, """\
        import time
        import time as t
        from time import sleep


        def f():
            sleep(1)
            return time.time() + t.monotonic()
    """)
    assert codes(result) == ["REP101", "REP101", "REP101"]


def test_datetime_ambient_constructors(analyze):
    result = run(analyze, """\
        from datetime import date, datetime


        def f():
            return datetime.utcnow(), date.today()
    """)
    assert codes(result) == ["REP102", "REP102"]


def test_unseeded_randomness(analyze):
    result = run(analyze, """\
        import random


        def f():
            rng = random.Random()
            return rng.random() + random.randint(0, 5)
    """)
    assert codes(result) == ["REP103", "REP103"]


def test_seeded_random_is_clean(analyze):
    result = run(analyze, """\
        import random


        def f(seed):
            rng = random.Random(seed)
            return rng.random()
    """)
    assert codes(result) == []


def test_argless_random_instance_drawn_inline(analyze):
    # the unseeded constructor is flagged; the draw chained onto it is
    # not a second finding
    result = run(analyze, """\
        import random


        class LazyPolicy:
            def decide(self, trace):
                return "lazy" if random.Random().random() < 0.5 else None
    """)
    assert codes(result) == ["REP103"]


def test_seeded_generator_held_on_an_attribute_is_clean(analyze):
    result = run(analyze, """\
        import random


        class SeededPolicy:
            def __init__(self, seed):
                self.rng = random.Random(seed)

            def decide(self, trace):
                return "seeded" if self.rng.random() < 0.5 else None
    """)
    assert codes(result) == []


def test_registry_view_iteration_flagged_sorted_clean(analyze):
    result = run(analyze, """\
        def bad(self):
            return [k for k, v in self.registry.items()]


        def good(self):
            return [k for k, v in sorted(self.registry.items())]
    """)
    assert codes(result) == ["REP104"]
    assert result.findings[0].line == 2


def test_list_iteration_without_view_is_clean(analyze):
    # XmlElement.children and BusinessService.bindings are ordered lists;
    # only an explicit dict view proves a mapping is being iterated.
    result = run(analyze, """\
        def render(node):
            return [child.tag for child in node.children]
    """)
    assert codes(result) == []


def test_for_loop_over_lanes_values_flagged(analyze):
    result = run(analyze, """\
        def drain(self):
            for lane in self.lanes.values():
                lane.pump()
    """)
    assert codes(result) == ["REP104"]
