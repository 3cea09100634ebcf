"""Tail-based sampling: the policy chain, seeded determinism, and
accounting."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import InvalidRequestError
from repro.observability.collector import TraceCollector
from repro.observability.runtime import Observability
from repro.observability.sampling import (
    KeepErrorsPolicy,
    KeepEventsPolicy,
    LatencyOutlierPolicy,
    ProbabilisticPolicy,
    TailSampler,
    TraceBuffer,
)
from repro.observability.tracer import Span
from repro.resilience import events as resilience_events


def _offer_trace(
    sampler,
    trace_id: str,
    *,
    error: str = "",
    event: str = "",
    duration: float = 0.002,
):
    """One two-span trace through the sampler: child first, root last."""
    child = Span(
        trace_id, f"c{trace_id[:14]}", f"r{trace_id[:14]}",
        "op", "server", "Svc", "svc.example.org", 0.0, duration / 2, error,
    )
    if event:
        child.add_event(0.0, event)
    root = Span(
        trace_id, f"r{trace_id[:14]}", "",
        "call op", "client", "Svc", "portal", 0.0, duration,
    )
    sampler.offer(child)
    sampler.offer(root)


def _sampler(rate: float = 0.0, **kwargs) -> tuple[TailSampler, TraceCollector]:
    sampler = TailSampler(seed=42, rate=rate, **kwargs)
    collector = TraceCollector()
    sampler.bind(collector)
    return sampler, collector


class TestPolicyChain:
    def test_errors_are_always_kept(self):
        sampler, collector = _sampler(rate=0.0)
        _offer_trace(sampler, "a" * 32, error="Portal.Invalid")
        _offer_trace(sampler, "b" * 32)
        assert sampler.kept_traces == 1 and sampler.dropped_traces == 1
        assert sampler.kept_by_policy == {"errors": 1}
        assert {s["trace_id"] for s in collector.spans()} == {"a" * 32}

    def test_resilience_events_keep_a_successful_trace(self):
        sampler, collector = _sampler(rate=0.0)
        _offer_trace(sampler, "c" * 32, event=resilience_events.BREAKER)
        assert sampler.kept_traces == 1
        assert sampler.kept_by_policy == {"events": 1}
        assert len(collector.spans()) == 2

    def test_latency_outliers_are_kept_once_a_baseline_exists(self):
        policy = LatencyOutlierPolicy(quantile=0.99, min_baseline=8)
        sampler = TailSampler(policies=[policy])
        collector = TraceCollector()
        sampler.bind(collector)
        for i in range(20):
            _offer_trace(sampler, f"{i:032x}", duration=0.002)
        _offer_trace(sampler, "f" * 32, duration=5.0)
        assert sampler.kept_by_policy.get("latency-outlier", 0) >= 1
        assert "f" * 32 in {s["trace_id"] for s in collector.spans()}

    def test_outlier_policy_needs_its_baseline_first(self):
        policy = LatencyOutlierPolicy(quantile=0.99, min_baseline=8)
        trace = TraceBuffer("d" * 32)
        trace.root = Span("d" * 32, "r", "", "op", "client", "S", "h", 0.0, 99.0)
        trace.spans = [trace.root]
        # the very first root is enormous, but with no baseline it only
        # feeds the sketch — everything would be an outlier otherwise
        assert policy.decide(trace) is None

    def test_probabilistic_policy_is_a_pure_function_of_id_and_seed(self):
        a = ProbabilisticPolicy(rate=0.3, seed=9)
        b = ProbabilisticPolicy(rate=0.3, seed=9)
        other = ProbabilisticPolicy(rate=0.3, seed=10)
        # the coin hashes the leading 16 hex chars, so vary those
        ids = [f"{i:016x}" + "0" * 16 for i in range(400)]
        decisions_a = [a.decide(TraceBuffer(tid)) is True for tid in ids]
        decisions_b = [b.decide(TraceBuffer(tid)) is True for tid in ids]
        decisions_other = [
            other.decide(TraceBuffer(tid)) is True for tid in ids
        ]
        assert decisions_a == decisions_b
        assert decisions_a != decisions_other
        kept = sum(decisions_a)
        assert 0 < kept < len(ids)  # an actual fraction, not all-or-nothing

    @given(
        st.integers(0, 2**64 - 1),
        st.sampled_from([0.0, 1e-9, 0.05, 1 / 3, 0.5, 0.999, 1.0, 1.5]),
    )
    @settings(max_examples=300, deadline=None)
    def test_coin_keeps_what_the_fractional_coin_kept(self, key, rate):
        # the reference: the hash's top 53 bits as a fraction of one, kept
        # when below the rate (the integer threshold must agree exactly)
        policy = ProbabilisticPolicy(rate=rate, seed=7)
        v = (key ^ 7) & 0xFFFFFFFFFFFFFFFF
        v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        fraction = ((v ^ (v >> 31)) >> 11) * 2.0**-53
        kept = rate >= 1.0 or (rate > 0.0 and fraction < rate)
        trace = TraceBuffer(f"{key:016x}" + "0" * 16)
        assert (policy.decide(trace) is True) == kept

    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_coin_threshold_sits_at_the_rate(self, rate):
        # a hash whose top 53 bits read k is kept when k < below, which
        # must mean exactly k * 2**-53 < rate
        below = ProbabilisticPolicy(rate=rate)._below
        assert below % 2**11 == 0
        below >>= 11
        assert (below - 1) * 2.0**-53 < rate <= below * 2.0**-53

    def test_chain_order_errors_beat_the_coin(self):
        sampler, _ = _sampler(rate=1.0)
        _offer_trace(sampler, "e" * 32, error="Portal.Invalid")
        assert sampler.kept_by_policy == {"errors": 1}


class TestTailSampler:
    def test_kept_traces_export_contiguously(self):
        sampler, collector = _sampler(rate=1.0)
        _offer_trace(sampler, "1" * 32)
        _offer_trace(sampler, "2" * 32)
        order = [s["trace_id"] for s in collector.spans()]
        assert order == ["1" * 32] * 2 + ["2" * 32] * 2

    def test_dropped_traces_never_reach_the_collector(self):
        sampler, collector = _sampler(rate=0.0)
        _offer_trace(sampler, "3" * 32)
        assert len(collector.spans()) == 0
        assert sampler.dropped_traces == 1 and sampler.dropped_spans == 2

    def test_buffer_overflow_decides_the_oldest_incomplete_trace(self):
        sampler, _ = _sampler(rate=0.0, max_buffered_traces=2)
        for i in range(3):  # children only: traces never complete
            tid = f"{i:032x}"
            sampler.offer(Span(tid, f"s{i}", "missing-root", "op",
                               "server", "S", "h", 0.0, 1.0))
        assert sampler.overflow_decisions == 1
        assert sampler.buffered_traces == 2

    def test_flush_decides_everything_still_buffered(self):
        # no collector: the hand-built orphan span is not a trace to export
        sampler = TailSampler(seed=42, rate=0.0)
        sampler.offer(Span("9" * 32, "s", "gone", "op", "server", "S", "h",
                           0.0, 1.0, "Portal.Invalid"))
        assert sampler.buffered_traces == 1
        sampler.flush()
        assert sampler.buffered_traces == 0
        assert sampler.kept_traces == 1  # error policy still applies

    def test_accounting_reconciles_exactly(self):
        sampler, collector = _sampler(rate=0.3)
        for i in range(50):
            _offer_trace(sampler, f"{i:032x}",
                         error="Portal.Invalid" if i % 10 == 0 else "")
        acct = sampler.accounting()
        assert acct["kept_traces"] + acct["dropped_traces"] == 50
        assert acct["kept_spans"] + acct["dropped_spans"] == 100
        assert acct["kept_spans"] == len(collector.spans())
        assert acct["kept_by_policy"]["errors"] == 5
        assert acct["mode"] == "tail"


class TestEndToEnd:
    def test_red_metrics_stay_exact_while_traces_are_sampled(
        self, network, echo_stack
    ):
        """The accounting contract: sampling thins the collector, never
        the RED counters."""
        obs = Observability.install(
            network, seed=3,
            sampling=TailSampler(seed=3, rate=0.0,
                                 min_outlier_baseline=10_000),
        )
        try:
            _, client = echo_stack
            for i in range(20):
                client.call("shout", f"m{i}")
            try:
                client.call("reject", "bad")
            except InvalidRequestError:
                pass
            obs.flush()
            red = obs.metrics.red[("Echo", "shout", "server")]
            assert red.requests == 20 and red.errors == 0
            acct = obs.sampler.accounting()
            assert acct["dropped_traces"] == 20
            assert acct["kept_traces"] == 1  # the error
            kept = {s["trace_id"] for s in obs.collector.spans()}
            assert len(kept) == 1
            errors = [s for s in obs.collector.spans() if s["error"]]
            assert errors, "the kept trace is the failing one"
        finally:
            Observability.uninstall(network)

    def test_same_seed_installs_keep_identical_trace_sets(
        self, network, echo_stack
    ):
        def run() -> list[str]:
            obs = Observability.install(network, seed=11, sampling=True)
            try:
                _, client = echo_stack
                for i in range(30):
                    client.call("shout", f"m{i}")
                obs.flush()
                return sorted(obs.collector.trace_ids())
            finally:
                Observability.uninstall(network)

        assert run() == run()


@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    keys=st.lists(
        st.integers(min_value=0, max_value=2**128 - 1),
        max_size=30, unique=True,
    ),
    rate=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=30, deadline=None)
def test_identical_seeds_keep_identical_trace_sets(seed, keys, rate):
    """The ISSUE's property: the kept-trace set is a pure function of
    (seed, traffic) — no hidden process-global randomness anywhere."""
    ids = [f"{key:032x}" for key in keys]

    def kept() -> list[str]:
        sampler = TailSampler(seed=seed, rate=rate)
        collector = TraceCollector()
        sampler.bind(collector)
        for tid in ids:
            _offer_trace(sampler, tid)
        sampler.flush()
        return collector.trace_ids()

    first, second = kept(), kept()
    assert first == second
    assert set(first) <= set(ids)
