"""Engine micro-loops: events/sec through the scheduler hot path.

Three synthetic shapes isolate what real runs do to the event queue:
a rolling one-shot stream (packet dispatch), a bank of self-rearming
periodic timers (netperf generators, MII monitor — the densest load on
the queue), and a cancel-and-rearm loop (interrupt-throttle debris).
"""

from repro.bench import (
    bench_cancel_rearm,
    bench_event_stream,
    bench_periodic_timers,
)

EVENTS = 50_000


def _report(result):
    print(f"\n{result['events']:,} events in {result['seconds']:.3f}s "
          f"= {result['events_per_sec']:,.0f} events/sec")


def test_engine_event_stream(benchmark):
    result = benchmark.pedantic(bench_event_stream, args=(EVENTS,),
                                rounds=3, iterations=1)
    _report(result)
    assert result["events"] >= EVENTS


def test_engine_periodic_timers(benchmark):
    result = benchmark.pedantic(bench_periodic_timers, args=(EVENTS,),
                                rounds=3, iterations=1)
    _report(result)
    assert result["events"] >= EVENTS


def test_engine_cancel_rearm(benchmark):
    result = benchmark.pedantic(bench_cancel_rearm, args=(EVENTS,),
                                rounds=3, iterations=1)
    _report(result)
    assert result["events"] >= EVENTS
