"""Child registries: constant labels with one deterministic export."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry


def test_child_writes_land_in_parent_with_constant_label():
    reg = MetricsRegistry()
    dev0 = reg.child(device="dev0")
    dev1 = reg.child(device="dev1")
    dev0.counter("requests_total").inc(3, tenant="a")
    dev1.counter("requests_total").inc(5, tenant="a")
    parent = reg.counter("requests_total")
    assert parent.value(device="dev0", tenant="a") == 3
    assert parent.value(device="dev1", tenant="a") == 5


def test_child_reads_are_scoped_to_own_device():
    reg = MetricsRegistry()
    dev0 = reg.child(device="dev0")
    dev1 = reg.child(device="dev1")
    dev0.counter("shed_total").inc(2, reason="queue-full")
    dev1.counter("shed_total").inc(7, reason="queue-full")
    assert dev0.counter("shed_total").value(reason="queue-full") == 2
    assert dev1.counter("shed_total").value(reason="queue-full") == 7
    # samples() filters to this device's series only.
    assert dev0.counter("shed_total").samples() == [
        ((("device", "dev0"), ("reason", "queue-full")), 2.0)
    ]
    assert dev0.counter("shed_total").labeled("reason") == {"queue-full": 2.0}


def test_histogram_child_observe_and_sum():
    reg = MetricsRegistry()
    dev0 = reg.child(device="dev0")
    hist = dev0.histogram("ttft_seconds", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    assert hist.value() == 2
    assert hist.sum() == pytest.approx(0.55)
    assert reg.histogram("ttft_seconds", buckets=(0.1, 1.0)).value(device="dev0") == 2


def test_render_orders_device_series_deterministically():
    """Label keys are canonically sorted, so the exposition text does not
    depend on which device wrote first."""
    a = MetricsRegistry()
    a.child(device="dev0").counter("reqs").inc()
    a.child(device="dev1").counter("reqs").inc(2)
    b = MetricsRegistry()
    b.child(device="dev1").counter("reqs").inc(2)
    b.child(device="dev0").counter("reqs").inc()
    assert a.render() == b.render()
    lines = [l for l in a.render().splitlines() if l.startswith("reqs{")]
    assert lines == ['reqs{device="dev0"} 1', 'reqs{device="dev1"} 2']


def test_children_nest_and_reject_label_collisions():
    reg = MetricsRegistry()
    dev = reg.child(device="dev0")
    lane = dev.child(lane="interactive")
    lane.counter("spans").inc()
    assert reg.counter("spans").value(device="dev0", lane="interactive") == 1
    with pytest.raises(ConfigurationError):
        dev.child(device="dev1")
    with pytest.raises(ConfigurationError):
        dev.counter("spans").inc(device="other")
    with pytest.raises(ConfigurationError):
        reg.child()


def test_child_get_returns_bound_view_or_none():
    reg = MetricsRegistry()
    dev = reg.child(device="dev0")
    assert dev.get("missing") is None
    dev.counter("up").inc()
    view = dev.get("up")
    assert view.value() == 1
    assert view.name == "up" and view.kind == "counter"


# ----------------------------------------------------------------------
# cached views and their series-key memo
# ----------------------------------------------------------------------
def test_repeated_fetches_return_one_view_writing_one_series():
    reg = MetricsRegistry()
    dev = reg.child(device="dev0")
    first, second = dev.counter("reqs_total"), dev.counter("reqs_total")
    assert first is second is dev.get("reqs_total")
    first.inc(reason="x")
    second.inc(2, reason="x")
    assert reg.counter("reqs_total").samples() == [
        ((("device", "dev0"), ("reason", "x")), 3.0)
    ]


def test_fetching_a_view_creates_no_series_before_the_first_write():
    reg = MetricsRegistry()
    reg.counter("reqs_total", "Requests.")
    reg.histogram("lat_seconds", "Latency.", buckets=(0.1,))
    before = reg.render()
    dev = reg.child(device="dev0")
    dev.counter("reqs_total")
    dev.histogram("lat_seconds", buckets=(0.1,))
    dev.get("reqs_total")
    assert reg.render() == before
    dev.counter("reqs_total").inc()
    assert 'reqs_total{device="dev0"} 1' in reg.render().splitlines()


def test_cached_view_keeps_kind_checks():
    reg = MetricsRegistry()
    dev = reg.child(device="dev0")
    dev.counter("reqs_total").inc()
    with pytest.raises(ConfigurationError):
        dev.gauge("reqs_total")
    with pytest.raises(ConfigurationError):
        dev.histogram("reqs_total")
    assert dev.counter("reqs_total").value() == 1


def test_child_counter_rejects_negative_inc():
    view = MetricsRegistry().child(device="dev0").counter("reqs_total")
    view.inc(2, reason="x")
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            view.inc(-1, reason="x")
    assert view.value(reason="x") == 2


def test_child_label_errors_raise_on_every_call():
    reg = MetricsRegistry()
    view = reg.child(device="dev0").counter("reqs_total")
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            view.inc(**{"bad-name": "x"})
        with pytest.raises(ConfigurationError):
            view.inc(device="dev1")  # redefines the constant label
    assert reg.counter("reqs_total").samples() == []


def test_child_keeps_equal_but_differently_rendered_values_apart():
    reg = MetricsRegistry()
    gauge = reg.child(device="dev0").gauge("level")
    for value in (1, 1.0, True):
        gauge.set(5, v=value)
        gauge.inc(1, v=value)
    assert [dict(key)["v"] for key, _ in gauge.samples()] == ["1", "1.0", "True"]
    assert {value for _, value in gauge.samples()} == {6.0}
