"""Tests for the labeled metrics registry and its exports."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


def test_counter_inc_and_labels():
    reg = MetricsRegistry()
    c = reg.counter("smc_calls_total", "SMC calls by function.")
    c.inc(func="ree.cma_alloc")
    c.inc(2, func="ree.cma_alloc")
    c.inc(func="ree.npu_submit")
    assert c.value(func="ree.cma_alloc") == 3
    assert c.value(func="ree.npu_submit") == 1
    assert c.value(func="never") == 0.0


def test_counter_rejects_negative():
    c = MetricsRegistry().counter("x_total")
    with pytest.raises(ConfigurationError):
        c.inc(-1)


def test_get_or_create_is_idempotent_and_type_safe():
    reg = MetricsRegistry()
    a = reg.counter("events_total")
    b = reg.counter("events_total")
    assert a is b
    with pytest.raises(ConfigurationError):
        reg.gauge("events_total")
    with pytest.raises(ConfigurationError):
        reg.histogram("events_total")


def test_invalid_names_rejected():
    reg = MetricsRegistry()
    with pytest.raises(ConfigurationError):
        reg.counter("bad name")
    with pytest.raises(ConfigurationError):
        reg.counter("")
    c = reg.counter("ok_total")
    with pytest.raises(ConfigurationError):
        c.inc(**{"0bad": "x"})


def test_gauge_set_inc_dec():
    g = MetricsRegistry().gauge("queue_depth")
    g.set(5, **{"class": "interactive"})
    g.dec(2, **{"class": "interactive"})
    g.inc(1, **{"class": "interactive"})
    assert g.value(**{"class": "interactive"}) == 4


def test_histogram_buckets_are_cumulative():
    reg = MetricsRegistry()
    h = reg.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 0.5, 5.0, 100.0):
        h.observe(v)
    assert h.value() == 5
    assert h.sum() == pytest.approx(106.05)
    text = reg.render()
    assert 'lat_seconds_bucket{le="0.1"} 1' in text
    assert 'lat_seconds_bucket{le="1"} 3' in text
    assert 'lat_seconds_bucket{le="10"} 4' in text
    assert 'lat_seconds_bucket{le="+Inf"} 5' in text
    assert "lat_seconds_count 5" in text
    assert "lat_seconds_sum" in text


def test_histogram_needs_buckets():
    with pytest.raises(ConfigurationError):
        MetricsRegistry().histogram("h", buckets=())


def test_labeled_rebuilds_reason_dicts():
    c = MetricsRegistry().counter("rejected_total")
    c.inc(2, reason="queue-full", **{"class": "batch"})
    c.inc(1, reason="deadline", **{"class": "batch"})
    assert c.labeled("reason") == {"queue-full": 2.0, "deadline": 1.0}


def test_render_is_deterministic_and_schema_stable():
    def build():
        reg = MetricsRegistry()
        reg.counter("b_total", "Bees.").inc(3, kind="b")
        reg.counter("a_total", "Ayes.").inc(kind="z")
        reg.counter("a_total").inc(kind="a")
        reg.gauge("untouched_gauge", "Never set.")
        return reg

    a, b = build().render(), build().render()
    assert a == b
    # Instruments and label sets come out sorted; untouched instruments
    # still expose their schema header.
    assert a.index("# TYPE a_total") < a.index("# TYPE b_total")
    assert a.index('a_total{kind="a"}') < a.index('a_total{kind="z"}')
    assert "# TYPE untouched_gauge gauge" in a


def test_to_dict_round_trips_and_is_stable():
    reg = MetricsRegistry()
    reg.counter("events_total", "Events.").inc(7, site="flash")
    reg.histogram("lat_seconds", buckets=(1.0,)).observe(0.5)
    doc = json.dumps(reg.to_dict(), sort_keys=True)
    assert doc == json.dumps(reg.to_dict(), sort_keys=True)
    parsed = json.loads(doc)
    assert parsed["events_total"]["kind"] == "counter"
    assert parsed["events_total"]["series"] == [
        {"labels": {"site": "flash"}, "value": 7.0}
    ]
    assert parsed["lat_seconds"]["series"][0]["count"] == 1


def test_direct_instrument_classes_validate_names():
    with pytest.raises(ConfigurationError):
        Counter("bad name")
    with pytest.raises(ConfigurationError):
        Gauge("-")
    with pytest.raises(ConfigurationError):
        Histogram("nope!", buckets=(1.0,))


def test_export_stable_under_label_insertion_order():
    # Two registries fed the same series with labels passed in different
    # keyword order and touched in different sequence must export
    # byte-identical text and JSON.
    import json

    a = MetricsRegistry()
    a.counter("req_total").inc(2, model="tiny", lane="tee")
    a.counter("req_total").inc(1, lane="ree", model="big")
    a.gauge("depth").set(3, **{"class": "interactive"})
    a.histogram("lat").observe(0.02, model="tiny", op="decode")

    b = MetricsRegistry()
    b.histogram("lat").observe(0.02, op="decode", model="tiny")
    b.gauge("depth").set(3, **{"class": "interactive"})
    b.counter("req_total").inc(1, model="big", lane="ree")
    b.counter("req_total").inc(2, lane="tee", model="tiny")

    assert a.render() == b.render()
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )


# ----------------------------------------------------------------------
# series-key memo: remembered per call-site label set, never conflating
# ----------------------------------------------------------------------
def test_equal_label_values_that_render_differently_stay_distinct():
    """1, 1.0 and True (and 0.0 / -0.0) are equal dict keys but render
    differently; repeated writes must keep landing on their own series."""
    c = MetricsRegistry().counter("hits_total")
    for _ in range(2):
        for value in (1, 1.0, True, 0.0, -0.0):
            c.inc(v=value)
    assert c.samples() == [
        ((("v", "-0.0"),), 2.0),
        ((("v", "0.0"),), 2.0),
        ((("v", "1"),), 2.0),
        ((("v", "1.0"),), 2.0),
        ((("v", "True"),), 2.0),
    ]


def test_label_order_at_the_call_site_addresses_one_series():
    g = MetricsRegistry().gauge("depth")
    g.set(1, a="x", b="y")
    g.inc(2, b="y", a="x")
    assert g.samples() == [((("a", "x"), ("b", "y")), 3.0)]


def test_invalid_label_name_raises_on_every_call():
    reg = MetricsRegistry()
    for inst, write in (
        (reg.counter("c_total"), lambda i: i.inc(**{"bad-name": "x"})),
        (reg.gauge("g"), lambda i: i.set(1, **{"bad-name": "x"})),
        (reg.histogram("h"), lambda i: i.observe(1.0, **{"bad-name": "x"})),
    ):
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                write(inst)
        assert inst.samples() == []
