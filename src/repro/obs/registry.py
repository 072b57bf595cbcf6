"""Labeled metric instruments and the registry that owns them.

The design follows the Prometheus client-library model, shrunk to what a
deterministic simulation needs:

* Instruments are **created once** through the registry
  (:meth:`MetricsRegistry.counter` / ``gauge`` / ``histogram``) and are
  get-or-create: asking twice for the same name returns the same object,
  asking for the same name with a different type raises
  :class:`~repro.errors.ConfigurationError`.
* Every instrument supports **labels** passed as keyword arguments
  (``counter.inc(func="tee.llm.infer")``).  A label set addresses an
  independent time series inside the instrument.  ``class`` is a Python
  keyword, so call sites pass it as ``inc(**{"class": "interactive"})``.
* Export is deterministic: :meth:`MetricsRegistry.render` produces
  Prometheus text exposition with instruments and label sets sorted, and
  :meth:`MetricsRegistry.to_dict` produces a JSON-stable structure
  (``json.dumps(reg.to_dict(), sort_keys=True)`` is byte-identical for
  identical runs).

No wall-clock time is read anywhere; values only change when the
simulated system calls in.
"""

import re

from ..errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ChildRegistry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

# Default bucket boundaries (seconds) tuned for simulated latencies that
# span microsecond SMC round-trips up to multi-second model loads.
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _check_name(name):
    if not _NAME_RE.match(name or ""):
        raise ConfigurationError("invalid metric name %r" % (name,))


def _label_key(labels):
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ConfigurationError("invalid label name %r" % (key,))
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key):
    if not key:
        return ""
    return "{%s}" % ",".join('%s="%s"' % (k, v) for k, v in key)


def _fmt(value):
    """Render a float the way Prometheus text exposition expects."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Instrument:
    """Base class: one named instrument holding one series per label set."""

    kind = "untyped"

    __slots__ = ("name", "help", "_values", "_keys")

    def __init__(self, name, help=""):
        _check_name(name)
        self.name = name
        self.help = help
        self._values = {}
        self._keys = {}

    def _key(self, labels):
        """The canonical series key of a write's labels, memoized per
        call-site label set.

        The memo is keyed on the label names in call order plus each
        value *as rendered*, so values that compare equal but render
        differently (``1``, ``1.0``, ``True``) never share an entry.
        Invalid label names raise before anything is stored, so they
        raise on every call.
        """
        raw = (*labels, *map(str, labels.values()))
        key = self._keys.get(raw)
        if key is None:
            key = self._keys[raw] = _label_key(labels)
        return key

    def value(self, **labels):
        """Current value for a label set (0.0 when never touched)."""
        return self._values.get(_label_key(labels), 0.0)

    def samples(self):
        """All (label_key, value) pairs, sorted for determinism.

        Sorted on the label key alone: histogram values are dicts, which
        must never participate in the comparison, and label keys are
        already canonical (``_label_key`` sorts label names), so the
        order is independent of label insertion order at the call site.
        """
        return sorted(self._values.items(), key=lambda kv: kv[0])

    def labeled(self, label_name):
        """Map from one label's value to the series value.

        Convenience for rebuilding ``{"queue-full": 2}``-style dicts from
        a counter labeled by reason: ``counter.labeled("reason")``.
        """
        out = {}
        for key, value in self._values.items():
            for k, v in key:
                if k == label_name:
                    out[v] = out.get(v, 0.0) + value
        return out


class Counter(_Instrument):
    """Monotonically increasing count (events, bytes, retries)."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount=1, **labels):
        """Add ``amount`` (must be >= 0) to the label set's series."""
        self._inc(self._key(labels), amount)

    def _inc(self, key, amount):
        if amount < 0:
            raise ConfigurationError(
                "counter %s cannot decrease (inc %r)" % (self.name, amount)
            )
        self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Instrument):
    """A value that can go up and down (queue depth, open breakers)."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value, **labels):
        """Set the label set's series to ``value``."""
        self._set(self._key(labels), value)

    def _set(self, key, value):
        self._values[key] = float(value)

    def inc(self, amount=1, **labels):
        """Add ``amount`` (may be negative) to the label set's series."""
        self._inc(self._key(labels), amount)

    def _inc(self, key, amount):
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount=1, **labels):
        """Subtract ``amount`` from the label set's series."""
        self.inc(-amount, **labels)


class Histogram(_Instrument):
    """Cumulative-bucket histogram (Prometheus ``le`` convention)."""

    kind = "histogram"
    __slots__ = ("buckets",)

    def __init__(self, name, help="", buckets=DEFAULT_BUCKETS):
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ConfigurationError("histogram %s needs >= 1 bucket" % name)
        self.buckets = bounds

    def observe(self, value, **labels):
        """Record one observation into the label set's series."""
        self._observe(self._key(labels), value)

    def _observe(self, key, value):
        series = self._values.get(key)
        if series is None:
            series = {"buckets": [0] * len(self.buckets), "sum": 0.0, "count": 0}
            self._values[key] = series
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                series["buckets"][i] += 1
        series["sum"] += value
        series["count"] += 1

    def value(self, **labels):
        """Observation count for a label set (0 when never touched)."""
        series = self._values.get(_label_key(labels))
        return 0 if series is None else series["count"]

    def sum(self, **labels):
        """Sum of observations for a label set."""
        series = self._values.get(_label_key(labels))
        return 0.0 if series is None else series["sum"]


class _BoundInstrument:
    """An instrument view that injects constant labels on every call.

    Writes (``inc``/``set``/``dec``/``observe``) merge the constant
    labels into the call-site labels; reads (``value``/``sum``/
    ``samples``/``labeled``) address only the series carrying the
    constant labels — so a per-device view never counts another device's
    series.  The underlying series live in the *parent* instrument,
    which keeps one ``render()``/``to_dict()`` export covering every
    device with the registry's usual deterministic ordering (label keys
    are canonically sorted, so ``device`` interleaves alphabetically no
    matter which device wrote first).

    Writes memoize the full series key per call-site label set (see
    :meth:`_Instrument._key`) and go straight to the parent's series.
    """

    __slots__ = ("_inst", "_constant", "_keys")

    def __init__(self, inst, constant):
        self._inst = inst
        self._constant = dict(constant)
        self._keys = {}

    # -- passthrough identity ------------------------------------------
    @property
    def name(self):
        return self._inst.name

    @property
    def kind(self):
        return self._inst.kind

    @property
    def help(self):
        return self._inst.help

    @property
    def buckets(self):
        return self._inst.buckets  # histograms only; AttributeError otherwise

    def _merge(self, labels):
        for key in labels:
            if key in self._constant:
                raise ConfigurationError(
                    "label %r on %s is constant in this child registry"
                    % (key, self._inst.name)
                )
        merged = dict(self._constant)
        merged.update(labels)
        return merged

    def _key(self, labels):
        """Like :meth:`_Instrument._key`, with the constant labels merged
        in; a label that redefines one raises on every call."""
        raw = (*labels, *map(str, labels.values()))
        key = self._keys.get(raw)
        if key is None:
            key = self._keys[raw] = _label_key(self._merge(labels))
        return key

    # -- writes --------------------------------------------------------
    def inc(self, amount=1, **labels):
        self._inst._inc(self._key(labels), amount)

    def set(self, value, **labels):
        self._inst._set(self._key(labels), value)

    def dec(self, amount=1, **labels):
        self.inc(-amount, **labels)

    def observe(self, value, **labels):
        self._inst._observe(self._key(labels), value)

    # -- reads ---------------------------------------------------------
    def value(self, **labels):
        return self._inst.value(**self._merge(labels))

    def sum(self, **labels):
        return self._inst.sum(**self._merge(labels))

    def samples(self):
        """Parent samples restricted to series carrying the constant labels."""
        want = set(_label_key(self._constant))
        return [(key, value) for key, value in self._inst.samples() if want <= set(key)]

    def labeled(self, label_name):
        out = {}
        for key, value in self.samples():
            for k, v in key:
                if k == label_name:
                    out[v] = out.get(v, 0.0) + value
        return out


class ChildRegistry:
    """A registry view that stamps constant labels onto every instrument.

    ``registry.child(device="dev0")`` gives a subsystem its own handle;
    everything it records lands in the parent's instruments with
    ``device="dev0"`` attached, so per-device series aggregate in one
    deterministic Prometheus export.  Children nest (labels merge) and
    may not redefine a parent label.  Each instrument gets one view per
    child, made on first request and handed out on every later one.
    """

    def __init__(self, parent, constant_labels):
        key = _label_key(constant_labels)  # validates label names
        if not key:
            raise ConfigurationError("child registry needs at least one label")
        self.parent = parent
        self.constant_labels = dict(constant_labels)
        self._views = {}

    def _view(self, cls, name, help, **kwargs):
        view = self._views.get(name)
        if view is None or not isinstance(view._inst, cls):
            # On a kind mismatch the parent raises ConfigurationError.
            inst = self.parent._get_or_create(cls, name, help, **kwargs)
            view = self._views[name] = _BoundInstrument(inst, self.constant_labels)
        return view

    def counter(self, name, help=""):
        return self._view(Counter, name, help)

    def gauge(self, name, help=""):
        return self._view(Gauge, name, help)

    def histogram(self, name, help="", buckets=DEFAULT_BUCKETS):
        return self._view(Histogram, name, help, buckets=buckets)

    def get(self, name):
        inst = self.parent.get(name)
        return None if inst is None else self._view(type(inst), name, inst.help)

    def child(self, **labels):
        for key in labels:
            if key in self.constant_labels:
                raise ConfigurationError(
                    "child registry already fixes label %r" % (key,)
                )
        merged = dict(self.constant_labels)
        merged.update(labels)
        return ChildRegistry(self.parent, merged)

    # Exports always cover the whole parent namespace — a child is a
    # write/read view, not a separate store.
    def render(self):
        return self.parent.render()

    def to_dict(self):
        return self.parent.to_dict()

    def instruments(self):
        return self.parent.instruments()


class MetricsRegistry:
    """One namespace of instruments shared by every subsystem.

    The whole stack — flash, CMA, secure monitor, TEE NPU co-driver,
    pipeline, serving gateway — registers into a single registry so one
    :meth:`render` call exposes the entire system state.
    """

    def __init__(self):
        self._instruments = {}

    def child(self, **labels) -> "ChildRegistry":
        """A view of this registry with ``labels`` attached to every
        series it writes or reads — e.g. ``registry.child(device="d0")``
        for per-device serving metrics that still export together."""
        return ChildRegistry(self, labels)

    def _get_or_create(self, cls, name, help, **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigurationError(
                    "metric %s already registered as %s, requested %s"
                    % (name, existing.kind, cls.kind)
                )
            return existing
        instrument = cls(name, help, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name, help=""):
        """Get or create a :class:`Counter` named ``name``."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name, help=""):
        """Get or create a :class:`Gauge` named ``name``."""
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name, help="", buckets=DEFAULT_BUCKETS):
        """Get or create a :class:`Histogram` named ``name``."""
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name):
        """Look up an instrument by name (None when absent)."""
        return self._instruments.get(name)

    def instruments(self):
        """All instruments sorted by name."""
        return [self._instruments[k] for k in sorted(self._instruments)]

    def render(self):
        """Prometheus text exposition for every instrument.

        Untouched instruments (no samples yet) still appear with their
        ``# HELP`` / ``# TYPE`` header so scrapes see a stable schema.
        """
        lines = []
        for inst in self.instruments():
            if inst.help:
                lines.append("# HELP %s %s" % (inst.name, inst.help))
            lines.append("# TYPE %s %s" % (inst.name, inst.kind))
            if isinstance(inst, Histogram):
                for key, series in inst.samples():
                    # Stored bucket counts are already cumulative (<= bound).
                    for bound, cumulative in zip(inst.buckets, series["buckets"]):
                        bkey = key + (("le", _fmt(bound)),)
                        lines.append(
                            "%s_bucket%s %d"
                            % (inst.name, _render_labels(tuple(sorted(bkey))), cumulative)
                        )
                    inf_key = key + (("le", "+Inf"),)
                    lines.append(
                        "%s_bucket%s %d"
                        % (inst.name, _render_labels(tuple(sorted(inf_key))), series["count"])
                    )
                    lines.append(
                        "%s_sum%s %s" % (inst.name, _render_labels(key), _fmt(series["sum"]))
                    )
                    lines.append(
                        "%s_count%s %d" % (inst.name, _render_labels(key), series["count"])
                    )
            else:
                for key, value in inst.samples():
                    lines.append("%s%s %s" % (inst.name, _render_labels(key), _fmt(value)))
        return "\n".join(lines) + "\n"

    def to_dict(self):
        """JSON-stable export: name -> {kind, help, series}."""
        out = {}
        for inst in self.instruments():
            if isinstance(inst, Histogram):
                series = [
                    {
                        "labels": dict(key),
                        "buckets": list(zip(map(_fmt, inst.buckets), s["buckets"])),
                        "sum": s["sum"],
                        "count": s["count"],
                    }
                    for key, s in inst.samples()
                ]
            else:
                series = [
                    {"labels": dict(key), "value": value} for key, value in inst.samples()
                ]
            out[inst.name] = {"kind": inst.kind, "help": inst.help, "series": series}
        return out
