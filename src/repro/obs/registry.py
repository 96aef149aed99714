"""Dependency-free metrics registry: counters, gauges, histograms.

The registry is the numeric half of the observability layer
(:mod:`repro.obs`): long-running drivers (``ContinuousMonitor``, the
Monte-Carlo grid, multi-reader sweeps) increment named metrics while they
execute, so progress is visible *during* a run instead of only in the
post-hoc trace analysis of :mod:`repro.sim.metrics`.

Model (a deliberately small subset of the Prometheus data model):

* a **metric family** has a name, a help string, a metric type and a fixed
  tuple of label names;
* each distinct label-value combination owns one **child** holding the
  actual number(s); a family with no labels has a single anonymous child
  and forwards ``inc``/``set``/``observe`` to it directly;
* families are get-or-create: ``registry.counter("x")`` returns the same
  object every time, and re-registering a name with a different type or
  label set is an error.

Two export formats, both loss-free over the counters:

* :meth:`MetricsRegistry.to_prometheus` -- the Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` / ``name{label="v"} value``);
* :meth:`MetricsRegistry.to_dict` / :meth:`~MetricsRegistry.to_json` --
  a plain JSON document for programmatic consumption.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
]

#: One process-wide lock serializes every metric mutation, child/family
#: creation and export snapshot.  The serve layer increments counters
#: and observes histograms from ``asyncio.to_thread`` worker threads
#: while the event loop renders ``/metrics``; without the lock,
#: ``value += amount`` (three bytecodes) can lose increments under
#: preemption and an export can iterate a dict another thread is
#: growing.  The lock lives at module level -- not on the instances --
#: so metric objects stay ``__slots__``-small and picklable (worker
#: processes ship whole registries back to be merged).  Reentrant
#: because exports and merges call locked child operations.
_LOCK = threading.RLock()

#: Default histogram buckets for wall-time observations, in seconds.
#: Geometric 1-2.5-5 ladder from 10 µs to 10 s -- wide enough for both a
#: single vectorized frame and a 50 000-tag exact inventory.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0, 2.5, 5.0, 10.0,
)


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric name cannot start with a digit: {name!r}")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_suffix(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{k}="{_escape_label(str(v))}"'
        for k, v in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError("counters can only increase")
        with _LOCK:
            self.value += amount

    def merge(self, other: "Counter") -> None:
        """Fold another counter in (totals add)."""
        with _LOCK:
            self.value += other.value


class Gauge:
    """Arbitrary settable value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        with _LOCK:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with _LOCK:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        with _LOCK:
            self.value -= amount

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge in.

        Gauges merge additively: in the sharded Monte-Carlo use case each
        worker's gauge holds that worker's contribution, so the merged
        value is the sum (there is no meaningful "last write" across
        processes).
        """
        with _LOCK:
            self.value += other.value


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus semantics.

    ``bucket_counts[i]`` counts observations <= ``upper_bounds[i]``
    (non-cumulative internally; the exporter cumulates), plus an implicit
    +Inf bucket.
    """

    __slots__ = ("upper_bounds", "bucket_counts", "inf_count", "sum", "count")

    def __init__(self, upper_bounds: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in upper_bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("buckets must be non-empty, sorted and unique")
        self.upper_bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.inf_count = 0
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with _LOCK:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.upper_bounds):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    return
            self.inf_count += 1

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in (bucket-wise; schemas must match)."""
        if self.upper_bounds != other.upper_bounds:
            raise ValueError(
                "cannot merge histograms with different buckets: "
                f"{self.upper_bounds} vs {other.upper_bounds}"
            )
        with _LOCK:
            for i, n in enumerate(other.bucket_counts):
                self.bucket_counts[i] += n
            self.inf_count += other.inf_count
            self.sum += other.sum
            self.count += other.count

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``[(le, cumulative_count), ...]`` ending with (+Inf, count)."""
        with _LOCK:
            out: list[tuple[float, int]] = []
            running = 0
            for bound, n in zip(self.upper_bounds, self.bucket_counts):
                running += n
                out.append((bound, running))
            out.append((math.inf, self.count))
            return out


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge}


class MetricFamily:
    """One named metric with a fixed label schema and per-labelset children.

    A family with an empty label schema forwards the child operations
    (``inc`` / ``set`` / ``dec`` / ``observe`` / ``value``) to its single
    anonymous child, so ``registry.counter("runs_total").inc()`` works
    without an explicit ``.labels()`` hop.
    """

    __slots__ = ("name", "help", "type", "labelnames", "buckets", "_children")

    def __init__(
        self,
        name: str,
        type_: str,
        help_: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> None:
        _validate_name(name)
        for label in labelnames:
            _validate_name(label)
        self.name = name
        self.type = type_
        self.help = help_
        self.labelnames = tuple(labelnames)
        self.buckets = (
            tuple(buckets) if buckets is not None else DEFAULT_TIME_BUCKETS
        )
        self._children: dict[tuple[str, ...], object] = {}

    # -- child access ---------------------------------------------------

    def labels(self, **labelvalues: object):
        """The child for this label-value combination (created on demand)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[k]) for k in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with _LOCK:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    def child(self, *labelvalues: str):
        """The existing child for these label values (in ``labelnames``
        order, as strings), or ``None`` -- a lookup that never creates,
        for callers that must control the order children are created in.
        """
        return self._children.get(labelvalues)

    def _make_child(self):
        if self.type == "histogram":
            return Histogram(self.buckets)
        return _CHILD_TYPES[self.type]()

    def _anonymous(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} has labels {self.labelnames}; use .labels()"
            )
        child = self._children.get(())
        if child is None:
            with _LOCK:
                child = self._children.get(())
                if child is None:
                    child = self._make_child()
                    self._children[()] = child
        return child

    # -- label-free conveniences ---------------------------------------

    def inc(self, amount: float = 1) -> None:
        self._anonymous().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self._anonymous().dec(amount)

    def set(self, value: float) -> None:
        self._anonymous().set(value)

    def observe(self, value: float) -> None:
        self._anonymous().observe(value)

    @property
    def value(self) -> float:
        return self._anonymous().value

    # -- introspection --------------------------------------------------

    def samples(self) -> list[tuple[dict[str, str], object]]:
        """``[(labels_dict, child), ...]`` in insertion order."""
        with _LOCK:
            return [
                (dict(zip(self.labelnames, key)), child)
                for key, child in self._children.items()
            ]

    def total(self) -> float:
        """Sum of all children (counter/gauge families only)."""
        if self.type == "histogram":
            raise ValueError("total() is not defined for histograms")
        with _LOCK:
            return sum(c.value for c in self._children.values())

    # -- merging --------------------------------------------------------

    def merge_from(self, other: "MetricFamily") -> None:
        """Fold another family's children into this one.

        The other family must have the same type and label schema (and
        bucket ladder, for histograms); children that only exist on one
        side are kept/created, shared children combine element-wise.
        """
        if other.type != self.type:
            raise ValueError(
                f"{self.name}: cannot merge {other.type} into {self.type}"
            )
        if other.labelnames != self.labelnames:
            raise ValueError(
                f"{self.name}: label schema mismatch "
                f"({other.labelnames} vs {self.labelnames})"
            )
        if self.type == "histogram" and other.buckets != self.buckets:
            raise ValueError(f"{self.name}: histogram bucket mismatch")
        for key, child in other._children.items():
            mine = self._children.get(key)
            if mine is None:
                mine = self._make_child()
                self._children[key] = mine
            mine.merge(child)  # type: ignore[attr-defined]


class MetricsRegistry:
    """Named collection of metric families.

    The process-wide default lives in :data:`repro.obs.STATE`; independent
    registries can be created freely (tests do).
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    # -- registration ---------------------------------------------------

    def _get_or_create(
        self,
        name: str,
        type_: str,
        help_: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] | None = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            with _LOCK:
                family = self._families.get(name)
                if family is None:
                    family = MetricFamily(
                        name, type_, help_, labelnames, buckets
                    )
                    self._families[name] = family
                    return family
        if family.type != type_:
            raise ValueError(
                f"{name} already registered as {family.type}, not {type_}"
            )
        if labelnames and tuple(labelnames) != family.labelnames:
            raise ValueError(
                f"{name} already registered with labels {family.labelnames}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._get_or_create(name, "counter", help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._get_or_create(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> MetricFamily:
        return self._get_or_create(name, "histogram", help, labelnames, buckets)

    # -- access ---------------------------------------------------------

    def get(self, name: str) -> MetricFamily | None:
        return self._families.get(name)

    def families(self) -> Iterable[MetricFamily]:
        return self._families.values()

    def reset(self) -> None:
        """Drop every family (names, schemas and values)."""
        with _LOCK:
            self._families.clear()

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's metrics into this one; returns ``self``.

        Counters and gauges add, histograms combine bucket-wise; families
        unknown here are adopted with the other registry's schema.  This
        is how the parallel Monte-Carlo runner folds each worker's
        registry back into the process-wide one, so ``--metrics-out``
        reflects the whole run regardless of worker count.  A name
        registered with a conflicting type/label schema raises
        ``ValueError``.
        """
        with _LOCK:
            for family in other.families():
                mine = self._families.get(family.name)
                if mine is None:
                    mine = MetricFamily(
                        family.name,
                        family.type,
                        family.help,
                        family.labelnames,
                        family.buckets,
                    )
                    self._families[family.name] = mine
                mine.merge_from(family)
            return self

    # -- export ---------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        The snapshot is taken under the registry lock, so a render
        racing concurrent increments is internally consistent: within
        one exposition, every histogram's ``_count`` equals its +Inf
        bucket and no family is half-rendered.
        """
        with _LOCK:
            return self._to_prometheus_locked()

    def _to_prometheus_locked(self) -> str:
        lines: list[str] = []
        for family in self._families.values():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.type}")
            for labels, child in family.samples():
                values = tuple(labels[k] for k in family.labelnames)
                if family.type == "histogram":
                    assert isinstance(child, Histogram)
                    for le, cum in child.cumulative_buckets():
                        suffix = _label_suffix(
                            (*family.labelnames, "le"),
                            (*values, _format_value(le)),
                        )
                        lines.append(f"{family.name}_bucket{suffix} {cum}")
                    plain = _label_suffix(family.labelnames, values)
                    lines.append(
                        f"{family.name}_sum{plain} {_format_value(child.sum)}"
                    )
                    lines.append(f"{family.name}_count{plain} {child.count}")
                else:
                    suffix = _label_suffix(family.labelnames, values)
                    lines.append(
                        f"{family.name}{suffix} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict[str, object]:
        """JSON-ready snapshot: {name: {type, help, labelnames, samples}}."""
        with _LOCK:
            return self._to_dict_locked()

    def _to_dict_locked(self) -> dict[str, object]:
        out: dict[str, object] = {}
        for family in self._families.values():
            samples: list[dict[str, object]] = []
            for labels, child in family.samples():
                if family.type == "histogram":
                    assert isinstance(child, Histogram)
                    samples.append(
                        {
                            "labels": labels,
                            "buckets": {
                                _format_value(le): cum
                                for le, cum in child.cumulative_buckets()
                            },
                            "sum": child.sum,
                            "count": child.count,
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.type,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "samples": samples,
            }
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, allow_nan=True)

    # -- derived views ---------------------------------------------------

    def counter_totals(
        self, name: str, by: str | None = None
    ) -> Mapping[str, float] | float:
        """Total of a counter family, optionally grouped by one label.

        ``by=None`` returns the scalar grand total; ``by="true_type"``
        returns ``{label_value: subtotal}``.  Missing family -> 0 / {}.
        """
        family = self._families.get(name)
        if family is None:
            return {} if by else 0.0
        if by is None:
            return family.total()
        if by not in family.labelnames:
            raise ValueError(f"{name} has no label {by!r}")
        out: dict[str, float] = {}
        for labels, child in family.samples():
            key = labels[by]
            out[key] = out.get(key, 0.0) + child.value
        return out
