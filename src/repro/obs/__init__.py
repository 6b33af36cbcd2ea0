"""repro.obs — the observability layer of the simulator.

Small, dependency-free pieces that every execution path shares:

* :mod:`repro.obs.metrics` — counters/gauges/histograms in a
  :class:`~repro.obs.metrics.MetricsRegistry` with plain-dict snapshots.
* :mod:`repro.obs.spans` — :class:`~repro.obs.spans.SpanRecorder`:
  nested ``with recorder.span("replay")`` timing blocks aggregating
  into a per-run phase breakdown, and a run's one bounded buffer of
  span events.
* :mod:`repro.obs.events` — :func:`~repro.obs.events.sample_events`,
  which reads a replay record's sampled events into per-stream/per-set
  counts and the newest events.
* :mod:`repro.obs.manifest` — JSON run manifests (config + trace +
  metrics + phase timings + event summaries) with a schema validator.
* :mod:`repro.obs.log` — stdlib logging under the ``repro`` hierarchy,
  configured from ``--log-level`` / ``$REPRO_LOG_LEVEL``, stamped with
  the active trace context.
* :mod:`repro.obs.tracing` — the cross-process
  :class:`~repro.obs.tracing.TraceContext` and the span-event shape.
* :mod:`repro.obs.traceexport` — Chrome/Perfetto ``trace_event``
  export, the trace-file validator, and a Prometheus-style text dump.
* :mod:`repro.obs.report` — ``gspc-report``, the one reader of run
  artifacts: manifests (one row per run), journals and trace files.
"""

from repro.obs.events import sample_events
from repro.obs.log import configure as configure_logging
from repro.obs.log import get_logger
from repro.obs.manifest import (
    SCHEMA_VERSION,
    check_manifest,
    experiment_manifest,
    load_manifest,
    manifest_filename,
    sim_manifest,
    timing_manifest,
    validate_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import SpanRecorder
from repro.obs.tracing import (
    TraceContext,
    activate,
    current,
    deactivate,
)
from repro.obs.traceexport import (
    build_chrome_trace,
    load_trace_file,
    prometheus_text,
    validate_trace,
    write_trace_file,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecorder",
    "sample_events",
    "configure_logging",
    "get_logger",
    "SCHEMA_VERSION",
    "sim_manifest",
    "timing_manifest",
    "experiment_manifest",
    "manifest_filename",
    "write_manifest",
    "load_manifest",
    "validate_manifest",
    "check_manifest",
    "TraceContext",
    "activate",
    "current",
    "deactivate",
    "build_chrome_trace",
    "load_trace_file",
    "prometheus_text",
    "validate_trace",
    "write_trace_file",
]
