"""Layer boundaries of the benchmark and the span recorder around them.

The benchmark never calls semdist directly inside a timed op: it calls the
boundary functions through a `Layers` object. Untraced, the attributes are
the library functions themselves, so tracing off costs nothing. Traced,
each attribute is a wrapper that records one span per call.
"""

from __future__ import annotations

import json
from time import perf_counter

from semdist import codec, compositor, io, metrics

BOUNDARIES = {
    "compositor": (compositor, ("generate", "scene_annotations", "perturb", "perturb_semdist")),
    "codec": (codec, ("encode_semdist", "order_regions", "decode_levels", "decode_modal")),
    "io": (
        io,
        (
            "write_scene",
            "read_scene",
            "write_annotations",
            "read_annotations",
            "write_semdist",
            "read_semdist",
        ),
    ),
    "metrics": (metrics, ("assign_maps_to_gt", "evaluate", "order_accuracy", "report_to_dict")),
}

SPAN_NAMES = tuple(
    f"{layer}.{fn}" for layer, (_, names) in BOUNDARIES.items() for fn in names
)


class Tracer:
    """Spans (name, start, end, op id) kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.op_id = -1

    def wrap(self, name: str, fn):
        spans = self.spans

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, start, perf_counter(), self.op_id))

        return traced

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, busy seconds). Spans never nest, so busy time
        is also self time."""
        out = {name: (0, 0.0) for name in SPAN_NAMES}
        for name, start, end, _ in self.spans:
            calls, busy = out[name]
            out[name] = (calls + 1, busy + (end - start))
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "op": op}) + "\n")


class Layers:
    """The boundary functions by bare name, traced when a tracer is given."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        for layer, (module, names) in BOUNDARIES.items():
            for name in names:
                fn = getattr(module, name)
                setattr(self, name, fn if tracer is None else tracer.wrap(f"{layer}.{name}", fn))
