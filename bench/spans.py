"""In-process span tracing of `epmt`, done entirely from the benchmark side.

`instrument(tracer)` swaps the public functions each layer calls into for
wrappers that record a span (name, parent, start, end) and restores them on
exit; nothing in the package changes. Span names start with their layer:
cli, procedures, calib, core, constructors, sim. A span's self time is its
duration minus the time its child spans cover. Calls are sequential (the
traced run uses parallelism 1), so children never overlap.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("startup", "cli", "procedures", "calib", "core", "constructors", "sim")

_CONSTRUCTORS = (
    "chisq_lr_evalue",
    "fit_limma_hyperparameters",
    "moderated_t",
    "fit_gamma",
    "moderated_t_evalue",
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    child_time: float = 0.0
    size: int = 0  # hypotheses seen by a procedure, replicates run by a batch
    rejected: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Keeps spans in memory, in the order they opened."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._open.append(index)
        return index

    def finish(self, index: int):
        span = self.spans[index]
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    def wrap(self, name, fn, record=None):
        """fn inside a span; name is a string or a function of the arguments.

        record(span, args, result) may attach counts to the span.
        """

        def traced(*args, **kwargs):
            index = self.begin(name if isinstance(name, str) else name(*args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(index)
            if record is not None:
                record(self.spans[index], args, result)
            return result

        return traced

    def children(self, index: int) -> list:
        return [i for i, span in enumerate(self.spans) if span.parent == index]


def _record_procedure(span, args, result):
    span.size = len(args[2])  # runner(spec, calibrator, p, e)
    span.rejected = result.threshold_index


def _record_batch(span, args, result):
    span.size = len(args[0][4])  # (scenario, specs, seed, index, rep_indices)


@contextmanager
def instrument(tracer: Tracer):
    """Route the layer boundaries of epmt through tracer while active."""
    from epmt import cli, procedures, sim

    def batch_name(args):
        return f"sim.batch.{sim.scenario_to_dict(args[0])['kind']}"

    patches = [
        (cli, "cmd_adjust", tracer.wrap("cli.adjust", cli.cmd_adjust)),
        (cli, "cmd_simulate", tracer.wrap("cli.simulate", cli.cmd_simulate)),
        (cli, "run_campaign", tracer.wrap("sim.run_campaign", cli.run_campaign)),
        (sim, "_replicate_batch", tracer.wrap(batch_name, sim._replicate_batch, _record_batch)),
        (sim, "generate_ttest_replicate", tracer.wrap("sim.generate.ttest", sim.generate_ttest_replicate)),
        (
            sim,
            "generate_microarray_replicate",
            tracer.wrap("sim.generate.microarray", sim.generate_microarray_replicate),
        ),
        (sim, "fdp_and_power", tracer.wrap("core.fdp_and_power", sim.fdp_and_power)),
        (procedures, "combine_product", tracer.wrap("calib.combine_product", procedures.combine_product)),
    ]
    patches += [(sim, name, tracer.wrap(f"constructors.{name}", getattr(sim, name))) for name in _CONSTRUCTORS]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    registry = dict(procedures.REGISTRY)
    try:
        for module, attr, wrapper in patches:
            setattr(module, attr, wrapper)
        for name, (needs_p, needs_e, runner) in registry.items():
            traced = tracer.wrap(f"procedures.{name}", runner, _record_procedure)
            procedures.REGISTRY[name] = (needs_p, needs_e, traced)
        yield tracer
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)
        procedures.REGISTRY.update(registry)


def layer_self_times(tracer: Tracer) -> dict:
    """Summed self time of the tracer's spans, per layer."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for span in tracer.spans:
        totals[span.layer] += span.self_time
    return totals


def share_table(self_times: dict, total: float) -> list:
    """(layer, self seconds, share of total) rows plus the unspanned residual."""
    rows = [(layer, seconds, seconds / total) for layer, seconds in self_times.items()]
    residual = total - sum(self_times.values())
    rows.append(("residual", residual, residual / total))
    return rows
