"""Span tracer for the benchmark's traced runs.

The tracer wraps crashlab's functions from outside the package: it replaces
each function at the name its caller looks it up by (``harness.replay``, not
``blockdev.replay``; ``cli.run_workload``, not ``harness.run_workload``), so
no code under ``src/`` changes. Methods are patched on ``SoundFs``, which the
buggy variants inherit.

A span is ``(trace_id, span_id, parent_id, name, start, end, proc, note)``.
The trace id is the index of the workload being tested (-1 for campaign-level
work such as generation and grouping), ``proc`` is the process id, and
``note`` holds a count taken from the call's result (unmountable states, bug
verdicts, harness errors, reports written). Spans stay in memory until the
caller collects them.

Worker processes of a ``--workers N`` campaign are forked with the patches
in place. The patched ``cli._run_partition`` ships the worker's spans back
inside its pickled result, and unpickling in the parent merges them into the
active tracer, so worker-side spans reach the trace.
"""

from __future__ import annotations

import functools
import os
import statistics
from collections import defaultdict
from time import perf_counter

from crashlab import ace, cli, harness, report
from crashlab.fstarget import SoundFs, Unmountable

# The tracer that merges worker spans arriving in pickled partition results.
_active: "Tracer | None" = None


class Tracer:
    def __init__(self) -> None:
        self.owner = os.getpid()
        self.proc = self.owner
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.trace_id = -1
        self.next_id = 1
        self.gen_stats: list[ace.GenerationStats] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, note=None):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else 0
        self.stack.append(sid)
        value = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if note is not None:
                value = note(args, result)
            return result
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans.append(
                (self.trace_id, sid, parent, name, start, end, self.proc, value)
            )

    def take(self) -> tuple[list[tuple], list[ace.GenerationStats]]:
        """Hand over the spans and generator stats recorded so far."""
        spans, stats = self.spans, self.gen_stats
        self.spans, self.gen_stats = [], []
        return spans, stats

    def merge(self, spans: list[tuple]) -> None:
        """Adopt spans recorded in another process, renumbering their ids.

        Runs in the executor's result thread while the main thread waits
        inside ``cli._run_tier`` and records nothing, so no lock is needed.
        """
        offset = self.next_id
        own = {s[1] for s in spans}
        for tid, sid, parent, name, start, end, proc, note in spans:
            new_parent = parent + offset if parent in own else parent
            self.spans.append((tid, sid + offset, new_parent, name, start, end, proc, note))
        self.next_id = offset + max(own, default=0) + 1

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, note=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)

        self._patch(owner, attr, traced)

    def wrap_method(self, cls, attr, name, note=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            fn = raw.__func__

            @functools.wraps(fn)
            def traced_cls(klass, *args, **kwargs):
                return self.call(name, fn, (klass, *args), kwargs, note)

            self._patch(cls, attr, classmethod(traced_cls))
            return

        @functools.wraps(raw)
        def traced(*args, **kwargs):
            return self.call(name, raw, args, kwargs, note)

        self._patch(cls, attr, traced)

    def wrap_generator(self, owner, attr, name) -> None:
        """One span per resumption, so consumer work between items is excluded."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, (it,), {})
                except StopIteration:
                    return
                yield item

        self._patch(owner, attr, traced)

    def install(self) -> "Tracer":
        global _active
        if _active is not None:
            raise RuntimeError("a tracer is already installed")
        _active = self
        tracer = self

        # cli: the campaign and its fan-out
        self.wrap(cli, "run_campaign", "cli.run_campaign")
        self.wrap(cli, "_collect_tiers", "cli.collect_tiers")
        self.wrap(cli, "_run_tier", "cli.run_tier")
        run_partition = cli._run_partition

        @functools.wraps(run_partition)
        def traced_partition(payload):
            if os.getpid() == tracer.owner:
                return tracer.call("cli.run_partition", run_partition, (payload,), {})
            # forked worker: drop the parent's spans copied by fork, ship ours back
            tracer.proc = os.getpid()
            tracer.spans = []
            result = tracer.call("cli.run_partition", run_partition, (payload,), {})
            return _WorkerResult(result, tracer.take()[0])

        self._patch(cli, "_run_partition", traced_partition)

        run_workload = cli.run_workload

        @functools.wraps(run_workload)
        def traced_run_workload(workload, *args, **kwargs):
            tracer.trace_id = workload.index
            try:
                return tracer.call(
                    "harness.run_workload",
                    run_workload,
                    (workload, *args),
                    kwargs,
                    lambda a, r: sum(v.outcome == "harness_error" for v in r),
                )
            finally:
                tracer.trace_id = -1

        self._patch(cli, "run_workload", traced_run_workload)

        # ace: generation, with stats the CLI does not collect itself
        generate = ace.generate_workloads

        @functools.wraps(generate)
        def generate_with_stats(bounds, stats=None):
            if stats is None:
                stats = ace.GenerationStats()
                tracer.gen_stats.append(stats)
            return generate(bounds, stats)

        self._patch(ace, "generate_workloads", generate_with_stats)
        self.wrap(ace, "workload_range", "ace.workload_range")
        self.wrap(ace, "serialize", "ace.serialize")

        # harness and the blockdev/crashgen names it imported
        self.wrap(harness, "profile", "harness.profile")
        self.wrap(harness, "check", "harness.check", note=lambda a, r: int(r.is_bug))
        self.wrap(harness, "_write_checks", "harness.probe")
        self.wrap(harness, "_subset_verdicts", "harness.subset_verdicts")
        self.wrap(harness, "replay", "blockdev.replay")
        self.wrap(harness, "split_epochs", "blockdev.split_epochs")
        self.wrap(harness, "build_subset_state", "crashgen.subset_build")
        self.wrap_generator(harness, "enumerate_target_subsets", "crashgen.enumerate")

        # fstarget: patched on SoundFs so every variant inherits the wrappers
        self.wrap_method(SoundFs, "apply", "fstarget.apply")
        self.wrap_method(SoundFs, "persist", "fstarget.persist")
        self.wrap_method(SoundFs, "replicate", "fstarget.replicate")
        self.wrap_method(SoundFs, "unmount_clean", "fstarget.unmount_clean")
        self.wrap_method(
            SoundFs,
            "mount",
            "fstarget.mount",
            note=lambda a, r: int(isinstance(r, Unmountable)),
        )
        self.wrap_method(SoundFs, "mount_device", "fstarget.mount_device")
        self.wrap_method(SoundFs, "state_view", "fstarget.state_view")
        self.wrap_method(SoundFs, "fsck", "fstarget.fsck")

        # report
        self.wrap(report, "group", "report.group")
        self.wrap(report, "suppress_known", "report.suppress_known")
        self.wrap(report, "write_reports", "report.write_reports", note=lambda a, r: len(a[1]))
        return self

    def uninstall(self) -> None:
        global _active
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _active = None

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


class _WorkerResult(list):
    """A partition result that carries its worker's spans through pickling."""

    def __init__(self, items, spans):
        super().__init__(items)
        self.spans = spans

    def __reduce__(self):
        return (_merge_worker_result, (list(self), self.spans))


def _merge_worker_result(items, spans):
    if _active is not None:
        _active.merge(spans)
    return items


# -- aggregation -------------------------------------------------------------

LAYERS = ("ace", "cli", "harness", "blockdev", "crashgen", "fstarget", "report")


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover.

    Children in worker processes run in parallel, so what they cover is the
    union of their intervals, not the sum of their durations.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _tid, _sid, parent, _name, start, end, _proc, _note in spans:
        if parent:
            children[parent].append((start, end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = float("-inf")
        for start, end in sorted(children.get(s[1], ())):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        out[s[1]] = (s[5] - s[4]) - covered
    return out


def layer_metrics(spans: list[tuple], gen_stats, workers: int, owner: int) -> dict[str, float]:
    """Per-layer metrics of one traced round of campaigns."""
    name_of = {s[1]: s[3] for s in spans}
    own = self_times(spans)
    incl: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    notes: dict[str, int] = defaultdict(int)
    selft: dict[str, float] = defaultdict(float)
    # durations by (span name, parent span name)
    under: dict[tuple[str, str], list[float]] = defaultdict(list)
    for _tid, sid, parent, name, start, end, _proc, note in spans:
        incl[name] += end - start
        calls[name] += 1
        selft[name] += own[sid]
        if note:
            notes[name] += note
        under[(name, name_of.get(parent, ""))].append(end - start)

    emitted = sum(s.emitted for s in gen_stats)
    rejected = sum(s.rejected for s in gen_stats)
    wall = incl["cli.run_campaign"]
    workloads = calls["harness.run_workload"]
    crash_states = calls["harness.check"]
    oracles = len(under[("fstarget.unmount_clean", "harness.profile")])
    fan_out = incl["cli.run_tier"]
    apply_in_profile = under[("fstarget.apply", "harness.profile")]
    views_in_check = under[("fstarget.state_view", "harness.check")]

    m = {
        "ace.generate_s": incl["ace.workload_range"],
        "ace.workloads": emitted,
        "ace.accept_ratio": emitted / (emitted + rejected) if emitted + rejected else 0.0,
        "cli.worker_busy_s": incl["cli.run_partition"],
        "cli.parallel_efficiency": (
            incl["cli.run_partition"] / (workers * fan_out) if fan_out else 0.0
        ),
        "harness.profile_s": selft["harness.profile"],
        "harness.profile_calls": calls["harness.profile"],
        "harness.oracle_use_ratio": calls["blockdev.replay"] / oracles if oracles else 0.0,
        "fstarget.apply_s": sum(apply_in_profile),
        "fstarget.apply_calls": len(apply_in_profile),
        "fstarget.persist_s": incl["fstarget.persist"],
        "fstarget.persist_calls": calls["fstarget.persist"],
        "fstarget.replicate_s": incl["fstarget.replicate"],
        "fstarget.unmount_clean_s": incl["fstarget.unmount_clean"],
        "fstarget.base_mount_s": sum(under[("fstarget.mount_device", "harness.profile")]),
        "fstarget.mount_s": incl["fstarget.mount"],
        "fstarget.mounts": calls["fstarget.mount"],
        "fstarget.unmountable": notes["fstarget.mount"],
        "fstarget.state_view_s": sum(views_in_check),
        "fstarget.state_views": len(views_in_check),
        "fstarget.fsck_s": incl["fstarget.fsck"],
        "crashgen.enumerate_s": incl["crashgen.enumerate"],
        "crashgen.subset_build_s": incl["crashgen.subset_build"],
        "crashgen.subset_states": calls["crashgen.subset_build"],
        "blockdev.replay_s": incl["blockdev.replay"],
        "blockdev.replay_calls": calls["blockdev.replay"],
        "blockdev.split_epochs_s": incl["blockdev.split_epochs"],
        "harness.check_self_s": selft["harness.check"],
        "harness.probe_s": incl["harness.probe"],
        "harness.crash_states": crash_states,
        "harness.states_per_workload": crash_states / workloads if workloads else 0.0,
        "harness.bug_verdicts": notes["harness.check"],
        "harness.harness_errors": notes["harness.run_workload"],
        "report.group_s": incl["report.group"],
        "report.write_s": incl["report.write_reports"],
        "report.reports": notes["report.write_reports"],
        "share.profile": incl["harness.profile"] / wall if wall else 0.0,
        "share.mount_crashgen": (
            (incl["fstarget.mount"] + incl["crashgen.enumerate"] + incl["crashgen.subset_build"])
            / wall
            if wall
            else 0.0
        ),
        "share.ace": incl["ace.workload_range"] / wall if wall else 0.0,
        "trace.spans": len(spans),
        "trace.worker_spans": sum(1 for s in spans if s[6] != owner),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            v for name, v in selft.items() if name.startswith(layer + ".")
        )
    return m


_RATIOS = ("_ratio", "_efficiency", "overhead")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("share.") or metric.endswith(_RATIOS):
        return "ratio"
    if metric == "harness.states_per_workload":
        return "states/workload"
    return "count"


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median_low(r[k] for r in per_round) for k in per_round[0]}
