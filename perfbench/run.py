#!/usr/bin/env python3
"""crashlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a crashlab checkout; the program is imported from its
``src/`` directory. A run warms up once, then repeats rounds until
``--seconds`` have passed and at least two rounds are done. A round runs
each campaign of the workload's unit (see ``workloads.py``) once, timed on
its own, and checks its output. Set-up is timed in fresh processes, one
after each of the first rounds. The last line of standard output is one
JSON object with ``correct``, ``attempted`` (workloads run in timed
campaigns), ``failed`` (workloads of campaigns whose output check failed)
and ``metrics``:

--trace 0
    the end-to-end metrics, with tracing off. Times are best-of: each
    campaign's lowest wall and CPU time over the run's rounds, summed over
    the unit's campaigns. The host this was tuned on switches between a
    fast and a slow CPU speed every few seconds, so a median follows the mix
    of the two and the best-of figure follows the program.
--trace 1
    the per-layer metrics: rounds alternate untraced and traced, layer
    metrics are medians over the traced rounds and ``trace.overhead`` compares
    the best-of wall times of the two. The spans of the first traced round
    are written to ``.perfbench_out/traces/`` (gzipped JSON).

Every run also writes its provenance (commit, Python, nproc, machine, group
hashes) and per-campaign figures to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gzip
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
MIN_ROUNDS = 2

# Child-process set-up: interpreter start, import, and formatting the
# workload's targets, as a fresh `crashlab` invocation pays it.
_SETUP_CODE = (
    "import sys\n"
    "from crashlab import cli\n"
    "from crashlab.harness import mkfs_base_image\n"
    "for name in sys.argv[1:]:\n"
    "    mkfs_base_image(name)\n"
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _peak_rss_mb() -> float:
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024


def timed(fn):
    """(result, wall seconds, CPU seconds of this process and its children)."""
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0, _cpu_seconds() - cpu0


class SetupProbe:
    """Times fresh set-up processes, one at a time, between rounds.

    A set-up process is waited for without being reaped. Reaping it would
    add its peak RSS to RUSAGE_CHILDREN, which must cover only the
    campaign's own workers until ``peak_rss_mb`` is read; ``finish`` reaps
    them after that.
    """

    def __init__(self, targets: list[str]) -> None:
        self.argv = [sys.executable, "-c", _SETUP_CODE, *targets]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list[float] = []
        self.procs: list[subprocess.Popen] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.argv, env=self.env, cwd=ROOT)
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        self.times.append(time.perf_counter() - t0)
        self.procs.append(proc)

    def finish(self) -> None:
        """Reap every set-up process; raise if one of them failed."""
        for proc in self.procs:
            if proc.wait() != 0:
                raise subprocess.CalledProcessError(proc.returncode, self.argv)


def provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "crashlab" / "cli.py").is_file():
        print(f"error: no crashlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from crashlab import cli
    from crashlab.harness import mkfs_base_image

    import tracer as tracing
    import workloads

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    try:
        unit = workloads.campaigns(args.workload, args.seed, OUT / "campaigns", reference)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    targets = workloads.targets(args.workload, reference)
    workers = max(c.config.workers for c in unit)

    for name in targets:
        mkfs_base_image(name)
    warm = dataclasses.replace(
        unit[0].config, seq=(1,), index_range=(600, 620), out=str(OUT / "campaigns" / "warm-up")
    )
    cli.run_campaign(warm, quiet=True)

    # A round runs every campaign of the unit once, each timed on its own.
    # In a traced run, rounds alternate untraced and traced.
    tracer = tracing.Tracer() if args.trace else None
    probe = None if args.trace else SetupProbe(targets)
    rounds = []
    first_spans: list[tuple] = []
    t_end = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        samples = []
        with tracer if traced else contextlib.nullcontext():
            for c in unit:
                res, wall, cpu = timed(lambda: cli.run_campaign(c.config, quiet=True))
                problems = workloads.check(c, res)
                for p in problems:
                    print(f"check failed: {p}", file=sys.stderr)
                samples.append(
                    {
                        "fs": c.config.fs,
                        "wall_s": wall,
                        "cpu_s": cpu,
                        "workloads": res.total_workloads,
                        "verdicts": res.total_verdicts,
                        "group_hash": res.group_hash,
                        "problems": problems,
                    }
                )
        row = {"traced": traced, "campaigns": samples}
        if traced:
            spans, gen_stats = tracer.take()
            row["layers"] = tracing.layer_metrics(spans, gen_stats, workers, tracer.owner)
            if not first_spans:
                first_spans = spans
        rounds.append(row)
        # set-up samples are spread over the run, one after each round
        if probe and len(probe.times) < SETUP_REPEATS:
            probe.sample()
        if time.perf_counter() >= t_end and len(rounds) >= MIN_ROUNDS:
            break

    peak_rss = _peak_rss_mb()
    if probe:
        while len(probe.times) < SETUP_REPEATS:
            probe.sample()
        probe.finish()
    setup_times = probe.times if probe else []

    attempted = sum(s["workloads"] for r in rounds for s in r["campaigns"])
    failed = sum(s["workloads"] for r in rounds for s in r["campaigns"] if s["problems"])

    def best(key, rows):
        """Sum over the unit's campaigns of each one's lowest value in rows.

        A campaign's samples that failed their check are left out, unless
        every sample of it failed.
        """
        total = 0.0
        for i in range(len(unit)):
            runs = [r["campaigns"][i] for r in rows]
            ok = [s for s in runs if not s["problems"]] or runs
            total += min(s[key] for s in ok)
        return total

    plain_rounds = [r for r in rounds if not r["traced"]]
    n_workloads = sum(c.workloads for c in unit)
    n_verdicts = sum(c.verdicts for c in unit)
    if args.trace == 0:
        wall = best("wall_s", plain_rounds)
        metrics = {
            "workloads_per_s": (n_workloads / wall, "1/s"),
            "crash_states_per_s": (n_verdicts / wall, "1/s"),
            "cpu_s": (best("cpu_s", plain_rounds), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "setup_s": (min(setup_times), "s"),
            "ok_share": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        traced_rounds = [r for r in rounds if r["traced"]]
        ok_traced = [
            r for r in traced_rounds if not any(s["problems"] for s in r["campaigns"])
        ]
        # a failed run still reports every metric, from all of its traced rounds
        layers = tracing.median_metrics([r["layers"] for r in ok_traced or traced_rounds])
        layers["trace.overhead"] = best("wall_s", traced_rounds) / best("wall_s", plain_rounds) - 1
        metrics = {k: (v, tracing.unit_of(k)) for k, v in layers.items()}

    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "group_hashes": {s["fs"]: s["group_hash"] for s in rounds[0]["campaigns"]},
        "setup_s": setup_times,
        "rounds": [{k: v for k, v in r.items() if k != "layers"} for r in rounds],
        "layers_per_round": [r["layers"] for r in rounds if "layers" in r],
        "metrics": {k: v for k, (v, _unit) in metrics.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stamp}.json").write_text(json.dumps(record, indent=2) + "\n")
    if first_spans:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        fields = ["trace_id", "span_id", "parent_id", "name", "start", "end", "proc", "note"]
        with gzip.open(OUT / "traces" / f"{stamp}.json.gz", "wt", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": first_spans}, fh)

    print("provenance " + json.dumps({**record["provenance"], "group_hashes": record["group_hashes"]}))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
