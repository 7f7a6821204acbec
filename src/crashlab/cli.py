"""Campaign runner and replay tool.

Campaigns generate (or load) workloads, fan them across workers over a
deterministically partitioned index space, test every workload, and emit
grouped, suppression-filtered reports. Exit status 0 means no new bug
groups, for CI use.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import ace, report
from .ace import Bounds, Workload
from .crashgen import GRANULARITIES
from .fsops import FsOpKind
from .fstarget import MountMemo, get_target
from .harness import (
    HarnessError,
    PrefixFork,
    RunFlags,
    Verdict,
    check,
    profile,
    run_workload,
    state_for,
)

EXIT_OK = 0
EXIT_BUGS = 1
EXIT_CONFIG = 2


def default_corpus_dir() -> Path:
    return Path(__file__).resolve().parent / "corpus"


def _check_corpus_dir(path) -> None:
    # a mistyped path, or a directory with no entry, would otherwise run no
    # workloads and exit 0
    if not Path(path).is_dir():
        raise ValueError(f"corpus directory {path} does not exist")
    if not any(Path(path).glob("*.wl")):
        raise ValueError(f"corpus directory {path} holds no *.wl file")


@dataclass
class CampaignConfig:
    fs: str = "soundfs"
    seq: tuple[int, ...] = (1,)
    ops: tuple[str, ...] | None = None
    files: tuple[str, ...] | None = None
    dirs: tuple[str, ...] | None = None
    corpus: str | None = None
    workers: int = 1
    all_checkpoints: bool = False
    subset: bool = False
    granularity: str = "op"
    seed: int = 0
    known_bugs: str | None = None
    out: str | None = None
    no_group: bool = False
    index_range: tuple[int, int | None] | None = None

    def validate(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.seq:
            raise ValueError("seq names no sequence length")
        if self.ops is not None and not self.ops:
            raise ValueError("ops names no op kind")
        for setting in ("ops", "files", "dirs"):
            names = getattr(self, setting) or ()
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise ValueError(f"{setting} names {name!r} twice")
        if self.corpus is not None and self.index_range is not None:
            raise ValueError("corpus campaigns take no generator index range")
        start, end = self.index_range or (0, None)
        if start < 0 or (end is not None and end < start):
            raise ValueError(f"index range {start}:{end} needs 0 <= START <= END")
        if self.corpus is not None:
            _check_corpus_dir(self.corpus)
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        get_target(self.fs)

    def bounds_for(self, seq_length: int) -> Bounds:
        kwargs = {"seq_length": seq_length}
        if self.ops is not None:
            kwargs["allowed_ops"] = tuple(FsOpKind(o) for o in self.ops)
        if self.files is not None:
            kwargs["files"] = tuple(self.files)
        if self.dirs is not None:
            kwargs["dirs"] = tuple(self.dirs)
        return Bounds(**kwargs)

    def run_flags(self) -> RunFlags:
        return RunFlags(
            all_checkpoints=self.all_checkpoints,
            subset=self.subset,
            granularity=self.granularity,
            seed=self.seed,
        )


@dataclass
class CampaignResult:
    exit_code: int
    total_workloads: int = 0
    total_verdicts: int = 0
    # one {"workload_index", "reason", "workload_dsl"} dict per harness error
    errors: list[dict] = field(default_factory=list)
    reports: list[report.BugReport] = field(default_factory=list)
    groups: list[report.BugGroup] = field(default_factory=list)
    new_groups: list[report.BugGroup] = field(default_factory=list)
    suppressed_reports: int = 0
    group_hash: str = ""
    elapsed: float = 0.0

    @property
    def bug_verdicts(self) -> int:
        return len(self.reports)

    @property
    def harness_errors(self) -> int:
        return len(self.errors)


def _run_partition(args):
    """Run one partition's workloads, a contiguous run of the tier, in
    whichever process calls it: the campaign process for the first
    partition, a pool worker for the others.

    Returns ``(verdict_count, findings)``: the number of verdicts its
    workloads gave, and ``(campaign index, workload, verdict)`` for each bug
    or harness-error verdict, in index order; no passing verdict is kept.
    Callers unpack the tuple by position, which holds when a wrapper ships
    it back as a list.

    A verdict depends only on the workload's body, the target and the
    flags, so each distinct body (prologue and steps) is run once: a later
    workload with the same body, which the generator emits under another
    index, gets the first one's verdicts under its own index and workload.
    Equal bodies have equal op kinds, so one skeleton, and the generator
    emits each skeleton's workloads in one run: the map of bodies run is
    emptied whenever the skeleton changes, and holds one skeleton's bodies,
    not the partition's.
    The profiles resume from one stack of frozen runs (``PrefixFork``), and
    the crash states share one mount memo, so a prefix or an image that
    recurs across sibling workloads is run or recovered once; the verdicts
    depend on neither. Nothing outlives the call."""
    fs_name, flags, items = args
    memo, fork = MountMemo(), PrefixFork()
    ran: dict[tuple, list] = {}  # body -> [verdict count, non-pass verdicts]
    skeleton = None
    count, findings = 0, []
    for idx, workload in items:
        if workload.skeleton != skeleton:
            skeleton = workload.skeleton
            ran.clear()
        # one lookup: hashing a body hashes each of its steps
        kept = ran.setdefault((workload.prologue, workload.steps), [])
        if not kept:
            verdicts = run_workload(workload, fs_name, flags, memo, fork)
            kept += len(verdicts), [v for v in verdicts if v.outcome != "pass"]
        verdict_count, found = kept
        count += verdict_count
        findings += [(idx, workload, verdict) for verdict in found]
    return count, findings


def _collect_tiers(config: CampaignConfig) -> list[list[tuple[int, Workload]]]:
    """Workload batches in campaign order: shorter sequences first, so every
    seq-k verdict is aggregated before seq-(k+1) starts.

    A workload's campaign index is its generator index plus the full sizes of
    the shorter tiers, so each workload has one index whatever the range, and
    ``--range`` selects by it. Bounds that give a tier no workload at all
    are a config error, as such a campaign would test nothing and pass; a
    ``--range`` past a tier's end selects none on purpose."""
    if config.corpus is not None:
        corpus_dir = Path(config.corpus)
        files = sorted(corpus_dir.glob("*.wl"))
        return [[(i, ace.parse_file(path)) for i, path in enumerate(files)]]
    start, end = config.index_range or (0, None)
    seqs = sorted(set(config.seq))
    tiers = []
    base = 0
    for n, seq_length in enumerate(seqs):
        bounds = config.bounds_for(seq_length)
        lo = max(start - base, 0)
        hi = None if end is None else max(end - base, 0)
        tier = [(base + w.index, w) for w in ace.workload_range(bounds, lo, hi)]
        if not tier and config.index_range is None:
            raise ValueError(
                f"bounds {bounds.describe()};dirs={','.join(bounds.dirs)} give no workload"
            )
        tiers.append(tier)
        if n + 1 < len(seqs):
            base += ace.count_workloads(bounds)
    return tiers


def _run_tier(config: CampaignConfig, flags, tier) -> tuple[int, list]:
    """One tier's ``(verdict_count, findings)``, as ``_run_partition`` gives
    them, run in ``config.workers`` processes. The partitions are contiguous,
    so their findings, concatenated, stay in index order.

    The tier is cut into ``config.workers`` contiguous partitions, which
    keeps sibling workloads, and so their shared prefixes and images, in
    one partition; empty ones are dropped. The calling process submits
    every partition but the first to a pool with one worker each, then runs
    the first itself, so no process idles while the others work. With one
    partition (or none) no pool is made."""
    cuts = [len(tier) * wk // config.workers for wk in range(config.workers + 1)]
    payloads = [(config.fs, flags, tier[lo:hi]) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    own, others = payloads[:1], payloads[1:]
    with (
        concurrent.futures.ProcessPoolExecutor(len(others)) if others else contextlib.nullcontext()
    ) as pool:
        futures = [pool.submit(_run_partition, payload) for payload in others]
        chunks = [_run_partition(payload) for payload in own] + [f.result() for f in futures]
    return sum(chunk[0] for chunk in chunks), [f for chunk in chunks for f in chunk[1]]


def run_campaign(config: CampaignConfig, *, quiet: bool = False) -> CampaignResult:
    config.validate()
    known = report.load_known_bugs(config.known_bugs) if config.known_bugs else set()
    out_dir = Path(config.out) if config.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)  # before the run, so a bad --out fails fast
    t0 = time.monotonic()
    flags = config.run_flags()
    tiers = _collect_tiers(config)
    res = CampaignResult(exit_code=EXIT_OK, total_workloads=sum(map(len, tiers)))
    target = get_target(config.fs)
    bounds_desc = (
        f"corpus:{config.corpus}"
        if config.corpus
        else ";".join(config.bounds_for(s).describe() for s in sorted(set(config.seq)))
    )
    for tier in tiers:
        verdict_count, findings = _run_tier(config, flags, tier)
        res.total_verdicts += verdict_count
        for idx, workload, verdict in findings:
            if verdict.outcome == "harness_error":
                res.errors.append(
                    {
                        "workload_index": idx,
                        "reason": verdict.reason,
                        "workload_dsl": ace.serialize(workload),
                    }
                )
            else:
                res.reports.append(
                    report.BugReport(
                        workload_dsl=ace.serialize(workload),
                        skeleton=str(workload.skeleton),
                        crash_descriptor=verdict.crash_descriptor,
                        consequence=verdict.consequence,
                        diff=[vars(d) for d in verdict.diff],
                        fs_target=config.fs,
                        fs_format_version=target.FORMAT_VERSION,
                        workload_index=idx,
                        bounds=bounds_desc,
                        seed=config.seed,
                        fsck=verdict.fsck,
                    )
                )

    if config.no_group:
        res.groups = [
            report.BugGroup(r.skeleton, r.consequence, r, 1) for r in res.reports
        ]
    else:
        res.groups = report.group(res.reports)

    res.new_groups, res.suppressed_reports = report.suppress_known(res.groups, known)

    group_payload = _groups_json(res.new_groups)
    res.group_hash = hashlib.sha256(group_payload.encode()).hexdigest()
    res.elapsed = time.monotonic() - t0
    res.exit_code = EXIT_OK if not res.new_groups else EXIT_BUGS

    if out_dir:
        report.write_reports(out_dir / "reports.jsonl", res.reports)
        (out_dir / "errors.jsonl").write_text(
            "".join(json.dumps(e, sort_keys=True) + "\n" for e in res.errors), encoding="utf-8"
        )
        (out_dir / "groups.json").write_text(group_payload, encoding="utf-8")
        summary = {
            "schema": 1,
            "fs_target": config.fs,
            "bounds": bounds_desc,
            "workloads": res.total_workloads,
            "verdicts": res.total_verdicts,
            "bug_verdicts": res.bug_verdicts,
            "harness_errors": res.harness_errors,
            "groups": len(res.groups),
            "new_groups": len(res.new_groups),
            "suppressed_reports": res.suppressed_reports,
            "per_class": _per_class_counts(res.reports),
            "group_hash": res.group_hash,
        }
        (out_dir / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    if not quiet:
        rate = res.total_workloads / res.elapsed if res.elapsed > 0 else 0.0
        print(
            f"[{config.fs}] {res.total_workloads} workloads, "
            f"{res.total_verdicts} verdicts, {res.bug_verdicts} bug verdicts, "
            f"{len(res.new_groups)} new groups "
            f"({res.suppressed_reports} reports suppressed), "
            f"{res.harness_errors} harness errors, "
            f"{res.elapsed:.1f}s ({rate:.0f} workloads/s)"
        )
        if res.errors:
            first = res.errors[0]
            print(
                f"warning: {res.harness_errors} workloads aborted as harness errors; "
                f"first: workload {first['workload_index']}: {first['reason']}"
            )
    return res


def _groups_json(groups: list[report.BugGroup]) -> str:
    payload = [
        {
            "skeleton": g.skeleton,
            "consequence": g.consequence,
            "size": g.size,
            "representative_index": g.representative.workload_index,
            "representative_descriptor": g.representative.crash_descriptor,
            "representative_dsl": g.representative.workload_dsl,
        }
        for g in groups
    ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _per_class_counts(reports: list[report.BugReport]) -> dict[str, int]:
    out: dict[str, int] = {}
    for rep in reports:
        out[rep.consequence] = out.get(rep.consequence, 0) + 1
    return dict(sorted(out.items()))


# -- replay ---------------------------------------------------------------------


def replay_report(path, index: int, *, quiet: bool = False) -> Verdict:
    reports = report.read_reports(path)
    if not 0 <= index < len(reports):
        raise ValueError(f"report file has {len(reports)} entries; no index {index}")
    rep = reports[index]
    target = get_target(rep.fs_target)
    if target.FORMAT_VERSION != rep.fs_format_version:
        raise ValueError(
            f"report was produced by {rep.fs_target} format "
            f"v{rep.fs_format_version}, this build has v{target.FORMAT_VERSION}; "
            "refusing to replay"
        )
    prof = profile(ace.parse(rep.workload_dsl), rep.fs_target)
    verdict = check(prof, state_for(prof, rep.crash_descriptor))
    if not quiet:
        print(f"workload:\n{rep.workload_dsl}")
        print(f"crash point: {rep.crash_descriptor}")
        print(f"original consequence: {rep.consequence}")
        print(f"replayed consequence: {verdict.consequence or 'pass'}")
        for entry in verdict.diff:
            print(
                f"  {entry.category} {entry.path} {entry.field} "
                f"expected={entry.expected!r} actual={entry.actual!r}"
            )
    return verdict


# -- corpus ----------------------------------------------------------------------


@dataclass
class CorpusRow:
    file: str
    expected: str
    observed: str
    match: bool


def _corpus_entries(corpus_dir) -> list[tuple[Path, Workload]]:
    """Every DSL file of the corpus with its workload, all parsed before any
    runs, as ``campaign --corpus`` parses them: a file that does not parse
    is bad input, not a failing row, and its error names the file."""
    return [(path, ace.parse_file(path)) for path in sorted(Path(corpus_dir).glob("*.wl"))]


def _corpus_row(path: Path, workload: Workload, fs_name: str, memo: MountMemo) -> CorpusRow:
    """Run one corpus entry in all-checkpoints mode, mounting its crash
    states through ``memo``; the expected consequence for this target comes
    from a `# consequence[<fs>]:` header (default none)."""
    annotations = ace.corpus_annotations(path.read_text(encoding="utf-8"))
    expected = annotations.get(f"consequence[{fs_name}]", "none")
    verdicts = run_workload(workload, fs_name, RunFlags(all_checkpoints=True), memo)
    # the first failing verdict's consequence, or "harness_error"
    observed = next((v.consequence or v.outcome for v in verdicts if v.outcome != "pass"), "none")
    return CorpusRow(path.name, expected, observed, expected == observed)


def run_corpus(corpus_dir, fs_name: str, *, quiet: bool = False) -> list[CorpusRow]:
    """Run every DSL file of the corpus on ``fs_name``, through one mount memo."""
    memo = MountMemo()
    rows = [_corpus_row(path, w, fs_name, memo) for path, w in _corpus_entries(corpus_dir)]
    if not quiet:
        width = max((len(r.file) for r in rows), default=10)
        for r in rows:
            status = "ok " if r.match else "FAIL"
            print(f"{status} {r.file:<{width}} expected={r.expected} observed={r.observed}")
    return rows


def corpus_variant_map(corpus_dir) -> dict[str, tuple[str, str]]:
    """file -> (mapped buggy target, annotated consequence) for mapped entries."""
    out = {}
    for path in sorted(Path(corpus_dir).glob("*.wl")):
        annotations = ace.corpus_annotations(path.read_text(encoding="utf-8"))
        variant = annotations.get("variant")
        if variant:
            out[path.name] = (variant, annotations.get(f"consequence[{variant}]", "none"))
    return out


def run_mapped_corpus(corpus_dir) -> list[tuple[str, CorpusRow]]:
    """(variant, row) for each mapped entry, run once on its buggy variant,
    through one mount memo, after every entry parsed."""
    memo = MountMemo()
    entries = {path.name: (path, workload) for path, workload in _corpus_entries(corpus_dir)}
    return [
        (variant, _corpus_row(*entries[fname], variant, memo))
        for fname, (variant, _expected) in corpus_variant_map(corpus_dir).items()
    ]


# -- argument parsing --------------------------------------------------------------


def _expect(kind):
    # exactly ``kind``: JSON true is no int, and "false" is no switch
    def convert(value):
        if type(value) is not kind:
            raise ValueError(f"expected {kind.__name__}, got {json.dumps(value)}")
        return value

    return convert


def _names(value) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(v.strip() for v in value.split(",") if v.strip())
    return tuple(map(_expect(str), _expect(list)(value)))


def _op_kinds(value) -> tuple[str, ...]:
    names = _names(value)
    known = [kind.value for kind in FsOpKind]
    for name in names:
        if name not in known:
            raise ValueError(f"unknown op kind {name!r}; choose from {', '.join(known)}")
    return names


def _index_range(value) -> tuple[int, int | None]:
    start, _, end = _expect(str)(value).partition(":")
    return (int(start or 0), int(end) if end else None)


# each campaign setting, named as its flag with underscores, and its conversion
_SETTINGS = {
    "fs": _expect(str),
    "seq": lambda value: tuple(map(_expect(int), _expect(list)(value))),
    "ops": _op_kinds,
    "files": _names,
    "dirs": _names,
    "corpus": _expect(str),
    "workers": _expect(int),
    "all_checkpoints": _expect(bool),
    "subset": _expect(bool),
    "granularity": _expect(str),
    "seed": _expect(int),
    "known_bugs": _expect(str),
    "out": _expect(str),
    "no_group": _expect(bool),
    "range": _index_range,
}


def _config_from_args(args) -> CampaignConfig:
    """The config file's settings overridden by the explicit flags, each
    converted once; CampaignConfig's defaults fill in the rest."""
    path = getattr(args, "config", None)
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    sources = [(flags, "--")]
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                values = json.load(fh)
        except (OSError, ValueError) as e:
            raise ValueError(f"config file {path}: {e}") from None
        if not isinstance(values, dict):
            raise ValueError(f"config file {path}: expected a JSON object")
        sources.insert(0, (values, f"config file {path}: "))
    settings = {}
    for values, where in sources:
        for key, value in values.items():
            if key not in _SETTINGS:
                raise ValueError(f"{where}unknown key {key!r}")
            try:
                settings["index_range" if key == "range" else key] = _SETTINGS[key](value)
            except ValueError as e:
                raise ValueError(f"{where}{key}: {e}") from None
    return CampaignConfig(**settings)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="crashlab")
    sub = parser.add_subparsers(dest="command", required=True)

    # every campaign flag defaults to SUPPRESS, so only explicit flags reach
    # _config_from_args and CampaignConfig's defaults fill in the rest
    p = sub.add_parser(
        "campaign", help="generate and crash-test workloads", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--fs", help="file system target name")
    p.add_argument("--seq", type=int, nargs="+", choices=(1, 2, 3))
    p.add_argument("--ops", help="comma-separated op kinds")
    p.add_argument("--files", help="comma-separated file set override")
    p.add_argument("--dirs", help="comma-separated dir set override")
    p.add_argument("--corpus", help="run corpus dir instead of generating")
    p.add_argument("--workers", type=int)
    p.add_argument("--all-checkpoints", action="store_true")
    p.add_argument("--subset", action="store_true")
    p.add_argument("--granularity", choices=GRANULARITIES)
    p.add_argument("--seed", type=int)
    p.add_argument("--known-bugs", help="known-bug database file")
    p.add_argument("--out", help="report output directory")
    p.add_argument("--no-group", action="store_true")
    p.add_argument("--range", help="campaign index range START:END")
    p.add_argument("--config", help="JSON config file (flags win)")

    p_replay = sub.add_parser("replay", help="re-run one emitted bug report")
    p_replay.add_argument("report_file")
    p_replay.add_argument("index", type=int)

    p_corpus = sub.add_parser("corpus", help="run the regression corpus")
    p_corpus.add_argument("--dir", default=None, help="corpus directory")
    p_corpus.add_argument("--fs", default="soundfs")
    p_corpus.add_argument(
        "--mapped",
        action="store_true",
        help="run each mapped entry on its buggy variant as well",
    )

    args = parser.parse_args(argv)
    # bad input of any subcommand exits 2, never 1, which means new bug groups
    try:
        if args.command == "campaign":
            return run_campaign(_config_from_args(args)).exit_code
        if args.command == "replay":
            replay_report(args.report_file, args.index)
            return EXIT_OK
        corpus_dir = args.dir or default_corpus_dir()
        get_target(args.fs)
        _check_corpus_dir(corpus_dir)
        ok = all(r.match for r in run_corpus(corpus_dir, args.fs))
        if args.mapped:
            for variant, r in run_mapped_corpus(corpus_dir):
                status = "ok " if r.match else "FAIL"
                print(f"{status} {r.file} on {variant}: expected={r.expected} observed={r.observed}")
                ok = ok and r.match
        return EXIT_OK if ok else EXIT_BUGS
    except (OSError, ValueError, ace.GenerationError, HarnessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
