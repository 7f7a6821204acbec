"""Campaign runner and replay tool.

Campaigns generate (or load) workloads, fan them across workers over a
deterministically partitioned index space, test every workload, and emit
grouped, suppression-filtered reports. Exit status 0 means no new bug
groups, for CI use.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from . import ace, report
from .ace import Bounds, Workload
from .blockdev import NoPersistencePointWarning
from .crashgen import GRANULARITIES
from .fsops import FsOpKind
from .fstarget import get_target
from .harness import RunFlags, Verdict, check_state, profile, run_workload, state_for

EXIT_OK = 0
EXIT_BUGS = 1
EXIT_CONFIG = 2


def default_corpus_dir() -> Path:
    return Path(__file__).resolve().parent / "corpus"


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
        if self.corpus is not None and self.index_range is not None:
            raise ValueError("corpus campaigns take no generator index range")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        get_target(self.fs)

    def bounds_for(self, seq_length: int) -> Bounds:
        kwargs = {"seq_length": seq_length}
        if self.ops:
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
    bug_verdicts: int = 0
    harness_errors: int = 0
    reports: list[report.BugReport] = field(default_factory=list)
    groups: list[report.BugGroup] = field(default_factory=list)
    new_groups: list[report.BugGroup] = field(default_factory=list)
    suppressed_reports: int = 0
    group_hash: str = ""
    elapsed: float = 0.0

    def verdict_multiset(self) -> dict[tuple[int, str, str], int]:
        out: dict[tuple[int, str, str], int] = {}
        for rep in self.reports:
            key = (rep.workload_index, rep.crash_descriptor, rep.consequence)
            out[key] = out.get(key, 0) + 1
        return out


def _run_partition(args):
    fs_name, flags, items = args
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoPersistencePointWarning)
        for idx, workload in items:
            out.append((idx, run_workload(workload, fs_name, flags)))
    return out


def _collect_tiers(config: CampaignConfig) -> list[list[tuple[int, Workload]]]:
    """Workload batches in campaign order: shorter sequences first, so every
    seq-k verdict is aggregated before seq-(k+1) starts."""
    if config.corpus is not None:
        corpus_dir = Path(config.corpus)
        files = sorted(corpus_dir.glob("*.wl"))
        return [[(i, ace.parse_file(path)) for i, path in enumerate(files)]]
    start, end = config.index_range or (0, None)
    tiers = []
    offset = 0
    for seq_length in sorted(set(config.seq)):
        bounds = config.bounds_for(seq_length)
        tier = [(offset + w.index, w) for w in ace.workload_range(bounds, start, end)]
        tiers.append(tier)
        if tier:
            offset = tier[-1][0] + 1
    return tiers


def _run_tier(config: CampaignConfig, flags, tier) -> dict[int, list[Verdict]]:
    partitions = [tier[wk :: config.workers] for wk in range(config.workers)]
    results: dict[int, list[Verdict]] = {}
    if config.workers == 1:
        for idx, verdicts in _run_partition((config.fs, flags, partitions[0])):
            results[idx] = verdicts
        return results
    payloads = [(config.fs, flags, part) for part in partitions if part]
    with concurrent.futures.ProcessPoolExecutor(max_workers=config.workers) as pool:
        for chunk in pool.map(_run_partition, payloads):
            for idx, verdicts in chunk:
                results[idx] = verdicts
    return results


def run_campaign(config: CampaignConfig, *, quiet: bool = False) -> CampaignResult:
    config.validate()
    t0 = time.monotonic()
    flags = config.run_flags()
    tiers = _collect_tiers(config)
    items: list[tuple[int, Workload]] = []
    results: dict[int, list[Verdict]] = {}
    for tier in tiers:
        items.extend(tier)
        results.update(_run_tier(config, flags, tier))

    dsl_by_index = {idx: ace.serialize(w) for idx, w in items}
    skeleton_by_index = {idx: str(w.skeleton) for idx, w in items}

    res = CampaignResult(exit_code=EXIT_OK, total_workloads=len(items))
    target = get_target(config.fs)
    debug_seed = (
        target.BUG_SEED.id
        if os.environ.get("CRASHLAB_DEBUG") and target.BUG_SEED is not None
        else ""
    )
    bounds_desc = (
        f"corpus:{config.corpus}"
        if config.corpus
        else ";".join(config.bounds_for(s).describe() for s in sorted(set(config.seq)))
    )
    for idx in sorted(results):
        for verdict in results[idx]:
            res.total_verdicts += 1
            if verdict.outcome == "harness_error":
                res.harness_errors += 1
            elif verdict.is_bug:
                res.bug_verdicts += 1
                res.reports.append(
                    report.BugReport(
                        workload_dsl=dsl_by_index[idx],
                        skeleton=skeleton_by_index[idx],
                        crash_descriptor=verdict.crash_descriptor,
                        consequence=verdict.consequence,
                        diff=[vars(d) for d in verdict.diff],
                        fs_target=config.fs,
                        fs_format_version=target.FORMAT_VERSION,
                        workload_index=idx,
                        bounds=bounds_desc,
                        seed=config.seed,
                        fsck=verdict.fsck,
                        seed_id=debug_seed,
                    )
                )

    if config.no_group:
        res.groups = [
            report.BugGroup(r.skeleton, r.consequence, r, 1) for r in res.reports
        ]
    else:
        res.groups = report.group(res.reports)

    db = report.KnownBugDb.load(config.known_bugs) if config.known_bugs else report.KnownBugDb()
    res.new_groups, res.suppressed_reports = report.suppress_known(res.groups, db)

    group_payload = _groups_json(res.new_groups)
    res.group_hash = hashlib.sha256(group_payload.encode()).hexdigest()
    res.elapsed = time.monotonic() - t0
    res.exit_code = EXIT_OK if not res.new_groups else EXIT_BUGS

    if config.out:
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report.write_reports(out_dir / "reports.jsonl", res.reports)
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
        if res.harness_errors:
            print(f"warning: {res.harness_errors} workloads aborted as harness errors")
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
    try:
        rep = reports[index]
    except IndexError:
        raise ValueError(f"report file has {len(reports)} entries; no index {index}")
    target = get_target(rep.fs_target)
    if target.FORMAT_VERSION != rep.fs_format_version:
        raise ValueError(
            f"report was produced by {rep.fs_target} format "
            f"v{rep.fs_format_version}, this build has v{target.FORMAT_VERSION}; "
            "refusing to replay"
        )
    prof = profile(ace.parse(rep.workload_dsl), rep.fs_target)
    verdict = check_state(prof, state_for(prof, rep.crash_descriptor))
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
    note: str = ""


def run_corpus(corpus_dir, fs_name: str, *, quiet: bool = False) -> list[CorpusRow]:
    """Run every DSL file in all-checkpoints mode; the expected consequence for
    this target comes from a `# consequence[<fs>]:` header (default none)."""
    rows: list[CorpusRow] = []
    flags = RunFlags(all_checkpoints=True)
    for path in sorted(Path(corpus_dir).glob("*.wl")):
        text = path.read_text(encoding="utf-8")
        annotations = ace.corpus_annotations(text)
        expected = annotations.get(f"consequence[{fs_name}]", "none")
        try:
            workload = ace.parse(text)
        except ace.ParseError as e:
            rows.append(CorpusRow(path.name, expected, f"parse_error: {e}", False))
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NoPersistencePointWarning)
            verdicts = run_workload(workload, fs_name, flags)
        observed = "none"
        note = ""
        for v in verdicts:
            if v.outcome == "harness_error":
                observed = "harness_error"
                note = v.reason
                break
            if v.is_bug:
                observed = v.consequence
                note = v.crash_descriptor
                break
        rows.append(CorpusRow(path.name, expected, observed, expected == observed, note))
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


# -- argument parsing --------------------------------------------------------------


def _add_campaign_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fs", default=None, help="file system target name")
    p.add_argument("--seq", type=int, nargs="+", default=None, choices=(1, 2, 3))
    p.add_argument("--ops", default=None, help="comma-separated op kinds")
    p.add_argument("--files", default=None, help="comma-separated file set override")
    p.add_argument("--dirs", default=None, help="comma-separated dir set override")
    p.add_argument("--corpus", default=None, help="run corpus dir instead of generating")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--all-checkpoints", action="store_true", default=None)
    p.add_argument("--subset", action="store_true", default=None)
    p.add_argument("--granularity", choices=GRANULARITIES, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--known-bugs", default=None, help="known-bug database file")
    p.add_argument("--out", default=None, help="report output directory")
    p.add_argument("--no-group", action="store_true", default=None)
    p.add_argument("--range", default=None, help="generator index range START:END")
    p.add_argument("--config", default=None, help="JSON config file (flags win)")


def _config_from_args(args) -> CampaignConfig:
    file_values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)

    def pick(name, default):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_values:
            return file_values[name]
        return default

    rng = pick("range", None)
    index_range = None
    if rng:
        start_s, _, end_s = str(rng).partition(":")
        index_range = (int(start_s or 0), int(end_s) if end_s else None)

    ops = pick("ops", None)
    if isinstance(ops, str):
        ops = tuple(o.strip() for o in ops.split(",") if o.strip())
    files = pick("files", None)
    if isinstance(files, str):
        files = tuple(f.strip() for f in files.split(",") if f.strip())
    dirs = pick("dirs", None)
    if isinstance(dirs, str):
        dirs = tuple(d.strip() for d in dirs.split(",") if d.strip())

    return CampaignConfig(
        fs=pick("fs", "soundfs"),
        seq=tuple(pick("seq", [1])),
        ops=ops,
        files=files,
        dirs=dirs,
        corpus=pick("corpus", None),
        workers=int(pick("workers", 1)),
        all_checkpoints=bool(pick("all_checkpoints", False)),
        subset=bool(pick("subset", False)),
        granularity=pick("granularity", "op"),
        seed=int(pick("seed", 0)),
        known_bugs=pick("known_bugs", None),
        out=pick("out", None),
        no_group=bool(pick("no_group", False)),
        index_range=index_range,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="crashlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_campaign = sub.add_parser("campaign", help="generate and crash-test workloads")
    _add_campaign_args(p_campaign)

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

    if args.command == "campaign":
        try:
            config = _config_from_args(args)
            result = run_campaign(config)
        except (ValueError, ace.GenerationError) as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_CONFIG
        return result.exit_code

    if args.command == "replay":
        try:
            replay_report(args.report_file, args.index)
        except (ValueError, FileNotFoundError) as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_CONFIG
        return EXIT_OK

    if args.command == "corpus":
        corpus_dir = args.dir or default_corpus_dir()
        rows = run_corpus(corpus_dir, args.fs)
        ok = all(r.match for r in rows)
        if args.mapped:
            for fname, (variant, expected) in corpus_variant_map(corpus_dir).items():
                sub_rows = [
                    r
                    for r in run_corpus(corpus_dir, variant, quiet=True)
                    if r.file == fname
                ]
                for r in sub_rows:
                    status = "ok " if r.match else "FAIL"
                    print(f"{status} {r.file} on {variant}: expected={r.expected} observed={r.observed}")
                    ok = ok and r.match
        return EXIT_OK if ok else EXIT_BUGS

    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
