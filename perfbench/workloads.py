"""The benchmark's workloads and the check each campaign's output must pass.

Every workload is a closed-loop batch: one process runs a unit of campaigns
back to back through ``crashlab.cli.run_campaign``, the public campaign
API, and the runner repeats the unit until its time is up. Why each one was
chosen:

seq2-default
    SoundFS, a 500-workload slice at the start of the seq-2 tier (the
    region the acceptance suite's 0:5000 slice covers), default mode, one
    worker, run as five campaigns of 100. ``harness.profile`` (apply ops,
    commit, capture oracles) does most of the work; crashgen does nothing.
    Hot-path work shows here.
seq1-subset
    SoundFS, the seq-1 write and direct-write workloads 590:640 with
    ``--subset --granularity op``, run as ten campaigns of five. Their data
    epochs hold several write records, so the crash-state side (subset
    build, mount, compare) dominates and profile is small. The full seq-1
    subset tier takes about a minute, too long for one run; this
    deterministic part keeps the multi-unit data epochs.
bughunt
    The six bugfs-b* variants at the sequence lengths where the acceptance
    suite expects each bug, each restricted to its trigger ops: B1-B4 on
    seq 1, B5 and B6 on seq 2 with files foo,bar and no directories, B5 on
    the last 248 workloads of its tier, where the write-then-rename
    workloads sit. The check path runs the other way here: diffs,
    classification, fsck on unmountable states (B6), real bug groups and
    report writing, plus the variants' commit-policy overrides. The trigger
    ops keep a round near 3 s, so a run times each campaign several times;
    on the whole seq-1 tier B1-B4 take about 11 s a round.
seq2-deep
    SoundFS, a 250-workload seq-2 slice starting near index 25,000, two
    workers. Generation regenerates the tier from index 0, so ``ace``
    dominates, and the parent pickles the slice to the worker processes.

``--granularity sector`` is left out on purpose: on an epoch with many
sectors it does not finish, because ``enumerate_target_subsets`` builds the
full 2^n subset pool before it samples. It joins once that is bounded.

The seed feeds the campaign's ``--seed`` (the subset sampling seed) and
shifts the seq-2 slices by up to 100 workloads. Neither changes how many
workloads or crash states a campaign has, so the recorded counts hold for
every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from crashlab.cli import CampaignConfig, CampaignResult
from crashlab.fstarget import get_target

NAMES = ("seq2-default", "seq1-subset", "bughunt", "seq2-deep")

# The soundfs slices of seq2-default and seq1-subset run as campaigns of
# about 0.2-0.4 s, each timed on its own (see run.py for why).
SEQ2_CHUNK = 100
SUBSET_CHUNK = 5

# Each variant's campaign: its trigger ops at the sequence length where the
# acceptance suite expects its bug. B5's is the part of its tier that holds
# the write-then-rename workloads.
_BUGHUNT = {
    "bugfs-b1": dict(seq=(1,), ops=("creat", "link")),
    "bugfs-b2": dict(seq=(1,), ops=("creat", "rename")),
    "bugfs-b3": dict(seq=(1,), ops=("falloc",)),
    "bugfs-b4": dict(seq=(1,), ops=("dwrite",)),
    "bugfs-b5": dict(
        seq=(2,), ops=("write", "rename"), files=("foo", "bar"), dirs=(), index_range=(1000, 1248)
    ),
    "bugfs-b6": dict(seq=(2,), ops=("unlink", "creat"), files=("foo", "bar"), dirs=()),
}


@dataclass(frozen=True)
class Campaign:
    config: CampaignConfig
    workloads: int
    verdicts: int
    group_hash: str
    consequence: str | None = None  # the class a buggy target must report


def _shift(seed: int) -> int:
    return 10 * (seed % 11)


def campaigns(name: str, seed: int, out_root: Path, reference: dict) -> list[Campaign]:
    """The campaigns of one unit of the named workload."""
    clean = reference["soundfs_group_hash"]
    out = str(out_root / name)
    if name == "seq2-default":
        start = _shift(seed)
        # default mode tests one checkpoint per workload
        return [
            Campaign(
                CampaignConfig(
                    fs="soundfs",
                    seq=(2,),
                    index_range=(lo, lo + SEQ2_CHUNK),
                    seed=seed,
                    out=f"{out}/{lo}",
                ),
                SEQ2_CHUNK,
                SEQ2_CHUNK,
                clean,
            )
            for lo in range(start, start + 500, SEQ2_CHUNK)
        ]
    if name == "seq1-subset":
        verdicts = reference["seq1-subset"]["verdicts_per_campaign"]
        return [
            Campaign(
                CampaignConfig(
                    fs="soundfs",
                    seq=(1,),
                    index_range=(lo, lo + SUBSET_CHUNK),
                    subset=True,
                    granularity="op",
                    seed=seed,
                    out=f"{out}/{lo}",
                ),
                SUBSET_CHUNK,
                n,
                clean,
            )
            for lo, n in zip(range(590, 640, SUBSET_CHUNK), verdicts, strict=True)
        ]
    if name == "seq2-deep":
        start = 25_000 + _shift(seed)
        cfg = CampaignConfig(
            fs="soundfs",
            seq=(2,),
            index_range=(start, start + 250),
            workers=2,
            seed=seed,
            out=out,
        )
        return [Campaign(cfg, 250, 250, clean)]
    if name == "bughunt":
        units = []
        for fs, ref in reference["bughunt"].items():
            cfg = CampaignConfig(fs=fs, seed=seed, out=f"{out}/{fs}", **_BUGHUNT[fs])
            consequence = get_target(fs).BUG_SEED.consequence_class
            units.append(
                Campaign(cfg, ref["workloads"], ref["verdicts"], ref["group_hash"], consequence)
            )
        return units
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def targets(name: str, reference: dict) -> list[str]:
    return list(reference["bughunt"]) if name == "bughunt" else ["soundfs"]


def check(campaign: Campaign, res: CampaignResult) -> list[str]:
    """Problems with one campaign's output; empty when it is correct."""
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{campaign.config.fs}: {what} {got!r}, expected {want!r}")

    expect("workloads", res.total_workloads, campaign.workloads)
    expect("verdicts", res.total_verdicts, campaign.verdicts)
    expect("harness errors", res.harness_errors, 0)
    expect("group hash", res.group_hash, campaign.group_hash)
    found = {g.consequence for g in res.new_groups}
    if campaign.consequence is None:
        expect("groups", len(res.groups), 0)
    elif campaign.consequence not in found:
        problems.append(f"{campaign.config.fs}: missed {campaign.consequence}, found {sorted(found)}")

    out = Path(campaign.config.out)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    expect("summary.json group hash", summary["group_hash"], res.group_hash)
    expect("summary.json workloads", summary["workloads"], res.total_workloads)
    with open(out / "reports.jsonl", encoding="utf-8") as fh:
        expect("reports.jsonl lines", sum(1 for _ in fh), len(res.reports))
    return problems
