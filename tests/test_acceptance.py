"""Acceptance criteria, one test per criterion, each printing a verdict line.

Budgets are asserted with time.monotonic around the measured work. Campaign
helpers run in-process so throughput numbers reflect the real pipeline.
"""

import itertools
import json
import random
import time

from crashlab.ace import Bounds, gen_skeletons, generate_workloads, serialize
from crashlab.blockdev import DiskImage, IoRecord, split_epochs
from crashlab.cli import (
    CampaignConfig,
    corpus_variant_map,
    default_corpus_dir,
    run_campaign,
    run_corpus,
    run_mapped_corpus,
)
from crashlab.crashgen import build_subset_state, enumerate_target_subsets, prefix_state
from crashlab.fsops import FsOpKind, same_directory
from crashlab.fstarget import VARIANTS
from crashlab.harness import Checkpoint
from image_helper import image_bytes

SIX_OPS = (
    FsOpKind.CREAT,
    FsOpKind.MKDIR,
    FsOpKind.FALLOC,
    FsOpKind.WRITE,
    FsOpKind.MWRITE,
    FsOpKind.LINK,
)


def _emit(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- criterion 1: skeleton counts ------------------------------------------------


def test_acceptance_skeleton_counts():
    t0 = time.monotonic()
    n6 = len(gen_skeletons(Bounds(seq_length=2, allowed_ops=SIX_OPS)))
    n14 = len(gen_skeletons(Bounds(seq_length=3)))
    elapsed = time.monotonic() - t0
    _emit(
        "skeleton-count",
        n6 == 36 and n14 == 2744 and elapsed < 1.0,
        f"6 ops seq-2 -> {n6}, 14 ops seq-3 -> {n14}, {elapsed:.3f}s (< 1s)",
    )


# -- criterion 2: generator oracle equivalence -------------------------------------


def _bruteforce_workloads(files, seq_length):
    """Independent enumerator for {creat, link} over a flat two-file set."""
    def op_choices(created):
        out = [("creat", (f,)) for f in files]
        for s in files:
            for d in files:
                if s != d and d not in created:
                    out.append(("link", (s, d)))
        return out

    def apply_op(created, op):
        created = set(created)
        name, args = op
        created.update(args)
        return frozenset(created)

    seqs = []

    def rec(created, acc):
        if len(acc) == seq_length:
            seqs.append(tuple(acc))
            return
        for kind in ("creat", "link"):
            for op in op_choices(created):
                if op[0] == kind:
                    rec(apply_op(created, op), acc + [op])

    rec(frozenset(), [])

    out = []
    for seq in seqs:
        referenced = sorted({p for _n, args in seq for p in args})
        live_per_slot = []
        created = frozenset()
        for op in seq:
            created = apply_op(created, op)
            live_per_slot.append([t for t in referenced if t in created])
        slot_choices = []
        for i, live in enumerate(live_per_slot):
            choices = [] if i == len(seq) - 1 else [None]
            choices += [("fsync", t) for t in live]
            choices += [("fdatasync", t) for t in live]
            choices.append(("sync", None))
            slot_choices.append(choices)
        for combo in itertools.product(*slot_choices):
            known = set()
            lines = []
            deps = []
            for name, args in seq:
                if name == "link" and args[0] not in known:
                    deps.append(f"creat {args[0]}")
                    known.add(args[0])
                known.update(args)
            if deps:
                lines += ["# deps"] + deps + ["# ops"]
            for op, pp in zip(seq, combo):
                lines.append(f"{op[0]} {' '.join(op[1])}")
                if pp is not None:
                    kind, target = pp
                    lines.append(kind if target is None else f"{kind} {target}")
            out.append("\n".join(lines) + "\n---crash---\n")
    return out


def test_acceptance_generator_equivalence():
    t0 = time.monotonic()
    files = ("bar", "foo")
    total = 0
    for seq_length in (1, 2):
        bounds = Bounds(
            seq_length=seq_length,
            allowed_ops=(FsOpKind.CREAT, FsOpKind.LINK),
            files=files,
            dirs=(),
        )
        generated = {serialize(w) for w in generate_workloads(bounds)}
        everything = set(_bruteforce_workloads(files, seq_length))

        def canonical_kept(text):
            for line in text.splitlines():
                parts = line.split()
                if parts and parts[0] == "link" and same_directory(parts[1], parts[2]):
                    if parts[1] > parts[2]:
                        return False
            return True

        kept = {w for w in everything if canonical_kept(w)}
        assert generated == kept, (
            sorted(generated - kept)[:3],
            sorted(kept - generated)[:3],
        )
        total += len(generated)
    elapsed = time.monotonic() - t0
    _emit(
        "generator-oracle-equivalence",
        elapsed < 10.0,
        f"toy bounds seq<=2 equal to brute force ({total} workloads), {elapsed:.2f}s (< 10s)",
    )


# -- criterion 3: no false positives --------------------------------------------------


def test_acceptance_no_false_positives_seq1():
    t0 = time.monotonic()
    result = run_campaign(CampaignConfig(fs="soundfs", seq=(1,)), quiet=True)
    elapsed = time.monotonic() - t0
    rate = result.total_workloads / elapsed
    _emit(
        "no-false-positives-seq1",
        result.new_groups == [] and result.harness_errors == 0 and elapsed < 60 and rate >= 20,
        f"{result.total_workloads} workloads, 0 expected groups, got "
        f"{len(result.new_groups)}; {elapsed:.1f}s (< 60s), {rate:.0f} wl/s (>= 20)",
    )


def test_acceptance_no_false_positives_seq2_slice():
    t0 = time.monotonic()
    result = run_campaign(
        CampaignConfig(fs="soundfs", seq=(2,), index_range=(0, 5000)), quiet=True
    )
    elapsed = time.monotonic() - t0
    rate = result.total_workloads / elapsed
    _emit(
        "no-false-positives-seq2-slice",
        result.total_workloads == 5000
        and result.new_groups == []
        and result.harness_errors == 0
        and elapsed < 300
        and rate >= 20,
        f"{result.total_workloads} workloads, {len(result.new_groups)} groups, "
        f"{elapsed:.1f}s (< 300s), {rate:.0f} wl/s (>= 20)",
    )


def test_acceptance_no_false_positives_seq3_dir_reuse():
    """A directory's entry block, freed by rmdir while still journaled and
    then written as file data, keeps the data across recovery."""
    t0 = time.monotonic()
    details, ok = [], True
    for all_checkpoints in (False, True):
        result = run_campaign(
            CampaignConfig(
                fs="soundfs",
                seq=(3,),
                ops=("mkdir", "rmdir", "write"),
                files=("foo",),
                dirs=("A",),
                all_checkpoints=all_checkpoints,
            ),
            quiet=True,
        )
        ok = ok and result.bug_verdicts == 0 and result.harness_errors == 0
        details.append(
            f"{'all-checkpoints' if all_checkpoints else 'default'}: "
            f"{result.total_workloads} workloads, {result.bug_verdicts} bug verdicts, "
            f"{result.harness_errors} harness errors"
        )
    elapsed = time.monotonic() - t0
    _emit(
        "no-false-positives-seq3-dir-reuse",
        ok and elapsed < 60,
        "; ".join(details) + f"; {elapsed:.1f}s (< 60s)",
    )


# -- criterion 4: seeded-bug detection --------------------------------------------------


def _campaign_consequences(fs_name, seq_length, ops=None, files=None, dirs=None):
    config = CampaignConfig(
        fs=fs_name,
        seq=(seq_length,),
        ops=ops,
        files=files,
        dirs=dirs,
    )
    result = run_campaign(config, quiet=True)
    return {g.consequence for g in result.new_groups}


_TRIGGER_OPS = {
    "bugfs-b1": ("creat", "link"),
    "bugfs-b2": ("creat", "rename"),
    "bugfs-b5": ("write", "rename"),
    "bugfs-b6": ("unlink", "creat"),
}


def test_acceptance_seeded_bug_detection():
    missed = []
    details = []
    for variant in VARIANTS:
        seed = variant.BUG_SEED
        want = seed.consequence_class
        seq1 = _campaign_consequences(variant.NAME, 1)
        if want in seq1:
            found_at = 1
        else:
            ops = _TRIGGER_OPS[variant.NAME]
            seq2 = _campaign_consequences(
                variant.NAME, 2, ops=ops, files=("foo", "bar"), dirs=()
            )
            found_at = 2 if want in seq2 else None
        if found_at is None or found_at > max(seed.min_seq, 2):
            missed.append(seed.id)
        if seed.id in ("B3", "B4") and found_at != 1:
            missed.append(seed.id + "(must be seq-1)")
        if seed.id in ("B5", "B6") and found_at == 1:
            missed.append(seed.id + "(fired before its trigger length)")
        details.append(f"{seed.id}->seq-{found_at}:{want}")
    _emit(
        "seeded-bug-detection",
        not missed,
        "; ".join(details) + (f"; missed={missed}" if missed else "; zero misses"),
    )


# -- criterion 5: regression corpus ---------------------------------------------------


def test_acceptance_regression_corpus():
    rows = run_corpus(default_corpus_dir(), "soundfs", quiet=True)
    sound_ok = len(rows) == 37 and all(r.match and r.expected == "none" for r in rows)
    mapping = corpus_variant_map(default_corpus_dir())
    mapped_ok = True
    mapped_detail = []
    for variant, r in run_mapped_corpus(default_corpus_dir()):
        mapped_ok = mapped_ok and r.match
        mapped_detail.append(f"{r.file}->{variant}:{r.expected}:{'ok' if r.match else 'FAIL'}")
    block_count_case = mapping.get("known_02.wl") == (
        "bugfs-b3",
        "metadata_mismatch(block_count)",
    )
    _emit(
        "regression-corpus",
        sound_ok and mapped_ok and block_count_case,
        f"37 clean on soundfs={sound_ok}; " + "; ".join(mapped_detail),
    )


# -- criterion 6: crash-state exhaustiveness --------------------------------------------


def test_acceptance_crash_state_exhaustiveness():
    size = 16 * 1024
    base = DiskImage.zeroed(size)
    formatted = [Checkpoint(0, base, None, {})]
    log = [IoRecord(i * 2, bytes([0x20 + i]) * 512) for i in range(4)]
    images = {}
    pre = prefix_state(formatted, log, split_epochs(log), 0)
    for kept in enumerate_target_subsets(pre):
        state = build_subset_state(pre, kept)
        # eager oracle: apply kept writes directly
        buf = bytearray(size)
        units = [(r.sector, r.data) for r in log]
        for idx in kept:
            sec, data = units[idx]
            buf[sec * 512 : sec * 512 + len(data)] = data
        assert image_bytes(state.image) == bytes(buf), kept
        images[image_bytes(state.image)] = kept
    count_ok = len(images) == 16

    rng = random.Random(20260808)
    order_ok = True
    trials = 0
    for _ in range(1000):
        log = []
        for i in range(rng.randint(2, 4)):
            sec = rng.randrange(0, 6)
            log.append(IoRecord(sec, bytes([0x30 + i]) * (512 * rng.randint(1, 2))))
        units = [(r.sector, r.data) for r in log]
        pre = prefix_state(formatted, log, split_epochs(log), 0)
        for kept in enumerate_target_subsets(pre):
            image = build_subset_state(pre, kept).image
            expect = bytearray(size)
            for idx in kept:
                sec, data = units[idx]
                expect[sec * 512 : sec * 512 + len(data)] = data
            if image_bytes(image) != bytes(expect):
                order_ok = False
        trials += 1
    _emit(
        "crash-state-exhaustiveness",
        count_ok and order_ok and trials == 1000,
        f"16 distinct byte-exact states={count_ok}; order preserved on {trials} randomized logs={order_ok}",
    )


# -- criterion 7: determinism ------------------------------------------------------------


def test_acceptance_campaign_determinism(tmp_path):
    config = dict(
        fs="bugfs-b1", seq=(1, 2), ops=("creat", "link"), files=("foo", "bar"), dirs=()
    )
    runs = []
    for name, workers in (("first", 1), ("rerun", 1), ("workers4", 4)):
        out = tmp_path / name
        res = run_campaign(CampaignConfig(**config, workers=workers, out=str(out)), quiet=True)
        files = [(out / f).read_bytes() for f in ("reports.jsonl", "groups.json", "summary.json")]
        runs.append((res, files))
    r1, files1 = runs[0]
    same = all(files == files1 and res.group_hash == r1.group_hash for res, files in runs)
    _emit(
        "campaign-determinism",
        same,
        f"report files and group hashes byte-identical across reruns and workers "
        f"({r1.bug_verdicts} bug verdicts, hash {r1.group_hash[:12]})",
    )


# -- criterion 8: dedup arithmetic ----------------------------------------------------------


def test_acceptance_dedup_arithmetic(tmp_path):
    db_path = tmp_path / "known.json"
    config = dict(
        fs="bugfs-b1",
        seq=(2,),
        ops=("creat", "link"),
        files=("foo", "bar"),
        dirs=(),
        known_bugs=str(db_path),
    )
    first = run_campaign(CampaignConfig(**config), quiet=True)
    arithmetic_first = (
        sum(g.size for g in first.groups) + 0 == first.bug_verdicts
        and first.suppressed_reports == 0
    )
    entries = [{"skeleton": g.skeleton, "consequence": g.consequence} for g in first.groups]
    db_path.write_text(json.dumps({"schema": 1, "entries": entries}))
    second = run_campaign(CampaignConfig(**config), quiet=True)
    arithmetic_second = (
        sum(g.size for g in second.new_groups) + second.suppressed_reports
        == second.bug_verdicts
    )
    _emit(
        "dedup-arithmetic",
        arithmetic_first
        and arithmetic_second
        and first.bug_verdicts > 0
        and second.new_groups == []
        and second.exit_code == 0,
        f"{first.bug_verdicts} bug verdicts = {sum(g.size for g in first.groups)} grouped; "
        f"after export: {second.suppressed_reports} suppressed, "
        f"{len(second.new_groups)} new groups",
    )
