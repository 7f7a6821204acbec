"""Workload generation: counts, symmetry, persistence points, dependencies, DSL."""

import collections
import hashlib
import itertools
import math
import random

import pytest

from crashlab import ace
from crashlab.ace import (
    Bounds,
    GenerationStats,
    ParseError,
    Skeleton,
    UnsatisfiableBody,
    _apply_effect,
    _SymState,
    gen_skeletons,
    generate_workloads,
    parse,
    serialize,
)
from crashlab.fsops import FsOp, FsOpKind, PersistKind, PersistOp, same_directory

SIX_OPS = (
    FsOpKind.CREAT,
    FsOpKind.MKDIR,
    FsOpKind.FALLOC,
    FsOpKind.WRITE,
    FsOpKind.MWRITE,
    FsOpKind.LINK,
)


# -- phase 1 -------------------------------------------------------------------


def test_six_ops_seq2_yields_36_skeletons():
    skeletons = gen_skeletons(Bounds(seq_length=2, allowed_ops=SIX_OPS))
    assert len(skeletons) == 36
    assert len(set(skeletons)) == 36


def test_single_op_seq1_yields_one_skeleton():
    assert len(gen_skeletons(Bounds(seq_length=1, allowed_ops=(FsOpKind.CREAT,)))) == 1


def test_fourteen_ops_seq3_yields_2744():
    assert len(gen_skeletons(Bounds(seq_length=3))) == 14**3


def test_skeletons_lexicographic_no_duplicates():
    bounds = Bounds(seq_length=2, allowed_ops=(FsOpKind.CREAT, FsOpKind.LINK))
    got = [s.ops for s in gen_skeletons(bounds)]
    assert got == sorted(got, key=lambda t: [bounds.allowed_ops.index(k) for k in t])


def test_empty_allowed_ops_rejected():
    with pytest.raises(ace.GenerationError):
        Bounds(seq_length=1, allowed_ops=())


# -- phase 2 -------------------------------------------------------------------


def _bodies(skeleton, bounds):
    """The op tuples of the skeleton's parameter groups, in stream order."""
    return [ops for ops, _states, _offset in ace._Walk(bounds).groups(skeleton)]


def _group(ops, bounds):
    """(prologue, choices) of the parameter group whose ops are ``ops``."""
    skeleton = Skeleton(tuple(op.kind for op in ops))
    for group_ops, states, _offset in ace._Walk(bounds).groups(skeleton):
        if group_ops == ops:
            return tuple(states[-1].prologue), ace._persistence_choices(ops, states)
    raise AssertionError(f"no parameter group {ops}")


def _body_count(choices):
    return math.prod(len(c) for c in choices)


def test_link_symmetric_pair_collapses():
    bounds = Bounds(seq_length=2, allowed_ops=(FsOpKind.LINK,), files=("foo", "bar"), dirs=())
    seqs = _bodies(Skeleton((FsOpKind.LINK,)), bounds)
    assert seqs == [(FsOp(FsOpKind.LINK, path="bar", path2="foo"),)]


def test_creat_expansion_one_per_file_slot():
    """Single-path ops are never collapsed: count equals the file slots."""
    bounds = Bounds(seq_length=1)
    seqs = _bodies(Skeleton((FsOpKind.CREAT,)), bounds)
    # independent brute-force: every file path is a valid fresh-creat target
    assert len(seqs) == len(bounds.files)
    assert [s[0].path for s in seqs] == list(bounds.files)


def test_empty_file_set_expands_to_nothing():
    bounds = Bounds(seq_length=1, files=(), dirs=())
    assert _bodies(Skeleton((FsOpKind.CREAT,)), bounds) == []


def test_cross_directory_pairs_not_collapsed():
    bounds = Bounds(seq_length=1, files=("foo", "A/foo"), dirs=("A",))
    seqs = _bodies(Skeleton((FsOpKind.LINK,)), bounds)
    pairs = {(s[0].path, s[0].path2) for s in seqs}
    assert ("foo", "A/foo") in pairs and ("A/foo", "foo") in pairs


def test_mkdir_after_implied_dependency_is_invalid():
    # creat A/foo forces A as a dependency, so a later mkdir A must not appear
    bounds = Bounds(seq_length=2, files=("A/foo",), dirs=("A",))
    seqs = _bodies(Skeleton((FsOpKind.CREAT, FsOpKind.MKDIR)), bounds)
    assert seqs == []


def test_overlap_expansions_present():
    """Write-class expansion includes overlapping writes to the same file."""
    bounds = Bounds(seq_length=2, files=("foo",), dirs=())
    seqs = _bodies(Skeleton((FsOpKind.WRITE, FsOpKind.WRITE)), bounds)
    overlapping = [
        s
        for s in seqs
        if s[0].path == s[1].path and s[1].start < s[0].end and s[0].start < s[1].end
    ]
    assert overlapping


def test_write_class_ranges():
    from crashlab.ace import _overwrite_range

    assert _overwrite_range(0, "overwrite_start") == (0, 4096)
    assert _overwrite_range(0, "overwrite_middle") == (8192, 12288)
    assert _overwrite_range(0, "overwrite_end") == (12288, 16384)
    assert _overwrite_range(0, "append") == (0, 4096)
    assert _overwrite_range(8192, "append") == (8192, 12288)
    assert _overwrite_range(32768, "overwrite_middle") == (16384, 20480)
    assert _overwrite_range(32768, "overwrite_end") == (28672, 32768)


# -- phase 3 -------------------------------------------------------------------


def _persist_variants_oracle(target_counts):
    """Brute-force count: per slot 1 + 2p (+1 for the none option on non-final
    slots), multiplied out."""
    total = 1
    for i, p in enumerate(target_counts):
        choices = 2 * p + 1
        if i != len(target_counts) - 1:
            choices += 1
        total *= choices
    return total


def test_seq1_persistence_variant_count():
    bounds = Bounds(seq_length=1)
    _prologue, choices = _group((FsOp(FsOpKind.CREAT, path="foo"),), bounds)
    # one live target (foo): fsync, fdatasync, sync
    assert _body_count(choices) == _persist_variants_oracle([1]) == 3


def test_seq1_persistence_with_parent_dir_target():
    bounds = Bounds(seq_length=1)
    _prologue, choices = _group((FsOp(FsOpKind.CREAT, path="A/foo"),), bounds)
    # targets: A/foo and its parent A
    assert _body_count(choices) == _persist_variants_oracle([2]) == 5


def test_seq2_persistence_variant_count():
    bounds = Bounds(seq_length=2)
    ops = (FsOp(FsOpKind.CREAT, path="foo"), FsOp(FsOpKind.CREAT, path="bar"))
    _prologue, choices = _group(ops, bounds)
    # slot 1: foo live, bar referenced-but-dead -> p=1 -> none+fsync+fdatasync+sync = 4
    # slot 2: both live -> p=2 -> 5
    assert _body_count(choices) == _persist_variants_oracle([1, 2]) == 20


def test_final_op_always_followed_by_persistence_point():
    bounds = Bounds(
        seq_length=2, allowed_ops=(FsOpKind.CREAT, FsOpKind.UNLINK), files=("foo", "bar"), dirs=()
    )
    workloads = list(generate_workloads(bounds))
    assert workloads
    for w in workloads:
        assert isinstance(w.steps[-1], PersistOp)


def test_dead_targets_not_offered():
    bounds = Bounds(seq_length=1, files=("foo",), dirs=())
    _prologue, choices = _group((FsOp(FsOpKind.UNLINK, path="foo"),), bounds)
    # only sync remains once the single referenced file is gone
    assert choices == [[PersistOp(PersistKind.SYNC)]]


# -- dependency prologue ------------------------------------------------------------


def test_rename_dependency_prologue():
    # of the pair {A/foo, A/bar} only the ordered rename A/bar -> A/foo is generated
    prologue, _choices = _group((FsOp(FsOpKind.RENAME, path="A/bar", path2="A/foo"),), Bounds())
    assert prologue == (
        FsOp(FsOpKind.MKDIR, path="A"),
        FsOp(FsOpKind.CREAT, path="A/bar"),
    )


def test_creat_needs_no_prologue():
    prologue, _choices = _group((FsOp(FsOpKind.CREAT, path="foo"),), Bounds())
    assert prologue == ()


def test_prologue_minimal_no_duplicate_deps():
    ops = (
        FsOp(FsOpKind.WRITE, path="A/bar", start=0, end=4096),
        FsOp(FsOpKind.LINK, path="A/bar", path2="A/foo"),
    )
    prologue, _choices = _group(ops, Bounds(seq_length=2))
    assert prologue == (
        FsOp(FsOpKind.MKDIR, path="A"),
        FsOp(FsOpKind.CREAT, path="A/bar"),
    )


def test_rmdir_root_rejected():
    with pytest.raises(UnsatisfiableBody):
        _apply_effect(_SymState(Bounds()), FsOp(FsOpKind.RMDIR, path="/"))


def test_removexattr_dependency_sets_attribute():
    ops = (FsOp(FsOpKind.XATTR, path="foo", attr="u1", variant="removexattr"),)
    prologue, _choices = _group(ops, Bounds())
    assert prologue == (
        FsOp(FsOpKind.CREAT, path="foo"),
        FsOp(FsOpKind.XATTR, path="foo", attr="u1", value="val1", variant="setxattr"),
    )


def test_all_seq1_workloads_execute_cleanly():
    """Zero precondition failures across the full default seq-1 stream."""
    from crashlab.fstarget import FsError, SoundFs, Unmountable
    from crashlab.harness import mkfs_base_image
    from crashlab.blockdev import Device

    base = mkfs_base_image("soundfs")
    count = 0
    for w in generate_workloads(Bounds(seq_length=1)):
        dev = Device(4 * 1024 * 1024, base)
        fs = SoundFs.mount_device(dev)
        assert not isinstance(fs, Unmountable)
        try:
            for i, op in enumerate(w.prologue):
                fs.apply(op, i)
            n = len(w.prologue)
            for step in w.steps:
                if isinstance(step, FsOp):
                    fs.apply(step, n)
                    n += 1
                else:
                    fs.persist(step.kind, step.target)
        except FsError as e:
            pytest.fail(f"workload {w.index} failed: {e}\n{serialize(w)}")
        count += 1
    assert count > 0


# -- DSL ------------------------------------------------------------------------


def test_fig_example_serialization_shape():
    text = "creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar\n"
    w = parse(text)
    assert serialize(w) == text + "---crash---\n"


def test_roundtrip_generated_workloads():
    for w in itertools.islice(generate_workloads(Bounds(seq_length=2)), 300):
        again = parse(serialize(w))
        # parsed text carries no generator index, so compare everything else
        assert (again.prologue, again.steps, again.skeleton) == (w.prologue, w.steps, w.skeleton)


def test_parse_unknown_op_reports_line():
    with pytest.raises(ParseError) as e:
        parse("frobnicate foo")
    assert e.value.lineno == 1


@pytest.mark.parametrize(
    "line, message",
    [
        ("truncate -5 foo", "bad arguments for truncate: negative size -5"),
        ("write (8K-4K) foo", "bad arguments for write: range '(8K-4K)' ends before it starts"),
        ("falloc (0--4K) foo", "bad arguments for falloc: negative size -4096"),
    ],
    ids=["negative-size", "reversed-range", "negative-range-end"],
)
def test_parse_rejects_negative_sizes_and_reversed_ranges(line, message):
    """A negative size would index a block list from its end, and a
    reversed range would write nothing yet extend the file."""
    with pytest.raises(ParseError) as e:
        parse(f"creat foo\n{line}\n")
    assert e.value.lineno == 2
    assert str(e.value) == f"line 2: {message}"


def test_parse_ranges_and_flags():
    w = parse("falloc -k (8-16K) foo\nwrite (0-16K) foo\ntruncate 2500 foo\nsync\n")
    ops = w.steps
    assert ops[0].start == 8 and ops[0].end == 16384
    assert ops[0].flag.value == "keep_size"
    assert ops[1].end == 16384
    assert ops[2].end == 2500


def test_crash_marker_stops_parsing():
    w = parse("creat foo\n---crash---\ncreat bar\n")
    assert [o.path for o in w.steps] == ["foo"]


# -- stream properties -------------------------------------------------------------


def test_generation_deterministic():
    bounds = Bounds(seq_length=2, allowed_ops=(FsOpKind.CREAT, FsOpKind.RENAME), files=("foo", "bar"), dirs=())
    a = [serialize(w) for w in generate_workloads(bounds)]
    b = [serialize(w) for w in generate_workloads(bounds)]
    assert a == b and len(a) > 0


def test_bounds_monotonicity_ops_and_files():
    small = Bounds(seq_length=1, allowed_ops=(FsOpKind.CREAT,), files=("foo",), dirs=())
    more_ops = Bounds(seq_length=1, allowed_ops=(FsOpKind.CREAT, FsOpKind.MKDIR), files=("foo",), dirs=())
    more_files = Bounds(seq_length=1, allowed_ops=(FsOpKind.CREAT,), files=("foo", "bar"), dirs=())
    base = {serialize(w) for w in generate_workloads(small)}
    assert base <= {serialize(w) for w in generate_workloads(more_ops)}
    assert base <= {serialize(w) for w in generate_workloads(more_files)}


def _indexed_dsl(workloads):
    return [(w.index, str(w.skeleton), serialize(w)) for w in workloads]


def test_workloads_index_addressable():
    bounds = Bounds(seq_length=1, allowed_ops=(FsOpKind.CREAT, FsOpKind.LINK))
    all_ws = list(generate_workloads(bounds))
    sliced = ace.workload_range(bounds, 3, 7)
    assert [w.index for w in sliced] == [3, 4, 5, 6]
    assert [serialize(w) for w in sliced] == [serialize(w) for w in all_ws[3:7]]
    assert _indexed_dsl(ace.workload_range(bounds, 5, None)) == _indexed_dsl(all_ws[5:])
    assert ace.workload_range(bounds, len(all_ws), None) == []
    assert ace.workload_range(bounds, len(all_ws) + 10, len(all_ws) + 20) == []


_SEQ2 = Bounds(seq_length=2)
_WRITE_RENAME = Bounds(
    seq_length=2, allowed_ops=(FsOpKind.WRITE, FsOpKind.RENAME), files=("foo", "bar"), dirs=()
)


@pytest.mark.parametrize(
    "bounds, start, end",
    [
        (_SEQ2, 1343, 1346),  # across the creat-creat / creat-mkdir boundary at 1344
        (_SEQ2, 1344, 1400),  # from a skeleton's first group over two more groups
        (_SEQ2, 25000, 25010),  # inside the group 24980:25034
        (_WRITE_RENAME, 1000, 1248),  # to the end of the tier
    ],
    ids=["skeleton-boundary", "skeleton-start", "mid-group", "tier-end"],
)
def test_workload_range_seeks_to_the_stream_index(bounds, start, end):
    expected = itertools.islice(generate_workloads(bounds), start, end)
    assert _indexed_dsl(ace.workload_range(bounds, start, end)) == _indexed_dsl(expected)


def _replay_symbolically(w, bounds):
    """Apply the prologue, then the body, to a fresh symbolic state: every op
    must succeed without adding a dependency, and every persistence target
    must exist and resolve when it is reached."""
    st = _SymState(bounds)
    for op in w.prologue:
        _apply_effect(st, op)
    assert st.prologue == []
    for step in w.steps:
        if isinstance(step, FsOp):
            _apply_effect(st, step)
        elif step.kind is not PersistKind.SYNC:
            assert st.resolve(step.target) is not None, serialize(w)
    assert st.prologue == [], serialize(w)


def test_every_generated_body_resolves():
    """The seek skips a parameter group by its body count, which holds only if
    no body of the group is rejected; each emitted workload must replay
    symbolically from its own prologue."""
    bounds = Bounds(seq_length=1)
    bodies = ace.count_workloads(bounds)
    stats = GenerationStats()
    workloads = list(generate_workloads(bounds, stats))
    for w in workloads:
        _replay_symbolically(w, bounds)
    assert len(workloads) == bodies == 1415
    assert stats.emitted == bodies and stats.rejected == 0


@pytest.mark.parametrize(
    "bounds, total",
    [(Bounds(seq_length=1), 1415), (Bounds(seq_length=2, files=("foo", "bar"), dirs=()), 97804)],
    ids=["seq1", "seq2-foo-bar"],
)
def test_body_count_matches_the_built_choices(bounds, total):
    """The seek and count_workloads count a group from its symbolic states
    without building its persistence choices; the count must be the number
    of bodies those choices give."""
    for skeleton in gen_skeletons(bounds):
        for ops, states, _offset in ace._Walk(bounds).groups(skeleton):
            built = ace._persistence_choices(ops, states)
            assert ace._body_count(ops, states) == _body_count(built), ops
    assert ace.count_workloads(bounds) == total


def test_stream_digest_is_pinned():
    """The generator's output, as (index, DSL), over seq 1 and two seq-2
    slices; any change to the stream changes this digest."""
    h = hashlib.sha256()
    slices = ((Bounds(seq_length=1), 0, None), (_SEQ2, 0, 3000), (_SEQ2, 25000, 25250))
    for bounds, start, end in slices:
        for w in ace.workload_range(bounds, start, end):
            h.update(f"{w.index}\n{serialize(w)}".encode())
    assert h.hexdigest() == "e8c3b6e5517dbe204301add8cd345a61cfe277efa6d4bba925c49414206f61d1"


# -- the shape-counted walk against a group-by-group reference -----------------------


def _reference_groups(skeleton, bounds, st=None, ops=(), states=()):
    """The parameter groups in stream order, every valid candidate applied:
    the walk the seek and the count once took."""
    if st is None:
        st = _SymState(bounds)
    for op in ace._candidates(skeleton.ops[len(ops)], st, bounds):
        child = st.clone()
        try:
            _apply_effect(child, op)
        except UnsatisfiableBody:
            continue
        body, after = ops + (op,), states + (child,)
        if len(body) == len(skeleton.ops):
            yield body, after
        else:
            yield from _reference_groups(skeleton, bounds, child, body, after)


def _reference(bounds, starts, length):
    """The tier's size, counted group by group, and for each start s the
    workloads [s, s + length) as ``_indexed_dsl`` gives them, built from the
    groups they fall in."""
    slices = {s: [] for s in starts}
    index = 0
    for skeleton in gen_skeletons(bounds):
        for ops, states in _reference_groups(skeleton, bounds):
            count = ace._body_count(ops, states)
            hits = [s for s in starts if s < index + count and index < s + length]
            if hits:
                combos = itertools.product(*ace._persistence_choices(ops, states))
                prologue = tuple(states[-1].prologue)
                for i, combo in enumerate(combos, start=index):
                    w = ace.Workload(prologue, ace._weave(ops, combo), skeleton, i)
                    for s in hits:
                        if s <= i < s + length:
                            slices[s].extend(_indexed_dsl([w]))
            index += count
    return index, slices


def _kinds(ops):
    return tuple(FsOpKind(o) for o in ops.split(","))


_TIERS = {
    "seq1": (Bounds(seq_length=1), 1415),
    "seq2-foo-bar": (Bounds(seq_length=2, files=("foo", "bar"), dirs=()), 97804),
    "seq2": (_SEQ2, 3858556),
    # the bounded seq-3 tiers of the paper's exploration (ROADMAP item 5)
    "seq3-data": (
        Bounds(3, _kinds("write,dwrite,mwrite,falloc"), files=("foo",), dirs=()),
        1572864,
    ),
    "seq3-metadata": (
        Bounds(3, _kinds("creat,link,unlink,rename"), files=("foo", "bar"), dirs=()),
        6500,
    ),
    "seq3-nested": (
        Bounds(3, _kinds("mkdir,rmdir,rename,link,unlink"), files=("foo", "A/foo"), dirs=("A",)),
        12556,
    ),
    "seq3-dir-reuse": (Bounds(3, _kinds("mkdir,rmdir,write"), files=("foo",), dirs=("A",)), 11456),
}


@pytest.mark.parametrize("tier", list(_TIERS))
def test_count_and_seek_match_the_group_by_group_reference(tier):
    """``count_workloads`` and ``workload_range`` count subtrees by op shape;
    both must agree with a walk that applies and counts every group, at
    seeded random starts and at and past the tier end."""
    bounds, size = _TIERS[tier]
    rng = random.Random(f"seek-{tier}")
    length = 40
    starts = {0, size - length, size - 1, size, size + 1} | {rng.randrange(size) for _ in range(6)}
    total, slices = _reference(bounds, starts, length)
    assert ace.count_workloads(bounds) == total == size
    for s in starts:
        got = _indexed_dsl(ace.workload_range(bounds, s, s + length))
        assert got == slices[s], s
        assert len(got) == max(0, min(length, size - s))


def _without_sizes(st):
    return {k: v for k, v in vars(st).items() if k != "sizes"}


@pytest.mark.parametrize("kind", list(FsOpKind), ids=lambda k: k.value)
def test_candidates_of_one_shape_differ_only_in_sizes(kind):
    """The seek and the count apply one candidate per shape (all of an op but
    its range and flag) and multiply: over the states the seq-1 groups
    leave, each shape must have as many candidates as on an empty state,
    and they must all fail or all leave states that differ only in sizes."""
    bounds = Bounds(seq_length=1)
    empty = _SymState(bounds)
    states = [empty] + [
        after[-1]
        for skeleton in gen_skeletons(bounds)
        for _ops, after in _reference_groups(skeleton, bounds)
    ]
    counts = collections.Counter(map(ace._shape, ace._candidates(kind, empty, bounds)))
    for st in states:
        candidates = ace._candidates(kind, st, bounds)
        assert collections.Counter(map(ace._shape, candidates)) == counts
        outcomes = collections.defaultdict(list)
        for op in candidates:
            child = st.clone()
            try:
                _apply_effect(child, op)
                outcome = _without_sizes(child)
            except UnsatisfiableBody:
                outcome = None
            outcomes[ace._shape(op)].append(outcome)
        for shape, results in outcomes.items():
            assert all(r == results[0] for r in results), (shape, st.nodes)


# -- independent brute-force enumerator (exhaustiveness oracle) ----------------------


def _oracle_enumerate(files, seq_length):
    """From-scratch enumerator for {creat, link} workloads over a flat file
    set: all parameterizations, validity-checked, with persistence-point
    weaving and dependency prologues. No symmetry pruning."""
    kinds = ["creat", "link"]

    def op_choices(state):
        created, removed = state
        out = []
        for f in files:
            out.append(("creat", (f,)))
        for s in files:
            for d in files:
                if s == d or d in created:
                    continue
                out.append(("link", (s, d)))
        return out

    def apply_op(state, op):
        created, removed = set(state[0]), set(state[1])
        name, args = op
        if name == "creat":
            created.add(args[0])
        else:
            s, d = args
            created.add(s)  # dependency creation
            created.add(d)
        return (frozenset(created), frozenset(removed))

    sequences = []

    def rec(state, acc):
        if len(acc) == seq_length:
            sequences.append(tuple(acc))
            return
        for kind in kinds:
            for op in op_choices(state):
                if op[0] != kind:
                    continue
                rec(apply_op(state, op), acc + [op])

    rec((frozenset(), frozenset()), [])

    workloads = []
    for seq in sequences:
        referenced = sorted({p for _name, args in seq for p in args})
        states = []
        st = frozenset()
        for op in seq:
            st = apply_op((st, frozenset()), op)[0]
            states.append(st)
        slot_choices = []
        for i, live in enumerate(states):
            targets = [t for t in referenced if t in live]
            choices = []
            if i != len(seq) - 1:
                choices.append(None)
            choices += [("fsync", t) for t in targets]
            choices += [("fdatasync", t) for t in targets]
            choices.append(("sync", None))
            slot_choices.append(choices)
        for combo in itertools.product(*slot_choices):
            prologue = []
            known = set()
            for name, args in seq:
                if name == "link" and args[0] not in known:
                    prologue.append(("creat", (args[0],)))
                    known.add(args[0])
                known.update(args)
            lines = [f"creat {p}" for _n, (p,) in prologue]
            if lines:
                lines = ["# deps"] + lines + ["# ops"]
            for op, pp in zip(seq, combo):
                if op[0] == "creat":
                    lines.append(f"creat {op[1][0]}")
                else:
                    lines.append(f"link {op[1][0]} {op[1][1]}")
                if pp is not None:
                    kind, target = pp
                    lines.append(kind if target is None else f"{kind} {target}")
            workloads.append("\n".join(lines) + "\n---crash---\n")
    return workloads


def _swap_names(text, a, b):
    token_map = {a: b, b: a}
    out = []
    for line in text.splitlines():
        parts = line.split()
        out.append(" ".join(token_map.get(tok, tok) for tok in parts))
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("seq_length", [1, 2])
def test_generator_matches_bruteforce_up_to_symmetry(seq_length):
    files = ("bar", "foo")
    bounds = Bounds(
        seq_length=seq_length,
        allowed_ops=(FsOpKind.CREAT, FsOpKind.LINK),
        files=files,
        dirs=(),
    )
    generated = {serialize(w) for w in generate_workloads(bounds)}

    oracle_all = set(_oracle_enumerate(files, seq_length))
    # documented symmetry: same-directory two-file ops keep only the ordered pair
    def sorted_pairs_only(text):
        for line in text.splitlines():
            parts = line.split()
            if parts and parts[0] == "link" and same_directory(parts[1], parts[2]):
                if parts[1] > parts[2]:
                    return False
        return True

    oracle_kept = {w for w in oracle_all if sorted_pairs_only(w)}
    assert generated == oracle_kept

    # symmetry soundness: every pruned workload maps to a kept one under the
    # file-name bijection
    for dropped in oracle_all - oracle_kept:
        assert _swap_names(dropped, "foo", "bar") in generated
