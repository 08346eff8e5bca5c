"""Hold the hot-path rewrites of shared components to their old formulation.

``tests/reference_core.py`` shares the load queue, store buffer, trace
lines, fill unit and statistics with the real pipeline, so the
differential tests cannot catch a fault in any of them.  Each property
here replays random operations against the component and against the
straightforward formulation it replaced: a list filter, a sort by
logical position, a dict keyed by ``(pc, source)`` tuples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import MachineConfig
from repro.cluster.interconnect import Interconnect
from repro.core.stats import SimStats
from repro.isa import Instruction, Opcode
from repro.isa.instruction import LeaderFollower
from repro.memory.lsq import LoadQueue, StoreBuffer
from repro.tracecache.fill_unit import FillUnit
from repro.tracecache.trace import TraceLine, TraceSlot
from repro.tracecache.trace_cache import TraceCache
from tests.conftest import make_dyn


# ----------------------------------------------------------------------
# Load queue and store buffer: release against the list filter.
# ----------------------------------------------------------------------
@given(st.integers(1, 8),
       st.lists(st.tuples(st.booleans(), st.integers(0, 5)), max_size=80))
@settings(max_examples=200, deadline=None)
def test_load_queue_release_matches_filter(capacity, ops):
    """Loads enter in program order (increasing seq, random gaps); a
    release keeps exactly the loads younger than the retired seq."""
    queue = LoadQueue(capacity)
    model = []
    seq = 0
    for is_insert, step in ops:
        if is_insert:
            seq += step + 1
            assert queue.insert(seq) == (len(model) < capacity)
            if len(model) < capacity:
                model.append(seq)
        else:
            retired = seq - step
            queue.release_up_to(retired)
            model = [s for s in model if s > retired]
        assert queue._seqs == model
        assert len(queue) == len(model)
        assert queue.full == (len(model) >= capacity)


@given(st.integers(1, 8),
       st.lists(st.tuples(st.booleans(), st.integers(0, 40),
                          st.integers(0, 7)), max_size=80))
@settings(max_examples=200, deadline=None)
def test_store_buffer_release_matches_filter(capacity, ops):
    """Stores enter in dispatch order, not program order, so the buffer
    is not sorted; a release keeps the stores younger than ``seq`` in
    insertion order, and forwarding answers as before."""
    buffer = StoreBuffer(capacity, word_size=8)
    model = []
    used = set()
    for is_insert, seq, word in ops:
        if is_insert:
            if seq in used:
                continue
            used.add(seq)
            accepted = buffer.insert(seq, word * 8)
            assert accepted == (len(model) < capacity)
            if accepted:
                model.append((seq, word))
        else:
            buffer.release_up_to(seq)
            model = [entry for entry in model if entry[0] > seq]
        assert buffer._entries == model
        for probe_word in range(8):
            expected = any(s < 20 and w == probe_word for s, w in model)
            assert buffer.forward_for_load(20, probe_word * 8) == expected


# ----------------------------------------------------------------------
# Trace lines: program order and per-slot cluster against a sort.
# ----------------------------------------------------------------------
@st.composite
def line_layouts(draw):
    """A physical slot layout of ``length`` logical positions."""
    per = draw(st.integers(1, 4))
    clusters = draw(st.integers(1, 4))
    width = per * clusters
    length = draw(st.integers(1, width))
    positions = draw(st.permutations(range(width)))[:length]
    return per, width, positions


def _slot(logical: int) -> TraceSlot:
    return TraceSlot(Instruction(0x400 + 4 * logical, Opcode.ADD, 8, ()),
                     logical)


@given(line_layouts())
@settings(max_examples=200, deadline=None)
def test_trace_line_order_matches_sort_by_logical(layout):
    per, width, positions = layout
    slots = [None] * width
    for logical, p in enumerate(positions):
        slots[p] = _slot(logical)
    line = TraceLine((0x400, ()), slots, num_blocks=1,
                     slots_per_cluster=per)
    filled = [(p, slot) for p, slot in enumerate(slots) if slot is not None]
    by_logical = sorted(filled, key=lambda entry: entry[1].logical)
    assert line.order == [slot for _, slot in by_logical]
    assert line.logical_order() == line.order
    assert line.clusters == [p // per for p, _ in by_logical]
    assert line.length == len(positions)
    assert line.start_pc == 0x400


@given(line_layouts(), st.integers(0, 17), st.integers(-1, 3))
@settings(max_examples=100, deadline=None)
def test_update_profile_patches_the_logical_slot(layout, logical, chain):
    """``update_profile`` patches the slot whose ``logical`` matches, as
    the scan over ``slots`` it replaced did."""
    per, width, positions = layout
    slots = [None] * width
    for index, p in enumerate(positions):
        slots[p] = _slot(index)
    line = TraceLine((0x400, ()), slots, num_blocks=1,
                     slots_per_cluster=per)
    cache = TraceCache(entries=64, assoc=2)
    cache.insert(line)
    patched = cache.update_profile(line.key, logical, chain_cluster=chain,
                                   leader_follower=LeaderFollower.LEADER)
    matches = [slot for slot in slots
               if slot is not None and slot.logical == logical]
    assert patched == bool(matches)
    for slot in slots:
        if slot is None:
            continue
        if slot.logical == logical:
            assert slot.chain_cluster == chain
            assert slot.leader_follower is LeaderFollower.LEADER
        else:
            assert slot.chain_cluster == -1
            assert slot.leader_follower is LeaderFollower.NONE


# ----------------------------------------------------------------------
# Table 3/9/10 recorders against tuple-keyed dict models.
# ----------------------------------------------------------------------
forward_events = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 6), st.integers(0, 1), st.integers(0, 3)),
        st.just("reset")),
    max_size=120)


@given(forward_events)
@settings(max_examples=200, deadline=None)
def test_forwarded_input_recorder_matches_dict_model(events):
    stats = SimStats()
    last, checks, hits, inputs = {}, [0, 0], [0, 0], 0
    for event in events:
        if event == "reset":
            stats.reset()
            last, checks, hits, inputs = {}, [0, 0], [0, 0], 0
            continue
        pc, src, producer = event
        stats.record_forwarded_input(pc, src, producer)
        inputs += 1
        key = (pc, src)
        if key in last:
            checks[src] += 1
            hits[src] += last[key] == producer
        last[key] = producer
    assert stats.repeat_checks == checks
    assert stats.repeat_hits == hits
    assert stats.forwarded_inputs == inputs


critical_events = st.lists(
    st.tuples(st.integers(0, 5),           # consumer pc index
              st.integers(-1, 1),          # critical source (-1: none)
              st.booleans(),               # critical input forwarded
              st.integers(0, 3),           # cluster
              st.integers(0, 3),           # forwarding distance
              st.booleans(),               # inter-trace
              st.integers(0, 3)),          # producer pc index
    max_size=120)


@given(critical_events)
@settings(max_examples=200, deadline=None)
def test_critical_recorder_matches_dict_model(events):
    interconnect = Interconnect(MachineConfig())
    stats = SimStats()
    model = dict.fromkeys((
        "exec_instances", "exec_migrations", "critical_from_rf",
        "critical_from_rs1", "critical_from_rs2", "critical_forwarded",
        "critical_forward_distance_sum", "critical_forwarded_intra_cluster",
        "critical_forwarded_inter_trace", "migrating_critical_forwarded",
        "migrating_critical_intra_cluster"), 0)
    checks_inter, hits_inter = [0, 0], [0, 0]
    last_cluster, last_inter = {}, {}
    producers = [make_dyn(100 + i, pc=0x800 + 4 * i) for i in range(4)]
    for seq, (pc_i, src, fwd, cluster, distance, inter, prod_i) in \
            enumerate(events):
        inst = make_dyn(seq, pc=0x100 + 4 * pc_i)
        inst.cluster = cluster
        inst.critical_src = src
        inst.critical_forwarded = fwd and src >= 0
        inst.critical_producer = producers[prod_i]
        inst.critical_distance = distance
        inst.critical_inter_trace = inter
        stats.record_critical(inst, interconnect)
        # The recorder as it was: tuple keys and a counter per total.
        if src < 0:
            continue
        pc = inst.static.pc
        previous = last_cluster.get(pc)
        last_cluster[pc] = cluster
        model["exec_instances"] += 1
        migrated = previous is not None and previous != cluster
        model["exec_migrations"] += migrated
        if not inst.critical_forwarded:
            model["critical_from_rf"] += 1
            continue
        model["critical_from_rs1" if src == 0 else "critical_from_rs2"] += 1
        model["critical_forwarded"] += 1
        model["critical_forward_distance_sum"] += distance
        model["critical_forwarded_intra_cluster"] += distance == 0
        if inter:
            model["critical_forwarded_inter_trace"] += 1
            key = (pc, src)
            producer_pc = producers[prod_i].static.pc
            if key in last_inter:
                checks_inter[src] += 1
                hits_inter[src] += last_inter[key] == producer_pc
            last_inter[key] = producer_pc
        if migrated:
            model["migrating_critical_forwarded"] += 1
            model["migrating_critical_intra_cluster"] += distance == 0
    for name, value in model.items():
        assert getattr(stats, name) == value, name
    assert stats.repeat_checks_inter == checks_inter
    assert stats.repeat_hits_inter == hits_inter


@given(st.lists(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3),
                                   st.booleans()),
                         min_size=1, max_size=16),
                max_size=12))
@settings(max_examples=200, deadline=None)
def test_fill_migration_recorder_matches_dict_model(traces):
    """Table 9: one count per instance, a migration when the pc's
    previous assignment differs, chain instructions counted apart."""
    fill = FillUnit(MachineConfig(), TraceCache(), strategy=None)
    last, counts = {}, [0, 0, 0, 0]
    for trace in traces:
        insts, clusters = [], []
        for pc_i, cluster, chain in trace:
            inst = make_dyn(len(insts), pc=0x200 + 4 * pc_i)
            if chain:
                inst.leader_follower = LeaderFollower.FOLLOWER
            insts.append(inst)
            clusters.append(cluster)
        fill._record_migration(insts, clusters)
        for inst, cluster in zip(insts, clusters):
            pc = inst.static.pc
            previous = last.get(pc)
            last[pc] = cluster
            is_chain = inst.leader_follower != LeaderFollower.NONE
            migrated = previous is not None and previous != cluster
            counts[0] += 1
            counts[1] += migrated
            counts[2] += is_chain
            counts[3] += migrated and is_chain
    assert [fill.fill_instances, fill.fill_migrations, fill.chain_instances,
            fill.chain_migrations] == counts
