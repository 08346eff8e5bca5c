"""Unit tests for the cluster: station routing and dispatch selection."""

from repro.cluster.cluster import Cluster
from repro.isa import Opcode
from tests.conftest import make_dyn


def always_ready(inst, now):
    return True


def wake_at(cycle):
    """A ``wake`` callback under which every operand arrives at ``cycle``."""
    return lambda inst: cycle


class TestStationRouting:
    def test_memory_ops_go_to_mem_station(self):
        cluster = Cluster(0)
        load = make_dyn(0, Opcode.LOAD, dest=8, srcs=(1,))
        assert cluster.accept(load, now=0)
        assert len(cluster.stations["mem"]) == 1

    def test_branches_go_to_br_station(self):
        cluster = Cluster(0)
        branch = make_dyn(0, Opcode.BEQ, dest=None, srcs=(1,))
        assert cluster.accept(branch, now=0)
        assert len(cluster.stations["br"]) == 1

    def test_complex_int_and_fp_share_cpx_station(self):
        cluster = Cluster(0)
        cluster.accept(make_dyn(0, Opcode.MUL), now=0)
        cluster.accept(make_dyn(1, Opcode.FMUL, dest=40), now=0)
        assert len(cluster.stations["cpx"]) == 2

    def test_simple_ops_balance_across_two_stations(self):
        cluster = Cluster(0)
        for i in range(8):
            assert cluster.accept(make_dyn(i, Opcode.ADD), now=i // 2)
        assert len(cluster.stations["simple0"]) == 4
        assert len(cluster.stations["simple1"]) == 4

    def test_write_port_limit_respected(self):
        cluster = Cluster(0, rs_write_ports=2)
        # 4 simple ops per cycle fit (2 stations x 2 ports); the 5th fails.
        for i in range(4):
            assert cluster.accept(make_dyn(i, Opcode.ADD), now=0)
        assert not cluster.has_space(make_dyn(4, Opcode.ADD), now=0)
        assert cluster.has_space(make_dyn(4, Opcode.ADD), now=1)

    def test_full_station_rejects(self):
        cluster = Cluster(0, rs_entries=2, rs_write_ports=8)
        assert cluster.accept(make_dyn(0, Opcode.MUL), now=0)
        assert cluster.accept(make_dyn(1, Opcode.MUL), now=0)
        assert not cluster.accept(make_dyn(2, Opcode.MUL), now=0)


class TestDispatch:
    def test_dispatches_ready_instruction(self):
        cluster = Cluster(0)
        inst = make_dyn(0, Opcode.ADD)
        cluster.accept(inst, now=0)
        dispatched = []
        n = cluster.dispatch_cycle(1, wake_at(1), always_ready,
                                   lambda i, u, now: dispatched.append(i))
        assert n == 1 and dispatched == [inst]
        assert cluster.occupancy == 0

    def test_two_alus_dispatch_two_simple_ops(self):
        cluster = Cluster(0)
        insts = [make_dyn(i, Opcode.ADD) for i in range(4)]
        for inst in insts:
            cluster.accept(inst, now=0)
        dispatched = []
        cluster.dispatch_cycle(1, wake_at(1), always_ready,
                               lambda i, u, now: dispatched.append(i))
        assert len(dispatched) == 2  # only two simple-int ALUs
        assert [i.seq for i in dispatched] == [0, 1]  # oldest first

    def test_oldest_first_across_stations(self):
        cluster = Cluster(0)
        # Interleave so the two simple stations hold non-monotonic seqs.
        for seq in (5, 1, 4, 2):
            cluster.accept(make_dyn(seq, Opcode.ADD), now=seq)
        dispatched = []
        cluster.dispatch_cycle(10, wake_at(10), always_ready,
                               lambda i, u, now: dispatched.append(i))
        assert [i.seq for i in dispatched] == [1, 2]

    def test_not_ready_not_dispatched(self):
        cluster = Cluster(0)
        cluster.accept(make_dyn(0, Opcode.ADD), now=0)
        n = cluster.dispatch_cycle(1, wake_at(1), lambda i, now: False,
                                   lambda i, u, now: None)
        assert n == 0
        assert cluster.occupancy == 1

    def test_busy_unit_blocks_class(self):
        cluster = Cluster(0)
        div0, div1 = make_dyn(0, Opcode.DIV), make_dyn(1, Opcode.DIV)
        cluster.accept(div0, now=0)
        cluster.accept(div1, now=0)
        occupy = lambda i, u, now: u.dispatch(i, now)  # noqa: E731
        cluster.dispatch_cycle(1, wake_at(1), always_ready, occupy)
        n = cluster.dispatch_cycle(2, wake_at(1), always_ready, occupy)
        assert n == 0  # divider busy for 19 cycles
        n = cluster.dispatch_cycle(20, wake_at(1), always_ready, occupy)
        assert n == 1

    def test_branch_and_alu_dispatch_same_cycle(self):
        cluster = Cluster(0)
        cluster.accept(make_dyn(0, Opcode.ADD), now=0)
        cluster.accept(make_dyn(1, Opcode.BEQ, dest=None), now=0)
        dispatched = []
        cluster.dispatch_cycle(1, wake_at(1), always_ready,
                               lambda i, u, now: dispatched.append((i, u.kind)))
        assert len(dispatched) == 2

    def test_clear(self):
        cluster = Cluster(0)
        cluster.accept(make_dyn(0, Opcode.ADD), now=0)
        cluster.clear()
        assert cluster.occupancy == 0
        assert not cluster.woken


class TestWakeup:
    """The event-driven select: entries wait until their operands arrive
    and are evaluated only when woken."""

    def test_waits_for_operand_arrival(self):
        cluster = Cluster(0)
        inst = make_dyn(0, Opcode.ADD)
        cluster.accept(inst, now=0)
        checked, dispatched = [], []

        def is_ready(i, now):
            checked.append(now)
            return True

        assert cluster.dispatch_cycle(
            1, wake_at(5), is_ready, lambda i, u, now: dispatched.append(i)
        ) == 0
        assert cluster.waiting and not checked
        assert cluster.dispatch_cycle(
            5, wake_at(5), is_ready, lambda i, u, now: dispatched.append(i)
        ) == 1
        assert checked == [5] and dispatched == [inst]

    def test_unscheduled_producer_drops_entry_until_woken(self):
        cluster = Cluster(0)
        inst = make_dyn(0, Opcode.ADD)
        cluster.accept(inst, now=0)
        record = lambda i, u, now: None  # noqa: E731
        assert cluster.dispatch_cycle(1, lambda i: None, always_ready,
                                      record) == 0
        assert not (cluster.woken or cluster.waiting or cluster.candidates)
        assert cluster.occupancy == 1
        # The producer dispatched: the pipeline wakes the consumer again.
        cluster.woken.append(inst)
        assert cluster.dispatch_cycle(9, wake_at(9), always_ready,
                                      record) == 1

    def test_entry_accepted_unwoken_waits_for_its_producer(self):
        """``accept(..., woken=False)``: the caller already parked the
        entry on a producer, so no select evaluates it until it is woken."""
        cluster = Cluster(0)
        inst = make_dyn(0, Opcode.ADD)
        assert cluster.accept(inst, now=0, woken=False)
        assert not cluster.woken and cluster.occupancy == 1
        evaluated = []

        def wake(i):
            evaluated.append(i)
            return 9

        record = lambda i, u, now: None  # noqa: E731
        assert cluster.dispatch_cycle(1, wake, always_ready, record) == 0
        assert not evaluated
        cluster.woken.append(inst)
        assert cluster.dispatch_cycle(9, wake, always_ready, record) == 1
        assert evaluated == [inst]

    def test_parked_entry_returns_on_unpark(self):
        cluster = Cluster(0)
        load = make_dyn(0, Opcode.LOAD, dest=8, srcs=(1,))
        cluster.accept(load, now=0)
        record = lambda i, u, now: None  # noqa: E731
        assert cluster.dispatch_cycle(1, wake_at(1), lambda i, now: None,
                                      record) == 0
        assert cluster.parked == [load]
        assert cluster.dispatch_cycle(2, wake_at(1), always_ready,
                                      record) == 0
        cluster.unpark()
        assert cluster.dispatch_cycle(3, wake_at(1), always_ready,
                                      record) == 1
        assert cluster.occupancy == 0
