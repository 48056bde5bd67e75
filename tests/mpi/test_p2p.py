"""Two-sided point-to-point tests: data correctness and exact timing.

The ideal platform (1 us latency, 10 GB/s everywhere, zero overheads,
1000 B eager limit) makes virtual times computable by hand:

* eager ping of N bytes: L + N/bw (+ bounce copy 1.5 N/bw at receiver)
* rendezvous ping: RTS L + CTS L + push N/bw + delivery L
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    DOUBLE,
    CommunicatorError,
    SimBuffer,
    TruncationError,
    make_vector,
    run_mpi,
)
from repro.mpi.errors import UncommittedDatatypeError

BW = 10e9
LAT = 1e-6


def memcpy(n: int) -> float:
    return 1.5 * n / BW


class TestEagerTiming:
    def test_exact_eager_pingpong_time(self, ideal):
        def main(comm):
            if comm.rank == 0:
                t0 = comm.Wtime()
                comm.Send(np.arange(100, dtype=np.float64), dest=1)
                comm.Recv(np.empty(0, np.uint8), source=1, count=0)
                return comm.Wtime() - t0
            buf = np.zeros(100, dtype=np.float64)
            comm.Recv(buf, source=0)
            comm.Send(np.empty(0, np.uint8), dest=0, count=0)

        elapsed = run_mpi(main, 2, ideal).results[0]
        expected = (LAT + 800 / BW + memcpy(800)) + LAT
        assert elapsed == pytest.approx(expected, rel=1e-12)

    def test_eager_sender_returns_immediately(self, ideal):
        def main(comm):
            if comm.rank == 0:
                t0 = comm.Wtime()
                comm.Send(np.arange(10, dtype=np.float64), dest=1)
                return comm.Wtime() - t0
            buf = np.zeros(10, dtype=np.float64)
            comm.Recv(buf, source=0)

        # Sender-side cost is zero on the ideal platform (all overheads 0).
        assert run_mpi(main, 2, ideal).results[0] == 0.0

    def test_zero_byte_message(self, ideal):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.empty(0, np.uint8), dest=1, count=0)
                return comm.Wtime()
            st = comm.Recv(np.empty(0, np.uint8), source=0, count=0)
            assert st.nbytes == 0
            return comm.Wtime()

        job = run_mpi(main, 2, ideal)
        assert job.results[1] == pytest.approx(LAT)


class TestRendezvousTiming:
    def test_exact_rendezvous_time(self, ideal):
        n = 4000  # > 1000 B eager limit

        def main(comm):
            if comm.rank == 0:
                comm.Send(np.arange(n // 8, dtype=np.float64), dest=1)
                return comm.Wtime()
            buf = np.zeros(n // 8, dtype=np.float64)
            comm.Recv(buf, source=0)
            return comm.Wtime()

        job = run_mpi(main, 2, ideal)
        # sender completes at RTS(L) + CTS(L) + push(n/bw)
        assert job.results[0] == pytest.approx(2 * LAT + n / BW)
        # receiver completes one latency after the push
        assert job.results[1] == pytest.approx(3 * LAT + n / BW)

    def test_rendezvous_waits_for_receiver(self, ideal):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(500, dtype=np.float64), dest=1)  # 4000 B
                return comm.Wtime()
            comm.process.task.sleep(1.0)  # receiver busy for 1 s
            buf = np.zeros(500, dtype=np.float64)
            comm.Recv(buf, source=0)
            return comm.Wtime()

        job = run_mpi(main, 2, ideal)
        # CTS cannot leave before the receive posts at t=1.
        assert job.results[0] == pytest.approx(1.0 + LAT + 4000 / BW)

    def test_eager_limit_boundary(self, ideal):
        """1000 B is eager, 1008 B is rendezvous (limit inclusive)."""

        def timed(nbytes):
            def main(comm):
                if comm.rank == 0:
                    comm.Send(np.zeros(nbytes // 8, np.float64), dest=1)
                    return comm.Wtime()
                comm.Recv(np.zeros(nbytes // 8, np.float64), source=0)
            return run_mpi(main, 2, ideal).results[0]

        assert timed(1000) == pytest.approx(0.0)  # eager: sender free
        assert timed(1008) == pytest.approx(2 * LAT + 1008 / BW)  # rndv


class TestDataMovement:
    def test_typed_payload_delivery(self, ideal, doubles):
        def main(comm):
            if comm.rank == 0:
                comm.Send(doubles(64), dest=1, tag=5)
            else:
                buf = np.zeros(64, dtype=np.float64)
                st = comm.Recv(buf, source=0, tag=5)
                assert st.source == 0 and st.tag == 5 and st.nbytes == 512
                assert st.get_count(DOUBLE) == 64
                return buf.copy()

        out = run_mpi(main, 2, ideal).results[1]
        assert np.array_equal(out, np.arange(64, dtype=np.float64))

    def test_derived_send_contiguous_recv(self, ideal, doubles):
        def main(comm):
            vec = make_vector(50, 1, 2, DOUBLE).commit()
            if comm.rank == 0:
                comm.Send(doubles(100), dest=1, count=1, datatype=vec)
            else:
                buf = np.zeros(50, dtype=np.float64)
                comm.Recv(buf, source=0)
                return buf.copy()

        out = run_mpi(main, 2, ideal).results[1]
        assert np.array_equal(out, np.arange(0, 100, 2, dtype=np.float64))

    def test_contiguous_send_derived_recv(self, ideal, doubles):
        def main(comm):
            vec = make_vector(50, 1, 2, DOUBLE).commit()
            if comm.rank == 0:
                comm.Send(doubles(50), dest=1)
            else:
                buf = np.zeros(100, dtype=np.float64)
                comm.Recv(buf, source=0, count=1, datatype=vec)
                return buf.copy()

        out = run_mpi(main, 2, ideal).results[1]
        assert np.array_equal(out[::2], np.arange(50, dtype=np.float64))
        assert np.all(out[1::2] == 0)

    def test_derived_to_derived_large_rendezvous(self, ideal, doubles):
        def main(comm):
            vec = make_vector(1000, 1, 2, DOUBLE).commit()  # 8000 B payload
            if comm.rank == 0:
                comm.Send(doubles(2000), dest=1, count=1, datatype=vec)
            else:
                buf = np.zeros(2000, dtype=np.float64)
                comm.Recv(buf, source=0, count=1, datatype=vec)
                return buf.copy()

        out = run_mpi(main, 2, ideal).results[1]
        assert np.array_equal(out[::2], np.arange(0, 2000, 2, dtype=np.float64))

    def test_shorter_message_than_receive(self, ideal, doubles):
        def main(comm):
            if comm.rank == 0:
                comm.Send(doubles(10), dest=1)
            else:
                buf = np.full(20, -1.0)
                st = comm.Recv(buf, source=0)
                assert st.nbytes == 80
                assert st.get_count(DOUBLE) == 10
                return buf.copy()

        out = run_mpi(main, 2, ideal).results[1]
        assert np.array_equal(out[:10], np.arange(10, dtype=np.float64))
        assert np.all(out[10:] == -1.0)


class TestErrors:
    def test_truncation(self, ideal, doubles):
        def main(comm):
            if comm.rank == 0:
                comm.Send(doubles(100), dest=1)
            else:
                comm.Recv(np.zeros(10, np.float64), source=0)

        with pytest.raises(TruncationError):
            run_mpi(main, 2, ideal)

    def test_bad_destination(self, ideal):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(1), dest=7)

        with pytest.raises(CommunicatorError, match="rank 7"):
            run_mpi(main, 2, ideal)

    def test_uncommitted_datatype_rejected(self, ideal, doubles):
        def main(comm):
            vec = make_vector(10, 1, 2, DOUBLE)  # not committed
            if comm.rank == 0:
                comm.Send(doubles(20), dest=1, count=1, datatype=vec)

        with pytest.raises(UncommittedDatatypeError):
            run_mpi(main, 2, ideal)

    def test_send_beyond_buffer_rejected(self, ideal, doubles):
        def main(comm):
            if comm.rank == 0:
                comm.Send(doubles(10), dest=1, count=20, datatype=DOUBLE)

        with pytest.raises(Exception, match="reaches byte|exceeds"):
            run_mpi(main, 2, ideal)


class TestTagValidation:
    """Sends need ``tag >= 0``; receives and probes also accept
    ``ANY_TAG`` but nothing below it (MPI_ERR_TAG)."""

    @pytest.mark.parametrize("tag", [-7, ANY_TAG])
    @pytest.mark.parametrize("call", ["Send", "Isend", "Ssend", "Bsend", "Send_init"])
    def test_send_side_rejects_negative_tags(self, ideal, call, tag):
        def main(comm):
            if comm.rank == 0:
                getattr(comm, call)(np.zeros(1), dest=1, tag=tag)

        with pytest.raises(CommunicatorError, match=f"tag {tag} below 0"):
            run_mpi(main, 2, ideal)

    @pytest.mark.parametrize("call", ["Recv", "Irecv", "Recv_init", "Probe", "Iprobe"])
    def test_receive_side_rejects_tags_below_any_tag(self, ideal, call):
        def main(comm):
            if comm.rank == 1:
                if call in ("Probe", "Iprobe"):
                    getattr(comm, call)(source=0, tag=-2)
                else:
                    getattr(comm, call)(np.zeros(1), source=0, tag=-2)

        with pytest.raises(CommunicatorError, match=f"tag -2 below {ANY_TAG}"):
            run_mpi(main, 2, ideal)


class TestWildcardsAndProbe:
    def test_any_source_any_tag(self, ideal, doubles):
        def main(comm):
            if comm.rank == 0:
                buf = np.zeros(4, np.float64)
                st = comm.Recv(buf, source=ANY_SOURCE, tag=ANY_TAG)
                return (st.source, st.tag)
            comm.process.task.sleep(1e-3)
            comm.Send(doubles(4), dest=0, tag=9)

        assert run_mpi(main, 2, ideal).results[0] == (1, 9)

    def test_probe_then_recv(self, ideal, doubles):
        def main(comm):
            if comm.rank == 0:
                st = comm.Probe(source=1)
                buf = np.zeros(st.get_count(DOUBLE), np.float64)
                comm.Recv(buf, source=st.source, tag=st.tag)
                return buf.size
            comm.Send(doubles(17), dest=0, tag=3)

        assert run_mpi(main, 2, ideal).results[0] == 17

    def test_iprobe(self, ideal, doubles):
        def main(comm):
            if comm.rank == 0:
                flag, st = comm.Iprobe(source=1)
                assert not flag and st is None
                comm.process.task.sleep(1.0)
                flag, st = comm.Iprobe(source=1)
                assert flag and st.nbytes == 32
                comm.Recv(np.zeros(4, np.float64), source=1)
                return True
            comm.Send(doubles(4), dest=0)

        assert run_mpi(main, 2, ideal).results[0]

    def test_message_order_preserved_same_pair(self, ideal):
        def main(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.Send(np.array([float(i)]), dest=1, tag=7)
            else:
                seen = []
                for _ in range(5):
                    buf = np.zeros(1)
                    comm.Recv(buf, source=0, tag=7)
                    seen.append(buf[0])
                return seen

        assert run_mpi(main, 2, ideal).results[1] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_tag_selectivity(self, ideal):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.array([1.0]), dest=1, tag=10)
                comm.Send(np.array([2.0]), dest=1, tag=20)
            else:
                buf = np.zeros(1)
                comm.Recv(buf, source=0, tag=20)
                first = buf[0]
                comm.Recv(buf, source=0, tag=10)
                return (first, buf[0])

        assert run_mpi(main, 2, ideal).results[1] == (2.0, 1.0)


class TestSendrecvAndSsend:
    def test_sendrecv_exchanges_without_deadlock(self, ideal):
        def main(comm):
            mine = np.full(8, float(comm.rank))
            theirs = np.zeros(8)
            comm.Sendrecv(mine, dest=1 - comm.rank, recvbuf=theirs, source=1 - comm.rank)
            return theirs[0]

        assert run_mpi(main, 2, ideal).results == [1.0, 0.0]

    def test_ssend_waits_for_receiver(self, ideal):
        def main(comm):
            if comm.rank == 0:
                comm.Ssend(np.zeros(10, np.float64), dest=1)  # small but synchronous
                return comm.Wtime()
            comm.process.task.sleep(0.5)
            comm.Recv(np.zeros(10, np.float64), source=0)

        t = run_mpi(main, 2, ideal).results[0]
        assert t >= 0.5  # completion required the matching receive

    def test_virtual_buffers_move_no_data_but_cost_time(self, ideal):
        def main(comm):
            if comm.rank == 0:
                comm.Send(SimBuffer.virtual(4000), dest=1)
                return comm.Wtime()
            buf = SimBuffer.virtual(4000)
            comm.Recv(buf, source=0)
            return comm.Wtime()

        job = run_mpi(main, 2, ideal)
        assert job.results[0] == pytest.approx(2 * LAT + 4000 / BW)
