import os
import select
import threading
import time

import pytest

from fdsc import shard
from fdsc.shard import RemoteTraceback, scan_ranges


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    # every forked worker has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def split(monkeypatch):
    """Every scan splits, across as many workers as the test sets in
    ``cores[0]`` (default 2), whatever the size and the machine."""
    cores = [2]
    monkeypatch.setattr(shard, "_MIN_SPLIT", 1)
    monkeypatch.setattr(shard, "_usable_cores", lambda: cores[0])
    return cores


@pytest.fixture
def handshake():
    """(signal, wait): a child calls ``signal()`` once it runs a chunk, and
    the caller's chunk 0 calls ``wait()`` to let that happen first."""
    read_end, write_end = os.pipe()

    def signal():
        os.write(write_end, b"x")

    def wait():
        assert select.select([read_end], [], [], 30)[0], "no child ran a chunk"
        os.read(read_end, 1)

    yield signal, wait
    os.close(read_end)
    os.close(write_end)


def _never(result):
    return False


def _where(lo, hi):
    return lo, hi, os.getpid()


class TestChunks:
    @pytest.mark.parametrize("cores,count", [(2, 10), (3, 10), (4, 3), (9, 100), (2, 1000)])
    def test_contiguous_chunks_in_order(self, split, cores, count):
        split[0] = cores
        workers = min(cores, shard._MAX_WORKERS, count)
        parts = scan_ranges(_where, count, hit=_never)
        assert len(parts) == min(count, workers * shard._CHUNKS_PER_WORKER)
        assert parts[0][0] == 0 and parts[-1][1] == count
        assert all(a[1] == b[0] < b[1] for a, b in zip(parts, parts[1:]))
        # the caller runs the first chunk; at most one child per other worker
        pids = {pid for _, _, pid in parts}
        assert parts[0][2] == os.getpid()
        assert len(pids) <= workers

    def test_results_stop_at_the_first_hit(self, split):
        split[0] = 3

        def scan(lo, hi):
            return lo if lo >= 10 else None

        # one index per chunk; whoever ran them, the chunks after 10 are dropped
        assert scan_ranges(scan, 30) == [None] * 10 + [10]

    def test_first_chunk_hit_skips_the_children(self, split, handshake):
        signal, wait = handshake

        def scan(lo, hi):
            if lo:
                signal()
                time.sleep(60)
            else:
                wait()
            return "hit"

        start = time.perf_counter()
        assert scan_ranges(scan, 10) == ["hit"]
        assert time.perf_counter() - start < 30

    def test_a_slowed_worker_claims_fewer_chunks(self, split, handshake):
        # a fixed half per worker would leave the slow child five chunks
        signal, wait = handshake
        caller = os.getpid()

        def scan(lo, hi):
            if os.getpid() != caller:
                signal()
                time.sleep(0.5)
            elif lo == 0:
                wait()
            return lo, hi, os.getpid()

        parts = scan_ranges(scan, 10, hit=_never)
        assert [(lo, hi) for lo, hi, _ in parts] == [(k, k + 1) for k in range(10)]
        assert [lo for lo, _, pid in parts if pid != caller] == [1]

    def test_weight_counts_toward_the_split(self, monkeypatch):
        monkeypatch.setattr(shard, "_usable_cores", lambda: 2)
        count = 64
        assert shard._worker_count(count, count) == 1
        assert shard._worker_count(count * 64, count) == 2
        parts = scan_ranges(_where, count, weight=64, hit=_never)
        chunks = 2 * shard._CHUNKS_PER_WORKER
        step = count // chunks
        assert [(lo, hi) for lo, hi, _ in parts] == [
            (k * step, (k + 1) * step) for k in range(chunks)
        ]


class TestExceptions:
    def test_child_exception_reaches_the_caller(self, split, handshake):
        signal, wait = handshake
        caller = os.getpid()

        def scan(lo, hi):
            if os.getpid() == caller:
                if lo == 0:
                    wait()
                return None
            signal()
            raise ValueError(f"bad chunk {lo}..{hi}")

        # the child claims chunk 1 while the caller waits in chunk 0
        with pytest.raises(ValueError, match="bad chunk 1..2") as info:
            scan_ranges(scan, 10)
        cause = info.value.__cause__
        assert isinstance(cause, RemoteTraceback)
        assert "ValueError: bad chunk 1..2" in str(cause)

    def test_callers_exception_has_no_remote_cause(self, split):
        def scan(lo, hi):
            if lo == 0:
                raise ValueError("caller's chunk")
            return None

        with pytest.raises(ValueError, match="caller's chunk") as info:
            scan_ranges(scan, 10)
        assert info.value.__cause__ is None

    def test_earlier_hit_wins_over_a_child_exception(self, split, handshake):
        signal, wait = handshake
        caller = os.getpid()

        def scan(lo, hi):
            if os.getpid() == caller:
                wait()
                return 0
            signal()
            raise ValueError("never raised")

        assert scan_ranges(scan, 10) == [0]

    def test_earlier_child_hit_wins_over_a_later_exception(self, split, handshake):
        signal, wait = handshake
        caller = os.getpid()

        def scan(lo, hi):
            if os.getpid() != caller:
                signal()
                time.sleep(0.3)
                return lo
            if lo == 0:
                wait()
                return None
            # a chunk after the child's hit
            raise ValueError("never raised")

        assert scan_ranges(scan, 10) == [None, 1]

    def test_unpicklable_result(self, split, handshake):
        signal, wait = handshake
        caller = os.getpid()

        def scan(lo, hi):
            if os.getpid() == caller:
                if lo == 0:
                    wait()
                return None
            signal()
            return lambda: lo

        with pytest.raises(RuntimeError, match="unpicklable scan outcome"):
            scan_ranges(scan, 10)

    def test_child_that_dies_without_a_result(self, split, handshake):
        signal, wait = handshake
        caller = os.getpid()

        def scan(lo, hi):
            if os.getpid() == caller:
                if lo == 0:
                    wait()
                return None
            signal()
            os._exit(3)

        with pytest.raises(RuntimeError, match="exited without a result"):
            scan_ranges(scan, 10)

    def test_interrupt_in_the_callers_chunk_reaps_the_child(self, split):
        def scan(lo, hi):
            if lo:
                time.sleep(60)
                return None
            raise KeyboardInterrupt

        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            scan_ranges(scan, 10)
        assert time.perf_counter() - start < 30


class TestSerialRoute:
    def _serial(self):
        parts = scan_ranges(_where, 1 << 16, hit=_never)
        assert parts == [(0, 1 << 16, os.getpid())]

    def test_small_scan(self, monkeypatch):
        monkeypatch.setattr(shard, "_usable_cores", lambda: 2)
        parts = scan_ranges(_where, shard._MIN_SPLIT - 1, hit=_never)
        assert parts == [(0, shard._MIN_SPLIT - 1, os.getpid())]

    def test_one_core_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        self._serial()

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        self._serial()

    def test_no_fork(self, monkeypatch):
        monkeypatch.setattr(shard, "_usable_cores", lambda: 2)
        monkeypatch.delattr(os, "fork")
        self._serial()

    def test_live_thread(self, monkeypatch):
        monkeypatch.setattr(shard, "_usable_cores", lambda: 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            self._serial()
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
