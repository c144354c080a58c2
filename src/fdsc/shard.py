"""Chunked sharding of first-hit scans across the usable cores.

``scan_ranges(scan, count)`` cuts ``range(count)`` into contiguous chunks,
runs ``scan(lo, hi)`` on each and returns the results in chunk order, up
to and including the first chunk whose result is a hit: exactly the chunks
a serial scan over ``range(count)`` would reach before it stops.  The
caller merges them (lowest chunk first), so a verdict never depends on
which process ran a chunk or which finished first.

The calling process runs the first chunk itself; then it, and one
``os.fork`` child per other usable core, each claim the next unclaimed
chunk until none is left.  The chunk numbers wait in a pipe and a claim
reads one byte of it, so a core slowed down by other work on the machine
claims fewer chunks instead of holding up the scan, as a fixed range per
core would.  A worker whose chunk hits or raises empties the pipe, so the
others stop after their current chunk.  Every child pickles its outcomes
(results, or the exception a chunk raised) into its own pipe and leaves
through ``os._exit`` (no stdio flush, no atexit hooks).  The parent reads
the children's pipes until every chunk up to the first hit is known and,
in a ``finally`` block, kills the children it no longer needs and reaps
every child, also on ``KeyboardInterrupt``.  A chunk's exception is raised
only when the merge reaches it, so an earlier chunk's hit still wins.

The scan runs as one serial range when it is small (fewer than
``_MIN_SPLIT`` units of work), when ``os.fork`` is missing, when only one
core is usable, or when another thread is alive (forking a threaded
process is unsafe).  Children's memory is not in the parent's
``RUSAGE_SELF``, and a child's calls are not seen by a tracer installed
in the parent.
"""

from __future__ import annotations

import os
from collections.abc import Callable

# Below this many units of work a scan stays serial: a split costs a few
# milliseconds (the fork and copy-on-write faults on both sides), so only
# the n = 16 scans (2^16 units) split.
_MIN_SPLIT = 1 << 12
# At most this many processes, however many cores are usable.
_MAX_WORKERS = 4
# Chunks per process: enough that a slowed-down core holds the scan up by
# one short chunk at most, few enough that claims cost nothing measurable.
# Chunk numbers are single bytes, so workers * this stays below 256.
_CHUNKS_PER_WORKER = 16


class RemoteTraceback(Exception):
    """The formatted traceback of an exception raised in a child."""

    def __str__(self) -> str:
        return self.args[0]


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_count(units: int, count: int) -> int:
    if units < _MIN_SPLIT or not hasattr(os, "fork"):
        return 1
    import threading  # not at the top, like the imports in scan_ranges

    if threading.active_count() > 1:
        return 1
    return max(1, min(_usable_cores(), _MAX_WORKERS, count))


def _found(result) -> bool:
    return result is not None


def scan_ranges(
    scan: Callable[[int, int], object],
    count: int,
    *,
    weight: int = 1,
    hit: Callable[[object], bool] = _found,
) -> list:
    """The results of ``scan(lo, hi)`` over contiguous chunks of
    ``range(count)``, in chunk order, up to the first result for which
    ``hit`` is true (by default: the first that is not None).

    ``weight`` is the work per index (vertices per module, say); the split
    threshold counts ``count * weight`` units.  A chunk's exception is
    raised in chunk order, after every earlier chunk's result is known.
    """
    workers = _worker_count(count * weight, count)
    if workers == 1:
        return [scan(0, count)]
    # imported here, not at the top: only a split scan needs these, and at
    # the top they would add milliseconds to every ``import fdsc``
    import pickle
    import signal
    import traceback  # noqa: F401  (loaded before the fork, for the children)

    chunks = min(count, workers * _CHUNKS_PER_WORKER)
    bounds = [count * k // chunks for k in range(chunks + 1)]
    # chunk 0 is the caller's; the others wait in the pipe, in order
    tokens, feed = os.pipe()
    try:
        os.write(feed, bytes(range(1, chunks)))
    finally:
        os.close(feed)
    children: list[tuple[int, int]] = []
    reaped: set[int] = set()
    outcomes: dict[int, tuple] = {}
    try:
        for _ in range(workers - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                _child(scan, bounds, tokens, hit, write_end)
            os.close(write_end)
            children.append((pid, read_end))
        _run_chunks(scan, bounds, tokens, hit, outcomes, 0, remote=False)
        results = _serial_prefix(outcomes, chunks, hit)
        for pid, read_end in children:
            if results is not None:
                break
            with os.fdopen(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            os.waitpid(pid, 0)
            reaped.add(pid)
            if not data:
                raise RuntimeError(f"scan chunk child {pid} exited without a result")
            outcomes.update(pickle.loads(data))
            results = _serial_prefix(outcomes, chunks, hit)
        return results
    finally:
        os.close(tokens)
        for pid, read_end in children:
            os.close(read_end)
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _serial_prefix(outcomes: dict, chunks: int, hit) -> list | None:
    """The results a serial scan reaches, or None while one of the chunks
    it reaches is not known yet; raises the first exception it reaches."""
    results = []
    for k in range(chunks):
        if k not in outcomes:
            return None
        ok, value, text = outcomes[k]
        if not ok:
            if text is None:
                raise value
            raise value from RemoteTraceback(text)
        results.append(value)
        if hit(value):
            break
    return results


def _claim(tokens: int) -> int | None:
    claimed = os.read(tokens, 1)
    return claimed[0] if claimed else None


def _run_chunks(scan, bounds, tokens, hit, outcomes, chunk, *, remote) -> None:
    """Scan ``chunk`` and then every chunk claimed from the pipe into
    ``outcomes`` as (ok, result or exception, remote traceback or None),
    until the pipe is empty or a chunk hits or raises."""
    import traceback

    while chunk is not None:
        try:
            value = scan(bounds[chunk], bounds[chunk + 1])
        except (BaseException if remote else Exception) as exc:
            outcomes[chunk] = (False, exc, traceback.format_exc() if remote else None)
        else:
            outcomes[chunk] = (True, value, None)
            if not hit(value):
                chunk = _claim(tokens)
                continue
        # no later chunk can matter: leave none for the other workers
        while os.read(tokens, 256):
            pass
        return


def _child(scan, bounds, tokens: int, hit, write_end: int) -> None:
    """Claim and scan chunks in a forked child, write their outcomes to the
    pipe and leave without returning to the caller's stack."""
    try:
        import pickle
        import traceback

        outcomes: dict[int, tuple] = {}
        try:
            _run_chunks(scan, bounds, tokens, hit, outcomes, _claim(tokens), remote=True)
            data = pickle.dumps(outcomes)
        except Exception:
            # reported at the earliest chunk this child holds
            failure = (False, RuntimeError("unpicklable scan outcome"), traceback.format_exc())
            data = pickle.dumps({min(outcomes): failure})
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)
