"""Adapter for externally supplied F-systems.

An external system is a child process speaking line-delimited JSON on its
standard streams: one request ``{"side": "A", "t": 5, "k": 3}`` per line, one
reply ``{"freqs": [1, 2, 9]}`` per line, in order.  k runs from 1 to t in
every check, and from 0 in ``plot-sets``, so a plugin must answer k = 0 too;
one that dies on it is a plugin fault (exit 2).  Requests may arrive
pipelined: the uncached sets of a row are asked for in one exchange, which
writes their lines as fast as the plugin reads them and reads its replies
meanwhile, so a plugin must answer each line as it reads it, in order, and
never wait for the end of its input.  A plugin that sends nothing for
``REPLY_DEADLINE_S`` seconds while a reply is due, or reads nothing for as
long while a request waits to be sent, is killed and faulted.  Replies must
list strictly increasing positive integers, and output past an exchange's
last reply is unasked for; anything else is a plugin fault (exit 2), not a
property violation of the system under test.  Replies are cached, so each
(side, t, k) is asked once, a repeated query is answered by replay, and
determinism is enforced.

The child starts at the first ``query``.  After that, a row's uncached
requests all go out in one exchange, so a row of any length costs one
round trip.  Each reply is validated once and cached as its bit row alone:
a Python int with bit i set for the i-th distinct value the plugin has
replied with, in first-seen order.  So a plugin that replies 10**12 costs
no more than one that replies 1..t.  Every value is a plain frequency, so
values number frequency keys one to one.  Every sweep of the checker reads
these ints; a ``FrequencySet`` is built, once, only for a reply that
``query`` asks for, from the values its bits stand for.  The child's stderr
goes to an unnamed temporary file, and every fault raised after the start
ends with the last _STDERR_TAIL_BYTES of it.  ``close`` ends the child's
input and output and reaps the child when it exits, or kills it once
``EXIT_DEADLINE_S`` has passed.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import re
import select
import subprocess
import tempfile
from typing import IO, Optional, Sequence

from .frequencies import FrequencySet, PoolTag, Side
from .golden import GoldenNumber
from .systems import FSystemSpec

# seconds a plugin may stay silent while a reply is due (or leave its input
# full while a request waits)
REPLY_DEADLINE_S = 60.0
# seconds a plugin may take to exit once its input is closed, before it is
# killed
EXIT_DEADLINE_S = 5.0
# bytes of the child's stderr that a fault carries, from its end
_STDERR_TAIL_BYTES = 2048

Key = tuple[str, int, int]
# the k-values of some sets of one row; None for the whole row, k = 1..t
Ks = Optional[Sequence[int]]


class PluginFault(Exception):
    """The external process broke the protocol (distinct from a violation)."""


def _request(side: str, t: int, k: int) -> str:
    # the text json.dumps gives for {"side": side, "t": t, "k": k}
    return f'{{"side": "{side}", "t": {t}, "k": {k}}}'


def _plain_set(values: list[int]) -> FrequencySet:
    """The plain frequencies of a validated reply's values."""
    return FrequencySet((PoolTag.PLAIN, v, v + 1) for v in values)


def _wait_exit(proc: subprocess.Popen[bytes]) -> None:
    """Reap proc as soon as it exits, or raise TimeoutExpired after
    EXIT_DEADLINE_S.

    ``Popen.wait(timeout=...)`` polls with sleeps that double from 1 ms (to
    at most 50 ms), so it sees an exit up to twice as late as it happened.
    A pidfd becomes readable at the exit itself; without one (not Linux, or
    no descriptor to spare) the poll serves.
    """
    try:
        pidfd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):
        proc.wait(timeout=EXIT_DEADLINE_S)
        return
    try:
        exited = select.poll()
        exited.register(pidfd, select.POLLIN)
        if not exited.poll(EXIT_DEADLINE_S * 1000):
            raise subprocess.TimeoutExpired(proc.args, EXIT_DEADLINE_S)
    finally:
        os.close(pidfd)
    proc.wait()


class PluginSystem:
    """Owns the child process and exposes its replies as an FSystemSpec.
    It holds no lock: one thread queries it, as every caller in the package
    does."""

    def __init__(self, argv: Sequence[str]) -> None:
        self.argv = list(argv)
        self.name = f"plugin:{self.argv[0]}"
        # each reply as its bit row, and the sets built so far
        self._cache: dict[Key, int] = {}
        self._sets: dict[Key, FrequencySet] = {}
        # bit position of each value replied so far, in first-seen order,
        # and the value of each bit as of the last set built
        self._bit_of: dict[int, int] = {}
        self._value_of: list[int] = []
        self._proc: Optional[subprocess.Popen[bytes]] = None
        self._stderr: Optional[IO[bytes]] = None

    def _ensure_started(self) -> subprocess.Popen[bytes]:
        if self._proc is None:
            # a file, not a pipe: nothing has to drain it while the child
            # runs, so a chatty child cannot block on it
            stderr = tempfile.TemporaryFile()
            try:
                proc = subprocess.Popen(
                    self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    stderr=stderr,
                )
            except OSError as exc:
                stderr.close()
                raise PluginFault(f"cannot start plugin {self.argv}: {exc}") from exc
            assert proc.stdin is not None and proc.stdout is not None
            os.set_blocking(proc.stdin.fileno(), False)
            self._stderr = stderr
            self._proc = proc
        return self._proc

    def query(self, side: Side, t: int, k: int) -> FrequencySet:
        """F(side, t, k), asked of the child (started here if need be) unless
        cached, and built once, from its bit row."""
        key = (side.value, t, k)
        if key not in self._cache:
            self._ensure_started()
            self._exchange([key])
        fs = self._sets.get(key)
        if fs is None:
            if len(self._value_of) < len(self._bit_of):
                self._value_of = list(self._bit_of)
            # bit i, the i-th binary digit from the right, stands for the
            # i-th key of _bit_of: O(bit length), one match per set bit
            digits = bin(self._cache[key])[:1:-1]
            fs = self._sets[key] = _plain_set(
                [self._value_of[m.start()] for m in re.finditer("1", digits)])
        return fs

    def bit_row(self, side: Side, t: int, ks: Ks = None) -> list[int]:
        """The bit rows (module docstring) of F(side, t, k) for k in ks, each
        cached on return.  Before the child runs, the first uncached key
        goes through ``query``, which starts it; every other uncached key
        goes out in one ``_exchange``."""
        cache, name = self._cache, side.value
        keys = [(name, t, k) for k in (range(1, t + 1) if ks is None else ks)]
        missing = [key for key in keys if key not in cache]
        if missing and self._proc is None:
            self.query(side, t, missing.pop(0)[2])
        if missing:
            self._exchange(missing)
        return [cache[key] for key in keys]

    def _exchange(self, keys: list[Key]) -> None:
        """Ask for keys and cache their replies, in one full-duplex loop:
        requests are written as fast as the child's input takes them, and
        a reply line is decoded once its request is fully written.  A
        fault on the way carries the tail of the child's stderr."""
        proc = self._proc
        assert proc is not None and proc.stdin is not None and proc.stdout is not None
        stdin, stdout = proc.stdin.fileno(), proc.stdout.fileno()
        requests = [_request(*key) for key in keys]
        data = memoryview("".join(f"{request}\n" for request in requests).encode())
        # the bytes sent once each request is fully written
        ends = list(itertools.accumulate(len(request) + 1 for request in requests))
        sent = done = 0
        # plugin output not yet taken; the next reply line starts at start
        buf, start = b"", 0
        try:
            while True:
                if sent < len(data):
                    try:
                        sent += os.write(stdin, data[sent:])
                    except BlockingIOError:
                        pass
                    except OSError as exc:
                        raise PluginFault(
                            "plugin pipe closed while sending "
                            f"{requests[bisect.bisect_right(ends, sent)]}: {exc}"
                        ) from exc
                while done < len(keys) and ends[done] <= sent:
                    end = buf.find(b"\n", start)
                    if end < 0:
                        break
                    self._cache[keys[done]] = self._decode(
                        buf[start:end], requests[done], self._bit_of)
                    done, start = done + 1, end + 1
                if done == len(keys):
                    if start < len(buf):
                        raise PluginFault(
                            f"plugin sent {buf[start:start + 80]!r} past its "
                            f"reply to {requests[-1]}")
                    break
                # requests[done] is sent and unanswered, or not yet sent
                answering = ends[done] <= sent
                poller = select.poll()
                if sent < len(data):
                    poller.register(stdin, select.POLLOUT)
                if answering:
                    poller.register(stdout, select.POLLIN)
                ready = dict(poller.poll(REPLY_DEADLINE_S * 1000))
                if not ready:
                    # the child stopped talking: kill it, and say what it failed
                    proc.kill()
                    raise PluginFault(
                        f"plugin sent nothing for {REPLY_DEADLINE_S} s while "
                        f"answering {requests[done]}" if answering else
                        f"plugin read no input for {REPLY_DEADLINE_S} s while "
                        f"{requests[done]} waited to be sent")
                if stdout in ready:
                    chunk = os.read(stdout, 1 << 16)
                    if not chunk:
                        raise PluginFault("plugin closed its output stream "
                                          f"answering {requests[done]}")
                    buf, start = buf[start:] + chunk, 0
        except PluginFault as exc:
            tail = self._stderr_tail()
            if not tail:
                raise
            raise PluginFault(f"{exc}; its stderr ends with {tail!r}") from exc

    def _stderr_tail(self) -> str:
        """At most the last _STDERR_TAIL_BYTES the child wrote to stderr.
        The child shares the file's offset, so this reads with pread, which
        leaves the offset where the child's next write expects it."""
        assert self._stderr is not None
        fd = self._stderr.fileno()
        size = os.fstat(fd).st_size
        start = max(0, size - _STDERR_TAIL_BYTES)
        return os.pread(fd, size - start, start).decode(errors="replace")

    @staticmethod
    def _decode(line: bytes, request: str, bit_of: dict[int, int]) -> int:
        """The bit row of the values a reply line lists, validated and
        numbered in one pass: each value is checked a positive int above the
        one before, and a value not in ``bit_of`` takes the next free
        position there."""
        try:
            reply = json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8, depth
            raise PluginFault(f"malformed reply {line!r} to {request}") from exc
        if not isinstance(reply, dict) or "freqs" not in reply:
            raise PluginFault(f"reply to {request} lacks a 'freqs' list: {line!r}")
        freqs = reply["freqs"]
        if not isinstance(freqs, list):
            raise PluginFault(f"'freqs' is not a list in reply to {request}")
        bits = prev = 0
        for value in freqs:
            # not isinstance: json gives bool, an int subclass, for true
            if type(value) is not int:
                raise PluginFault(f"non-integer frequency {value!r} in {line!r}")
            if value <= prev:
                raise PluginFault(
                    f"non-positive frequency {value} in {line!r}" if value < 1
                    else f"frequencies not strictly increasing at {value} "
                         f"in {line!r}"
                )
            prev = value
            bits |= 1 << bit_of.setdefault(value, len(bit_of))
        return bits

    def spec(
        self, claimed_ratio: GoldenNumber, claimed_lambda: int
    ) -> FSystemSpec:
        return FSystemSpec(
            name=self.name,
            claimed_ratio=claimed_ratio,
            claimed_lambda=claimed_lambda,
            generator=self.query,
            bit_row_fn=self.bit_row,
        )

    def close(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        assert proc.stdin is not None and proc.stdout is not None
        # closing its output too lets a child blocked on a full pipe fail
        # with EPIPE and exit, rather than wait out the deadline
        proc.stdout.close()
        try:
            proc.stdin.close()
            _wait_exit(proc)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        assert self._stderr is not None
        self._stderr.close()
        self._stderr = None

    def __enter__(self) -> "PluginSystem":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
