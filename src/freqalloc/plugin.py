"""Adapter for externally supplied F-systems.

An external system is a child process speaking line-delimited JSON on its
standard streams: one request ``{"side": "A", "t": 5, "k": 3}`` per line, one
reply ``{"freqs": [1, 2, 9]}`` per line, in order.  Requests may arrive
pipelined: the sets of a row are asked for in windows of several lines,
written before the first of their replies is read, so a plugin must answer
each line as it reads it, in order, and never wait for the end of its
input.  A plugin that sends nothing for ``REPLY_DEADLINE_S`` seconds while a
reply is due, or reads nothing for as long while a request waits to be sent,
is killed and faulted.  Replies must list strictly increasing positive
integers; anything else is a plugin fault, not a property violation of the
system under test.  Replies are cached, so each (side, t, k) is asked once,
a repeated query is answered by replay, and determinism is enforced.

The child starts at the first ``query``.  After that, a row's uncached
requests all go out in windows of at most _WINDOW_BYTES, so a row of up to
about a hundred sets costs one round trip.  Each reply is validated once
and cached as its bit row alone: a Python int with bit i set for the i-th
distinct value the plugin has replied with, in first-seen order.  So a
plugin that replies 10**12 costs no more than one that replies 1..t.  Every
value is a plain frequency, so values number frequency keys one to one.
Every sweep of the checker reads these ints; a ``FrequencySet`` is built,
once, only for a reply that ``query`` asks for, from the values its bits
stand for.  The child's stderr goes to an unnamed temporary file, and every
fault raised after the start ends with the last _STDERR_TAIL_BYTES of it.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import subprocess
import tempfile
from typing import IO, Optional, Sequence

from .frequencies import FrequencySet, PoolTag, Side
from .golden import GoldenNumber
from .systems import FSystemSpec

# seconds a plugin may stay silent while a reply is due (or leave its input
# full while a request waits)
REPLY_DEADLINE_S = 60.0
# request bytes per window, at most one pipe page.  Every reply of a window
# is read before the next is sent, so a plugin that answers each line as it
# reads it has emptied its input pipe by then, and a window always fits.
_WINDOW_BYTES = 4096
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
        self._replies: Optional[selectors.BaseSelector] = None
        self._stderr: Optional[IO[bytes]] = None
        # plugin output read past the last reply taken
        self._unread = b""

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
            self._replies = selectors.DefaultSelector()
            self._replies.register(proc.stdout, selectors.EVENT_READ)
            self._stderr = stderr
            self._proc = proc
        return self._proc

    def query(self, side: Side, t: int, k: int) -> FrequencySet:
        """F(side, t, k), asked of the child (started here if need be) unless
        cached, and built once, from its bit row."""
        key = (side.value, t, k)
        if key not in self._cache:
            self._ensure_started()
            self._exchange([(key, _request(*key))])
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
        goes out in windows of at most _WINDOW_BYTES request bytes."""
        cache = self._cache
        keys = [(side.value, t, k)
                for k in (range(1, t + 1) if ks is None else ks)]
        missing = [key for key in keys if key not in cache]
        if missing and self._proc is None:
            self.query(side, t, missing.pop(0)[2])
        window: list[tuple[Key, str]] = []
        size = 0
        for key in missing:
            request = _request(*key)
            if window and size + len(request) + 1 > _WINDOW_BYTES:
                self._exchange(window)
                window, size = [], 0
            window.append((key, request))
            size += len(request) + 1
        if window:
            self._exchange(window)
        return [cache[key] for key in keys]

    def _exchange(self, window: list[tuple[Key, str]]) -> None:
        """Send a window of requests, then read and cache their replies; a
        fault on the way carries the tail of the child's stderr."""
        requests = [request for _, request in window]
        data = "".join(f"{request}\n" for request in requests).encode()
        try:
            self._send(data, requests[0])
            for (key, request), line in zip(window,
                                             self._read_lines(requests)):
                self._cache[key] = self._decode(line, request, self._bit_of)
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

    def _send(self, data: bytes, first: str) -> None:
        """Write a window whose first request is ``first``."""
        proc = self._proc
        assert proc is not None and proc.stdin is not None
        fd = proc.stdin.fileno()
        view = memoryview(data)
        while view:
            try:
                view = view[os.write(fd, view):]
            except BlockingIOError:
                with selectors.DefaultSelector() as room:
                    room.register(fd, selectors.EVENT_WRITE)
                    if not room.select(REPLY_DEADLINE_S):
                        raise self._hung(f"read no input for {REPLY_DEADLINE_S} s "
                                         f"while {first} waited to be sent")
            except OSError as exc:
                raise PluginFault(f"plugin pipe closed while sending: {exc}") from exc

    def _read_lines(self, requests: list[str]) -> list[bytes]:
        """The next len(requests) reply lines, without their newlines."""
        proc, replies = self._proc, self._replies
        assert proc is not None and proc.stdout is not None and replies is not None
        buf = bytearray(self._unread)
        have = buf.count(b"\n")
        while have < len(requests):
            if not replies.select(REPLY_DEADLINE_S):
                raise self._hung(f"sent nothing for {REPLY_DEADLINE_S} s "
                                 f"while answering {requests[have]}")
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                raise PluginFault(
                    f"plugin closed its output stream answering {requests[have]}"
                )
            buf += chunk
            have += chunk.count(b"\n")
        *lines, self._unread = bytes(buf).split(b"\n", len(requests))
        return lines

    def _hung(self, what: str) -> PluginFault:
        """Kill the child, which stopped talking, and say what it failed."""
        assert self._proc is not None
        self._proc.kill()
        return PluginFault(f"plugin {what}")

    @staticmethod
    def _decode(line: bytes, request: str, bit_of: dict[int, int]) -> int:
        """The bit row of the values a reply line lists, validated and
        numbered in one pass: each value is checked a positive int above the
        one before, and a value not in ``bit_of`` takes the next free
        position there."""
        try:
            reply = json.loads(line)
        except ValueError as exc:  # bad JSON or bad UTF-8
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
        assert self._replies is not None
        self._replies.close()
        self._unread = b""
        try:
            proc.stdin.close()
            proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        proc.stdout.close()
        assert self._stderr is not None
        self._stderr.close()
        self._stderr = None

    def __enter__(self) -> "PluginSystem":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
