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
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
from typing import Optional, Sequence

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

Key = tuple[str, int, int]


class PluginFault(Exception):
    """The external process broke the protocol (distinct from a violation)."""


def _request(side: str, t: int, k: int) -> str:
    # the text json.dumps gives for {"side": side, "t": t, "k": k}
    return f'{{"side": "{side}", "t": {t}, "k": {k}}}'


class PluginSystem:
    """Owns the child process and exposes its replies as an FSystemSpec.
    It holds no lock: one thread queries it, as every caller in the package
    does."""

    def __init__(self, argv: Sequence[str]) -> None:
        self.argv = list(argv)
        self.name = f"plugin:{self.argv[0]}"
        self._cache: dict[Key, FrequencySet] = {}
        self._proc: Optional[subprocess.Popen[bytes]] = None
        self._replies: Optional[selectors.BaseSelector] = None
        # plugin output read past the last reply taken
        self._unread = b""

    def _ensure_started(self) -> subprocess.Popen[bytes]:
        if self._proc is None:
            try:
                proc = subprocess.Popen(
                    self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE
                )
            except OSError as exc:
                raise PluginFault(f"cannot start plugin {self.argv}: {exc}") from exc
            assert proc.stdin is not None and proc.stdout is not None
            os.set_blocking(proc.stdin.fileno(), False)
            self._replies = selectors.DefaultSelector()
            self._replies.register(proc.stdout, selectors.EVENT_READ)
            self._proc = proc
        return self._proc

    def query(self, side: Side, t: int, k: int) -> FrequencySet:
        key = (side.value, t, k)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        self._ensure_started()
        self._exchange([(key, _request(*key))])
        return self._cache[key]

    def row(self, side: Side, t: int) -> list[FrequencySet]:
        """F(side, t, k) for k = 1..t.  Only uncached k are asked for: the
        first through ``query``, which starts the child and so proves it
        alive before any window is written, the rest in windows of at most
        _WINDOW_BYTES request bytes."""
        keys = [(side.value, t, k) for k in range(1, t + 1)]
        missing = [key for key in keys if key not in self._cache]
        if missing:
            self.query(side, t, missing[0][2])
            window: list[tuple[Key, str]] = []
            size = 0
            for key in missing[1:]:
                request = _request(*key)
                if window and size + len(request) + 1 > _WINDOW_BYTES:
                    self._exchange(window)
                    window, size = [], 0
                window.append((key, request))
                size += len(request) + 1
            if window:
                self._exchange(window)
        cache = self._cache
        return [cache[key] for key in keys]

    def _exchange(self, window: list[tuple[Key, str]]) -> None:
        """Send a window of requests, then read and cache their replies."""
        requests = [request for _, request in window]
        data = "".join(f"{request}\n" for request in requests).encode()
        self._send(data, requests[0])
        for (key, request), line in zip(window, self._read_lines(requests)):
            self._cache[key] = self._decode(line, request)

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
    def _decode(line: bytes, request: str) -> FrequencySet:
        """The set a reply line lists, validated and banded in one pass: the
        values are checked strictly increasing, so the bands come out in
        canonical order."""
        try:
            reply = json.loads(line)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise PluginFault(f"malformed reply {line!r} to {request}") from exc
        if not isinstance(reply, dict) or "freqs" not in reply:
            raise PluginFault(f"reply to {request} lacks a 'freqs' list: {line!r}")
        freqs = reply["freqs"]
        if not isinstance(freqs, list):
            raise PluginFault(f"'freqs' is not a list in reply to {request}")
        plain = PoolTag.PLAIN
        bands = []
        start, prev = 1, 0
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
            if value != prev + 1:
                if prev:
                    bands.append((plain, start, prev + 1))
                start = value
            prev = value
        if prev:
            bands.append((plain, start, prev + 1))
        return FrequencySet._raw(tuple(bands))

    def spec(
        self, claimed_ratio: GoldenNumber, claimed_lambda: int
    ) -> FSystemSpec:
        return FSystemSpec(
            name=self.name,
            claimed_ratio=claimed_ratio,
            claimed_lambda=claimed_lambda,
            generator=self.query,
            row_fn=self.row,
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

    def __enter__(self) -> "PluginSystem":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
