"""Adapter for externally supplied F-systems.

An external system is a child process speaking line-delimited JSON on its
standard streams: one request ``{"side": "A", "t": 5, "k": 3}`` per line, one
reply ``{"freqs": [1, 2, 9]}`` per line, in order.  Replies must list
strictly increasing positive integers; anything else is a plugin fault, not
a property violation of the system under test.  Replies are cached, so a
repeated query is answered by replay and determinism is enforced.
"""

from __future__ import annotations

import json
import subprocess
from typing import Optional, Sequence

from .frequencies import FrequencySet, PoolTag, Side
from .golden import GoldenNumber
from .systems import FSystemSpec


class PluginFault(Exception):
    """The external process broke the protocol (distinct from a violation)."""


class PluginSystem:
    """Owns the child process and exposes its replies as an FSystemSpec.
    It holds no lock: one thread queries it, as every caller in the package
    does."""

    def __init__(self, argv: Sequence[str]) -> None:
        self.argv = list(argv)
        self.name = f"plugin:{self.argv[0]}"
        self._cache: dict[tuple[str, int, int], FrequencySet] = {}
        self._proc: Optional[subprocess.Popen[str]] = None

    def _ensure_started(self) -> subprocess.Popen[str]:
        if self._proc is None:
            try:
                self._proc = subprocess.Popen(
                    self.argv,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                )
            except OSError as exc:
                raise PluginFault(f"cannot start plugin {self.argv}: {exc}") from exc
        return self._proc

    def query(self, side: Side, t: int, k: int) -> FrequencySet:
        key = (side.value, t, k)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        proc = self._ensure_started()
        assert proc.stdin is not None and proc.stdout is not None
        request = json.dumps({"side": side.value, "t": t, "k": k})
        try:
            proc.stdin.write(request + "\n")
            proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise PluginFault(f"plugin pipe closed while sending: {exc}") from exc
        line = proc.stdout.readline()
        if not line:
            raise PluginFault(
                f"plugin closed its output stream answering {request}"
            )
        result = self._decode(line, request)
        self._cache[key] = result
        return result

    @staticmethod
    def _decode(line: str, request: str) -> FrequencySet:
        try:
            reply = json.loads(line)
        except json.JSONDecodeError as exc:
            raise PluginFault(f"malformed reply {line!r} to {request}") from exc
        if not isinstance(reply, dict) or "freqs" not in reply:
            raise PluginFault(f"reply to {request} lacks a 'freqs' list: {line!r}")
        freqs = reply["freqs"]
        if not isinstance(freqs, list):
            raise PluginFault(f"'freqs' is not a list in reply to {request}")
        prev = 0
        bands = []
        for value in freqs:
            if isinstance(value, bool) or not isinstance(value, int):
                raise PluginFault(f"non-integer frequency {value!r} in {line!r}")
            if value < 1:
                raise PluginFault(f"non-positive frequency {value} in {line!r}")
            if value <= prev:
                raise PluginFault(
                    f"frequencies not strictly increasing at {value} in {line!r}"
                )
            prev = value
        for value in freqs:
            if bands and bands[-1][2] == value:
                bands[-1] = (PoolTag.PLAIN, bands[-1][1], value + 1)
            else:
                bands.append((PoolTag.PLAIN, value, value + 1))
        return FrequencySet(bands)

    def spec(
        self, claimed_ratio: GoldenNumber, claimed_lambda: int
    ) -> FSystemSpec:
        return FSystemSpec(
            name=self.name,
            claimed_ratio=claimed_ratio,
            claimed_lambda=claimed_lambda,
            generator=self.query,
        )

    def close(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            if proc.stdin is not None:
                proc.stdin.close()
            proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()

    def __enter__(self) -> "PluginSystem":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
