import json
import re
import signal
import subprocess
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqalloc import checker, plugin, systems
from freqalloc.checker import (check_competitiveness, check_f1, check_f2,
                               shared_stats, union_sizes)
from freqalloc.cli import main
from freqalloc.frequencies import KEY_BY_RANK, FrequencySet, PoolTag, Side
from freqalloc.golden import GoldenNumber, parse_exact
from freqalloc.plugin import PluginFault, PluginSystem

from oracles import (check_f1_exhaustive, check_f2_sets, from_indices,
                     shared_sets_folds, union_sizes_sets)
from test_checker import mutant_half_wide_shared, with_row_bands

WELL_BEHAVED = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    k = req["k"]
    start = 1 if req["side"] == "A" else 2
    freqs = [start + 2 * i for i in range(k)]
    sys.stdout.write(json.dumps({"freqs": freqs}) + "\\n")
    sys.stdout.flush()
"""

FIXED_REPLY = """
import json, sys
for line in sys.stdin:
    sys.stdout.write(json.dumps({"freqs": %s}) + "\\n")
    sys.stdout.flush()
"""

ANSWER_ONCE_THEN_SHIFT = """
import json, sys
seen = {}
for line in sys.stdin:
    req = json.loads(line)
    key = (req["side"], req["t"], req["k"])
    seen[key] = seen.get(key, 0) + 1
    base = 1 if seen[key] == 1 else 1000
    freqs = [base + i for i in range(req["k"])]
    sys.stdout.write(json.dumps({"freqs": freqs}) + "\\n")
    sys.stdout.flush()
"""

# answers every request in order, but its first reply twice in one write
ANSWERS_FIRST_TWICE = """
import json, sys
for n, line in enumerate(sys.stdin):
    k = json.loads(line)["k"]
    reply = json.dumps({"freqs": list(range(1, k + 1))}) + "\\n"
    sys.stdout.write(reply * 2 if n == 0 else reply)
    sys.stdout.flush()
"""


# 32 consecutive frequencies from k: about 200 reply bytes, one band
RUN_OF_32 = """
import json, sys
for line in sys.stdin:
    k = json.loads(line)["k"]
    sys.stdout.write(json.dumps({"freqs": list(range(k, k + 32))}) + "\\n")
    sys.stdout.flush()
"""

# answers its first few lines, then exits in the middle of whatever it was
# asked
EXIT_AFTER = """
import json, sys
for n, line in enumerate(sys.stdin):
    if n == %d:
        sys.exit(0)
    sys.stdout.write(json.dumps({"freqs": [1]}) + "\\n")
    sys.stdout.flush()
"""

# appends every request line it reads to the file named by its argument
LOGGING = """
import json, sys
with open(sys.argv[1], "a") as log:
    for line in sys.stdin:
        log.write(line)
        log.flush()
        k = json.loads(line)["k"]
        sys.stdout.write(json.dumps({"freqs": list(range(1, k + 1))}) + "\\n")
        sys.stdout.flush()
"""

# The next three misbehave for 10 s, then die: without a deadline the adapter
# would wait that long and then fault for another reason.

# reads a request but never answers
SILENT = """
import sys, time
sys.stdin.readline()
time.sleep(10)
"""

# answers at once and without end, but never reads a request
NEVER_READS = """
import signal, sys
signal.alarm(10)
while True:
    sys.stdout.write('{"freqs": [1]}\\n')
"""

# answers its first request, reads the next one, then answers without end
# but never reads again
STOPS_READING = """
import signal, sys
signal.alarm(10)
sys.stdin.readline()
sys.stdout.write('{"freqs": [1]}\\n')
sys.stdout.flush()
sys.stdin.readline()
while True:
    sys.stdout.write('{"freqs": [1]}\\n')
"""

# answers its first request, then closes its input and waits for its
# output to be closed
CLOSES_INPUT = """
import os, select, sys
sys.stdin.readline()
sys.stdout.write('{"freqs": [1]}\\n')
sys.stdout.flush()
os.close(0)
hangup = select.poll()
hangup.register(1, 0)
hangup.poll(10000)
"""


def script(tmp_path, body, name="plug.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return path


def spawn(tmp_path, body, name="plug.py", args=()):
    return PluginSystem([sys.executable, str(script(tmp_path, body, name)),
                         *map(str, args)])


def replied(plug, bits):
    """The plain frequencies that a bit row of ``plug`` stands for."""
    return from_indices(PoolTag.PLAIN, [
        value for value, bit in plug._bit_of.items() if bits >> bit & 1])


def verify_exit(tmp_path, body, capsys, t_max):
    """Exit code and stderr of ``verify`` on a plugin with this body."""
    code = main(["verify", "--system", f"plugin:{script(tmp_path, body)}",
                 "--r", "2", "--lambda", "0", "--t-max", str(t_max),
                 "--out", str(tmp_path / "out.json")])
    return code, capsys.readouterr().err


class TestProtocol:
    def test_decodes_plain_frequencies(self, tmp_path):
        with spawn(tmp_path, FIXED_REPLY % "[1, 2, 9]") as plug:
            fs = plug.query(Side.A, 5, 3)
            assert fs == from_indices(PoolTag.PLAIN, [1, 2, 9])

    def test_odd_even_plugin_passes_checks(self, tmp_path):
        with spawn(tmp_path, WELL_BEHAVED) as plug:
            spec = plug.spec(GoldenNumber(2), 0)
            assert not check_f1(spec, 15)
            assert not check_f2(spec, 12)
            assert not check_competitiveness(spec, GoldenNumber(2), 0, 15)

    def test_caching_replays_first_answer(self, tmp_path):
        with spawn(tmp_path, ANSWER_ONCE_THEN_SHIFT) as plug:
            first = plug.query(Side.B, 7, 4)
            again = plug.query(Side.B, 7, 4)
            assert first == again
            assert min(f.index for f in again) == 1  # cached, not re-asked
            assert replied(plug, plug.bit_row(Side.B, 7)[3]) == first

    def test_plugin_that_answers_before_asked_faults(self, tmp_path):
        # its first exchange reads replies past the one it asked for, and
        # the fault shows the first 80 bytes of them
        extra = (b'{"freqs": [1]}\n' * 6)[:80]
        request = '{"side": "A", "t": 5000, "k": 1}'
        with spawn(tmp_path, NEVER_READS) as plug:
            with pytest.raises(PluginFault, match=re.escape(
                    f"plugin sent {extra!r} past its reply to {request}")):
                plug.bit_row(Side.A, 5000)

    def test_plugin_that_answers_twice_exits_2(self, tmp_path, capsys):
        code, err = verify_exit(tmp_path, ANSWERS_FIRST_TWICE, capsys, 6)
        assert code == 2
        assert err.startswith("plugin fault: ")

    def test_closed_input_fault_names_the_request(self, tmp_path):
        # the row's requests overfill a pipe, so a write meets the closed
        # input, and the fault names the request that write began in
        with spawn(tmp_path, CLOSES_INPUT) as plug:
            with pytest.raises(PluginFault) as caught:
                plug.bit_row(Side.A, 20000)
        sent = re.fullmatch(
            r'plugin pipe closed while sending '
            r'\{"side": "A", "t": 20000, "k": (\d+)\}: \[Errno 32\] .*',
            str(caught.value))
        assert sent and int(sent[1]) >= 2


class TestPipelining:
    def test_long_row_matches_single_queries(self, tmp_path, monkeypatch):
        # 3,000 requests and their replies each overflow a 64 KB pipe, so
        # writing the whole row before reading would stall both processes;
        # the deadline turns such a stall into a failure
        monkeypatch.setattr(plugin, "REPLY_DEADLINE_S", 10.0)
        with spawn(tmp_path, RUN_OF_32) as piped, \
                spawn(tmp_path, RUN_OF_32) as single:
            row = piped.bit_row(Side.A, 3000)
            for k in range(1, 3001):
                single.query(Side.A, 3000, k)
            # both got the same values in the same order, so both number
            # them alike
            assert row == single.bit_row(Side.A, 3000)

    def test_long_row_is_one_exchange(self, tmp_path, monkeypatch):
        # after the query that starts the child, the row's other 2,999
        # requests, some 100 KB, go out in one exchange
        exchanges = []
        exchange = PluginSystem._exchange

        def counting(system, keys):
            exchanges.append(len(keys))
            return exchange(system, keys)

        monkeypatch.setattr(PluginSystem, "_exchange", counting)
        monkeypatch.setattr(plugin, "REPLY_DEADLINE_S", 10.0)
        with spawn(tmp_path, RUN_OF_32) as plug:
            assert len(plug.bit_row(Side.A, 3000)) == 3000
        assert exchanges == [1, 2999]

    def test_exit_mid_row(self, tmp_path):
        with spawn(tmp_path, EXIT_AFTER % 5) as plug:
            request = '{"side": "A", "t": 20, "k": 6}'
            with pytest.raises(PluginFault,
                               match=re.escape(f"answering {request}")):
                plug.bit_row(Side.A, 20)

    def test_exit_mid_row_exits_2(self, tmp_path, capsys):
        code, err = verify_exit(tmp_path, EXIT_AFTER % 7, capsys, 5)
        assert code == 2
        assert err.startswith("plugin fault: ")

    def test_each_key_asked_once(self, tmp_path):
        log = tmp_path / "requests.log"
        with spawn(tmp_path, LOGGING, args=[log]) as plug:
            singles = {k: plug.query(Side.A, 8, k) for k in (3, 8)}
            row = plug.bit_row(Side.A, 8)
            assert plug.bit_row(Side.A, 8) == row
            assert all(replied(plug, row[k - 1]) == fs
                       for k, fs in singles.items())
            plug.bit_row(Side.B, 8)
        asked = Counter(
            (req["side"], req["t"], req["k"])
            for req in map(json.loads, log.read_text().splitlines())
        )
        assert asked == Counter(
            (side, 8, k) for side in "AB" for k in range(1, 9)
        )


class TestDeadline:
    def test_silent_plugin_faults(self, tmp_path, monkeypatch):
        monkeypatch.setattr(plugin, "REPLY_DEADLINE_S", 0.3)
        with spawn(tmp_path, SILENT) as plug:
            request = '{"side": "A", "t": 4, "k": 2}'
            with pytest.raises(PluginFault, match=re.escape(
                    f"sent nothing for 0.3 s while answering {request}")):
                plug.query(Side.A, 4, 2)

    def test_silent_plugin_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(plugin, "REPLY_DEADLINE_S", 0.3)
        code, err = verify_exit(tmp_path, SILENT, capsys, 5)
        assert code == 2
        assert err.startswith("plugin fault: plugin sent nothing for 0.3 s")

    def test_plugin_that_reads_nothing_faults(self, tmp_path, monkeypatch):
        # its replies keep coming, but its input pipe fills up
        monkeypatch.setattr(plugin, "REPLY_DEADLINE_S", 0.3)
        with spawn(tmp_path, STOPS_READING) as plug:
            with pytest.raises(PluginFault, match="read no input for 0.3 s"):
                plug.bit_row(Side.A, 5000)


# answers, then outlives the end of its input
IGNORES_EOF = """
import json, sys, time
for line in sys.stdin:
    sys.stdout.write(json.dumps({"freqs": [1]}) + "\\n")
    sys.stdout.flush()
time.sleep(60)
"""

# answers each request, and at the end of its input writes without end
FLOODS_AT_EOF = """
import json, signal, sys
signal.alarm(10)
for line in sys.stdin:
    sys.stdout.write(json.dumps({"freqs": [1]}) + "\\n")
    sys.stdout.flush()
while True:
    sys.stdout.write('{"freqs": [1]}\\n')
"""


class TestClose:
    @pytest.mark.parametrize("pidfd", ["pidfd", "no pidfd"])
    @pytest.mark.parametrize("body, returncode", [
        (WELL_BEHAVED, 0),  # exits at the end of its input
        (IGNORES_EOF, -signal.SIGKILL),  # killed at the exit deadline
        # blocked on its full output until close shuts it: a BrokenPipeError
        (FLOODS_AT_EOF, 1),
    ], ids=["exits", "ignores-eof", "floods-at-eof"])
    def test_close_reaps_the_child(self, tmp_path, monkeypatch, pidfd, body,
                                   returncode):
        monkeypatch.setattr(plugin, "EXIT_DEADLINE_S", 1.0)
        if pidfd == "no pidfd":
            def refuse(pid):
                raise OSError("pidfd_open refused")
            monkeypatch.setattr(plugin.os, "pidfd_open", refuse,
                                raising=False)
        plug = spawn(tmp_path, body)
        plug.query(Side.A, 1, 1)
        proc = plug._proc
        start = time.monotonic()
        plug.close()
        assert time.monotonic() - start < 5
        assert proc.poll() == returncode


# writes to stderr, then exits without answering
STDERR_THEN_EXIT = """
import sys
sys.stdin.readline()
sys.stderr.write(%r)
sys.stderr.flush()
sys.exit(3)
"""


class TestStderrTail:
    def test_fault_carries_stderr(self, tmp_path):
        with spawn(tmp_path, STDERR_THEN_EXIT % "boom") as plug:
            with pytest.raises(PluginFault, match="closed its output stream"
                               ".*its stderr ends with 'boom'"):
                plug.query(Side.A, 1, 1)

    def test_fault_carries_stderr_exits_2(self, tmp_path, capsys):
        code, err = verify_exit(tmp_path, STDERR_THEN_EXIT % "boom", capsys, 5)
        assert code == 2
        assert err.startswith("plugin fault: ")
        assert "boom" in err

    def test_tail_is_at_most_2_kb(self, tmp_path):
        noise = "x" * 10_000 + "boom"
        with spawn(tmp_path, STDERR_THEN_EXIT % noise) as plug:
            with pytest.raises(PluginFault) as caught:
                plug.bit_row(Side.B, 3)
        tail = str(caught.value).partition("its stderr ends with ")[2]
        assert tail == repr(noise[-plugin._STDERR_TAIL_BYTES:])

    def test_silent_stderr_adds_nothing(self, tmp_path):
        with spawn(tmp_path, EXIT_AFTER % 0) as plug:
            with pytest.raises(PluginFault) as caught:
                plug.query(Side.A, 1, 1)
        assert "stderr" not in str(caught.value)


def record_child_starts(monkeypatch) -> list:
    """Patch PluginSystem.query as the check-plugin benchmark does, and
    record, for each child started, whether a query call was running."""
    starts = []
    depth = [0]
    query = PluginSystem.query
    popen = plugin.subprocess.Popen

    def timed(system, side, t, k):
        depth[0] += 1
        try:
            return query(system, side, t, k)
        finally:
            depth[0] -= 1

    def recording_popen(*args, **kwargs):
        starts.append(depth[0] > 0)
        return popen(*args, **kwargs)

    monkeypatch.setattr(PluginSystem, "query", timed)
    monkeypatch.setattr(plugin.subprocess, "Popen", recording_popen)
    return starts


class TestSetupAccounting:
    """The check-plugin benchmark books the child's start as set-up by
    timing the first PluginSystem.query, so the child must start there."""

    @pytest.mark.parametrize("first", ["query", "bit_row", "spec_bits"])
    def test_child_starts_inside_query(self, tmp_path, monkeypatch, first):
        starts = record_child_starts(monkeypatch)
        with spawn(tmp_path, WELL_BEHAVED) as plug:
            if first == "query":
                plug.query(Side.B, 4, 2)
            elif first == "bit_row":
                plug.bit_row(Side.A, 6)
            else:
                plug.spec(GoldenNumber(2), 0).bit_row(Side.B, 6)
            assert starts == [True]
            assert check_f1(plug.spec(GoldenNumber(2), 0), 8) == []
        assert starts == [True]

    def test_one_exchange_per_row(self, monkeypatch, tmp_path):
        # the check-plugin command line: after the child's start, each row
        # of either side is one window
        exchanges = []
        exchange = PluginSystem._exchange

        def counting(system, window):
            exchanges.append(len(window))
            return exchange(system, window)

        monkeypatch.setattr(PluginSystem, "_exchange", counting)
        starts = record_child_starts(monkeypatch)
        script = Path(__file__).resolve().parents[1] / "bench" / "oddeven_plugin.py"
        code = main(["verify", "--system", f"plugin:{script}", "--r", "2",
                     "--lambda", "0", "--t-max", "50", "--f2-t-max", "50",
                     "--out", str(tmp_path / "out.json")])
        assert code == 0
        assert starts == [True]
        # check_f1 reads levels 1..50 as one block, side A's rows before
        # side B's, and the F2 sweep finds every row cached
        assert exchanges == [t for _ in "AB" for t in range(1, 51)]

    def test_shared_stats_reads_rows_in_windows(self, monkeypatch, tmp_path):
        # shared_stats at t = 40 folds the rows of levels 1..80 of a system
        # that is not nested: one exchange per row, not one per set, and
        # the (80, 40) and (60, 40) sets it reads next come from the cache
        exchanges = []
        exchange = PluginSystem._exchange

        def counting(system, window):
            exchanges.append(len(window))
            return exchange(system, window)

        monkeypatch.setattr(PluginSystem, "_exchange", counting)
        script = Path(__file__).resolve().parents[1] / "bench" / "oddeven_plugin.py"
        with PluginSystem([sys.executable, str(script)]) as plug:
            shared_stats(plug.spec(GoldenNumber(2), 0), 40)
        assert exchanges == [t for t in range(1, 81) for _ in "AB"]

    def test_shared_sets_match_folds(self, tmp_path):
        with spawn(tmp_path, OVERLAPPING) as plug:
            spec = plug.spec(GoldenNumber(2), 0)
            want = shared_sets_folds(spec, 80)
            assert want[40] and want[80]
            assert checker._shared_sets(spec, [40, 80]) == {
                40: want[40], 80: want[80]}
            stats = shared_stats(spec, 40)
            assert stats.s_t == want[40]
            used = spec.sets(Side.A, 80, 40) | spec.sets(Side.B, 80, 40)
            assert stats.s_2t_t == want[80] & used

    def test_block_walk_of_short_sets(self, tmp_path, monkeypatch):
        # check_f1 reads a plugin in blocks of levels, yet reports what the
        # set-by-set oracle reports, in its order, and stops at the limit
        starts = record_child_starts(monkeypatch)
        with spawn(tmp_path, SHORT_WHEN_ODD) as plug:
            spec = plug.spec(GoldenNumber(2), 0)
            got = check_f1(spec, 12)
            assert starts == [True]
            want = check_f1_exhaustive(spec, 12)
            assert len(want) > 3
            assert got == want
            assert check_f1(spec, 12, limit=3) == want[:3]

    def test_limits_stop_the_sweeps(self, tmp_path, monkeypatch):
        # a check stops at its limit-th violation: F2 scans no witness past
        # it, and F1 asks a plugin for no block of levels past it
        scans = []
        scan = checker._witness_pair

        def counting_scan(*args):
            scans.append(args[1:])
            return scan(*args)

        monkeypatch.setattr(checker, "_witness_pair", counting_scan)
        for sys_ in (mutant_half_wide_shared(),
                     with_row_bands(mutant_half_wide_shared())):
            scans.clear()
            assert len(check_f2(sys_, 30, limit=5)) == 5
            assert len(scans) == 5
        sent = []
        exchange = PluginSystem._exchange

        def counting_exchange(plug, keys):
            sent.extend(keys)
            return exchange(plug, keys)

        monkeypatch.setattr(PluginSystem, "_exchange", counting_exchange)
        # blocks of at most 16 entries: levels 1..5 hold the first three
        # violations, and both sides of them are 30 requests
        monkeypatch.setattr(systems, "_ROW_CHUNK", 16)
        with spawn(tmp_path, SHORT_WHEN_ODD) as plug:
            spec = plug.spec(GoldenNumber(2), 0)
            assert len(check_f1(spec, 12, limit=3)) == 3
        assert len(sent) == 30


# the odd-even plugin, one value short of k whenever t + k is odd
SHORT_WHEN_ODD = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    k = req["k"]
    start = 1 if req["side"] == "A" else 2
    freqs = [start + 2 * i for i in range(k)]
    if (req["t"] + k) % 2:
        freqs.pop()
    sys.stdout.write(json.dumps({"freqs": freqs}) + "\\n")
    sys.stdout.flush()
"""


# side A's sets are prefixes, side B's sets start at k: they collide often
OVERLAPPING = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    k = req["k"]
    lo = 1 if req["side"] == "A" else k
    sys.stdout.write(json.dumps({"freqs": list(range(lo, lo + k))}) + "\\n")
    sys.stdout.flush()
"""


# a reply per (side, t, k) whose later levels bring new values; side B's
# reach 10**12 at level 12
NEW_VALUES = """
def reply(side, t, k):
    if side == "A":
        return sorted({1, t, 2 * t + k})
    return sorted({k, t + k, t * t + k, 10**12 - 12 + t})
"""

# answers each request line with reply(side, t, k)
PLUGIN_LOOP = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    freqs = reply(req["side"], req["t"], req["k"])
    sys.stdout.write(json.dumps({"freqs": freqs}) + "\\n")
    sys.stdout.flush()
"""


class TestBitRows:
    def test_numbered_as_the_sweep_numbers_keys(self, tmp_path):
        # plain keys rise with the value, so the plugin's first-seen
        # numbering of values is a sweep's first-seen numbering of keys
        with spawn(tmp_path, OVERLAPPING) as plug:
            spec = plug.spec(GoldenNumber(2), 0)
            converted = spec.replace(bit_row_fn=None)
            for t in range(1, 10):
                for side in Side:
                    row = spec.bit_row(side, t)
                    assert len(row) == t and all(row)
                    assert row == converted.bit_row(side, t)
            scale, offset = KEY_BY_RANK[PoolTag.PLAIN.rank]
            assert converted._bit_of == {
                scale * value + offset: bit
                for value, bit in plug._bit_of.items()}

    @pytest.mark.parametrize("limit", [None, 4])
    def test_checks_match_set_oracles(self, tmp_path, limit):
        with spawn(tmp_path, OVERLAPPING) as plug:
            spec = plug.spec(GoldenNumber(2), 0)
            want = check_f2_sets(spec, 14, limit)
            assert len(want) == 4 if limit else len(want) > 4
            assert check_f2(spec, 14, limit=limit) == want
            assert list(union_sizes(spec, 14)) == union_sizes_sets(spec, 14)

    def test_sets_match_their_replies(self, tmp_path):
        # later rows bring new values, 10**12 among them, so the numbering
        # grows between the sets query builds; each set, built from its bit
        # row, equals the set of the values its reply listed
        scope: dict = {}
        exec(NEW_VALUES, scope)
        reply = scope["reply"]
        with spawn(tmp_path, NEW_VALUES + PLUGIN_LOOP) as plug:
            keys = []
            for t in range(1, 13):
                plug.bit_row(Side.A, t)
                keys += [(side, t, k) for side in Side for k in (1, t)]
                for side, tq, k in keys:
                    assert plug.query(side, tq, k) == from_indices(
                        PoolTag.PLAIN, reply(side.value, tq, k))
            assert 10**12 in plug._bit_of

    def test_checks_match_fixture(self, tmp_path):
        # F2 witnesses, shared sets and gamma traces on OVERLAPPING, each on
        # a fresh plugin, against tests/fixtures/plugin_overlapping.json,
        # recorded when every reply was cached as its values and bit row
        def encoded(fs):
            return [enc for enc, _, _ in fs.iter_encoded()]

        def fresh():
            return spawn(tmp_path, OVERLAPPING)

        got = {}
        with fresh() as plug:
            spec = plug.spec(GoldenNumber(2), 0)
            got["check_f2"] = [v.to_json() for v in check_f2(spec, 10)]
        with fresh() as plug:
            spec = plug.spec(GoldenNumber(2), 0)
            got["shared_stats"] = {
                str(t): [encoded(s.s_t), encoded(s.s_2t_t),
                         encoded(s.z_3t2_t)]
                for t in (2, 4, 6, 8, 10) for s in [shared_stats(spec, t)]}
        with fresh() as plug:
            spec = plug.spec(GoldenNumber(2), 0)
            got["gamma_trace"] = [
                checker.gamma_trace(spec, parse_exact(r), lam, theta,
                                    steps).to_json()
                for r, lam, theta, steps in (("1.42", 1, 1, 1),
                                             ("R0", 2, 1, 1),
                                             ("4/3", 1, 2, 1))]
        want = json.loads((FIXTURES / "plugin_overlapping.json").read_text())
        assert got == want


ODD_EVEN = Path(__file__).resolve().parents[1] / "bench" / "oddeven_plugin.py"

# both sides reply 1..k: F1 holds and |U_t| = t, but the sets clash from
# level 2 on, so a falsify that checks F2 only to level 1 traces gamma
PREFIX_BOTH = """
import json, sys
for line in sys.stdin:
    k = json.loads(line)["k"]
    sys.stdout.write(json.dumps({"freqs": list(range(1, k + 1))}) + "\\n")
    sys.stdout.flush()
"""

# (plugin body, command line) of plugins that break a check: the F1
# witnesses, the F2 witnesses with the lemma chain's clash and packing, and
# a gamma trace.  tests/fixtures/plugin_<case>.json holds the ``verdict`` of
# each one's --out, recorded when every check of a plugin read its replies
# as sets
VERDICTS = {
    "f1": (SHORT_WHEN_ODD,
           ["verify", "--r", "2", "--lambda", "0", "--t-max", "6",
            "--checks", "f1,f2,competitiveness,lemmas", "--lemma-t-max", "6"]),
    "f2": (OVERLAPPING,
           ["verify", "--r", "2", "--lambda", "0", "--t-max", "6",
            "--checks", "f1,f2,competitiveness,lemmas", "--lemma-t-max", "6"]),
    "gamma": (PREFIX_BOTH,
              ["falsify", "--r", "1.2", "--lambda", "1", "--t-max", "400",
               "--f2-t-max", "1"]),
}
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def verdict(doc):
    """What the checks computed in an --out document: each violation's kind,
    parameters, both sides and witness, and the gamma trace's entries."""
    fields = ("kind", "params", "lhs", "rhs", "witness")
    trace = doc["gamma_trace"]
    return {"violations": [{f: v[f] for f in fields if f in v}
                           for v in doc["violations"]],
            "gamma_entries": trace and trace["entries"]}


class TestLazySets:
    """Replies are kept as bit rows, and a FrequencySet is built
    only where a set is asked for."""

    def test_clean_verify_builds_no_set_past_the_first_query(self, tmp_path,
                                                              monkeypatch):
        # every check, the lemma chain included, reads bit rows; the one set
        # built is the reply to the query that starts the child, which
        # query returns (TestSetupAccounting)
        built = []
        init, raw = FrequencySet.__init__, FrequencySet._raw.__func__

        def counting_init(fs, *args):
            built.append("__init__")
            init(fs, *args)

        def counting_raw(cls, bands):
            built.append("_raw")
            return raw(cls, bands)

        monkeypatch.setattr(FrequencySet, "__init__", counting_init)
        monkeypatch.setattr(FrequencySet, "_raw", classmethod(counting_raw))
        values = []
        plain_set = plugin._plain_set

        def recording_plain_set(vs):
            values.append(vs)
            return plain_set(vs)

        monkeypatch.setattr(plugin, "_plain_set", recording_plain_set)
        code = main(["verify", "--system", f"plugin:{ODD_EVEN}", "--r", "2",
                     "--lambda", "0", "--t-max", "40", "--lemma-t-max", "20",
                     "--checks", "f1,f2,competitiveness,lemmas",
                     "--out", str(tmp_path / "out.json")])
        assert code == 0
        assert values == [[1]]
        assert built == ["__init__"]

    @pytest.mark.parametrize("case", VERDICTS)
    def test_violations_unchanged(self, tmp_path, case):
        body, argv = VERDICTS[case]
        out = tmp_path / "out.json"
        code = main([argv[0], "--system", f"plugin:{script(tmp_path, body)}",
                     *argv[1:], "--out", str(out)])
        assert code == 1
        got = verdict(json.loads(out.read_text()))
        expected = json.loads((FIXTURES / f"plugin_{case}.json").read_text())
        assert got["gamma_entries"] == expected["gamma_entries"]
        # one violation at a time, so that a failure names the first change
        for i, (g, e) in enumerate(zip(got["violations"],
                                       expected["violations"])):
            assert g == e, f"violation {i}"
        assert len(got["violations"]) == len(expected["violations"])

    def test_verify_memory_bound(self, tmp_path):
        # verify to T = 150 caches 22,650 replies; kept as bit rows they
        # peak near 34 MB, where a set per reply took 116 MB.  The
        # child reports VmHWM, the peak of its own address space:
        # ru_maxrss would carry over this process's peak through fork and
        # exec, and the plugin's own memory is not counted
        if not Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status to read the child's peak")
        argv = ["verify", "--system", f"plugin:{ODD_EVEN}", "--r", "2",
                "--lambda", "0", "--t-max", "150", "--f2-t-max", "150",
                "--out", str(tmp_path / "out.json")]
        code = (
            "from pathlib import Path\n"
            "from freqalloc.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "status = Path('/proc/self/status').read_text().splitlines()\n"
            "print(next(x for x in status if x.startswith('VmHWM:')).split()[1])\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        peak_mb = int(proc.stdout) / 1024  # VmHWM is in kB
        assert peak_mb < 80, f"verify peaked at {peak_mb:.0f} MB"


# each malformed reply with the reason it is refused
MALFORMED = [
    (b"not json at all", "malformed reply"),
    (b"\xff\xfe", "malformed reply"),
    (b'{"values": [1]}', "lacks a 'freqs' list"),
    (b"[1, 2]", "lacks a 'freqs' list"),
    (b'{"freqs": 3}', "'freqs' is not a list"),
    (b'{"freqs": [4, 4]}', "not strictly increasing at 4 "),
    (b'{"freqs": [3, 2]}', "not strictly increasing at 2 "),
    (b'{"freqs": [0, 1]}', "non-positive frequency 0 "),
    (b'{"freqs": [-2]}', "non-positive frequency -2 "),
    (b'{"freqs": [5, -1]}', "non-positive frequency -1 "),
    (b'{"freqs": ["x"]}', "non-integer frequency 'x' "),
    (b'{"freqs": [true]}', "non-integer frequency True "),
    (b'{"freqs": [1.0]}', "non-integer frequency 1.0 "),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, "malformed reply", id="deep"),
]


class TestDecode:
    @given(st.lists(
        st.sets(st.one_of(st.integers(1, 40), st.integers(1, 10**12),
                          st.integers(1, 2**63))),
        min_size=1, max_size=4,
    ))
    @settings(max_examples=300, deadline=None)
    def test_matches_constructor(self, replies):
        # replies decoded one after another share one numbering, which
        # gives each distinct value the next bit: however large the values,
        # every bit lies below the number of distinct values decoded.  The
        # set that query builds from a cached bit row, with no child to ask,
        # bands the reply's runs and gaps as the normalizing constructor does
        plug = PluginSystem(["no-child"])
        bit_of = plug._bit_of
        seen: set[int] = set()
        for k, freqs in enumerate(replies, 1):
            line = json.dumps({"freqs": sorted(freqs)}).encode()
            bits = plug._cache["A", 4, k] = PluginSystem._decode(
                line, "request", bit_of)
            seen |= freqs
            assert plug.query(Side.A, 4, k).bands == from_indices(
                PoolTag.PLAIN, freqs).bands
            assert bits.bit_length() <= len(seen)
            assert bits == sum(1 << bit_of[value] for value in freqs)
        assert bit_of.keys() == seen
        assert sorted(bit_of.values()) == list(range(len(seen)))

    @pytest.mark.parametrize("line, reason", MALFORMED)
    def test_malformed(self, line, reason):
        with pytest.raises(PluginFault, match=re.escape(reason)):
            PluginSystem._decode(line, "request", {})


class TestFaults:
    @pytest.mark.parametrize(
        "freqs",
        ["[4, 4]", "[3, 2]", "[0, 1]", "[-2]", '["x"]', "[true]"],
        ids=["duplicate", "unsorted", "zero", "negative", "string", "bool"],
    )
    def test_bad_frequency_lists(self, tmp_path, freqs):
        with spawn(tmp_path, FIXED_REPLY % freqs) as plug:
            with pytest.raises(PluginFault):
                plug.query(Side.A, 5, 2)

    def test_malformed_json(self, tmp_path):
        body = """
        import sys
        for line in sys.stdin:
            sys.stdout.write("not json at all\\n")
            sys.stdout.flush()
        """
        with spawn(tmp_path, body) as plug:
            with pytest.raises(PluginFault):
                plug.query(Side.A, 1, 1)

    def test_missing_freqs_key(self, tmp_path):
        body = """
        import json, sys
        for line in sys.stdin:
            sys.stdout.write(json.dumps({"values": [1]}) + "\\n")
            sys.stdout.flush()
        """
        with spawn(tmp_path, body) as plug:
            with pytest.raises(PluginFault):
                plug.query(Side.A, 1, 1)

    def test_early_exit(self, tmp_path):
        with spawn(tmp_path, "import sys; sys.exit(0)") as plug:
            with pytest.raises(PluginFault):
                plug.query(Side.A, 1, 1)

    def test_unlaunchable(self, tmp_path):
        plug = PluginSystem([str(tmp_path / "missing-binary")])
        with pytest.raises(PluginFault):
            plug.query(Side.A, 1, 1)
        plug.close()
