import json
import re
import sys
import textwrap
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqalloc import plugin
from freqalloc.checker import check_competitiveness, check_f1, check_f2
from freqalloc.cli import main
from freqalloc.frequencies import PoolTag, Side
from freqalloc.golden import GoldenNumber
from freqalloc.plugin import PluginFault, PluginSystem

from oracles import from_indices

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

# The next two misbehave for 10 s, then die: without a deadline the adapter
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


def script(tmp_path, body, name="plug.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return path


def spawn(tmp_path, body, name="plug.py", args=()):
    return PluginSystem([sys.executable, str(script(tmp_path, body, name)),
                         *map(str, args)])


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
            assert plug.row(Side.B, 7)[3] == first


class TestPipelining:
    def test_long_row_matches_single_queries(self, tmp_path, monkeypatch):
        # 3,000 requests and their replies each overflow a 64 KB pipe, so
        # writing the whole row before reading would stall both processes;
        # the deadline turns such a stall into a failure
        monkeypatch.setattr(plugin, "REPLY_DEADLINE_S", 10.0)
        with spawn(tmp_path, RUN_OF_32) as piped, \
                spawn(tmp_path, RUN_OF_32) as single:
            row = piped.row(Side.A, 3000)
            assert row == [single.query(Side.A, 3000, k)
                           for k in range(1, 3001)]

    def test_exit_mid_row(self, tmp_path):
        with spawn(tmp_path, EXIT_AFTER % 5) as plug:
            request = '{"side": "A", "t": 20, "k": 6}'
            with pytest.raises(PluginFault,
                               match=re.escape(f"answering {request}")):
                plug.row(Side.A, 20)

    def test_exit_mid_row_exits_2(self, tmp_path, capsys):
        code, err = verify_exit(tmp_path, EXIT_AFTER % 7, capsys, 5)
        assert code == 2
        assert err.startswith("plugin fault: ")

    def test_each_key_asked_once(self, tmp_path):
        log = tmp_path / "requests.log"
        with spawn(tmp_path, LOGGING, args=[log]) as plug:
            singles = {k: plug.query(Side.A, 8, k) for k in (3, 8)}
            row = plug.row(Side.A, 8)
            assert plug.row(Side.A, 8) == row
            assert all(row[k - 1] == fs for k, fs in singles.items())
            plug.row(Side.B, 8)
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
        with spawn(tmp_path, NEVER_READS) as plug:
            with pytest.raises(PluginFault, match="read no input for 0.3 s"):
                plug.row(Side.A, 5000)


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
]


class TestDecode:
    @given(st.sets(st.one_of(st.integers(1, 40), st.integers(1, 10**12))))
    @settings(max_examples=300, deadline=None)
    def test_matches_constructor(self, freqs):
        line = json.dumps({"freqs": sorted(freqs)}).encode()
        decoded = PluginSystem._decode(line, "request")
        assert decoded.bands == from_indices(PoolTag.PLAIN, freqs).bands

    @pytest.mark.parametrize("line, reason", MALFORMED)
    def test_malformed(self, line, reason):
        with pytest.raises(PluginFault, match=re.escape(reason)):
            PluginSystem._decode(line, "request")


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
