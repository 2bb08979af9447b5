"""A seeded, in-process fuzzer of the CLI contract.

Hypothesis draws command lines over the six subcommands: built-in systems
and the test-side plugins of ``test_plugin``, exact numbers well formed and
not, small horizons, and graph and request files that are valid, malformed,
not UTF-8 or nested too deep.  Every run of ``cli.main`` must

- exit 0, 1, 2 or 3, and raise nothing else (so print no traceback, nor
  write one on stderr, where a plugin fault may quote only the plugin's);
- print on stderr nothing on exit 0, and otherwise start with the prefix
  the README documents for its code (argparse's usage text for a command
  line it cannot parse);
- exit 1 only with ``violation:`` on stderr or a verdict in its ``--out``:
  a report with violations, or a refuted claim, which on a built-in
  system ``oracles.recheck`` re-derives from its sets.

Horizons stay small, because nothing yet bounds the work of a large
``--t-max``; the fuzzer tests the contract, not the resource bounds.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freqalloc.cli import main
from freqalloc.systems import BUILTIN_SYSTEMS

from oracles import recheck
from test_plugin import (EXIT_AFTER, FIXED_REPLY, ODD_EVEN, OVERLAPPING,
                         PREFIX_BOTH, SHORT_WHEN_ODD, STDERR_THEN_EXIT,
                         WELL_BEHAVED)

PLUGINS = {
    "well_behaved": WELL_BEHAVED,
    "short_when_odd": SHORT_WHEN_ODD,
    "overlapping": OVERLAPPING,
    "prefix_both": PREFIX_BOTH,
    "unsorted": FIXED_REPLY % "[3, 2]",
    "exit_after_3": EXIT_AFTER % 3,
    "stderr_then_exit": STDERR_THEN_EXIT % "boom",
}

PREFIXES = {1: ("violation: ",), 2: ("error: ", "plugin fault: ", "usage: "),
            3: ("refused: ",)}


@pytest.fixture(scope="module")
def plugin_dir(tmp_path_factory):
    where = tmp_path_factory.mktemp("plugins")
    for name, body in PLUGINS.items():
        (where / f"{name}.py").write_text(body)
    return where


def mostly(good, bad):
    """Draws of good nine times in ten, of bad otherwise."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 9 else good)


def exact_numbers():
    well_formed = st.sampled_from(
        ["1", "2", "3/2", "1.42", "1.2", "R0", "phi", "18/11-1/11*sqrt5",
         "10/7-1/100", "4/3", "sqrt5-1", "7/5", "1.4285"])
    malformed = st.one_of(st.sampled_from(
        ["", "-", "abc", "1/0", "0", "-2", "1e5", "nan", "sqrt5*", "1//2",
         "2+", "R0R0", "1.", ".5", "1/2/3", "9" * 5000, "1/" + "9" * 4400]),
        st.text("0123456789./+-*sqrt5R0phi ", max_size=12))
    return mostly(well_formed, malformed)


def counts(lo, hi):
    """A count in [lo, hi], or text that is not a positive integer."""
    return mostly(st.integers(lo, hi).map(str),
                  st.sampled_from(["0", "-3", "x", "", "1.5"]))


def lambdas():
    return mostly(st.integers(-30, 30).map(str),
                  st.sampled_from(["-1000000", "10**3", "y"]))


def systems(plugin_dir):
    plugins = [f"plugin:{plugin_dir / name}.py" for name in PLUGINS]
    return st.sampled_from(["trivial", "half", "golden", "nosuch",
                            f"plugin:{ODD_EVEN}",
                            f"plugin:{plugin_dir / 'missing.py'}", *plugins])


def optional(flag, values):
    """The flag with a value, or now and then nothing."""
    return mostly(values.map(lambda v: [flag, v]), st.just([]))


def system_flags(plugin_dir):
    return st.tuples(
        st.just("--system"), systems(plugin_dir),
        optional("--r", exact_numbers()),
        optional("--lambda", lambdas()),
    ).map(lambda f: [f[0], f[1], *f[2], *f[3]])


A_SIDE, B_SIDE = ["a0", "a1", "a2"], ["b0", "b1", "b2"]
VERTICES = A_SIDE + B_SIDE


def graphs():
    """Graph files: mostly a small graph whose sides, where given, are
    mostly those of the vertex names, with mostly edges across them."""
    edge = mostly(st.tuples(st.sampled_from(A_SIDE), st.sampled_from(B_SIDE)),
                  st.tuples(st.sampled_from(VERTICES),
                            st.sampled_from(VERTICES)))
    side = st.one_of(st.none(), mostly(st.just("name"), st.sampled_from("AB")))
    valid = st.builds(
        lambda sides, edges: {
            "vertices": [{"id": v, "side": v[0].upper() if s == "name" else s}
                         for v, s in zip(VERTICES, sides)],
            "edges": [list(e) for e in edges]},
        st.lists(side, min_size=6, max_size=6), st.lists(edge, max_size=8))
    junk = st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4)),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(st.sampled_from(["vertices", "edges", "id", "side"]),
                            inner, max_size=3)),
        max_leaves=8)
    raw = st.sampled_from([b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000,
                           b'{"vertices": [], "edges": [' + b"7" * 5000 + b"]}",
                           b"{"])
    return mostly(valid.map(lambda doc: json.dumps(doc).encode()),
                  st.one_of(junk.map(lambda doc: json.dumps(doc).encode()),
                            raw, st.binary(max_size=20)))


def request_files():
    line = mostly(
        st.sampled_from(VERTICES).map(lambda v: json.dumps({"vertex": v})),
        st.sampled_from(['{"vertex": 3}', "[1]", "not json", "",
                         '{"vertex": "zz"}', "[" * 100_000]))
    lines = st.lists(line, max_size=12).map(
        lambda ls: "\n".join(ls).encode())
    return mostly(lines, st.sampled_from([b"\xff\n", b""]))


def outs():
    return st.sampled_from(["file", "file", "file", "-", "dir"])


def command_lines(plugin_dir):
    """(argv without --out, where --out goes, graph bytes, request bytes)."""
    checks = st.lists(st.sampled_from(
        ["f1", "f2", "competitiveness", "lemmas", "bogus"]),
        min_size=1, max_size=4, unique=True).map(",".join)
    verify = st.tuples(
        st.just(["verify"]), system_flags(plugin_dir),
        counts(1, 30).map(lambda v: ["--t-max", v]),
        optional("--f2-t-max", counts(1, 30)),
        optional("--lemma-t-max", counts(1, 12)),
        optional("--checks", checks))
    falsify = st.tuples(
        st.just(["falsify"]), system_flags(plugin_dir),
        counts(1, 60).map(lambda v: ["--t-max", v]),
        optional("--f2-t-max", counts(1, 30)))
    run = st.tuples(
        st.just(["run"]), system_flags(plugin_dir),
        st.just(["--graph", "{graph}", "--requests", "{requests}"]),
        st.sampled_from([[], ["--validate"]]))
    adversary = st.one_of(
        st.tuples(st.just(["adversary", "universal"]),
                  optional("--t-max", counts(1, 8))),
        st.tuples(st.just(["adversary", "lower-bound"]),
                  optional("--theta", counts(1, 3)),
                  optional("--lambda", counts(1, 3)),
                  optional("--scale-cap", counts(1, 10**4))))
    opt = st.tuples(
        st.sampled_from([["opt", "static"], ["opt", "brute"]]),
        st.just(["--graph", "{graph}", "--requests", "{requests}"]),
        optional("--budget", counts(1, 10**4)))
    plot = st.tuples(
        st.just(["plot-sets"]), system_flags(plugin_dir),
        optional("--t", counts(1, 20)),
        optional("--side", st.sampled_from(["A", "B", "C"])))
    argv = st.one_of(verify, falsify, run, adversary, opt, plot).map(
        lambda parts: [word for part in parts for word in part])
    return st.tuples(argv, outs(), graphs(), request_files())


def run_main(argv):
    """Exit code, stdout and stderr of main, with argparse's exit caught."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def has_verdict(text: str) -> bool:
    """Whether an --out document records violations or a refuted claim."""
    doc = json.loads(text) if text else {}
    return bool(doc.get("violations")) or doc.get("status") == "refuted"


def test_cli_contract(plugin_dir):
    @given(command_lines(plugin_dir))
    @settings(max_examples=500, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def check(case):
        argv, out, graph, requests = case
        # the digit limit that the long exact numbers above pass
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        with tempfile.TemporaryDirectory() as where:
            where = Path(where)
            (where / "graph.json").write_bytes(graph)
            (where / "requests.jsonl").write_bytes(requests)
            argv = [word.format(graph=where / "graph.json",
                                requests=where / "requests.jsonl")
                    for word in argv]
            target = {"file": where / "out.json", "-": "-", "dir": where}[out]
            if argv[0] == "adversary":
                argv += ["--out-graph", str(target),
                         "--out-requests", str(where / "r.jsonl")]
            else:
                argv += ["--out", str(target)]
            try:
                code, stdout, err = run_main(argv)
            finally:
                sys.set_int_max_str_digits(saved)
            assert code in (0, 1, 2, 3), (argv, code, err)
            # a plugin fault may quote the plugin's own traceback
            own = err.partition("; its stderr ends with ")[0]
            assert "Traceback" not in own, (argv, err)
            if code == 0:
                assert err == "", (argv, err)
            elif code == 1 and not err:
                written = stdout if out == "-" else target.read_text()
                assert has_verdict(written), argv
                # a built-in's verdict re-derives from its sets
                system = argv[argv.index("--system") + 1]
                if system in BUILTIN_SYSTEMS:
                    recheck(json.loads(written), BUILTIN_SYSTEMS[system]())
            else:
                assert err.startswith(PREFIXES[code]), (argv, code, err)

    check()
