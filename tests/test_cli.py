import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from freqalloc import checker, cli, harness
from freqalloc.cli import main
from freqalloc.frequencies import FrequencySet, PoolTag, Side
from freqalloc.golden import parse_exact
from freqalloc.systems import golden_system

from test_plugin import ANSWERS_FIRST_TWICE
from test_recheck import CHECK_GOLDEN


def run_cli(*argv):
    return main(list(argv))


def write_graph(tmp_path, doc, name="graph.json"):
    # bytes are written as they are: files that json.dumps cannot make
    p = tmp_path / name
    p.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    return str(p)


def write_requests(tmp_path, vertices, name="requests.jsonl"):
    p = tmp_path / name
    p.write_text("".join(json.dumps({"vertex": v}) + "\n" for v in vertices))
    return str(p)


EDGE_GRAPH = {
    "vertices": [{"id": "u", "side": "A"}, {"id": "v", "side": "B"}],
    "edges": [["u", "v"]],
}

# the same frequencies 1..k for every request, on both sides
COLLIDER = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    sys.stdout.write(json.dumps({"freqs": list(range(1, req["k"] + 1))}) + "\\n")
    sys.stdout.flush()
"""


class TestVerify:
    def test_golden_clean(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "verify", "--system", "golden", "--r", "R0", "--lambda", "8",
            "--t-max", "120", "--f2-t-max", "40", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["violation_count"] == 0
        assert report["claims"]["r"] == "18/11-1/11*sqrt5"

    def test_trivial_clean_default_claims(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(
            "verify", "--system", "trivial", "--t-max", "60", "--out", str(out)
        ) == 0

    def test_bad_claim_fails(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "verify", "--system", "golden", "--r", "1.42", "--lambda", "8",
            "--t-max", "150", "--out", str(out),
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert report["violations"]
        assert report["violations"][0]["kind"] == "competitiveness"

    def test_lemma_checks_run(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "verify", "--system", "half", "--checks", "lemmas",
            "--lemma-t-max", "60", "--out", str(out),
        )
        assert code == 0
        assert json.loads(out.read_text())["horizons"]["lemma_chain"] == 60

    @pytest.mark.parametrize("t_max, f2, lemmas",
                             [(300, 100, 200), (50, 50, 50)])
    def test_default_horizons(self, tmp_path, t_max, f2, lemmas):
        # with no horizon flags, F2 and the lemma chain stop at their caps
        # or at --t-max, whichever is lower
        out = tmp_path / "report.json"
        run_cli(
            "verify", "--system", "half", "--checks", "f1,f2,lemmas",
            "--t-max", str(t_max), "--out", str(out),
        )
        assert json.loads(out.read_text())["horizons"] == {
            "f1": t_max, "f2": f2, "lemma_chain": lemmas}

    def test_unknown_system(self):
        assert run_cli("verify", "--system", "nope", "--t-max", "5") == 2

    def test_bad_exact_number(self):
        assert (
            run_cli("verify", "--system", "golden", "--r", "wat", "--t-max", "5")
            == 2
        )


class TestFalsify:
    def test_refutes_golden_142(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run_cli(
            "falsify", "--system", "golden", "--r", "1.42", "--lambda", "8",
            "--t-max", "400", "--out", str(out),
        )
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["status"] == "refuted"

    def test_certificate_when_horizon_short(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run_cli(
            "falsify", "--system", "golden", "--r", "1.42", "--lambda", "8",
            "--t-max", "60", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "certificate"
        assert doc["certificate"]["contradiction_index"] >= 1

    def test_rejects_out_of_scope_ratio(self):
        assert (
            run_cli("falsify", "--system", "golden", "--r", "3/2", "--lambda", "8")
            == 2
        )


class TestRun:
    def test_single_edge_trivial(self, tmp_path):
        g = write_graph(tmp_path, EDGE_GRAPH)
        r = write_requests(tmp_path, ["u", "u", "u", "v", "v"])
        out = tmp_path / "out.json"
        assert run_cli(
            "run", "--graph", g, "--requests", r, "--system", "trivial",
            "--out", str(out),
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["distinct_used"] == 5
        assert doc["assignment"]["u"] == [1, 6, 11]  # PA1..PA3 encoded
        assert [s["distinct_used"] for s in doc["steps"]] == [1, 2, 3, 4, 5]

    def test_empty_requests(self, tmp_path):
        g = write_graph(tmp_path, EDGE_GRAPH)
        r = write_requests(tmp_path, [])
        out = tmp_path / "out.json"
        assert run_cli(
            "run", "--graph", g, "--requests", r, "--system", "trivial",
            "--out", str(out),
        ) == 0
        assert json.loads(out.read_text())["assignment"] == {}

    def test_not_bipartite_exit_2(self, tmp_path):
        g = write_graph(
            tmp_path,
            {
                "vertices": [{"id": x} for x in "abc"],
                "edges": [["a", "b"], ["b", "c"], ["c", "a"]],
            },
        )
        r = write_requests(tmp_path, ["a"])
        assert run_cli(
            "run", "--graph", g, "--requests", r, "--system", "trivial"
        ) == 2

    def test_colliding_plugin_exit_1(self, tmp_path):
        plug = tmp_path / "collider.py"
        plug.write_text(COLLIDER)
        g = write_graph(tmp_path, EDGE_GRAPH)
        r = write_requests(tmp_path, ["u", "v"])
        assert run_cli(
            "run", "--graph", g, "--requests", r,
            "--system", f"plugin:{plug}", "--r", "1", "--lambda", "0",
        ) == 1


class TestAdversary:
    def test_universal_t2(self, tmp_path):
        g = tmp_path / "g.json"
        r = tmp_path / "r.jsonl"
        assert run_cli(
            "adversary", "universal", "--t-max", "2",
            "--out-graph", str(g), "--out-requests", str(r),
        ) == 0
        doc = json.loads(g.read_text())
        assert len(doc["vertices"]) == 6
        assert len(doc["edges"]) == 3
        lines = [json.loads(x) for x in r.read_text().splitlines()]
        assert len(lines) == 2 * (1 + 1 + 2)

    def test_universal_guard(self, tmp_path):
        assert run_cli(
            "adversary", "universal", "--t-max", "1000000",
            "--out-graph", str(tmp_path / "g"), "--out-requests",
            str(tmp_path / "r"),
        ) == 3

    def test_universal_bound_is_the_harness_guard(self, tmp_path,
                                                  monkeypatch, capsys):
        # one bound, harness.MAX_EDGES: at exactly its edge count the export
        # runs, one level more is refused through main's handler
        monkeypatch.setattr(harness, "MAX_EDGES",
                            harness.UniversalGraph(6).edge_count())
        outs = ["--out-graph", str(tmp_path / "g"),
                "--out-requests", str(tmp_path / "r")]
        assert run_cli("adversary", "universal", "--t-max", "6", *outs) == 0
        capsys.readouterr()
        assert run_cli("adversary", "universal", "--t-max", "7", *outs) == 3
        assert capsys.readouterr().err.startswith("refused: ")

    def test_lower_bound(self, tmp_path):
        g = tmp_path / "g.json"
        r = tmp_path / "r.jsonl"
        assert run_cli(
            "adversary", "lower-bound", "--theta", "1", "--lambda", "1",
            "--out-graph", str(g), "--out-requests", str(r),
        ) == 0
        assert len(json.loads(g.read_text())["vertices"]) == 14

    def test_lower_bound_refusal(self, tmp_path):
        assert run_cli(
            "adversary", "lower-bound", "--theta", "35", "--lambda", "1",
            "--scale-cap", "1000000",
            "--out-graph", str(tmp_path / "g"), "--out-requests",
            str(tmp_path / "r"),
        ) == 3

    def test_lower_bound_refusal_at_the_digit_limit(self, tmp_path, capsys):
        # at theta 1 the largest scale is 12*lambda: the refusal prints its
        # decimal while that fits the interpreter's digit limit, and the
        # formula alone from the first lambda whose scale has one digit more;
        # no lambda past the limit - 1 nines is formed
        limit = 4300
        last_fit = "8" + "3" * (limit - 2)  # (10^limit - 1) // 12
        cases = [
            (last_fit, f" = {'9' * (limit - 2)}96"),  # 10^limit - 4
            ("8" + "3" * (limit - 3) + "4", ""),
            ("9" * (limit - 1), ""),
        ]
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            for lam, decimal in cases:
                assert run_cli(
                    "adversary", "lower-bound", "--theta", "1", "--lambda", lam,
                    "--out-graph", str(tmp_path / "g"), "--out-requests",
                    str(tmp_path / "r"),
                ) == 3
                assert capsys.readouterr().err == (
                    f"refused: largest scale 6*1*{lam}*2^1{decimal} exceeds "
                    "the cap 1000000\n"
                )
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("system", ["trivial", "half", "golden"])
    def test_round_trip_through_run(self, tmp_path, system):
        g = tmp_path / "g.json"
        r = tmp_path / "r.jsonl"
        out = tmp_path / "out.json"
        assert run_cli(
            "adversary", "universal", "--t-max", "12",
            "--out-graph", str(g), "--out-requests", str(r),
        ) == 0
        assert run_cli(
            "run", "--graph", str(g), "--requests", str(r),
            "--system", system, "--out", str(out),
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["distinct_used"] > 0


class TestOpt:
    def test_static_and_brute_agree(self, tmp_path):
        g = write_graph(tmp_path, EDGE_GRAPH)
        r = write_requests(tmp_path, ["u"] * 3 + ["v"] * 2)
        out1, out2 = tmp_path / "s.json", tmp_path / "b.json"
        assert run_cli(
            "opt", "static", "--graph", g, "--requests", r, "--out", str(out1)
        ) == 0
        assert run_cli(
            "opt", "brute", "--graph", g, "--requests", r, "--out", str(out2)
        ) == 0
        assert json.loads(out1.read_text())["optimum"] == 5
        assert json.loads(out2.read_text())["optimum"] == 5

    def test_brute_budget_refusal(self, tmp_path):
        g = write_graph(tmp_path, EDGE_GRAPH)
        r = write_requests(tmp_path, ["u"] * 9 + ["v"] * 9)
        assert run_cli(
            "opt", "brute", "--graph", g, "--requests", r, "--budget", "10"
        ) == 3


class TestPlotSets:
    def test_half_band(self, tmp_path):
        out = tmp_path / "bands.csv"
        assert run_cli(
            "plot-sets", "--system", "half", "--t", "10", "--out", str(out)
        ) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        bands_k7 = [
            r for r in rows if r["k"] == "7" and r["pool"] == "Q"
        ]
        assert bands_k7 == [{"k": "7", "pool": "Q", "lo": "3", "hi": "5"}]

    def test_golden_case2_private_only(self, tmp_path):
        out = tmp_path / "bands.csv"
        assert run_cli(
            "plot-sets", "--system", "golden", "--t", "20", "--out", str(out)
        ) == 0
        rows = [
            r
            for r in csv.DictReader(out.read_text().splitlines())
            if r["k"] == "8"
        ]
        assert rows == [{"k": "8", "pool": "PA", "lo": "0", "hi": "12"}]

    def test_reconstructs_exact_sets(self, tmp_path):
        out = tmp_path / "bands.csv"
        t = 11
        assert run_cli(
            "plot-sets", "--system", "golden", "--t", str(t), "--side", "B",
            "--out", str(out),
        ) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        go = golden_system()
        by_token = {p.token: p for p in PoolTag}
        for k in range(0, t + 1):
            bands = [
                (by_token[r["pool"]], int(r["lo"]) + 1, int(r["hi"]) + 1)
                for r in rows
                if int(r["k"]) == k
            ]
            assert FrequencySet(bands) == go.sets(Side.B, t, k)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_golden_level_zero_is_its_private_band(self, tmp_path, side):
        # F(c, t, 0) of golden is not empty: PA[1..6] for side A at t = 5
        for t, hi in ((1, "4"), (3, "5"), (5, "6")):
            out = tmp_path / "bands.csv"
            assert run_cli("plot-sets", "--system", "golden", "--t", str(t),
                           "--side", side, "--out", str(out)) == 0
            rows = [r for r in csv.DictReader(out.read_text().splitlines())
                    if r["k"] == "0"]
            assert rows == [{"k": "0", "pool": f"P{side}", "lo": "0",
                             "hi": hi}]

    def test_plugin_answers_level_zero(self, tmp_path):
        # plot-sets is the one command that asks for k = 0; the odd-even
        # plugin answers it with no frequencies
        out = tmp_path / "bands.csv"
        assert run_cli("plot-sets", "--system", f"plugin:{ODD_EVEN}",
                       "--r", "2", "--lambda", "0", "--t", "3",
                       "--out", str(out)) == 0
        assert out.read_text() == (
            "k,pool,lo,hi\n1,F,0,1\n2,F,0,1\n2,F,2,3\n3,F,0,1\n3,F,2,3\n"
            "3,F,4,5\n")


# each adversary command and the SHA-256s of its graph and request files,
# so that its bytes are pinned across versions, not only between two runs
ADVERSARY = {
    "universal": (
        ["universal", "--t-max", "6"],
        "97940cf8ce550b8a521b67602b2502ab7a9b0a1184ca355c106173fb2a078f11",
        "97ae06acc6aff24d354ed375e550332efdaafb9e9d59b4a5d6d93020a590d90c",
    ),
    "lower-bound": (
        ["lower-bound", "--theta", "2", "--lambda", "1"],
        "7be21b000ab5d3131b1554bf80f9b4d6f6363f6cbbe7c4c755d202909b148f26",
        "76ad34234c3c7044e958718e07d1c787625c6d37cd249bf43c3883e8d47385a3",
    ),
}


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run_cli(
                "verify", "--system", "golden", "--t-max", "40",
                "--f2-t-max", "20", "--out", str(out),
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_adversary_byte_identical(self, tmp_path):
        # between two runs, and against the SHA-256s pinned in ADVERSARY
        for mode, (argv, *digests) in ADVERSARY.items():
            blobs = []
            for tag in ("1", "2"):
                g = tmp_path / f"{mode}{tag}.json"
                r = tmp_path / f"{mode}{tag}.jsonl"
                run_cli("adversary", *argv,
                        "--out-graph", str(g), "--out-requests", str(r))
                blobs.append([g.read_bytes(), r.read_bytes()])
            assert blobs[0] == blobs[1], mode
            assert [hashlib.sha256(b).hexdigest() for b in blobs[0]] == digests

    def test_outputs_independent_of_hash_seed(self, tmp_path):
        # check-golden's command lines and both adversary commands, in one
        # fresh interpreter per PYTHONHASHSEED
        script = ("import json, sys\n"
                  "from freqalloc.cli import main\n"
                  "print(json.dumps([main(a) for a in json.loads(sys.argv[1])]))")
        runs = {}
        for seed in ("0", "4242"):
            where = tmp_path / seed
            where.mkdir()
            calls = [[*argv, "--out", str(where / f"{name}.json")]
                     for name, argv in CHECK_GOLDEN.items()]
            calls += [["adversary", *argv,
                       "--out-graph", str(where / f"{mode}.json"),
                       "--out-requests", str(where / f"{mode}.jsonl")]
                      for mode, (argv, *_) in ADVERSARY.items()]
            proc = subprocess.run(
                [sys.executable, "-c", script, json.dumps(calls)],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == [0, 1, 0, 0, 0]
            runs[seed] = {p.name: p.read_bytes() for p in where.iterdir()}
        assert len(runs["0"]) == 7
        assert runs["0"] == runs["4242"]


    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # main parses each call with the one parser of the process; no
        # call's options, nor a call that fails to parse, reach the next
        assert cli.build_parser() is cli.build_parser()
        horizons = []
        lemmas = ["--checks", "f1,lemmas", "--lemma-t-max", "10"]
        for extra in ([], lemmas, []):
            out = tmp_path / "out.json"
            assert main(["verify", "--system", "half", "--t-max", "20",
                         *extra, "--out", str(out)]) == 0
            horizons.append(json.loads(out.read_text())["horizons"])
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--system", "half", "--lemma-t-max", "0"])
            assert exc.value.code == 2
        assert horizons[0] == horizons[2] != horizons[1]


class TestBadNumbers:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--system", "golden", "--r", "1/0", "--lambda", "8"],
            ["verify", "--system", "golden", "--r", "1/2", "--lambda", "8"],
            ["verify", "--system", "golden", "--r", "", "--lambda", "8"],
            ["falsify", "--system", "golden", "--r", "1/0*sqrt5", "--lambda", "8"],
            ["verify", "--system", "golden", "--t-max", "0"],
            ["verify", "--system", "golden", "--checks", "f2", "--f2-t-max", "-3"],
            ["verify", "--system", "golden", "--checks", "f2", "--f2-t-max", "0"],
            ["verify", "--system", "half", "--checks", "lemmas",
             "--lemma-t-max", "0"],
            ["verify", "--system", "golden", "--t-max", "ten"],
            ["falsify", "--system", "golden", "--r", "1.42", "--lambda", "8",
             "--t-max", "0"],
            ["plot-sets", "--system", "golden", "--t", "0"],
            ["adversary", "universal", "--t-max", "0"],
            ["adversary", "lower-bound", "--theta", "0", "--lambda", "1"],
            ["adversary", "lower-bound", "--theta", "1", "--lambda", "0"],
            ["adversary", "lower-bound", "--theta", "1", "--lambda", "1",
             "--scale-cap", "-5"],
            ["adversary", "lower-bound", "--theta", "1", "--lambda", "1",
             "--scale-cap", "0"],
            ["falsify", "--system", "golden", "--r", "1.42", "--lambda", "8",
             "--f2-t-max", "0"],
            ["opt", "brute", "--budget", "-5"],
            ["opt", "brute", "--budget", "0"],
        ],
    )
    def test_exit_2_without_traceback(self, tmp_path, argv):
        if argv[0] == "adversary":
            argv = argv + ["--out-graph", str(tmp_path / "g.json"),
                           "--out-requests", str(tmp_path / "r.jsonl")]
        if argv[0] == "opt":
            # inputs that a valid budget solves, so only the number is bad
            argv = argv + ["--graph", write_graph(tmp_path, EDGE_GRAPH),
                           "--requests", write_requests(tmp_path, ["u", "v"])]
        proc = subprocess.run(
            [sys.executable, "-m", "freqalloc.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["adversary", "lower-bound", "--theta", "35", "--lambda", "1"],
            ["adversary", "lower-bound", "--theta", "100000", "--lambda", "1"],
            ["adversary", "lower-bound", "--theta", "1000000000",
             "--lambda", "1"],
            ["adversary", "universal", "--t-max", "65"],
            ["opt", "brute", "--budget", "10"],
        ],
        ids=["theta-35", "theta-1e5", "theta-1e9", "universal-65", "budget"],
    )
    def test_refusal_exits_3_without_traceback(self, tmp_path, argv):
        # every refusal leaves through main's one handler
        if argv[0] == "adversary":
            argv = argv + ["--out-graph", str(tmp_path / "g.json"),
                           "--out-requests", str(tmp_path / "r.jsonl")]
        if argv[0] == "opt":
            argv = argv + ["--graph", write_graph(tmp_path, EDGE_GRAPH),
                           "--requests",
                           write_requests(tmp_path, ["u"] * 9 + ["v"] * 9)]
        proc = subprocess.run(
            [sys.executable, "-m", "freqalloc.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("refused: ")
        assert "Traceback" not in proc.stderr


def long_ratio_terms(digits):
    """(P, Q) with P + Q*sqrt5 the first odd power of 2 + sqrt5 whose P has
    the given number of digits: P - Q*sqrt5 = (2 - sqrt5)^n is then a tiny
    negative number, so 2 + P - Q*sqrt5 is just below 2."""
    p, q, n = 2, 1, 1
    while len(str(p)) < digits or n % 2 == 0:
        p, q, n = 2 * p + 5 * q, p + 2 * q, n + 1
    return p, q


class TestDigitLimit:
    """An exact number whose decimal text would pass the interpreter's digit
    limit is refused as it is printed, through main's one handler, before
    any --out is written."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--system", "golden", "--r", "2+{P}-{Q}*sqrt5",
             "--lambda", "-20", "--t-max", "30", "--checks", "competitiveness"],
            ["falsify", "--system", "golden", "--r", "1.42+{P}-{Q}*sqrt5",
             "--lambda", "8", "--t-max", "30"],
            ["falsify", "--system", "golden", "--r", "1.42+{P}-{Q}*sqrt5",
             "--lambda", "1", "--t-max", "30"],
            # 10/7 - 1/(N(N+1)): theta = N(N+1) + 1 has about 8,000 digits
            ["falsify", "--system", "golden", "--r", "10/7-1/{N}+1/{N1}",
             "--lambda", "8", "--t-max", "10"],
        ],
        ids=["verify-bound", "falsify-claim", "falsify-check",
             "falsify-theta"],
    )
    def test_refused_without_traceback(self, tmp_path, capsys, argv):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            p, q = long_ratio_terms(4299)
            argv = [a.format(P=p, Q=q, N=10**4000, N1=10**4000 + 1)
                    for a in argv]
            out = tmp_path / "out.json"
            assert main([*argv, "--out", str(out)]) == 3
        finally:
            sys.set_int_max_str_digits(saved)
        err = capsys.readouterr().err
        assert err == (
            "refused: exact number too long to print: its decimal text "
            "passes the limit of 4300 digits\n"
        )
        assert not out.exists()


class TestBadGraphs:
    @pytest.mark.parametrize(
        "graph",
        [
            {"vertices": ["u"], "edges": []},
            [1, 2],
            {"vertices": [{"id": "u"}], "edges": [5]},
            {"vertices": [{"id": ["u"]}], "edges": []},
            {"vertices": [{"id": 1}, {"id": "u"}], "edges": []},
            {
                "vertices": [{"id": "u", "side": "A"}, {"id": "v"},
                             {"id": "u", "side": "B"}],
                "edges": [["u", "v"]],
            },
            {"vertices": [{"id": "u"}, {"id": "u"}], "edges": []},
            {"vertices": [{"id": "u"}, {"side": "A"}], "edges": []},
            pytest.param(b'{"vertices": [{"id": "\xff"}], "edges": []}',
                         id="not-utf8"),
            pytest.param(b"[" * 100_000 + b"]" * 100_000, id="deep"),
            pytest.param(b'{"vertices": [], "edges": [' + b"7" * 5000 + b"]}",
                         id="long-int"),
        ],
    )
    @pytest.mark.parametrize(
        "command", [["opt", "static"], ["run", "--system", "golden"]]
    )
    def test_exit_2_without_traceback(self, tmp_path, graph, command):
        proc = subprocess.run(
            [
                sys.executable, "-m", "freqalloc.cli", *command,
                "--graph", write_graph(tmp_path, graph),
                "--requests", write_requests(tmp_path, ["u"]),
                "--out", str(tmp_path / "out.json"),
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "bad graph file" in proc.stderr


class TestBadRequests:
    @pytest.mark.parametrize(
        "command", [["opt", "static"], ["run", "--system", "golden"]]
    )
    def test_numeric_vertex_id_exits_2(self, tmp_path, command):
        # {"vertex": 1} names no vertex, not even one with id "1"
        graph = {"vertices": [{"id": "1"}, {"id": "2"}], "edges": [["1", "2"]]}
        proc = subprocess.run(
            [
                sys.executable, "-m", "freqalloc.cli", *command,
                "--graph", write_graph(tmp_path, graph),
                "--requests", write_requests(tmp_path, [1]),
                "--out", str(tmp_path / "out.json"),
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "bad request file" in proc.stderr
        assert "is not a string" in proc.stderr

    @pytest.mark.parametrize(
        "command", [["opt", "static"], ["run", "--system", "golden"]]
    )
    def test_deep_line_exits_2(self, tmp_path, command):
        requests = tmp_path / "requests.jsonl"
        deep = "[" * 100_000 + "]" * 100_000
        requests.write_text(f'{{"vertex": "u"}}\n{deep}\n')
        proc = subprocess.run(
            [
                sys.executable, "-m", "freqalloc.cli", *command,
                "--graph", write_graph(tmp_path, EDGE_GRAPH),
                "--requests", str(requests),
                "--out", str(tmp_path / "out.json"),
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (
            f"error: bad request file {requests}: request line 2 is nested "
            "too deep\n")


class TestBadOutputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--system", "golden", "--t-max", "5"],
            ["falsify", "--system", "golden", "--r", "1.42", "--lambda", "8",
             "--t-max", "30"],
            ["run", "--system", "golden"],
            ["opt", "static"],
            ["plot-sets", "--system", "golden", "--t", "3"],
            ["adversary", "universal", "--t-max", "2"],
        ],
        ids=["verify", "falsify", "run", "opt", "plot-sets", "adversary"],
    )
    def test_unwritable_out_exits_2(self, tmp_path, argv):
        # a directory that does not exist
        out = str(tmp_path / "missing" / "p.json")
        if argv[0] in ("run", "opt"):
            argv = argv + ["--graph", write_graph(tmp_path, EDGE_GRAPH),
                           "--requests", write_requests(tmp_path, ["u", "v"])]
        if argv[0] == "adversary":
            argv = argv + ["--out-graph", out,
                           "--out-requests", str(tmp_path / "r.jsonl")]
        else:
            argv = argv + ["--out", out]
        proc = subprocess.run(
            [sys.executable, "-m", "freqalloc.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: cannot write {out}: ")


ODD_EVEN = Path(__file__).resolve().parents[1] / "bench" / "oddeven_plugin.py"


class TestF2Guard:
    """A disjointness horizon whose columns cannot be allocated is refused
    before any sweep.  The sweeps are patched to fail if entered, so that a
    missing guard fails at once instead of allocating the columns."""

    @pytest.fixture(autouse=True)
    def no_sweeps(self, monkeypatch):
        def entered(*args, **kwargs):
            raise AssertionError("a sweep ran before the F2 guard")

        for name in ("check_f1", "_check_f2_bands", "_check_f2_sets"):
            monkeypatch.setattr(checker, name, entered)

    @pytest.mark.parametrize(
        "argv, need",
        [
            (["verify", "--system", "golden", "--r", "3/2", "--lambda", "2",
              "--t-max", "10", "--f2-t-max", "100000000000"],
             576 * (10**11 + 1)),
            (["verify", "--system", f"plugin:{ODD_EVEN}", "--r", "2",
              "--lambda", "0", "--t-max", "10", "--f2-t-max", "1000000000"],
             16 * 10**9),
            (["falsify", "--system", "golden", "--r", "1.42", "--lambda", "8",
              "--f2-t-max", "100000000000"], 576 * (10**11 + 1)),
            (["falsify", "--system", f"plugin:{ODD_EVEN}", "--r", "1.42",
              "--lambda", "0", "--f2-t-max", "1000000000"], 16 * 10**9),
        ],
        ids=["verify-golden", "verify-plugin", "falsify-golden",
             "falsify-plugin"],
    )
    def test_refused_before_any_sweep(self, capsys, argv, need):
        assert main(argv) == 3
        horizon = argv[argv.index("--f2-t-max") + 1]
        assert capsys.readouterr().err == (
            f"refused: disjointness to level {horizon} needs {need} bytes of "
            f"columns up front, over the guard of "
            f"{checker.F2_COLUMN_BYTES_CAP}\n")

    def test_library_entries_refuse(self):
        go = golden_system()
        with pytest.raises(harness.ResourceGuardError):
            checker.check_f2(go, 10**11)
        with pytest.raises(harness.ResourceGuardError):
            checker.run_checks(go, f1_t_max=10, f2_t_max=10**11)
        with pytest.raises(harness.ResourceGuardError):
            checker.falsify(go, parse_exact("1.42"), 8, 10, f2_t_max=10**11)

    def test_bound_at_its_edge(self):
        # the last admitted horizon of each sweep, far past every default,
        # benchmark, test and README horizon (golden F2 to 10,000 among them)
        cap = checker.F2_COLUMN_BYTES_CAP
        banded = golden_system()
        plain = banded.replace(row_bands_fn=None)
        for sys_, last in ((banded, cap // 576 - 1), (plain, cap // 16)):
            assert last > 10_000
            checker._guard_f2(sys_, last)
            with pytest.raises(harness.ResourceGuardError):
                checker._guard_f2(sys_, last + 1)


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "freqalloc.cli",
                "verify", "--system", "trivial", "--t-max", "30",
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["violation_count"] == 0


class TestFreshInterpreterExits:
    """Each failure that main maps, raised in a fresh interpreter, where
    the command has loaded only the modules it runs, so main's handler must
    find the failure's class without having imported its module itself."""

    @pytest.mark.parametrize(
        "case, code, prefix",
        [
            ("odd-cycle", 2, "error: graph contains an odd cycle: "),
            ("plugin-fault", 2, "plugin fault: "),
            ("collision", 1, "violation: "),
            ("digit-limit", 3, "refused: exact number too long to print"),
        ],
    )
    def test_exit_code_and_prefix(self, tmp_path, case, code, prefix):
        plugin = tmp_path / "plugin.py"
        plugin.write_text(ANSWERS_FIRST_TWICE if case == "plugin-fault"
                          else COLLIDER)
        plugin_flags = ["--system", f"plugin:{plugin}", "--r", "2",
                        "--lambda", "0"]
        graph = write_graph(tmp_path, {
            "vertices": [{"id": x} for x in "abc"],
            "edges": [["a", "b"], ["b", "c"], ["c", "a"]],
        } if case == "odd-cycle" else EDGE_GRAPH)
        p, q = long_ratio_terms(4299)
        argv = {
            "odd-cycle": ["opt", "static", "--graph", graph, "--requests",
                          write_requests(tmp_path, ["a"])],
            "plugin-fault": ["verify", *plugin_flags, "--t-max", "6"],
            "collision": ["run", *plugin_flags, "--graph", graph,
                          "--requests", write_requests(tmp_path, ["u", "v"])],
            "digit-limit": ["verify", "--system", "golden",
                            "--r", f"2+{p}-{q}*sqrt5", "--lambda", "-20",
                            "--t-max", "30", "--checks", "competitiveness"],
        }[case]
        out = tmp_path / "out.json"
        proc = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=4300",
             "-m", "freqalloc.cli", *argv, "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(prefix)
        assert "Traceback" not in proc.stderr
        assert not out.exists()
