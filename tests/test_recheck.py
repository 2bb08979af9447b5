"""Reports that re-derive from ``sets`` alone (``oracles.recheck``): the
plugin fixtures, the benchmark's check-golden command lines, and reports
tampered with, which it must refuse."""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqalloc.cli import main
from freqalloc.golden import parse_exact
from freqalloc.systems import BUILTIN_SYSTEMS, golden_system

from oracles import recheck
from test_plugin import FIXTURES, OVERLAPPING, VERDICTS, spawn

# check-golden's command lines (bench/workloads.py): a clean verify, and
# acceptance criteria 5 (refuted at t = 88) and 9 (a certificate)
FALSIFY = ["falsify", "--system", "golden", "--r", "1.42", "--lambda", "8"]
CHECK_GOLDEN = {
    "verify": ["verify", "--system", "golden",
               "--checks", "f1,f2,competitiveness,lemmas", "--t-max", "400",
               "--f2-t-max", "80", "--lemma-t-max", "200"],
    "refuted": [*FALSIFY, "--t-max", "100"],
    "certificate": [*FALSIFY, "--t-max", "80"],
}


def report(where, argv) -> dict:
    """The --out document of a run that exits 0 or 1."""
    out = where / "out.json"
    assert main([*argv, "--out", str(out)]) in (0, 1)
    return json.loads(out.read_text())


@pytest.mark.parametrize("case", CHECK_GOLDEN)
def test_check_golden_reports(tmp_path, case):
    recheck(report(tmp_path, CHECK_GOLDEN[case]), golden_system())


@given(st.sampled_from(sorted(BUILTIN_SYSTEMS)),
       st.sampled_from(["1.2", "4/3", "1.4", "7/5", "1.42", "3/2", "2"]),
       st.integers(-4, 10), st.integers(1, 60), st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_builtin_reports(name, r, lam, t_max, falsify):
    # claims that the built-ins mostly break, on small horizons
    if falsify and parse_exact(r) >= parse_exact("10/7"):
        falsify = False
    argv = ["falsify" if falsify else "verify", "--system", name, "--r", r,
            "--lambda", str(lam), "--t-max", str(t_max)]
    if not falsify:
        argv += ["--checks", "f1,f2,competitiveness,lemmas"]
    with tempfile.TemporaryDirectory() as where:
        doc = report(Path(where), argv)
    recheck(doc, BUILTIN_SYSTEMS[name]())


@pytest.mark.parametrize("case", VERDICTS)
def test_plugin_verdicts(tmp_path, case):
    # a fixture holds a report's violations and gamma entries; its claims
    # are on the command line that made it
    body, argv = VERDICTS[case]
    want = json.loads((FIXTURES / f"plugin_{case}.json").read_text())
    r, lam = argv[argv.index("--r") + 1], int(argv[argv.index("--lambda") + 1])
    entries = want["gamma_entries"]
    doc = {"claims": {"r": r, "lambda": lam}, "horizons": {},
           "violations": want["violations"],
           "gamma_trace": entries and {"entries": entries,
                                       "lambda": max(1, lam)}}
    with spawn(tmp_path, body) as plug:
        recheck(doc, plug.spec(parse_exact(r), lam))


def test_plugin_overlapping(tmp_path):
    # check_f2's violations, and three gamma traces with their claims
    want = json.loads((FIXTURES / "plugin_overlapping.json").read_text())
    docs = [{"claims": {"r": "2", "lambda": 0}, "horizons": {},
             "violations": want["check_f2"], "gamma_trace": None}]
    for r, trace in zip(("1.42", "R0", "4/3"), want["gamma_trace"]):
        docs.append({"claims": {"r": r, "lambda": trace["lambda"]},
                     "horizons": {}, "violations": trace["violations"],
                     "gamma_trace": trace})
    with spawn(tmp_path, OVERLAPPING) as plug:
        for doc in docs:
            recheck(doc, plug.spec(parse_exact(doc["claims"]["r"]),
                                   doc["claims"]["lambda"]))


def test_tampered_reports_fail(tmp_path):
    refuted = report(tmp_path, CHECK_GOLDEN["refuted"])
    first = refuted["violations"][0]
    assert first["kind"] == "competitiveness" and first["params"]["t"] == 88
    certificate = report(tmp_path, CHECK_GOLDEN["certificate"])
    edits = [
        lambda doc: doc["violations"][0]["params"].update(t=87),
        lambda doc: doc["violations"][0].update(lhs="|U_t| = 125"),
        lambda doc: doc["violations"][0].update(rhs="r*t + lambda = 130"),
        lambda doc: doc["claims"].update({"lambda": 7}),
    ]
    for edit in edits:
        doc = copy.deepcopy(refuted)
        edit(doc)
        with pytest.raises(AssertionError):
            recheck(doc, golden_system())
    # a clean report claiming more than the sets give
    doc = copy.deepcopy(certificate)
    doc["claims"]["lambda"] = -100
    with pytest.raises(AssertionError):
        recheck(doc, golden_system())
