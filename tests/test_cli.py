"""CLI contract tests: exit codes, report determinism, pinned examples."""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest

from latforms.cli import build_parser, run
from latforms.corpus import (GENERATORS, GeneratorSpec, dumps_jsonl,
                             gen_apery_zeta3, gen_fibonacci, gen_synthetic)
from latforms.criteria import verify_conclusion
from latforms.model import Basis, FormRecord, FormSequence
from latforms.numerics import BallReal, PrecisionCapExceeded, parse_real

F = Fraction


def invoke(capsys, *argv):
    rc = run(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def report_of(out):
    return json.loads(out)


def sans_timestamp(out):
    return "\n".join(l for l in out.splitlines() if '"timestamp"' not in l)


@contextlib.contextmanager
def chdir(path):
    """contextlib.chdir of Python 3.11+: work in path, then go back."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


# ---------------------------------------------------------------------------
# the three pinned examples


def test_verify_fibonacci_example(capsys):
    rc, out, _ = invoke(capsys, "verify", "--gen", "fibonacci-golden",
                        "--n-max", "60", "--tau", "1", "--Q", "100",
                        "--eps", "0.3", "--prec", "128")
    rep = report_of(out)
    assert rc == 0 and rep["status"] == "holds"
    assert [v["status"] for v in rep["result"]["verdicts"]] == ["holds"]
    assert rep["config"]["prec"] == 128


def test_check_siegel_apery_example(capsys):
    rc, out, _ = invoke(capsys, "check-siegel", "--gen", "apery-zeta3",
                        "--n-max", "50", "--n1", "2", "--n2", "5")
    rep = report_of(out)
    assert rc == 0 and rep["status"] == "holds"
    assert rep["result"]["alpha0_ok"] and rep["result"]["det_nonzero"]
    assert rep["result"]["bad_ns"] == []


def test_construct_dual_guard_example(capsys):
    # condition lhs = 1 <= 1: refusal with the report embedded, exit 2
    rc, out, _ = invoke(capsys, "construct-dual", "--xi", "1/2",
                        "--tau", "1/2", "--gamma", "0", "0",
                        "--delta", "1", "1", "--Q", "10000", "--eps", "1/100")
    rep = report_of(out)
    assert rc == 2 and rep["status"] == "refused"
    assert rep["result"]["condition"]["relation"] == "<=1"


# ---------------------------------------------------------------------------
# generate / roundtrip


def test_generate_stdout_matches_library(capsys):
    rc, out, _ = invoke(capsys, "generate", "--gen", "fibonacci-golden",
                        "--n-max", "10")
    assert rc == 0
    assert out == dumps_jsonl(gen_fibonacci(10))


def test_generate_to_file_and_roundtrip(tmp_path, capsys):
    path = tmp_path / "apery.jsonl"
    rc, out, _ = invoke(capsys, "generate", "--gen", "apery-zeta3",
                        "--n-max", "12", "--output", str(path))
    assert rc == 0 and out == ""
    assert path.read_text() == dumps_jsonl(gen_apery_zeta3(12))
    rc, out, _ = invoke(capsys, "roundtrip", "--input", str(path))
    rep = report_of(out)
    assert rc == 0 and rep["result"]["lossless"]
    assert rep["result"]["already_canonical"]


def test_generate_refusal_leaves_no_file(tmp_path, capsys):
    path = tmp_path / "never.jsonl"
    rc, out, _ = invoke(capsys, "generate", "--gen", "synthetic-power",
                        "--n-max", "5", "--params",
                        '{"B":2,"xi":["1/3"],"t":["1"],"g":["0","0"]}',
                        "--output", str(path))
    rep = report_of(out)
    assert rc == 2 and rep["status"] == "refused"
    assert rep["result"]["condition"]["relation"] == "<=1"
    assert not path.exists()


def test_roundtrip_canonicalizes_loose_input(tmp_path, capsys):
    src = tmp_path / "loose.jsonl"
    src.write_text('{"n": 2, "Q": 1, "ell": [2, 1], "delta": [1, 1]}\n'
                   '{"n": 3, "Q": 2, "ell": [3, 2], "delta": [1, 1]}\n')
    dst = tmp_path / "canon.jsonl"
    rc, out, _ = invoke(capsys, "roundtrip", "--input", str(src),
                        "--output", str(dst))
    rep = report_of(out)
    assert rc == 0 and rep["result"]["lossless"]
    assert not rep["result"]["already_canonical"]
    assert dst.read_text() == \
        '{"Q":"1","delta":["1","1"],"ell":["2","1"],"n":2}\n' \
        '{"Q":"2","delta":["1","1"],"ell":["3","2"],"n":3}\n'


@pytest.mark.parametrize("text, canonical", [
    (dumps_jsonl(gen_apery_zeta3(12)), True),
    ('{"generator":"x","params":{"a":NaN,"b":[1,2.5]}}\n'
     '{"Q":"1","delta":["1","1"],"ell":["2","1"],"n":2}\n', True),
    ('{"n": 2, "Q": 1, "ell": [2, 1], "delta": [1, 1]}\n', False),
    ('{"generator": "x", "params": {"a": -0.0}, "extra": 1}\n'
     '{"Q":"1","delta":["1","1"],"ell":["2","1"],"n":2}\n', False)])
def test_roundtrip_parses_and_dumps_once_more_at_most(tmp_path, capsys,
                                                      monkeypatch, text,
                                                      canonical):
    """Canonical input is parsed once and never dumped; other input is
    parsed, then dumped a line at a time and read back as it is written.
    Both are reported lossless."""
    import latforms.cli as cli
    calls = []
    for name in ("_parse_jsonl", "_jsonl_lines", "_read_jsonl"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, fn=fn, name=name:
                            calls.append(name) or fn(*a))
    src = tmp_path / "in.jsonl"
    src.write_text(text)
    rc, out, _ = invoke(capsys, "roundtrip", "--input", str(src))
    res = report_of(out)["result"]
    assert rc == 0 and res["lossless"]
    assert res["already_canonical"] is canonical
    assert calls == ["_parse_jsonl"] + \
        ([] if canonical else ["_read_jsonl", "_jsonl_lines"])


@pytest.mark.parametrize("newline", ["\r\n", "\r", "\n"],
                         ids=["crlf", "cr", "lf"])
def test_roundtrip_sees_line_ends(tmp_path, capsys, newline):
    """Only "\n" line ends are canonical: CRLF and CR input is reported as
    not canonical and dumped with "\n"."""
    canonical = dumps_jsonl(gen_fibonacci(5))
    src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    src.write_bytes(canonical.replace("\n", newline).encode())
    rc, out, _ = invoke(capsys, "roundtrip", "--input", str(src),
                        "--output", str(dst))
    res = report_of(out)["result"]
    assert rc == 0 and res["lossless"]
    assert res["already_canonical"] is (newline == "\n")
    assert dst.read_bytes() == canonical.encode()


def test_roundtrip_reports_a_line_that_does_not_read_back(tmp_path, capsys,
                                                          monkeypatch):
    """Each line of the re-dump is read back and compared with the record
    it was made from: a line that reads back as another record makes the
    roundtrip violated (exit 2), and every line is still written."""
    import latforms.cli as cli
    lines = cli._jsonl_lines
    monkeypatch.setattr(cli, "_jsonl_lines", lambda seq: (
        line.replace('"ell":["3"', '"ell":["4"') for line in lines(seq)))
    src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    src.write_bytes(dumps_jsonl(gen_fibonacci(5)).replace("\n", "\r\n")
                    .encode())
    rc, out, _ = invoke(capsys, "roundtrip", "--input", str(src),
                        "--output", str(dst))
    res = report_of(out)["result"]
    assert rc == 2 and report_of(out)["status"] == "violated"
    assert not res["lossless"] and res["records"] == 4
    assert len(dst.read_bytes()) == res["canonical_bytes"]
    assert dst.read_text().count("\n") == 5


def test_roundtrip_copies_canonical_input(tmp_path, capsys):
    """Canonical input is copied to --output byte for byte; an --output
    that names the input itself, by its path or through a link, leaves the
    file as it was, where opening it for writing first would empty it."""
    data = dumps_jsonl(gen_apery_zeta3(150)).encode()   # past a read block
    src, dst, link = (tmp_path / name for name in ("in", "out", "link"))
    src.write_bytes(data)
    dst.write_bytes(data + data)                        # longer: truncated
    link.symlink_to(src)
    for out in (dst, src, link):
        rc, rep, _ = invoke(capsys, "roundtrip", "--input", str(src),
                            "--output", str(out))
        res = report_of(rep)["result"]
        assert rc == 0 and res["lossless"] and res["already_canonical"]
        assert res["canonical_bytes"] == len(data) and res["records"] == 150
        assert out.read_bytes() == data and src.read_bytes() == data


def test_roundtrip_copies_canonical_input_from_a_pipe(tmp_path):
    """A pipe cannot be read twice, so its bytes are held to be copied."""
    data = dumps_jsonl(gen_apery_zeta3(150)).encode()
    dst = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "latforms", "roundtrip", "--input",
         "/dev/stdin", "--output", str(dst)],
        input=data, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    res = report_of(proc.stdout)["result"]
    assert res["already_canonical"] and res["canonical_bytes"] == len(data)
    assert dst.read_bytes() == data


@pytest.mark.parametrize("argv", [
    ("roundtrip",), ("check-siegel", "--n1", "2", "--n2", "5")])
def test_a_byte_not_utf8_is_one_line_naming_its_offset(tmp_path, capsys,
                                                       argv):
    """The input is decoded a block at a time; the error names the bad
    byte's offset in the file, not in its block."""
    data = bytearray(dumps_jsonl(gen_apery_zeta3(150)).encode())
    data[100_000] = 0xFF
    path = tmp_path / "bad.jsonl"
    path.write_bytes(data)
    rc, out, err = invoke(capsys, argv[0], "--input", str(path), *argv[1:])
    assert rc == 1 and out == ""
    assert err == ("latforms: error: byte 100000: not UTF-8 (invalid start "
                   "byte)\n")


# ---------------------------------------------------------------------------
# estimate / check commands


def test_estimate_exact_synthetic(capsys):
    rc, out, _ = invoke(capsys, "estimate", "--gen", "synthetic-power",
                        "--n-max", "9", "--params",
                        '{"B":2,"xi":["1/3"],"t":["-1/2"],"g":["1/4","1"]}')
    rep = report_of(out)
    assert rc == 0 and rep["status"] == "success"
    tau0 = rep["result"]["profile"]["tau"][0]
    # final trace value is floor(-9/2)/9 = -5/9
    assert abs(F(tau0["mid"]) - F(-5, 9)) < F(1, 10 ** 6)


def test_estimate_annihilation_is_unknown(capsys):
    rc, out, _ = invoke(capsys, "estimate", "--gen", "synthetic-power",
                        "--n-max", "6", "--params",
                        '{"B":3,"xi":["2/5"],"t":[null],"g":["0","0"]}')
    rep = report_of(out)
    assert rc == 3 and rep["status"] == "unknown"


def test_check_nesterenko_fibonacci(capsys):
    rc, out, _ = invoke(capsys, "check-nesterenko", "--gen",
                        "fibonacci-golden", "--n-max", "40")
    rep = report_of(out)
    assert rc == 0 and rep["status"] == "holds"
    assert rep["result"]["consistent"] == "TRUE"
    assert rep["result"]["divisor_violations"] == []


# ---------------------------------------------------------------------------
# constructions


def test_construct_primal_success(capsys):
    rc, out, _ = invoke(capsys, "construct-primal", "--xi", "1/3",
                        "--tau", "4/5", "--delta", "1", "3", "--Q", "27")
    rep = report_of(out)
    assert rc == 0 and rep["status"] == "success"
    assert rep["result"]["point"] == ["1", "3"]


def test_construct_primal_refusal_on_gamma(capsys):
    rc, out, _ = invoke(capsys, "construct-primal", "--xi", "1/3",
                        "--tau", "4/5", "--delta", "1", "3", "--Q", "27",
                        "--gamma", "0", "3/4")
    rep = report_of(out)
    assert rc == 2 and rep["status"] == "refused"
    assert rep["result"]["condition"]["relation"] == ">1"


def test_construct_dual_success(capsys):
    rc, out, _ = invoke(capsys, "construct-dual", "--xi", "1/2",
                        "--tau", "1/2", "--gamma", "1/2", "1/2",
                        "--delta", "100", "100", "--Q", "10000",
                        "--eps", "1/10")
    rep = report_of(out)
    assert rc == 0 and rep["status"] == "success"
    a = [F(x) for x in rep["result"]["point"]]
    assert a[0] != 0 or a[1] != 0
    assert abs(a[0] * F(1, 2) + a[1]) ** 10 <= F(10000) ** (-11)


def test_construct_dual_volume_refusal_writes_its_values(capsys):
    # J = {1}: volume 2^2 Q^(tau_1 - 1 - 2 eps) = 4 * 100^(-3/5) < 1
    rc, out, _ = invoke(capsys, "construct-dual", "--xi", "golden",
                        "--tau", "1/2", "--gamma", "0", "7/10",
                        "--delta", "1", "1", "--Q", "100", "--eps", "1/20")
    rep = report_of(out)
    assert rc == 2 and rep["status"] == "refused"
    assert rep["result"]["why"] == "volume certificate fails: Q too small"
    assert rep["result"]["condition"]["relation"] == ">1"
    detail = rep["result"]["detail"]
    assert sorted(detail) == ["lattice_det", "needed", "volume"]
    assert detail["needed"] == 4 and detail["lattice_det"] == "1"
    vol = BallReal.from_json(detail["volume"])
    assert vol.prec == 64 and vol.rad > 0
    assert vol.lower ** 5 <= F(4 ** 5, 100 ** 3) <= vol.upper ** 5


@pytest.mark.parametrize("gamma,delta,err", [
    (["0"], ["1", "1"], "gamma needs length 2, got 1"),
    (["0", "0"], ["1"], "delta needs length 2, got 1"),
])
def test_construct_dual_names_the_argument_of_the_wrong_length(
        capsys, gamma, delta, err):
    rc, out, stderr = invoke(capsys, "construct-dual", "--xi", "golden",
                             "--tau", "2", "--gamma", *gamma,
                             "--delta", *delta, "--Q", "50", "--eps", "1/10")
    assert rc == 1 and out == ""
    assert stderr == f"latforms: error: {err}\n"


def test_construct_dual_search_failure_is_unknown(capsys):
    # a fixed-width xi leaves every candidate near the threshold undecided
    rc, out, _ = invoke(capsys, "construct-dual", "--xi", "0.5±0.01",
                        "--tau", "3/2", "--gamma", "0", "0",
                        "--delta", "1", "1", "--Q", "100", "--eps", "1/20")
    rep = report_of(out)
    assert rc == 3 and rep["status"] == "unknown"
    assert rep["result"] == {"why": "no certified witness in the K_Q scan",
                             "unknowns": 6321}


# ---------------------------------------------------------------------------
# determinism & config plumbing


def test_reports_identical_modulo_timestamp(capsys):
    argv = ("estimate", "--gen", "apery-zeta3", "--n-max", "20")
    rc1, out1, _ = invoke(capsys, *argv)
    rc2, out2, _ = invoke(capsys, *argv)
    assert rc1 == rc2 == 0
    assert sans_timestamp(out1) == sans_timestamp(out2)
    assert '"timestamp"' in out1


def test_verify_status_is_the_worst_verdict_over_Q(capsys):
    rc, out, _ = invoke(capsys, "verify", "--gen", "fibonacci-golden",
                        "--n-max", "60", "--tau", "1", "--Q", "2", "100000",
                        "--eps", "1/5")
    rep = report_of(out)
    assert [v["status"] for v in rep["result"]["verdicts"]] == \
        ["violated", "holds"]
    assert rc == 2 and rep["status"] == "violated"


def test_verify_report_identical(capsys):
    base = ("verify", "--gen", "fibonacci-golden", "--n-max", "30",
            "--tau", "1", "--Q", "50", "200", "--eps", "0.25")
    rc1, out1, _ = invoke(capsys, *base)
    rc2, out2, _ = invoke(capsys, *base)
    assert rc1 == rc2 == 0
    assert report_of(out1)["result"] == report_of(out2)["result"]


# Each pinned CLI result is split into an outcome (what was decided:
# statuses, verdicts, witnesses, points, certificates, enclosures) and the
# work it took (the counters under WORK_KEYS, kept at their paths), and each
# part is pinned by the sha256 of its canonical JSON.  A faster algorithm
# with the same outcome moves only the work digest.  Both digests were
# recorded on the parent commit of each change that moved them; print them,
# each with the counters of its work part, with
# `PYTHONPATH=src python tests/test_cli.py`.  The dual work digests
# moved when the dual witness took verify_conclusion's scan: it checks only
# the candidates within the threshold, 1 where there were 1974 (golden) and
# 8 (1/2).  The estimate-apery outcome digest moved when ln and exp became
# reduced-argument series: its tau, gamma and growth balls are narrower,
# with the same statuses, precisions and trace lengths.  It moved again,
# f0188336... -> a6c8e322..., when zeta(3) came to be summed by binary
# splitting: its tau ball's radius got smaller and the oscillation moved by
# 3e-25; the records, the gamma and growth balls and the trace lengths are
# the same.  It moved again, a6c8e322... -> a6b81a6f..., when the log of
# an inexact ball came to be bracketed at the bits the ball holds: the
# oscillation fell by 4.9e-62 and every other value is the same.  It
# moved again, a6b81a6f... -> f11627db..., when a constant's ball came to
# be computed at 64 guard bits and rounded to the precision asked: the tau
# radius fell from 3.08790e-19 to 3.08782e-19 and the oscillation by
# 7.1e-27, with the same tau midpoint, gamma and growth balls.  The
# nesterenko-fib outcome digest moved at the same change, 363afffd... ->
# aea58368...: the tau radius fell from 8.17e-5 to 7.95e-5, its midpoint
# moved by -3.3e-9 and the oscillation by -2.2e-6, with the same statuses.
# Three outcome digests moved, with their work digests, statuses and exit
# codes the same, when rounding came to take its grid from the value of a
# quotient, not its lowest terms: estimate-apery f11627db... -> 59df0f35...
# (the gamma radii fell from 4.02347e-22 to 2.96468e-22 and from
# 2.73169e-20 to 2.05406e-20, the tau radius by 5.0e-29), nesterenko-fib
# aea58368... -> 666c0cdc... (the oscillation fell by 1.1e-19) and
# dual-half c6e151f2... -> 77eb3bca... (the lattice determinant's radius
# fell by 7.9e-31).  The estimate-apery outcome digest moved, 59df0f35...
# -> e7d762fa..., when both logs of a tau row came to be taken at the
# precision asked for, not the one that separated L_n from 0: the tau
# radius went from 3.0878e-19 to 3.1423e-19 and the oscillation by
# +5.9e-21, with the same tau midpoint, gamma and growth balls, statuses
# and work.
# The verify-golden and primal-golden work digests moved when
# the single-label scans came to visit only the convergent denominators:
# prefixes 10001 -> 20 and scanned 378 -> 14, with the same outcomes.
WORK_KEYS = frozenset({"candidates_checked", "prefixes", "budget_estimate",
                       "escalations", "unknown_candidates", "checked",
                       "scanned", "unknowns"})
UNDECIDED_VERIFY = ("verify", "--gen", "fibonacci-golden", "--xi", "0.5±0.01",
                    "--n-max", "30", "--tau", "1", "--Q", "50", "--eps", "1/4")
PINNED_RESULTS = {  # name: (argv, outcome digest, work digest)
    "verify-golden": (
        ("verify", "--gen", "fibonacci-golden", "--n-max", "60", "--tau", "1",
         "--Q", "100000", "--eps", "1/5"),
        "dc38cc55990dcba87beb1a2ca0f9577f0475b02d6c1bb05906de9297c9c319f3",
        "7328094b90d70c4eb53a696663f3529fba4be26eb102bd0f46041893711c7c7d"),
    "verify-undecided": (
        UNDECIDED_VERIFY,
        "89ac3924008934b24d005025bd2b2c05b88f0a7539985a008708cbfd2ad448c5",
        "fe7e5ce3400a4edc1008d01733cc4bd636988f120bd5cf42bb13819ea38ef2d9"),
    "primal-golden": (
        ("construct-primal", "--xi", "golden", "--tau", "1", "--delta", "1",
         "1", "--Q", "987"),
        "740a370f9e1c4b2b3c978e6c373c757709bc17037010c11c560c646b0d6b02fd",
        "0ce351cb47dc3cc151c1a65dd5d7c0c4fd46aad0a27ef14aa87275e81b6c5808"),
    "dual-golden": (
        ("construct-dual", "--xi", "golden", "--tau", "3/2", "--gamma", "0",
         "0", "--delta", "1", "1", "--Q", "1000", "--eps", "1/20"),
        "3d53c4eb6a4ecb7a77ebf530de6509806863abb43c4c81adf074c16e4e313987",
        "30c9cc6dcc0f0ebb3f286ea5d6ab62bbe7536cf812ff80057d6d3a95da7df8ad"),
    "dual-half": (
        ("construct-dual", "--xi", "1/2", "--tau", "3/2", "--gamma", "0", "0",
         "--delta", "2", "3", "--Q", "1000", "--eps", "1/20"),
        "77eb3bca82d8cc321625d20a87201525eedbabf3710c859c26f4213f725f2425",
        "30c9cc6dcc0f0ebb3f286ea5d6ab62bbe7536cf812ff80057d6d3a95da7df8ad"),
    "estimate-apery": (
        ("estimate", "--gen", "apery-zeta3", "--n-max", "20"),
        "e7d762faee3b85b26a06d4faaa011ec21749f0f846158cfba8bb1b6f9a902e4d",
        "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    "nesterenko-fib": (
        ("check-nesterenko", "--gen", "fibonacci-golden", "--n-max", "40"),
        "666c0cdcc11d260549fc923882aaee1321237464d3f0220ab5d3ffa999e5cded",
        "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    "siegel-apery": (
        ("check-siegel", "--gen", "apery-zeta3", "--n-max", "30", "--n1", "2",
         "--n2", "5"),
        "6f187c493d5dc2f514c806916a1cc8852a3f71920baffa40f38174da92e61a6d",
        "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
}


def split_result(obj):
    """(outcome, work): obj without the WORK_KEYS entries, and those entries
    alone under the same keys and list positions (empty parts dropped)."""
    if isinstance(obj, dict):
        outcome, work = {}, {}
        for k, v in obj.items():
            if k in WORK_KEYS:
                work[k] = v
                continue
            outcome[k], w = split_result(v)
            if w:
                work[k] = w
        return outcome, work
    if isinstance(obj, list):
        parts = [split_result(v) for v in obj]
        works = [w for _, w in parts]
        return [o for o, _ in parts], works if any(works) else {}
    return obj, {}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def cli_report(argv):
    """Report of one CLI run, shared by the tests that pin it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run(list(argv))
    return rc, report_of(out.getvalue())


@pytest.mark.parametrize("name", sorted(PINNED_RESULTS))
def test_result_digest_pinned(name):
    argv, outcome_digest, work_digest = PINNED_RESULTS[name]
    _, rep = cli_report(argv)
    outcome, work = split_result(rep["result"])
    assert digest(outcome) == outcome_digest
    assert digest(work) == work_digest


# The whole report of a run, timestamp aside, is pinned by the sha256 of its
# canonical JSON, and the JSONL that `generate` writes by the sha256 of its
# bytes.  Beside the PINNED_RESULTS runs this covers a roundtrip of a CRLF
# file, an estimate read from a synthetic-power file whose header gives xi
# but no n_max, and every generator at --prec 128.  Input files are written
# as in.jsonl to a fresh working directory, so the config echo names the
# same path on every run.  Print them with `PYTHONPATH=src python
# tests/test_cli.py`.  The siegel-apery digest moved when check-siegel,
# which does not escalate, stopped taking --prec-cap: its config echo no
# longer has prec_cap.  The estimate-apery digest moved, d6efcf5b... ->
# e722d166..., with its outcome digest, when ball logs came to be taken at
# the bits a ball holds, and again, to fb80b04f..., with its outcome digest
# when a constant's ball came to depend on its precision alone; the
# nesterenko-fib digest moved with its outcome digest then too, 017ecd68...
# -> 4034a1bd....  At the change that took rounding's grid from the value
# of a quotient, the digests of those three runs moved with their outcome
# digests, and estimate-input-no-n-max, 51dcc7b2... -> 4d0772bd..., as its
# tau radius fell by 6.3e-30 and its oscillation by 4.1e-20.  The
# estimate-apery digest moved, 9e2baf7d... -> be68699d..., with its outcome
# digest when both logs of a tau row came to be taken at the precision
# asked for.
_SYNTH_P3 = '{"B":2,"xi":["1/3","2/5"],"t":["-1/2",null],"g":["0","0","1"]}'


def _crlf_input() -> str:
    return dumps_jsonl(gen_fibonacci(8)).replace("\n", "\r\n")


def _input_without_n_max() -> str:
    header, records = dumps_jsonl(gen_synthetic(GeneratorSpec(
        "synthetic-power", 12, json.loads(_SYNTH_P3)))).split("\n", 1)
    head = json.loads(header)
    del head["params"]["n_max"]
    return json.dumps(head) + "\n" + records


PINNED_RUNS = {  # name: (argv, input file text or None, JSONL output)
    **{name: (argv, None, False)
       for name, (argv, _, _) in PINNED_RESULTS.items()},
    "roundtrip-crlf": (("roundtrip", "--input", "in.jsonl"), _crlf_input,
                       False),
    # entries up to 5,608 bits: the windows take criteria's modular route
    "siegel-apery-wide": (("check-siegel", "--gen", "apery-zeta3", "--n-max",
                           "600", "--n1", "2", "--n2", "5"), None, False),
    "estimate-input-no-n-max": (("estimate", "--input", "in.jsonl"),
                                _input_without_n_max, False),
    **{f"generate-{gen}": (("generate", "--gen", gen, "--n-max", "12",
                            "--prec", "128")
                           + (("--params", _SYNTH_P3)
                              if gen == "synthetic-power" else ()),
                           None, True)
       for gen in GENERATORS},
}
PINNED_DIGESTS = {
    "dual-golden":
        "ecff4787585ec38d000a67fcf6f8b1323af73c6f58a9b962d0c831affacb42ea",
    "dual-half":
        "3570bce3807a92bfeac214a3cefc1225fdee44ff43d0b1cc7c02657985f7877f",
    "estimate-apery":
        "be68699d8be39fd777b6681e916885015600eac2c87b81c7739f562409e723ea",
    "estimate-input-no-n-max":
        "4d0772bd9c7280592362471db8c29d4b95cf1732ca84934762b9ae48e44ed377",
    "generate-apery-zeta2":
        "d4a3dcad45e64a29976d96ba7db5c17d84b49d8637c3431e052fca140f12f7e7",
    "generate-apery-zeta3":
        "c785dd00586503788dbe6b1b46f575850f588f2b35b79837c2213af89aa13a10",
    "generate-fibonacci-golden":
        "88d370847f924506c31f218c22ff43ed9be914be1bd00cc5a211cb5a41e7b784",
    "generate-synthetic-power":
        "7ec673218e3388d8b65e157268e419f79bf59ddc05f1f0d65d8624f7610dbeef",
    "nesterenko-fib":
        "2dbe6eca43a3a8038393d4c86b5cc4ec2a717dff8675fdd5b0f12340290cc379",
    "primal-golden":
        "0b98f8970c4b1fb70d03861e0e8c22bd8c8173a51fa942bb2d74a7aa263f8ae6",
    "roundtrip-crlf":
        "c232b83f63fb19a6f7a58d633b9b055598f8bd435aad876690b15c854e09dd13",
    "siegel-apery":
        "3007519c6515bdb8aaa97e63970bd3451e2eba15596ba38e5d3e6e168a0eaa64",
    "siegel-apery-wide":
        "79e1be8300ab07a3bc8a98f7694b67cc24802b7f16cab0549b4501d6563cc9f5",
    "verify-golden":
        "635a63f1af6e93c8a2f4630d4e561b703b79cd0f8b7b9acca23cc3982a9f73b6",
    "verify-undecided":
        "082546db5e0ceafd08065048f1409b000b3fcb1354da5582c584bcde98433f42",
}


@functools.lru_cache(maxsize=None)
def pinned_digest(name: str) -> str:
    """sha256 of the run's report without its timestamp, or of the JSONL
    it generated."""
    argv, make_input, jsonl = PINNED_RUNS[name]
    if make_input is None and not jsonl:
        rep = dict(cli_report(argv)[1])
    else:
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, chdir(tmp):
            if make_input is not None:
                with open("in.jsonl", "w", encoding="utf-8",
                          newline="") as fh:
                    fh.write(make_input())
            with contextlib.redirect_stdout(out):
                run(list(argv))
        if jsonl:
            return hashlib.sha256(out.getvalue().encode()).hexdigest()
        rep = report_of(out.getvalue())
    del rep["timestamp"]
    return digest(rep)


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_whole_output_pinned(name):
    assert pinned_digest(name) == PINNED_DIGESTS[name]


def test_trace_spread_is_false_only_when_certainly_past_tol(capsys):
    """A ball around phi gives a tau trace whose spread may exceed 1/20
    (upper bound 0.0831) but need not (lower bound 0.0171): Unknown, not a
    violation.  With phi itself the same run holds."""
    ball = ("check-nesterenko", "--gen", "fibonacci-golden", "--n-max", "33",
            "--xi", "1.6180339887498948482±0.00000000000002")
    rc, out, _ = invoke(capsys, *ball)
    rep = report_of(out)
    assert rc == 3 and rep["status"] == "unknown"
    tau = rep["result"]["tau"][0]
    assert tau["consistent"] == "UNKNOWN"
    assert tau["oscillation"] == "1427669105/17179869184"
    rc, out, _ = invoke(capsys, *ball[:5], "--xi", "golden")
    assert rc == 0 and report_of(out)["result"]["tau"][0]["consistent"] \
        == "TRUE"


@pytest.mark.parametrize("command, code", [("check-nesterenko", 2),
                                           ("estimate", 0)])
def test_config_echo_writes_a_tol_past_the_digit_limit(capsys, command,
                                                       code):
    rc, out, err = invoke(capsys, command, "--gen", "fibonacci-golden",
                          "--n-max", "10", "--tol", "1e-5000")
    assert rc == code, err
    tol = report_of(out)["config"]["tol"]
    assert len(tol) == 5003 and tol == "1/1" + "0" * 5000


def test_report_to_file_leaves_stdout_empty(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc, out, _ = invoke(capsys, "check-nesterenko", "--gen",
                        "fibonacci-golden", "--n-max", "40",
                        "--output", str(path))
    assert rc == 0 and out == ""
    assert json.loads(path.read_text())["status"] == "holds"


def test_env_var_sets_default_precision(capsys, monkeypatch):
    monkeypatch.setenv("LATFORMS_PREC", "96")
    rc, out, _ = invoke(capsys, "estimate", "--gen", "fibonacci-golden",
                        "--n-max", "12")
    assert rc == 0 and report_of(out)["config"]["prec"] == 96
    monkeypatch.setenv("LATFORMS_PREC", "not-a-number")
    rc, _, err = invoke(capsys, "estimate", "--gen", "fibonacci-golden",
                        "--n-max", "12")
    assert rc == 1 and "LATFORMS_PREC" in err


def test_prec_cap_flag_bounds_escalation_without_leaking(capsys, tmp_path):
    """--prec-cap bounds the doubling from 96 bits (2 steps to 256, 6 to
    4096, 10 to 65536), and a capped run leaves the library default
    untouched for later callers in the same process.  The candidate
    a = (1/4, 0) has |sqrt(2)/4| = 2^(-3/2) = Q^-(1+eps), exactly the
    threshold, so no precision decides it."""
    path = tmp_path / "sqrt2.jsonl"
    path.write_text('{"n": 1, "Q": 2, "ell": [4, 1], "delta": [4, 1]}\n')
    argv = ("verify", "--input", str(path), "--xi", "sqrt(2)", "--tau", "1",
            "--Q", "2", "--eps", "1/2")
    for cap, steps in (("256", 2), ("4096", 6), (None, 10)):
        rc, out, _ = invoke(capsys, *argv,
                            *(("--prec-cap", cap) if cap else ()))
        diag = report_of(out)["result"]["verdicts"][0]["diagnostics"]
        assert rc == 2
        assert (diag["escalations"], diag["unknown_candidates"]) == (steps, 1)
    seq = FormSequence([FormRecord(n=1, Q=2, ell=(4, 1), delta=(4, 1))])
    v = verify_conclusion(seq, Basis((parse_real("sqrt(2)"),)), [F(1)], 2,
                          F(1, 2))
    assert v.diagnostics["escalations"] == 10


@pytest.mark.parametrize("argv, env", [
    (("estimate", "--gen", "fibonacci-golden", "--n-max", "12",
      "--prec", "70000"), None),
    (UNDECIDED_VERIFY + ("--prec-cap", "131072"), None),
    (("estimate", "--gen", "fibonacci-golden", "--n-max", "12"), "70000"),
])
def test_precision_above_cap_is_a_usage_error(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("LATFORMS_PREC", env)
    rc, out, err = invoke(capsys, *argv)
    assert rc == 1 and out == ""
    assert "65536" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, env, named", [
    (("estimate", "--gen", "fibonacci-golden", "--n-max", "12",
      "--prec", "8"), None, "--prec"),
    (("estimate", "--gen", "fibonacci-golden", "--n-max", "12",
      "--prec", "15"), None, "--prec"),
    (UNDECIDED_VERIFY + ("--prec-cap", "8"), None, "--prec-cap"),
    (("generate", "--gen", "fibonacci-golden", "--n-max", "5",
      "--prec", "8"), None, "--prec"),
    (("estimate", "--gen", "fibonacci-golden", "--n-max", "12"), "10",
     "LATFORMS_PREC"),
    (("estimate", "--gen", "fibonacci-golden", "--n-max", "12"), "15",
     "LATFORMS_PREC"),
])
def test_precision_below_minimum_is_a_usage_error(capsys, monkeypatch, argv,
                                                  env, named):
    if env is not None:
        monkeypatch.setenv("LATFORMS_PREC", env)
    rc, out, err = invoke(capsys, *argv)
    assert rc == 1 and out == ""
    assert named in err and "16..65536" in err and "Traceback" not in err


def test_minimum_precision_is_accepted(capsys, monkeypatch):
    rc, out, _ = invoke(capsys, "estimate", "--gen", "fibonacci-golden",
                        "--n-max", "12", "--prec", "16")
    assert rc in (0, 3) and report_of(out)["config"]["prec"] == 16
    monkeypatch.setenv("LATFORMS_PREC", "16")
    rc, out, _ = invoke(capsys, "estimate", "--gen", "fibonacci-golden",
                        "--n-max", "12")
    assert rc in (0, 3) and report_of(out)["config"]["prec"] == 16


# ---------------------------------------------------------------------------
# usage errors -> exit 1


@pytest.mark.parametrize("argv", [
    ("verify", "--gen", "fibonacci-golden", "--n-max", "10", "--tau", "1",
     "--Q", "100"),                                        # missing --eps
    ("estimate",),                                         # no input source
    ("estimate", "--gen", "fibonacci-golden"),             # missing --n-max
    ("estimate", "--input", "x.jsonl", "--gen", "fibonacci-golden",
     "--n-max", "5"),                                      # both sources
    ("estimate", "--input", "/definitely/not/here.jsonl"),
    ("no-such-command",),
    ("verify", "--gen", "fibonacci-golden", "--n-max", "10", "--tau", "x/y",
     "--Q", "9", "--eps", "0.1"),                          # bad rational
    ("generate", "--gen", "synthetic-power", "--n-max", "5",
     "--params", "not json"),
    ("estimate", "--gen", "fibonacci-golden", "--n-max", "10",
     "--xi", "sqrt(-1)"),                                  # bad basis expr
])
def test_usage_errors_exit_1(capsys, argv):
    rc, _, err = invoke(capsys, *argv)
    assert rc == 1
    assert "error" in err


def test_malformed_input_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"n": 1, "Q": "0", "ell": ["1", "1"], "delta": ["1", "1"]}\n')
    rc, _, err = invoke(capsys, "estimate", "--input", str(bad))
    assert rc == 1 and "line 1" in err


@pytest.mark.parametrize("text, message", [
    ('{"n": 1, "Q": "1", "ell": ["1", "1"], "delta": ["1", "1"]}\n'
     + "[" * 10 ** 5 + "]" * 10 ** 5 + "\n",
     "line 2: invalid JSON: nested too deeply"),
    ('{"generator": "fibonacci-golden", "params": 3}\n'
     '{"n": 1, "Q": "1", "ell": ["1", "1"], "delta": ["1", "1"]}\n',
     "line 1: params must be an object"),
], ids=["deep-nesting", "params-not-object"])
def test_malformed_input_is_one_line_without_traceback(tmp_path, text,
                                                       message):
    path = tmp_path / "bad.jsonl"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "latforms", "estimate", "--input", str(path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"latforms: error: {message}\n"


_SYNTH = {"B": 2, "xi": ["1/2"], "t": ["-1"], "g": [0, 0]}


@pytest.mark.parametrize("command", ["generate", "estimate"])
@pytest.mark.parametrize("gen, params, message", [
    ("synthetic-power", dict(_SYNTH, t=5), "synthetic-power t = 5 is not a list"),
    ("synthetic-power", dict(_SYNTH, xi=3), "synthetic-power xi = 3 is not a list"),
    ("synthetic-power", dict(_SYNTH, g=None),
     "synthetic-power g = None is not a list"),
    ("apery-zeta3", {"prec": "x"}, "apery-zeta3 prec = 'x' is not an integer"),
], ids=["t-not-list", "xi-not-list", "g-null", "prec-not-int"])
def test_malformed_params_are_one_line_without_traceback(command, gen, params,
                                                         message):
    proc = subprocess.run(
        [sys.executable, "-m", "latforms", command, "--gen", gen,
         "--n-max", "5", "--params", json.dumps(params)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"latforms: error: {message}\n"


@pytest.mark.parametrize("eps, codes", [("1/100000", (0, 2, 3)),
                                        ("1e-12", (1,))])
def test_verify_at_a_tiny_eps_ends(eps, codes):
    """eps = 1/100000 builds exact powers of about 10^7 bits and returns a
    verdict; eps = 1e-12 would need Q^(10^12+1) and exits 1 at once.  The
    records run to F_12 = 144, past Q = 100."""
    proc = subprocess.run(
        [sys.executable, "-m", "latforms", "verify", "--gen",
         "fibonacci-golden", "--n-max", "12", "--tau", "1", "--Q", "100",
         "--eps", eps], capture_output=True, text=True, timeout=240)
    assert proc.returncode in codes
    if proc.returncode == 1:
        assert proc.stdout == ""
        assert proc.stderr.startswith("latforms: error: exact power of up to")
        assert proc.stderr.count("\n") == 1
    else:
        assert report_of(proc.stdout)["status"] in ("holds", "violated",
                                                    "unknown")


def test_exit_code_matches_status_everywhere(capsys):
    """Sampled exit-code/status contract: 0 holds/success, 2 violated/refused,
    3 unknown, across every report-emitting command family."""
    samples = [
        (("check-nesterenko", "--gen", "fibonacci-golden", "--n-max", "40"),
         {"holds": 0}),
        (("check-nesterenko", "--gen", "fibonacci-golden", "--n-max", "30"),
         {"violated": 2}),  # tau-hat gap ln(sqrt 5)/ln F_30 ~ 0.059 > 1/20
        (("verify", "--gen", "fibonacci-golden", "--n-max", "30", "--tau", "1",
          "--Q", "100", "--eps", "0.3"), {"holds": 0}),
        (("construct-primal", "--xi", "1/3", "--tau", "4/5", "--delta", "1",
          "3", "--Q", "27"), {"success": 0}),
        (("construct-dual", "--xi", "1/2", "--tau", "1/2", "--gamma", "0",
          "0", "--delta", "1", "1", "--Q", "100", "--eps", "1/100"),
         {"refused": 2}),
        (("estimate", "--gen", "synthetic-power", "--n-max", "6", "--params",
          '{"B":3,"xi":["2/5"],"t":[null],"g":["0","0"]}'), {"unknown": 3}),
    ]
    for argv, expect in samples:
        rc, out, _ = invoke(capsys, *argv)
        rep = report_of(out)
        assert rep["status"] in expect and rc == expect[rep["status"]], argv


def test_console_entry_subprocess():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from latforms.cli import run; import sys; "
         "sys.exit(run(['generate', '--gen', 'fibonacci-golden',"
         " '--n-max', '8']))"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == dumps_jsonl(gen_fibonacci(8))


@pytest.mark.parametrize("module", ["latforms", "latforms.cli"])
def test_python_m_entry_points(module):
    proc = subprocess.run([sys.executable, "-m", module, "--version"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("latforms ")


def test_numerics_error_is_a_one_line_exit_1(capsys, monkeypatch):
    # apery-zeta3 at n=7000 needs its sanity check above the precision cap;
    # the error is injected so the test does not spend the generation time
    def over_cap(spec):
        raise PrecisionCapExceeded("66066 bits exceeds cap 65536")
    monkeypatch.setattr("latforms.cli.generate", over_cap)
    rc, out, err = invoke(capsys, "generate", "--gen", "apery-zeta3",
                          "--n-max", "7000")
    assert rc == 1 and out == ""
    assert err == "latforms: error: 66066 bits exceeds cap 65536\n"


def test_generate_past_the_int_str_digit_limit(capsys, tmp_path):
    # Q_n of apery-zeta3 passes 4300 digits near n=1530
    path = tmp_path / "apery.jsonl"
    rc, _, err = invoke(capsys, "generate", "--gen", "apery-zeta3",
                        "--n-max", "1600", "--output", str(path))
    assert rc == 0, err
    text = path.read_text()
    assert len(json.loads(text.splitlines()[-1])["Q"]) > 4300
    rc, out, _ = invoke(capsys, "roundtrip", "--input", str(path))
    res = report_of(out)["result"]
    assert rc == 0 and res["lossless"] and res["already_canonical"]
    assert res["records"] == 1600


def test_unwritable_report_is_one_line_exit_1(capsys, tmp_path):
    path = tmp_path / "missing" / "r.json"
    rc, out, err = invoke(capsys, "verify", "--gen", "fibonacci-golden",
                          "--n-max", "20", "--tau", "1", "--Q", "100",
                          "--eps", "1/5", "--output", str(path))
    assert rc == 1 and out == "" and not path.exists()
    assert err.startswith("latforms: error: ") and err.count("\n") == 1
    assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("gamma", [["0"], ["0", "0", "0"]])
def test_construct_primal_names_a_gamma_of_the_wrong_length(capsys, gamma):
    rc, out, err = invoke(capsys, "construct-primal", "--xi", "golden",
                          "--tau", "1", "--delta", "1", "1", "--Q", "987",
                          "--gamma", *gamma)
    assert rc == 1 and out == ""
    assert err == f"latforms: error: gamma needs length 2, got {len(gamma)}\n"


def _records_to(tmp_path, Q):
    """An --input file of records at the scales 1 and Q, with divisors
    (1, 1)."""
    path = tmp_path / "in.jsonl"
    path.write_text("".join(
        f'{{"n":{n},"Q":"{q}","ell":["1","1"],"delta":["1","1"]}}\n'
        for n, q in ((1, 1), (2, Q))))
    return str(path)


def test_budget_estimate_past_the_digit_limit_is_unknown(capsys, tmp_path):
    # R = floor(Q^(tau - eps)) = 10^5400 at Q = 10^3000, tau = 2, eps = 1/5
    rc, out, err = invoke(capsys, "verify", "--xi", "golden", "--input",
                          _records_to(tmp_path, "2" + "0" * 3000),
                          "--tau", "2", "--Q", "1" + "0" * 3000, "--eps", "1/5")
    assert rc == 3, err
    assert report_of(out)["result"]["why"] == \
        f"estimated 2{'0' * 5399}1 candidates exceeds budget 10000000"


@pytest.mark.parametrize("zeros", [4400, 5500])
def test_Q_past_the_digit_limit_is_parsed_and_echoed(capsys, tmp_path, zeros):
    # R = floor(Q^(4/5)) = 10^(4 zeros / 5), 2 R + 1 candidates
    Q = "1" + "0" * zeros
    rc, out, err = invoke(capsys, "verify", "--xi", "golden", "--input",
                          _records_to(tmp_path, "2" + "0" * zeros),
                          "--tau", "1", "--Q", Q, "--eps", "1/5",
                          "--budget", "1")
    assert rc == 3, err
    rep = report_of(out)
    assert rep["config"]["Q"] == [Q] and rep["config"]["budget"] == 1
    assert rep["result"]["why"] == \
        f"estimated 2{'0' * (4 * zeros // 5 - 1)}1 candidates exceeds budget 1"


@pytest.mark.parametrize("zeros", [50, 5000])
def test_verify_past_the_last_record_is_unknown(capsys, zeros):
    """Phi(Q) past the last record is unknown, and so are the divisors
    there: the run answers unknown, naming Q and the last Q_n, also past
    the int/str digit cap and when another Q is within the records."""
    Q = "1" + "0" * zeros
    last = gen_apery_zeta3(5).records[-1]
    assert last.n == 5
    rc, out, err = invoke(capsys, "verify", "--gen", "apery-zeta3",
                          "--n-max", "5", "--tau", "1/10", "--Q", "100", Q,
                          "--eps", "1/2")
    assert rc == 3, err
    rep = report_of(out)
    assert rep["status"] == "unknown"
    assert rep["result"] == {"why": f"Q = {Q} is past the last record, "
                                    f"Q_5 = {last.Q}"}


_VERIFY = ("verify", "--gen", "fibonacci-golden", "--n-max", "20")
_HEADERLESS = "".join(
    f'{{"n":{n},"Q":"{q}","ell":["{a}","{q}"],"delta":["1","1"]}}\n'
    for n, q, a in ((1, 1, 1), (2, 2, 3), (3, 3, 5)))
_P_CHANGES = ('{"n":1,"Q":"1","ell":["1","1"],"delta":["1","1"]}\n'
              '{"n":2,"Q":"2","ell":["3","2","1"],"delta":["1","1","1"]}\n')


@pytest.mark.parametrize("argv, text, message", [
    (_VERIFY + ("--tau", "1", "1", "--Q", "100", "--eps", "1/5"), None,
     "tau must have length 1"),
    (_VERIFY + ("--tau", "1", "--Q", "0", "--eps", "1/5"), None,
     "argument --Q: must be positive: '0'"),
    (_VERIFY + ("--tau", "1", "--Q", "abc", "--eps", "1/5"), None,
     "argument --Q: not an integer: 'abc'"),
    (("check-siegel", "--gen", "fibonacci-golden", "--n-max", "20", "--n1",
      "5", "--n2", "3"), None, "need n1 <= n2 <= 19"),
    (("estimate", "--gen", "synthetic-power", "--n-max", "5", "--params",
      "[1]"), None, "--params must be a JSON object"),
    (("construct-dual", "--xi", "golden", "--tau", "3/2", "--gamma", "0",
      "0", "--delta", "1", "1", "--Q", "100", "--eps", "0"), None,
     "eps must be positive"),
    (("estimate", "--input"), _HEADERLESS,
     "no basis available: pass --xi or an input with generator provenance"),
    (("roundtrip", "--input"), _P_CHANGES,
     "line 2: p=3 differs from previous p=2"),
    (("estimate", "--n-max", "5", "--input"), _HEADERLESS,
     "--n-max and --params need --gen, not --input"),
    (("check-nesterenko", "--params", "{}", "--input"), _HEADERLESS,
     "--n-max and --params need --gen, not --input"),
    (("check-siegel", "--gen", "apery-zeta3", "--n-max", "30", "--n1", "2",
      "--n2", "5", "--prec-cap", "128"), None,
     "unrecognized arguments: --prec-cap 128"),
    # 1000^(1/2 - 2/10^6), the volume, is refused before it is built
    (("construct-dual", "--xi", "golden", "--tau", "3/2", "--gamma", "0",
      "0", "--delta", "1", "1", "--Q", "1000", "--eps", "1/1000000"), None,
     "exact power of up to 52499990 bits exceeds the 16777216-bit bound"),
    (("verify", "--gen", "fibonacci-golden", "--n-max", "20", "--xi",
      "golden", "sqrt(2)", "--tau", "1", "--Q", "100", "--eps", "1/5"), None,
     "basis p=3 != sequence p=2"),
    (("verify", "--gen", "synthetic-power", "--n-max", "5", "--params",
      '{"B": 2, "xi": ["1/3", "1/5"], "t": [0, 0], "g": [0, 0, 0]}',
      "--xi", "golden", "--tau", "1", "1", "--Q", "10", "--eps", "1/5"),
     None, "basis p=2 != sequence p=3"),
    # a MissingRecord is a KeyError, whose own str would quote the message
    (("check-siegel", "--gen", "fibonacci-golden", "--n-max", "8", "--n1",
      "1", "--n2", "3"), None, "no record with n=1"),
    # a dash before a digit starts a value; any other dash an option
    (_VERIFY + ("--tau", "-x", "--Q", "100", "--eps", "1/5"), None,
     "argument --tau: expected at least one argument"),
    (_VERIFY + ("--tau", "-1x", "--Q", "100", "--eps", "1/5"), None,
     "argument --tau: not a rational: '-1x'"),
], ids=["tau-length", "Q-zero", "Q-not-int", "siegel-window",
        "params-not-object", "eps-zero", "no-basis", "p-changes",
        "n-max-with-input", "params-with-input", "siegel-prec-cap",
        "dual-tiny-eps", "verify-xi-too-many", "verify-xi-too-few",
        "siegel-missing-record", "unknown-short-option",
        "dash-digit-not-rational"])
def test_usage_error_is_its_one_line(capsys, tmp_path, argv, text, message):
    if text is not None:
        path = tmp_path / "in.jsonl"
        path.write_text(text)
        argv += (str(path),)
    rc, out, err = invoke(capsys, *argv)
    assert rc == 1 and out == ""
    assert err == f"latforms: error: {message}\n"


def test_negative_fraction_is_a_value(capsys):
    """-1/2 in a list flag is the number -1/2, as -0.5 is."""
    argv = ("construct-dual", "--xi", "golden", "sqrt(2)", "--gamma", "0",
            "0", "0", "--delta", "1", "1", "1", "--Q", "50", "--eps", "1/10",
            "--tau", "3/2")
    rc, out, err = invoke(capsys, *argv, "-1/2")
    assert (rc, err) == (0, "")
    assert sans_timestamp(out) == sans_timestamp(invoke(capsys, *argv,
                                                        "-0.5")[1])


# numbers past the 4,300-digit int/str limit, in every flag that reads one
_Z = "0" * 4400
_DUAL = ("construct-dual", "--xi", "golden", "--gamma", "0", "0", "--delta",
         "1", "1", "--eps", "1/20")


def test_rational_flag_past_the_digit_limit_is_its_value():
    """3 10^4400 / (2 10^4400) is 3/2: the dual-golden pinned report."""
    argv = _DUAL + ("--tau", f"3{_Z}/2{_Z}", "--Q", "1000")
    rc, rep = cli_report(argv)
    assert rc == 0
    del rep["timestamp"]
    assert digest(rep) == PINNED_DIGESTS["dual-golden"]


def test_rational_xi_past_the_digit_limit(capsys):
    rc, out, err = invoke(capsys, "construct-primal", "--xi", f"1{_Z}/3",
                          "--tau", "1", "--delta", "1", "1", "--Q", "100")
    assert (rc, err) == (0, "")


def test_sqrt_xi_past_the_digit_limit(capsys):
    rc, out, err = invoke(capsys, "verify", "--gen", "fibonacci-golden",
                          "--n-max", "20", "--xi", f"sqrt(2{_Z}1)", "--tau",
                          "1", "--Q", "100", "--eps", "1/5")
    assert (rc, err) == (0, "") and report_of(out)["status"] == "holds"


def _synthetic(capsys, tmp_path, t):
    params = json.dumps({"B": 2, "xi": [f"1/1{_Z}"], "t": [t], "g": [0, 0]})
    return invoke(capsys, "generate", "--gen", "synthetic-power", "--n-max",
                  "3", "--params", params, "--output",
                  str(tmp_path / "s.jsonl"))


def test_synthetic_params_past_the_digit_limit(capsys, tmp_path):
    assert _synthetic(capsys, tmp_path, "-1") == (0, "", "")
    rc, out, err = invoke(capsys, "roundtrip", "--input",
                          str(tmp_path / "s.jsonl"))
    result = report_of(out)["result"]
    assert rc == 0 and result["lossless"] and result["already_canonical"]


def test_synthetic_base_past_the_digit_limit(capsys, tmp_path):
    # the header writes B as a JSON integer literal of 4,401 digits
    path = str(tmp_path / "b.jsonl")
    params = '{"B": 1' + _Z + ', "xi": ["1/3"], "t": ["-1"], "g": [0, 0]}'
    assert invoke(capsys, "generate", "--gen", "synthetic-power", "--n-max",
                  "3", "--params", params, "--output", path) == (0, "", "")
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().startswith(
            '{"generator":"synthetic-power","params":{"B":1' + _Z + ',')
    rc, out, err = invoke(capsys, "roundtrip", "--input", path)
    result = report_of(out)["result"]
    assert rc == 0 and result["lossless"] and result["already_canonical"]


def test_infeasible_param_past_the_digit_limit_is_refused(capsys, tmp_path):
    rc, out, err = _synthetic(capsys, tmp_path, f"1{_Z}/3")
    assert (rc, err) == (2, "")
    rep = report_of(out)
    assert rep["status"] == "refused"
    assert rep["result"]["why"].startswith(f"t_1 = 1{_Z}/3 > 0: a nonzero")


def test_record_n_past_the_digit_limit_is_named(capsys, tmp_path):
    n = "1" * 5000
    path = tmp_path / "in.jsonl"
    path.write_text('{"Q":"0","delta":["1","1"],"ell":["2","1"],"n":'
                    + n + "}\n")
    rc, out, err = invoke(capsys, "estimate", "--input", str(path), "--xi",
                          "golden")
    assert (rc, out) == (1, "")
    assert err == f"latforms: error: line 1: record n={n}: Q must be >= 1\n"


def test_siegel_window_past_the_digit_limit_is_named(capsys, tmp_path):
    head = "1" + "0" * 4998               # records n = 10^4999 and 10^4999 + 1
    path = tmp_path / "in.jsonl"
    path.write_text("".join(
        f'{{"Q":"{k + 1}","delta":["1","1"],"ell":["{k + 2}","{k + 1}"],'
        f'"n":{head}{k}}}\n' for k in (0, 1)))
    rc, out, err = invoke(capsys, "check-siegel", "--input", str(path),
                          "--xi", "golden", "--n1", "1", "--n2", head + "2")
    assert (rc, out) == (1, "")
    assert err == f"latforms: error: need n1 <= n2 <= {head}0\n"


@pytest.mark.parametrize("tau, code", [("10/3", 0), ("1_0/3", 1),
                                       ("1 / 3", 1), (" 10/3 ", 0)])
def test_rational_grammar_is_the_same_on_every_python(capsys, tau, code):
    """Fraction(text) took "1_0/3" on 3.11+ only, and "1 / 3" on 3.12+."""
    rc, out, err = invoke(capsys, *_DUAL, "--tau", tau, "--Q", "100")
    assert rc == code, err
    if code:
        assert err == f"latforms: error: argument --tau: not a rational: " \
                      f"{tau!r}\n"


def test_precision_past_the_digit_limit_is_out_of_range(capsys):
    rc, out, err = invoke(capsys, "estimate", "--gen", "fibonacci-golden",
                          "--n-max", "5", "--prec", f"1{_Z}1")
    assert (rc, out) == (1, "")
    assert err == (f"latforms: error: argument --prec: precision 1{_Z}1 is "
                   "outside 16..65536 bits\n")


def _flag_helps(command):
    """The help text of each flag of a subcommand, by its dest."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.help for a in sub.choices[command]._actions}


def test_shared_flags_are_declared_once():
    """estimate and check-nesterenko take the same flags, with the same
    help; so do the constructions, apart from their own; check-siegel,
    which does not escalate, takes no --prec-cap."""
    estimate = _flag_helps("estimate")
    assert estimate == _flag_helps("check-nesterenko")
    assert estimate["tol"] == "oscillation tolerance (default 1/20)"
    primal = _flag_helps("construct-primal")
    dual = _flag_helps("construct-dual")
    assert primal.keys() - dual.keys() == {"slack"}
    assert dual.keys() - primal.keys() == {"eps"}
    shared = (primal.keys() & dual.keys()) - {"gamma"}
    assert {k: primal[k] for k in shared} == {k: dual[k] for k in shared}
    assert "prec_cap" not in _flag_helps("check-siegel")


def test_violated_rational_verify_writes_every_counter(capsys):
    """A violated verdict writes the five counters the others write; exact
    sums need no escalation."""
    rc, out, _ = invoke(capsys, "verify", "--gen", "fibonacci-golden",
                        "--n-max", "20", "--xi", "1/2", "--tau", "1",
                        "--Q", "100", "--eps", "1/5")
    verdict = report_of(out)["result"]["verdicts"][0]
    assert rc == 2 and verdict["status"] == "violated"
    assert verdict["witness"] == ["2", "-1"]
    assert verdict["diagnostics"] == {
        "candidates_checked": 1, "prefixes": 3, "budget_estimate": 79,
        "escalations": 0, "unknown_candidates": 0}


def test_construct_primal_step_with_a_label_certainly_out_is_not_unknown(
        capsys):
    """The step whose first label stays undecided at --prec-cap 256 while
    its second certainly fails is excluded, not counted unknown."""
    rc, out, err = invoke(capsys, "construct-primal", "--xi", "0.5±0.01",
                          "sqrt(2)", "--tau", "1/4", "3/4", "--delta", "1",
                          "1", "1", "--Q", "100", "--prec-cap", "256")
    assert rc == 0, err
    res = report_of(out)["result"]
    assert res["point"] == ["6", "17", "12"]
    assert (res["diagnostics"]["scanned"], res["diagnostics"]["unknowns"]) \
        == (13, 0)


@pytest.mark.parametrize("flag, literal", [
    ("--xi", "1e99999999"), ("--xi", "0.5e-99999999"),
    ("--xi", "0.5±1e-99999999"), ("--tau", "1e99999999")])
def test_huge_decimal_literal_is_a_usage_error(capsys, flag, literal):
    """A literal past POWER_BITS exits 1 at once with one error line that
    names it and the bound; building 10^99999999 ran for minutes."""
    argv = {"--xi": "1/2", "--tau": "1"}
    argv[flag] = literal
    start = time.perf_counter()
    rc, out, err = invoke(capsys, "construct-primal", "--xi", argv["--xi"],
                          "--tau", argv["--tau"], "--delta", "1", "1",
                          "--Q", "100")
    assert time.perf_counter() - start < 1
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("latforms: error: ")
    assert literal.split("±")[-1] in err and "16777216-bit bound" in err


# ---------------------------------------------------------------------------
# seeded argv grammar: every run ends in a documented exit code

_RATS = ("0", "1", "-0.5", "-1/2", "1/2", "3/2", "5/4", "2", "1/10",
         "1e99999999")
_XIS = ("golden", "sqrt(2)", "1/3", "2/7", "zeta3", "e", "0.5±0.01",
        "1e99999999", "0.5e-99999999")
_INPUTS = {            # generator argv and the p of its sequence
    "fibonacci-golden": ((), 2),
    "apery-zeta3": ((), 2),
    "apery-zeta2": ((), 2),
    "synthetic-power": (("--params", '{"B": 2, "xi": ["1/3", "2/5"], '
                                     '"t": [-1, "-1/2"], "g": [0, 0, 0]}'), 3),
}


def _random_argv(rng, inputs):
    """One argv of a small grammar: each subcommand with --xi, --tau,
    --delta and --gamma lists of the right length or one off, Q <= 10^5,
    and escalation and scans bounded by --prec-cap 256 --budget 20000;
    roundtrip reads one of the paths in inputs."""
    command = rng.choice(("generate", "roundtrip", "estimate",
                          "check-nesterenko", "check-siegel", "verify",
                          "construct-primal", "construct-dual"))

    def some(values, k):
        k = max(1, k + rng.choice((-1, 0, 0, 0, 0, 0, 1)))
        return [rng.choice(values) for _ in range(k)]

    def Q():
        return str(rng.randint(1, 10 ** rng.randint(1, 5)))
    argv = [command]
    if command == "roundtrip":
        return argv + ["--input", rng.choice(inputs)]
    if command.startswith("construct"):
        p = rng.choice((2, 3))
        argv += ["--xi", *some(_XIS, p - 1), "--tau", *some(_RATS, p - 1),
                 "--delta", *some("1234", p), "--Q", Q()]
        if command == "construct-dual" or rng.random() < 0.5:
            argv += ["--gamma", *some(_RATS, p)]
        if command == "construct-dual":
            argv += ["--eps", rng.choice(("1/20", "1/10", "1/2"))]
    else:
        gen = rng.choice(sorted(_INPUTS))
        params, p = _INPUTS[gen]
        n_max = rng.randint(3, 25)
        argv += ["--gen", gen, "--n-max", str(n_max), *params]
        if command == "generate":
            return argv
        if rng.random() < 0.4:
            argv += ["--xi", *some(_XIS, p - 1)]
        if command == "check-siegel":
            n1 = rng.randint(0, n_max)
            argv += ["--n1", str(max(n1, 1)),
                     "--n2", str(rng.randint(max(n1, 1), n_max))]
            return argv
        if command == "verify":
            argv += ["--tau", *some(_RATS, p - 1),
                     "--Q", *(Q() for _ in range(rng.randint(1, 2))),
                     "--eps", rng.choice(("1/10", "1/5", "1/2"))]
    argv += ["--prec-cap", "256"]
    if command in ("verify", "construct-primal", "construct-dual"):
        argv += ["--budget", "20000"]
    return argv


def test_seeded_argv_end_in_an_exit_code(capsys, tmp_path):
    """No exception escapes cli.run, whatever the lengths of the lists
    and whichever basis is paired with the input, and every exit code is
    one of the documented 0..3."""
    text = dumps_jsonl(gen_fibonacci(8))
    inputs = [tmp_path / "canonical.jsonl", tmp_path / "crlf.jsonl"]
    inputs[0].write_text(text, newline="\n")
    inputs[1].write_text(text, newline="\r\n")
    inputs = [str(p) for p in (*inputs, tmp_path / "absent.jsonl")]
    rng = random.Random(1919)
    codes = set()
    for _ in range(300):
        argv = _random_argv(rng, inputs)
        rc = run(argv)
        capsys.readouterr()
        assert rc in (0, 1, 2, 3), argv
        codes.add(rc)
    assert codes == {0, 1, 2, 3}

if __name__ == "__main__":
    # each pinned result: its two digests, then the counters of its work part
    for name, (argv, _, _) in sorted(PINNED_RESULTS.items()):
        outcome, work = split_result(cli_report(argv)[1]["result"])
        print(name, digest(outcome), digest(work))
        print("   ", json.dumps(work, sort_keys=True))
    # each whole report (timestamp aside) or generated JSONL
    for name in sorted(PINNED_RUNS):
        print(name, pinned_digest(name))
