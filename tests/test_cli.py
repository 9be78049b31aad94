"""CLI verbs, output formats, exit codes, and rerun determinism."""

import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisectlab import cli
from trisectlab.cli import VERBS, main, verb_parser

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_decide_verb(capsys):
    code, out = run_cli(["decide", "--field", "q", "--a", "3/2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is False
    assert payload["certificate"]["kind"] == "eisenstein-3rs"

    code, out = run_cli(
        ["decide", "--field", "quad", "--d", "2", "--a", "(0+1*sqrt(2))/1"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True and payload["witness"] == "(0-1*sqrt(2))/1"


def test_decide_accepts_rational_in_quadratic_field(capsys):
    # negative elements need the --a=value spelling under argparse
    code, out = run_cli(["decide", "--field", "quad", "--d", "5", "--a=-11/8"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True and payload["witness"] == "1/2"


def test_lehmer_verb(capsys):
    code, out = run_cli(["lehmer", "--sides", "4,4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 11

    code, out = run_cli(["lehmer", "--sides", "5.9,3.2", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[1].startswith("2,59/10,16/5,12,")


def test_density_verb_and_shards(tmp_path, capsys):
    outputs = []
    for shards in (1, 4, 8):
        target = tmp_path / f"density-{shards}.json"
        code, _ = run_cli(
            ["density", "--field", "q", "--R", "25,50,100",
             "--shards", str(shards), "--out", str(target)],
            capsys,
        )
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    payload = json.loads(outputs[0])
    assert [p["R"] for p in payload["points"]] == ["25", "50", "100"]


def test_boxcount_verb(capsys):
    code, out = run_cli(["boxcount", "--field", "q", "--R", "9"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["qbox"]["count"] == 30
    assert payload["qbox"]["membership_violations"] == 0
    assert payload["interval_count"] == 85


def test_nsect_verb(capsys):
    code, out = run_cli(["nsect", "--p", "3", "--c", "3", "--d", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["data"]["coeffs"] == ["-48", "-192", "0", "256"]


def test_witness_verb(capsys):
    code, out = run_cli(["witness", "--m", "5", "--q", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["data"]["degree"] == 5 and payload["verified"] is True


def test_algdeg_verb(capsys):
    code, out = run_cli(["algdeg", "--n", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_verify_quick(capsys):
    code, out = run_cli(["verify", "--quick"], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_verify_out_records_each_check_time(tmp_path, capsys):
    """Each result of ``verify --out`` carries its check's elapsed seconds;
    stdout stays the lines a run without --out prints."""
    path = tmp_path / "verify.json"
    code, out = run_cli(["verify", "--quick", "--out", str(path)], capsys)
    assert code == 0
    assert out == run_cli(["verify", "--quick"], capsys)[1]
    results = json.loads(path.read_text())["results"]
    assert [r["check"] for r in results] == [line.split()[1] for line in out.splitlines()]
    for r in results:
        assert set(r) == {"check", "ok", "detail", "elapsed_s"}
        assert type(r["elapsed_s"]) is float and r["elapsed_s"] >= 0


VERIFY_NAMES = ["field-laws", "sieve-vs-brute", "ball-counts", "qbox-membership", "gcd-bound",
                "fast-path-vs-search", "certificates", "psection-structure",
                "tower-identities", "height-commensurability"]


def test_verify_full(capsys):
    """``verify`` without --quick: the same ten checks as --quick, all ok."""
    code, out = run_cli(["verify"], capsys)
    assert code == 0
    lines = [line.split() for line in out.splitlines()]
    assert [line[1] for line in lines] == VERIFY_NAMES
    assert all(line[0] == "ok" for line in lines)


def test_verify_check_that_raises_fails_alone(tmp_path, capsys, monkeypatch):
    """A check that raises prints FAIL with the error and the run goes on:
    every other check still runs and passes, --out records ok false, and
    the exit code is 1."""
    def boom(d, height_bound):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "gcd_bound_sweep", boom)
    path = tmp_path / "verify.json"
    code, out = run_cli(["verify", "--quick", "-o", str(path)], capsys)
    assert code == 1
    lines = out.splitlines()
    assert [line.split()[1] for line in lines] == VERIFY_NAMES
    assert [line for line in lines if not line.startswith("ok")] == [
        "FAIL  gcd-bound  (ValueError: boom)"]
    results = json.loads(path.read_text())["results"]
    assert [r["check"] for r in results if not r["ok"]] == ["gcd-bound"]


def exit_code(args) -> int:
    """``main``'s exit code, returned by a runner or raised by argparse."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def test_bad_arguments_exit_2(capsys):
    assert exit_code(["decide", "--field", "q", "--a", "bogus"]) == 2
    capsys.readouterr()
    assert exit_code(["decide", "--field", "quad", "--a", "1/2"]) == 2  # missing --d
    capsys.readouterr()
    assert exit_code(["decide", "--field", "q", "--d", "0", "--a", "1/2"]) == 2  # --d over Q
    capsys.readouterr()
    assert exit_code(["nsect", "--p", "3", "--c", "9", "--d", "10"]) == 2
    capsys.readouterr()
    assert exit_code(["nsect", "--p", "0", "--c", "3", "--d", "4"]) == 2  # not an odd prime
    capsys.readouterr()
    assert exit_code(["density", "--field", "q", "--R", "100,50"]) == 2
    capsys.readouterr()
    assert exit_code(["boxcount", "--field", "q", "--R", "9,10,11"]) == 2  # one height only
    capsys.readouterr()


def test_density_below_height_one_is_bad_arguments(capsys):
    """B(R) ∩ [-2, 2] is empty below height 1: exit 2, not 1 (falsified)."""
    for field in (["--field", "q", "--R", "0.5"], ["--field", "quad", "--d", "2", "--R", "0.5,1"]):
        assert main(["density", *field]) == 2
        assert "R must be >= 1" in capsys.readouterr().err


def test_overflow_is_bad_arguments_not_falsified(capsys):
    assert main(["lehmer", "--sides", "1e400,2"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_decide_huge_rational_denominator(capsys):
    code, out = run_cli(["decide", "--field", "q", "--a=1/1" + "0" * 400], capsys)
    assert code == 0
    assert json.loads(out)["member"] is False


def test_cap_exceeded_exit_3(capsys):
    assert main(["density", "--field", "q", "--R", "100,1000", "--cap", "10"]) == 3
    capsys.readouterr()


def test_cap_bounds_the_preimages_visited(capsys):
    """Over Q at R = 1000 the numerator visits 129 preimages (the whole
    ball B(20) ∩ [-2, 2] holds 385): 129 passes, 128 is refused."""
    density = ["density", "--field", "q", "--R", "100,1000"]
    assert main([*density, "--cap", "129"]) == 0
    assert main([*density, "--cap", "128"]) == 3
    assert "more than 128 preimages visited" in capsys.readouterr().err


def test_cap_environment_variable_is_ignored(capsys, monkeypatch):
    """``--cap`` is the one way to cap density: TRISECTLAB_CAP=1 changes
    neither the exit code nor a byte of the output."""
    density = ["density", "--field", "q", "--R", "100,1000"]
    monkeypatch.delenv("TRISECTLAB_CAP", raising=False)
    plain = run_cli(density, capsys)
    monkeypatch.setenv("TRISECTLAB_CAP", "1")
    assert run_cli(density, capsys) == plain
    assert plain[0] == 0


def test_algdeg_degree_cap(capsys):
    """The tower stops at degree ``algdeg.DEGREE_CAP`` = 2^12, a constant:
    n = 13 exits 3 at once."""
    start = time.perf_counter()
    assert main(["algdeg", "--n", "13"]) == 3
    assert time.perf_counter() - start < 5.0
    assert "exceeds cap 4096" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["decide", "--a", "1/2", "--cap", "5"],
    ["decide", "--a", "1/2", "--seed", "1"],
    ["density", "--R", "10", "--seed", "1"],
    ["lehmer", "--sides", "4,4", "--cap", "5"],
    ["lehmer", "--sides", "4,4", "--seed", "1"],
    ["boxcount", "--R", "9", "--cap", "5"],
    ["nsect", "--p", "3", "--c", "3", "--d", "4", "--cap", "5"],
    ["nsect", "--p", "3", "--c", "3", "--d", "4", "--seed", "1"],
    ["algdeg", "--n", "3", "--cap", "5"],
    ["algdeg", "--n", "3", "--seed", "1"],
    ["algdeg", "--n", "3", "--degree-cap", "8"],
    ["witness", "--m", "5", "--q", "2", "--cap", "5"],
    ["witness", "--m", "5", "--q", "2", "--seed", "1"],
    ["verify", "--quick", "--cap", "5"],
    ["verify", "--quick", "--format", "csv"],
], ids=lambda args: f"{args[0]}{args[-2]}")
def test_unread_flags_are_refused(args, capsys):
    """Each verb takes only the flags it reads; argparse exits 2 on the rest."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_rerun_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _ = run_cli(
            ["boxcount", "--field", "quad", "--d", "3", "--R", "30", "--out", str(path)],
            capsys,
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_atomic_write_leaves_no_temp(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _ = run_cli(["lehmer", "--sides", "4,4", "--out", str(target)], capsys)
    assert code == 0
    assert target.exists()
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
    assert leftovers == []


def _fresh_run(args, timeout=120):
    """(exit code, stdout, stderr) of the CLI in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from trisectlab.cli import main; sys.exit(main())",
         *args], env=env, capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def test_one_process_matches_fresh_runs(capsys):
    """The parser is built once per process; a run after a refused one
    still prints what a new interpreter prints, and so do Moebius counts
    read from the Mertens table that density has already grown."""
    decide = ["decide", "--field", "quad", "--d", "2", "--a", "(0+1*sqrt(2))/1"]
    density = ["density", "--field", "q", "--R", "25,50,100"]
    lehmer = ["lehmer", "--sides", "1000000,1000000"]
    boxcount = ["boxcount", "--field", "q", "--R", "1000"]
    bad = ["decide", "--field", "q"]  # --a is required
    fresh = {tuple(args): _fresh_run(args) for args in (decide, density, lehmer, boxcount, bad)}
    assert fresh[tuple(bad)][0] == 2
    for args in (decide, density, lehmer, boxcount, bad, decide):
        code = exit_code(args)
        out, err = capsys.readouterr()
        assert (code, out, err) == fresh[tuple(args)]


@pytest.mark.parametrize("args", [
    ["witness", "--m", "10007", "--q", "2"],
    ["witness", "--m", "401", "--q", "2"],
    ["nsect", "--p", "10007", "--c", "10007", "--d", "20000"],
    ["nsect", "--p", "1009", "--c", "1009", "--d", "2000"],
], ids=lambda args: f"{args[0]}{args[2]}")
def test_oversized_certificates_refused_before_building(args):
    """witness and nsect check the verify caps on m and p before they build
    anything; these four used to run for 1.6 s to over 20 s first."""
    start = time.perf_counter()
    code, out, err = _fresh_run(args, timeout=5)
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (3, "")
    assert f"certificate parameter {args[2]} exceeds the verify cap" in err


@pytest.mark.parametrize("args, want", [
    (["decide", "--field", "quad", "--d", "1000000000000000003", "--a", "1"], 0),
    (["decide", "--field", "quad", "--d", str(2 ** 62 + 1), "--a", "1"], 3),
    (["boxcount", "--field", "quad", "--d", "2", "--R", "3000"], 3),
    (["boxcount", "--field", "q", "--R", "1e8"], 3),
    (["boxcount", "--field", "q", "--R", "1e12"], 3),
    (["density", "--field", "quad", "--d", "2", "--R", "1e7"], 3),
    (["density", "--field", "q", "--R", "1e13"], 3),
], ids=["decide-d-1e18+3", "decide-d-2^62+1", "boxcount-quad-3000", "boxcount-q-1e8",
        "boxcount-q-1e12", "density-quad-1e7", "density-q-1e13"])
def test_probes_answer_promptly(args, want):
    """Each probe gets a verdict or a refusal within 5 s in a new
    interpreter: a radicand by Miller-Rabin and Pollard-Brent, or past
    2^62 refused; qbox's cell cap and density's denominator guards before
    any work.  These used to run from 17 s to past 30 s (boxcount over Q
    at 10^12: 41 s of ball counts before qbox refused)."""
    start = time.perf_counter()
    code, out, err = _fresh_run(args, timeout=5)
    assert time.perf_counter() - start < 5.0
    assert code == want and "Traceback" not in err
    assert (code == 0) == bool(out)


@pytest.mark.parametrize("args, want", [
    (["decide", "--field", "q", "--a", "1/0"], 2),
    (["lehmer", "--sides", "1/0"], 2),
    (["lehmer", "--sides", "0/0"], 2),
    (["boxcount", "--field", "q", "--R", "1/0"], 2),
    (["density", "--field", "q", "--R", "0/0"], 2),
    (["decide", "--a=--"], 2),
    (["density", "--R=--"], 2),
    (["density", "--field", "quad", "--d=--", "--R", "1,2"], 2),
    (["lehmer", "--sides=--"], 2),
    (["witness", "--m=--", "--q", "7"], 2),
    (["nsect", "--p=--", "--c", "3", "--d", "4"], 2),
    (["algdeg", "--n=--"], 2),
    (["algdeg", "--n", "1000000000"], 3),
    (["algdeg", "--n", "99999999999999999999999999"], 3),
    (["density", "--R", "1e999999999"], 2),
    (["boxcount", "--field", "quad", "--d", "5", "--R", "1e4300"], 3),
    (["boxcount", "--field", "q", "--R", "1e4300"], 3),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_argument_escapes_exit_2_or_3(args, want):
    """Argument sets that used to exit 1 with a traceback (a zero
    denominator in a verb's own parsing, argparse before 3.13 reading
    ``--flag=--`` as []), to form 2^n before the degree cap (8 s at
    n = 10^9, no answer at 10^26), to build 10^999999999 from a height's
    exponent, or to exit 2 where qbox's cap refused a box of more cells
    than ``str`` converts (4300 digits), in a new interpreter.  (The
    10^999999999 row is pinned here only: a regression would hang the
    in-process fuzz test rather than fail it.)"""
    start = time.perf_counter()
    code, out, err = _fresh_run(args, timeout=5)
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (want, "") and "Traceback" not in err


def test_cap_message_names_a_huge_count_by_its_power_of_two(capsys):
    assert main(["boxcount", "--field", "q", "--R", "1e4300"]) == 3
    err = capsys.readouterr().err
    assert "box difference of at least 2^28567 cells exceeds the cap" in err


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_exits_2(where, tmp_path):
    """An --out path that cannot be written is bad arguments, and the
    atomic write leaves no temp file behind."""
    target = tmp_path / "dir"  # the temp file goes next to the target
    target.mkdir()
    out = target / "missing" / "x.json" if where == "missing-dir" else target
    code, stdout, err = _fresh_run(["lehmer", "--sides", "4,4", "--out", str(out)], timeout=5)
    assert (code, stdout) == (2, "") and err.startswith("error:")
    assert list(tmp_path.rglob("*")) == [target]


# Every value that escaped as exit 1 or ran for seconds, and more that
# no flag accepts or that sit at a cap: zero denominators, argparse's
# "--", non-finite and out-of-range numbers, and an integer past
# Python's 4,300-digit int-to-str limit.  Valid mid-size heights are left
# out: density over Q at R = 10^12 legitimately takes about a minute.
HOSTILE = ["1/0", "0/0", "--", "", "nan", "inf", "1e400", "0", "-1",
           str(2 ** 62 + 1), str(10 ** 30), "9" * 5000]

# valid values of the flags, by verb, so that a hostile value of one flag
# reaches the runner past the others; a flag without one (--out) is left
# out unless it is the hostile one
VALID = {
    "decide": {"--field": ["q", "quad"], "--d": ["5"], "--a": ["1/2", "(1+1*sqrt(5))/2"]},
    "density": {"--field": ["q", "quad"], "--d": ["5"], "--R": ["25,50", "1"],
                "--cap": ["500"], "--shards": ["2"]},
    "lehmer": {"--sides": ["4,4", "5.9,3.2,2"], "--shards": ["2"]},
    "boxcount": {"--field": ["q", "quad"], "--d": ["5"], "--R": ["9"], "--seed": ["1"]},
    "nsect": {"--p": ["3"], "--c": ["3"], "--d": ["4"]},
    "algdeg": {"--n": ["3"]},
    "witness": {"--m": ["5"], "--q": ["2"]},
    "verify": {"--seed": ["1"]},
}
CALL_SECONDS = 2


def _value_flags(verb):
    """The flags of ``verb``'s parser that take a value, by first spelling."""
    return [action.option_strings[0] for action in verb_parser(verb)._actions
            if action.option_strings and action.nargs != 0]


# every (verb, flag) but verify's --out: nearly every value there runs the
# suite (0.1 s) first, and it writes through the same _atomic_write as the
# seven other verbs' --out
FUZZED = [(verb, flag) for verb in VERBS for flag in _value_flags(verb)
          if (verb, flag) != ("verify", "--out")]


class _CallTimeout(BaseException):
    """Raised by the alarm; not an Exception, so main cannot map it."""


def _alarm(signum, frame):
    raise _CallTimeout


def _hostile_run(argv):
    """main(argv) in a scratch directory, where --out writes its relative
    paths: (exit code, stderr), failing past CALL_SECONDS."""
    cwd = os.getcwd()
    previous = signal.signal(signal.SIGALRM, _alarm)
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = exit_code(argv)
        except _CallTimeout:
            pytest.fail(f"no answer within {CALL_SECONDS} s: {argv}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            os.chdir(cwd)
    return code, stderr.getvalue()


@pytest.mark.parametrize("verb, flag", FUZZED, ids=lambda value: value)
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_hostile_arguments_exit_0_2_or_3(verb, flag, data):
    """In-process: every hostile value, in both spellings, in ``flag`` of
    ``verb``, with each other flag left out or given a valid value drawn
    by hypothesis.  Each call exits 0, 2 or 3 within CALL_SECONDS, and
    nothing escapes main as an exception.  verify always gets --quick:
    its full suite takes 0.45 s a call."""
    valid = {"--format": ["json", "csv"], **VALID[verb]}
    context = [verb] + (["--quick"] if verb == "verify" else [])
    for other in _value_flags(verb):
        if other != flag:
            value = data.draw(st.sampled_from([None, *valid.get(other, [])]), label=other)
            context += [] if value is None else [f"{other}={value}"]
    for value in HOSTILE:
        for argv in ([*context, f"{flag}={value}"], [*context, flag, value]):
            code, err = _hostile_run(argv)
            assert code in (0, 2, 3), (argv, err[-500:])
            assert "Traceback" not in err


def _readme_verb_flags() -> dict:
    """The flags each verb's bullet of the README's flag list names, by
    verb: the bullets follow the line ending "any other flag exits 2:"."""
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as handle:
        text = handle.read()
    section = text.split("any other flag exits 2:\n", 1)[1].split("\n\n", 1)[0]
    bullets = re.findall(r"^- `(\w+)`:(.*?)(?=^- |\Z)", section, flags=re.M | re.S)
    return {verb: set(re.findall(r"`(--[A-Za-z-]+)", body)) for verb, body in bullets}


def test_readme_flag_list_matches_the_parsers():
    """Each verb's README bullet names exactly its parser's flags, apart
    from --out/-o on every verb and --format on every verb but verify."""
    documented = _readme_verb_flags()
    assert set(documented) == set(VERBS)
    for verb, flags in documented.items():
        options = {opt for action in verb_parser(verb)._actions
                   for opt in action.option_strings} - {"-h", "--help"}
        common = {"--out", "-o"} | ({"--format"} if verb != "verify" else set())
        assert options == flags | common, verb
