"""End-to-end command dispatch, exit codes, and output determinism."""

from __future__ import annotations

import ast
import contextlib
import functools
import hashlib
import importlib
import io
import os
import pathlib
import pkgutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import lch
from lch import refdata, reps
from lch.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from lch.dga import compute_dga, deserialize, serialize
from lch.freealg import F2
from lch.reps import MatRepAssignment, _search

ROOT = pathlib.Path(__file__).resolve().parents[1]
K1_DGA = str(ROOT / "data" / "k1_appendixA.dga")
K2_DGA = str(ROOT / "data" / "k2_appendixB.dga")
K1_CERT = str(ROOT / "certs" / "k1_trivial.cert")
K2_QUOT = str(ROOT / "certs" / "k2_quotient.cert")
K2_NOREP = str(ROOT / "certs" / "k2_norep.cert")
K1_EXPR = str(ROOT / "certs" / "k1_unit.expr")
M942_REP = str(ROOT / "reps" / "m9_42_dim2.rep")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---- computing commands ----

def test_dga_trefoil_stdout(capsys):
    code, out, _ = run(capsys, "dga", "--strands", "4", "--ring", "zt", "2,2,2")
    assert code == EXIT_OK
    assert "d x4 = 1 + x1 + x3 + x1.x2.x3" in out


def test_dga_empty_word(capsys):
    code, out, _ = run(capsys, "dga", "--strands", "2", "")
    assert code == EXIT_OK
    assert out.count("gen ") == 1


def test_dga_k2_matches_bundled_file(capsys):
    code, out, _ = run(capsys, "dga", "--strands", "6", "--ring", "f2",
                       refdata.K2_WORD)
    assert code == EXIT_OK
    assert out == pathlib.Path(K2_DGA).read_text()


def test_dga_k1_has_23_generators(capsys):
    code, out, _ = run(capsys, "dga", "--strands", "8", "--ring", "zt",
                       refdata.K1_WORD)
    assert code == EXIT_OK
    assert out.count("gen ") == 23


def test_dga_out_flag(tmp_path, capsys):
    target = tmp_path / "t.dga"
    code, out, _ = run(capsys, "dga", "--strands", "4", "2,2,2",
                       "--out", str(target))
    assert code == EXIT_OK and out == ""
    assert target.read_text().startswith("ring F2")


def test_dga_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "t.dga"
    code, out, err = run(capsys, "dga", "--strands", "4", "2,2,2",
                         "--out", str(target))
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_dga_sweep_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "dga", "--strands", "4", "1,1,1,1,1,3,1,1,2")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: disk sweep for x9 exceeded 52 states per slice\n"


def test_invariants_k1(capsys):
    code, out, _ = run(capsys, "invariants", "--strands", "8", refdata.K1_WORD)
    assert code == EXIT_OK
    assert out == "tb = -1\nr = 0\n"


def test_grading_trefoil(capsys):
    code, out, _ = run(capsys, "grading", "--strands", "4", "2,2,2")
    assert code == EXIT_OK
    assert "modulus = 0" in out and "deg x4 = 1" in out


def test_torus_dga_command(capsys):
    code, out, _ = run(capsys, "torus-dga", "--p", "3", "--q", "4")
    assert code == EXIT_OK
    assert out.count("gen ") == 12


def test_torus_dga_rejects_bad_pq(capsys):
    code, _, err = run(capsys, "torus-dga", "--p", "3", "--q", "3")
    assert code == EXIT_USAGE and "error" in err


# ---- verify ----

def test_verify_d2_bundled(capsys):
    assert run(capsys, "verify", "d2", "--dga", K1_DGA)[0] == EXIT_OK


def test_verify_d2_failure(tmp_path, capsys):
    bad = tmp_path / "bad.dga"
    bad.write_text("ring F2\ngen x1 1\ngen x2 0\nd x1 = x2\nd x2 = 1\n")
    code, out, _ = run(capsys, "verify", "d2", "--dga", str(bad))
    assert code == EXIT_FAIL and "FAILED" in out


def _k2_with_d_x2_moved():
    text = pathlib.Path(K2_DGA).read_text()
    assert text.count("d x2 = x1\n") == 1
    return text.replace("d x2 = x1\n", "d x2 = x3\n")


# the ZT table's residue carries the Leibniz sign of the odd prefix x3
@pytest.mark.parametrize("table,stdout", [
    (_k2_with_d_x2_moved, "FAILED d2(x2) = x1\n"),
    (lambda: "ring ZT\ngen x1 1\ngen x2 0\ngen x3 1\n"
             "d x1 = x3.x2\nd x2 = t\nd x3 = 1\n",
     "FAILED d2(x1) = x2 + -1*t^1*x3\n"),
])
def test_verify_d2_failure_residue_is_pinned(tmp_path, capsys, table, stdout):
    bad = tmp_path / "bad.dga"
    bad.write_text(table())
    assert run(capsys, "verify", "d2", "--dga", str(bad)) == (EXIT_FAIL, stdout, "")


@pytest.mark.parametrize("head,why", [
    ("ring F2\nmod -4", "line 2: negative modulus"),
    ("ring ZT\nmod -4", "line 2: negative modulus"),
    ("ring ZT\nmod 3", "line 2: ring ZT needs an even modulus"),
    ("mod 2\nring ZT", "line 1: mod before ring"),
])
def test_verify_d2_rejects_bad_modulus(tmp_path, capsys, head, why):
    bad = tmp_path / "bad.dga"
    bad.write_text(f"{head}\ngen x1 1\ngen x2 0\nd x1 = x2\n")
    code, out, err = run(capsys, "verify", "d2", "--dga", str(bad))
    assert code == EXIT_USAGE and out == ""
    assert err.count("\n") == 1 and why in err


@pytest.mark.parametrize("text,form", [
    ("ring", "ring <F2|ZT>"),
    ("ring F2\nmod", "mod <modulus>"),
    ("ring F2\ngen x1", "gen <name> <degree>"),
    ("ring F2\ngen x1 1\nd x1", "d <name> = <poly>"),
], ids=["ring", "mod", "gen", "d"])
def test_verify_d2_names_the_form_of_a_truncated_line(tmp_path, capsys, text, form):
    bad = tmp_path / "bad.dga"
    bad.write_text(text + "\n")
    lines = text.splitlines()
    code, out, err = run(capsys, "verify", "d2", "--dga", str(bad))
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {bad}: line {len(lines)}: expected '{form}', got {lines[-1]!r}\n"


def test_verify_unit_bundled(capsys):
    code, out, _ = run(capsys, "verify", "unit", "--dga", K1_DGA,
                       "--element-file", K1_EXPR)
    assert code == EXIT_OK and "trivial" in out


def test_verify_unit_rejects_unknown_generator(tmp_path, capsys):
    el = tmp_path / "e.expr"
    el.write_text(pathlib.Path(K1_EXPR).read_text().rstrip("\n") + " + x99\n")
    code, out, err = run(capsys, "verify", "unit", "--dga", K1_DGA,
                         "--element-file", str(el))
    assert code == EXIT_USAGE and out == ""
    assert err == "error: unknown generator(s) x99 in unit witness\n"


def test_verify_unit_failure(tmp_path, capsys):
    el = tmp_path / "e.expr"
    el.write_text("x1\n")
    code, out, _ = run(capsys, "verify", "unit", "--dga", K2_DGA,
                       "--element-file", str(el))
    assert code == EXIT_FAIL


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_verify_unit_rejects_inhomogeneous_witness(tmp_path, flags):
    # d(x1 + x2) = 1, but the witness mixes degrees 1 and 0; the check is
    # explicit, so python -O must not skip it
    dga_path = tmp_path / "u.dga"
    dga_path.write_text("ring F2\ngen x1 1\ngen x2 0\nd x1 = 1\n")
    el = tmp_path / "e.expr"
    el.write_text("x1 + x2\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "lch", "verify", "unit", "--dga", str(dga_path),
         "--element-file", str(el)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_FAIL and proc.stderr == ""
    assert proc.stdout == "FAILED unit witness is not homogeneous of grading 1\n"


def test_verify_d2_rejects_repeated_differential(tmp_path, capsys):
    bad = tmp_path / "bad.dga"
    bad.write_text("ring F2\ngen x1 1\nd x1 = 1\nd x1 = x1\n")
    code, out, err = run(capsys, "verify", "d2", "--dga", str(bad))
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {bad}: line 4: duplicate differential for x1\n"


def test_verify_cert_k1(capsys):
    code, out, _ = run(capsys, "verify", "cert", "--dga", K1_DGA,
                       "--cert", K1_CERT)
    assert code == EXIT_OK and "PASS" in out


def test_verify_cert_k2_quotient(capsys):
    code, out, _ = run(capsys, "verify", "cert", "--dga", K2_DGA,
                       "--cert", K2_QUOT)
    assert code == EXIT_OK and "PASS" in out


def test_verify_cert_failure(tmp_path, capsys):
    cert = tmp_path / "c.cert"
    cert.write_text("assert d_x25 = 0\n")
    code, out, _ = run(capsys, "verify", "cert", "--dga", K2_DGA,
                       "--cert", str(cert))
    assert code == EXIT_FAIL and "FAIL" in out


@pytest.mark.parametrize("text,name", [
    ("diff dz = D( x99 )\nassert dz = 0\n", "dz"),
    ("comb r = ( x99 ) * d_x2 * ( 1 )\n", "r"),
    ("subst s = d_x2 with x99 -> x1\n", "s"),
    ("assert d_x2 = x1 + x99\n", "d_x2"),
], ids=["diff", "comb", "subst", "assert"])
def test_verify_cert_rejects_unknown_generators(tmp_path, capsys, text, name):
    # the first two would replay to PASS: d(x99) = 0 and x99 * d_x2 lies in
    # the ideal; every step's polynomials are checked before any replay
    cert = tmp_path / "c.cert"
    cert.write_text(text)
    code, out, err = run(capsys, "verify", "cert", "--dga", K2_DGA,
                         "--cert", str(cert))
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: relation {name!r} uses unknown generators ['x99']\n"


@pytest.mark.parametrize("check", ["cert", "norep"])
def test_verify_cert_parse_error_names_the_file(tmp_path, capsys, check):
    cert = tmp_path / "c.cert"
    cert.write_text("bogus step\n")
    code, out, err = run(capsys, "verify", check, "--dga", K2_DGA, "--cert", str(cert))
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {cert}: line 1: unrecognized step 'bogus step'\n"


@pytest.mark.parametrize("cyclic,failure", [
    (False, "rule 'x1149' not backed by a registered relation"),
    (True, "substitution rules are cyclic"),
], ids=["chain", "cycle"])
def test_verify_cert_long_rule_chain(tmp_path, capsys, cyclic, failure):
    # x1 -> x2; ...; x1149 -> x1150, or back to x1, listed last rule first:
    # deeper than the default recursion limit, so the acyclicity check must
    # not recurse per rule, and each rule after the first reaches a finished one
    n = 1150
    dga_path = tmp_path / "chain.dga"
    dga_path.write_text("ring F2\n" + "".join(f"gen x{k} 0\n" for k in range(1, n + 1)))
    last = 1 if cyclic else n
    rules = [f"x{n - 1} -> x{last}"] + [f"x{k} -> x{k + 1}" for k in range(n - 2, 0, -1)]
    cert = tmp_path / "chain.cert"
    cert.write_text(f"subst s = d_x1 with {'; '.join(rules)}\n")
    code, out, err = run(capsys, "verify", "cert", "--dga", str(dga_path),
                         "--cert", str(cert))
    assert code == EXIT_FAIL and err == ""
    assert out == f"steps registered: 0\ncertificate: FAIL at step 0: {failure}\n"


def test_verify_norep_bundled(capsys):
    code, out, _ = run(capsys, "verify", "norep", "--dga", K2_DGA,
                       "--cert", K2_NOREP)
    assert code == EXIT_OK and "0 = 1" in out


def test_verify_norep_needs_witness_lines(tmp_path, capsys):
    cert = tmp_path / "c.cert"
    cert.write_text("assert-unit d_x25\n")
    code, _, err = run(capsys, "verify", "norep", "--dga", K2_DGA,
                       "--cert", str(cert))
    assert code == EXIT_USAGE and "witness" in err


def test_verify_rep_bundled(tmp_path, capsys):
    dga_path = tmp_path / "m942.dga"
    code, out, _ = run(capsys, "dga", "--strands", "6", refdata.M942_WORD,
                       "--out", str(dga_path))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "verify", "rep", "--dga", str(dga_path),
                       "--rep", M942_REP)
    assert code == EXIT_OK and "verified" in out


@pytest.mark.parametrize("name", ["x99", "t"])
def test_verify_rep_rejects_images_of_unknown_generators(tmp_path, capsys, name):
    dga_path = tmp_path / "m942.dga"
    dga_path.write_text(_m942_table())
    rep = tmp_path / "m942.rep"
    rep.write_text(pathlib.Path(M942_REP).read_text() + f"map {name} = 0101\n")
    code, out, err = run(capsys, "verify", "rep", "--dga", str(dga_path),
                         "--rep", str(rep))
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: image for unknown generator {name}\n"


def test_verify_rep_parse_error_names_the_file(tmp_path, capsys):
    rep = tmp_path / "bad.rep"
    rep.write_text("rep n=2\nmap x1 = 010\n")
    code, out, err = run(capsys, "verify", "rep", "--dga", K1_DGA, "--rep", str(rep))
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {rep}: image of x1 must be 4 bits\n"


def test_verify_torus(capsys):
    assert run(capsys, "verify", "torus", "--p", "5", "--q", "8")[0] == EXIT_OK


def test_verify_R(capsys):
    code, out, _ = run(capsys, "verify", "R", "--n", "128")
    assert code == EXIT_OK
    assert out.count("ok") == 7


def test_verify_R_rejects_small_n(capsys):
    assert run(capsys, "verify", "R", "--n", "16")[0] == EXIT_USAGE


# ---- search ----

def test_search_aug_k2_empty(capsys):
    code, out, _ = run(capsys, "search", "aug", "--dga", K2_DGA)
    assert code == EXIT_OK
    assert out == "0 augmentation(s)\n"


def test_search_aug_trefoil(tmp_path, capsys):
    dga_path = tmp_path / "t.dga"
    run(capsys, "dga", "--strands", "4", "2,2,2", "--out", str(dga_path))
    code, out, _ = run(capsys, "search", "aug", "--dga", str(dga_path))
    assert code == EXIT_OK
    assert out.endswith("20 augmentation(s)\n")
    code, out_graded, _ = run(capsys, "search", "aug", "--graded",
                              "--dga", str(dga_path))
    assert out_graded.endswith("5 augmentation(s)\n")


@pytest.mark.parametrize("degree", ["2", "0"])
def test_search_aug_graded_reads_degrees_mod_the_modulus(tmp_path, capsys, degree):
    # the file keeps degree 2 as written; mod 2 it is 0, so x1 is not pinned
    # and x1 = 1 kills d x2 either way
    dga_path = tmp_path / "mod2.dga"
    dga_path.write_text(f"ring F2\nmod 2\ngen x1 {degree}\ngen x2 1\nd x2 = 1 + x1\n")
    got = run(capsys, "search", "aug", "--graded", "--dga", str(dga_path))
    assert got == (EXIT_OK, "x1=1 x2=0\n1 augmentation(s)\n", "")


def test_search_aug_long_chain(tmp_path, capsys):
    # d x{k+1} = x{k} + 1 forces x1..x999 to 1 and leaves x1000 free; one
    # search level per generator, deeper than the default recursion limit
    n = 1000
    dga_path = tmp_path / "chain.dga"
    dga_path.write_text("ring F2\n" + "".join(f"gen x{k} 0\n" for k in range(1, n + 1))
                        + "".join(f"d x{k + 1} = x{k} + 1\n" for k in range(1, n)))
    code, out, err = run(capsys, "search", "aug", "--dga", str(dga_path))
    forced = " ".join(f"x{k}=1" for k in range(1, n))
    assert code == EXIT_OK and err == ""
    assert out == f"{forced} x{n}=0\n{forced} x{n}=1\n2 augmentation(s)\n"


def test_search_aug_budget_is_inconclusive(tmp_path, capsys):
    # ungraded T(7,-9) has no augmentation, and its search does not exhaust
    # the space within this budget, so it neither lists one nor claims none
    dga_path = tmp_path / "t79.dga"
    run(capsys, "torus-dga", "--p", "7", "--q", "9", "--out", str(dga_path))
    code, out, err = run(capsys, "search", "aug", "--dga", str(dga_path),
                         "--budget", "1000000")
    assert code == EXIT_OK and err == ""
    assert out == "0 augmentation(s) within budget (inconclusive)\n"


def test_search_aug_budget_keeps_what_it_found(tmp_path, capsys):
    dga_path = tmp_path / "t.dga"
    run(capsys, "dga", "--strands", "4", "2,2,2", "--out", str(dga_path))
    _, every, _ = run(capsys, "search", "aug", "--dga", str(dga_path))
    code, out, _ = run(capsys, "search", "aug", "--dga", str(dga_path), "--budget", "20")
    lines = out.splitlines()
    assert code == EXIT_OK and 0 < len(lines) - 1 < 20
    assert lines[-1] == f"{len(lines) - 1} augmentation(s) within budget (inconclusive)"
    assert every.startswith("\n".join(lines[:-1]) + "\n")


@pytest.mark.parametrize("value", ["0", "-5"])
def test_search_aug_rejects_nonpositive_budget(capsys, value):
    code, out, err = run(capsys, "search", "aug", "--dga", K2_DGA, "--budget", value)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: --budget must be positive, got {value}\n"


def test_search_matrep_trefoil(tmp_path, capsys):
    dga_path = tmp_path / "t.dga"
    run(capsys, "dga", "--strands", "4", "2,2,2", "--out", str(dga_path))
    code, out, _ = run(capsys, "search", "matrep", "--dga", str(dga_path),
                       "--n", "1")
    assert code == EXIT_OK
    assert "rep n=1" in out and "1 representation(s)" in out


def test_search_matrep_budget_exhaustion(capsys):
    code, out, _ = run(capsys, "search", "matrep", "--dga", K2_DGA,
                       "--n", "2", "--budget", "10000")
    assert code == EXIT_OK
    assert out == "0 representation(s) within budget (inconclusive)\n"
    # k2 has no finite-dimensional representation, so the same search must
    # stop on its budget, not by exhausting the space
    g = deserialize(pathlib.Path(K2_DGA).read_text())
    assert _search(g, 2, 10_000)[1:] == ("budget", 10_000)


def test_search_matrep_exhausted(tmp_path, capsys):
    dga_path = tmp_path / "t34.dga"
    run(capsys, "torus-dga", "--p", "3", "--q", "4", "--out", str(dga_path))
    code, out, _ = run(capsys, "search", "matrep", "--dga", str(dga_path), "--n", "1")
    assert code == EXIT_OK
    assert out == ("0 representation(s): search space exhausted "
                   "(not a nonexistence certificate)\n")
    g = deserialize(dga_path.read_text())
    assert _search(g, 1, 10 ** 8)[1:] == ("exhausted", 68)


@pytest.mark.parametrize("flag,value", [("--n", "0"), ("--n", "-1"),
                                        ("--budget", "0"), ("--budget", "-5")])
def test_search_matrep_rejects_nonpositive_arguments(capsys, flag, value):
    argv = {"--n": "2", "--budget": "100", flag: value}
    code, out, err = run(capsys, "search", "matrep", "--dga", K2_DGA,
                         *(x for kv in argv.items() for x in kv))
    assert code == EXIT_USAGE and out == ""
    assert err.count("\n") == 1 and flag in err


def test_search_matrep_rejects_laurent_dga(tmp_path, capsys):
    dga_path = tmp_path / "t.dga"
    run(capsys, "dga", "--strands", "4", "--ring", "zt", "2,2,2", "--out", str(dga_path))
    code, _, err = run(capsys, "search", "matrep", "--dga", str(dga_path), "--n", "2")
    assert code == EXIT_USAGE and err.count("\n") == 1 and "F2" in err


def test_search_matrep_rechecks_the_hit(tmp_path, capsys, monkeypatch):
    # the re-verification is an explicit check, so it also runs under -O
    dga_path = tmp_path / "t.dga"
    run(capsys, "dga", "--strands", "4", "2,2,2", "--out", str(dga_path))
    bogus = MatRepAssignment(1, {f"x{i}": (0,) for i in range(1, 6)})
    monkeypatch.setattr(reps, "_search", lambda g, n, budget: (bogus, "found", 1))
    code, out, _ = run(capsys, "search", "matrep", "--dga", str(dga_path), "--n", "1")
    assert code == EXIT_FAIL and out.startswith("FAILED")


# ---- plumbing ----

def test_outputs_are_byte_identical(capsys):
    _, first, _ = run(capsys, "dga", "--strands", "6", "--ring", "f2",
                      refdata.K2_WORD)
    _, second, _ = run(capsys, "dga", "--strands", "6", "--ring", "f2",
                       refdata.K2_WORD)
    assert first == second


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "d2", "--dga", "/no/such/file.dga")
    assert code == EXIT_USAGE and "cannot read" in err


def test_bad_plat_is_usage_error(capsys):
    code, _, err = run(capsys, "dga", "--strands", "5", "1")
    assert code == EXIT_USAGE


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_help_documents_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("dga", "invariants", "grading", "verify", "search", "torus-dga"):
        assert cmd in out


def _outcome(argv):
    # stdout, stderr and exit code of one in-process call
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def _outcome_alone(argv):
    # the same command in a process of its own
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "lch", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    return proc.stdout, proc.stderr, proc.returncode


def test_calls_in_one_process_match_calls_alone(tmp_path, monkeypatch):
    # main builds its parser once per process: calls in sequence must not
    # see each other's arguments, defaults or errors
    monkeypatch.setenv("COLUMNS", "100")
    table = str(tmp_path / "t.dga")
    assert _outcome(["dga", "--strands", "4", "2,2,2", "--out", table])[2] == EXIT_OK
    sequence = [
        ["search", "aug", "--graded", "--dga", table],
        ["search", "aug", "--dga", table],
        ["verify", "R", "--n", "128"],
        ["verify", "R"],
        ["frobnicate"],
        ["invariants", "--strands", "4", "2,2,2"],
        ["--help"],
    ]
    got = [_outcome(argv) for argv in sequence]
    assert got == [_outcome_alone(argv) for argv in sequence]
    graded, ungraded, small, default, unknown, valid, helped = got
    assert graded[0].endswith("\n5 augmentation(s)\n")
    assert ungraded[0].endswith("\n20 augmentation(s)\n")
    assert small[0].count("ok") == 7 and "v_0..v_62" in small[0]
    assert default[0].count("ok") == 7 and "v_0..v_126" in default[0]
    assert unknown[2] == EXIT_USAGE and valid == ("tb = 1\nr = 0\n", "", EXIT_OK)
    assert helped[2] == 0
    for cmd in ("dga", "invariants", "grading", "verify", "search", "torus-dga"):
        assert cmd in helped[0]


def test_thread_variable_is_not_read(monkeypatch, capsys):
    monkeypatch.setenv("LCH_THREADS", "abc")
    code, out, _ = run(capsys, "invariants", "--strands", "4", "2,2,2")
    assert code == EXIT_OK and out == "tb = 1\nr = 0\n"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no check may rest on one
    found = []
    for path in sorted((ROOT / "src" / "lch").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_imports_a_name_it_never_uses():
    # deleting a helper tends to leave its import behind; package __init__
    # files import to re-export, and __future__ imports switch on features
    unused = []
    for path in sorted(p for d in ("src/lch", "tests", "scripts")
                       for p in (ROOT / d).glob("*.py") if p.name != "__init__.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(((a.asname or a.name).split(".")[0], node.lineno)
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_every_exported_name_resolves():
    # a moved or deleted function must not leave its name in an __all__
    modules = [lch] + [importlib.import_module(f"lch.{m.name}")
                       for m in pkgutil.iter_modules(lch.__path__)]
    names = [(m, name) for m in modules for name in getattr(m, "__all__", ())]
    stale = [f"{m.__name__}.{name}" for m, name in names if not hasattr(m, name)]
    assert len(names) > len(lch.__all__) and stale == []


def test_bundled_artifacts_match_their_builders():
    # the byte-identity pin on the four built files in data/ and certs/:
    # --check writes nothing and exits 1 naming each file that differs from
    # what refdata builds
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "build_bundled_data.py"), "--check"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and "STALE" not in proc.stdout, proc.stdout
    assert proc.stdout.count("ok ") == 4 and proc.stderr == ""


@pytest.mark.parametrize("name, digest", [
    ("k2_quotient.cert", "a155cd28b102c7601aef3924b48f99d17c743038bd20d86a8abe2d05167c06ed"),
    ("k2_norep.cert", "bb255c7bc1c2cda461f9f0f11685ed7782cef507a5225e379321195de04f9582"),
])
def test_hand_written_certificates_match_their_digests(name, digest):
    # the k2 certificates have no builder: the files are the source, and
    # this pins them byte for byte
    data = (ROOT / "certs" / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# ---- fuzzed text inputs ----

@functools.cache
def _m942_table() -> str:
    return serialize(compute_dga(refdata.m942_front(), F2))


def _file_input(source: str, argv):
    def build(text: str, work: pathlib.Path) -> list[str]:
        (work / "m942.dga").write_text(_m942_table())
        target = work / pathlib.Path(source).name
        target.write_text(text)
        return [a.format(input=target, m942=work / "m942.dga") for a in argv]
    return pathlib.Path(source).read_text(), build


# format -> (seed text, argv for a mutated copy written under a work directory)
FUZZ_FORMATS = {
    "k2.dga": _file_input(K2_DGA, ["verify", "d2", "--dga", "{input}"]),
    "k1.dga": _file_input(K1_DGA, ["verify", "d2", "--dga", "{input}"]),
    "k2_quotient.cert": _file_input(K2_QUOT, ["verify", "cert", "--dga", K2_DGA, "--cert", "{input}"]),
    "k2_norep.cert": _file_input(K2_NOREP, ["verify", "norep", "--dga", K2_DGA, "--cert", "{input}"]),
    "k1_unit.expr": _file_input(K1_EXPR, ["verify", "unit", "--dga", K1_DGA, "--element-file", "{input}"]),
    "m9_42.rep": _file_input(M942_REP, ["verify", "rep", "--dga", "{m942}", "--rep", "{input}"]),
    # "--" keeps a word that starts with "-" from reading as an option
    "plat": (refdata.K2_WORD, lambda text, work: ["dga", "--strands", "6", "--", text]),
}

_TOKENS = ["x1", "x20", "x99", "ax5", "t", "t^-1", "-1*", "+", "-", ".", "*", "=", "->",
           ";", ",", "(", ")", "0", "1", "7", "#", " ", "\n", "d x1 = ", "gen x1 0",
           "mod 3", "ring ZT", "assert ", "subst ", "comb ", "rep n=3", "map x1 = ",
           "# witness a = ", "# assume "]

_EDITS = st.lists(st.one_of(
    st.tuples(st.just("delete"), st.integers(0, 10 ** 6), st.integers(1, 40)),
    st.tuples(st.just("insert"), st.integers(0, 10 ** 6), st.sampled_from(_TOKENS)),
    st.tuples(st.just("duplicate"), st.integers(0, 10 ** 6), st.none()),
), min_size=1, max_size=3)


def _mutate(text: str, edits) -> str:
    for kind, at, arg in edits:
        if kind == "duplicate":
            lines = text.splitlines(keepends=True) or [""]
            i = at % len(lines)
            text = "".join(lines[:i + 1] + lines[i:])
        else:
            at %= len(text) + 1
            text = text[:at] + (text[at + arg:] if kind == "delete" else arg + text[at:])
    return text


@pytest.mark.parametrize("fmt", sorted(FUZZ_FORMATS))
@settings(max_examples=80, deadline=None, derandomize=True)
@given(edits=_EDITS)
def test_mutated_inputs_exit_cleanly(fmt, edits):
    # any input ends in a verdict or a one-line usage error, never a traceback
    seed, argv = FUZZ_FORMATS[fmt]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        args = argv(_mutate(seed, edits), pathlib.Path(work))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
