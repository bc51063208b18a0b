"""The three workloads as lists of items, each checked against a known answer.

An item is an id and a function of a Tracer.  The function makes every call
into lch through `tr.call("<layer>.<call>", fn, ...)`, so that a traced run
sees one span per call, and raises WrongVerdict when an answer differs from
the known one.  Only public names of lch are used.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

from measure import Tracer

# bundled artifacts, read during set-up
BUNDLED = (
    "data/k1_appendixA.dga",
    "data/k2_appendixB.dga",
    "certs/k1_unit.expr",
    "certs/k1_trivial.cert",
    "certs/k2_quotient.cert",
    "certs/k2_norep.cert",
    "reps/m9_42_dim2.rep",
)

TORUS_LADDER = ((5, 8), (7, 9), (9, 11), (11, 13), (13, 15))
RANDOM_STRANDS = (4, 6, 8)
RANDOM_LETTERS = range(6, 25)
RANDOM_PER_STRATUM = 6
MAX_DRAWS = 10_000
SEARCH_N2 = (4, 5, 7, 8)  # T(3,-q), each has a rank-two representation
SEARCH_N3 = ("2,2,2", "2,2,2,2,2")  # 4-strand plats with a rank-three one
K2_BUDGET = 10 ** 6
AUG_EMPTY_T5 = (6, 7, 8, 9, 11, 12)
R_SIZES = (256, 512, 1024)

# sha256 prefixes of outputs, recorded from the code of the commit that
# added the benchmark; k2.F2 is also the digest of data/k2_appendixB.dga
PINS = {
    "torus.5_8.F2": "586b65386f518874",
    "torus.5_8.ZT": "f960f3ad6c6000ec",
    "torus.5_8.grading": "927d2ae02055b084",
    "torus.5_8.aug": "4f53cda18c2baa0c",
    "torus.7_9.F2": "95fd2bace5addbda",
    "torus.7_9.ZT": "54c93f235424a98d",
    "torus.7_9.grading": "00f2ddb6715d461a",
    "torus.7_9.aug": "4f53cda18c2baa0c",
    "torus.9_11.F2": "dd0ba3b293b43ad6",
    "torus.9_11.ZT": "1db706eb973c33b0",
    "torus.9_11.grading": "584d7a88bd9f936f",
    "torus.9_11.aug": "4f53cda18c2baa0c",
    "torus.11_13.F2": "43b8e8cda96097a7",
    "torus.11_13.ZT": "f71e353315a22fc7",
    "torus.11_13.grading": "1cdd55d0339a1ded",
    "torus.11_13.aug": "4f53cda18c2baa0c",
    "torus.13_15.F2": "947a5c6748fc8513",
    "torus.13_15.ZT": "d30f5835478aa5aa",
    "torus.13_15.grading": "003c118acc42a70b",
    "torus.13_15.aug": "4f53cda18c2baa0c",
    "k1.F2": "0b2d5f8e14b1ed3d",
    "k1.ZT": "d0ecec1f3b754ed1",
    "k1.grading": "40849e184cca88da",
    "k1.aug": "4f53cda18c2baa0c",
    "k2.F2": "1a97a07386a5ca48",
    "k2.ZT": "321842653115130e",
    "k2.grading": "ca3d5d10e4c2beda",
    "k2.aug": "4f53cda18c2baa0c",
    "m942.F2": "768367dfbd5c59a2",
    "m942.ZT": "3fde89b713b23adb",
    "m942.grading": "04360fd0bd6e893b",
    "m942.aug": "4f53cda18c2baa0c",
    "cli.verify_d2.0": "108348f076aec8cb",
    "cli.verify_unit.0": "c168197fe0af5285",
    "cli.verify_cert.0": "4ea13ffc7725eebb",
    "cli.verify_norep.0": "0e0585971ca0b768",
    "cli.verify_rep.0": "e3b0c44298fc1c14",
    "cli.verify_rep.1": "2a8d548bdf9623f6",
    "cli.verify_torus.0": "545463f400cd3a3d",
    "cli.verify_R.0": "cd6f002e3eec0db1",
    "cli.search_aug.0": "e3b0c44298fc1c14",
    "cli.search_aug.1": "12cca726c13ac890",
    "search.n2.T3_4": "383e3c412bf829ae",
    "search.n2.T3_5": "c2a05c69ec322cb8",
    "search.n2.T3_7": "2d0ebd5be5ddd563",
    "search.n2.T3_8": "30cf9d9357ec10a5",
    "search.n3.2,2,2": "be89e46f2e0ded48",
    "search.n3.2,2,2,2,2": "29e426a4dbba671b",
}


class WrongVerdict(Exception):
    """The program answered, but not with the known answer."""


class Refused(Exception):
    """The program declined a random plat: the disk sweep hit its state cap."""


SWEEP_CAP = re.compile(r"disk sweep for \S+ exceeded \d+ states per slice")


@dataclass(frozen=True)
class Item:
    id: str
    run: Callable[[Tracer], None]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongVerdict(what)


def expect_pin(key: str, text: str) -> None:
    got = digest(text)
    expect(PINS.get(key) == got, f"{key}: digest {got}, pinned {PINS.get(key)}")


# ---- set-up: the seeded inputs ----

def random_plats(lch: SimpleNamespace, seed: int) -> list[tuple[str, int]]:
    """Seeded plat words, RANDOM_PER_STRATUM per (strands, letters) pair.

    A draw whose closure build_front rejects as a link is redrawn; nothing
    else is filtered, so words that trip the disk sweep's cap stay in.
    """
    rng = random.Random(seed)
    out = []
    for strands in RANDOM_STRANDS:
        for length in RANDOM_LETTERS:
            for _ in range(RANDOM_PER_STRATUM):
                for _ in range(MAX_DRAWS):
                    word = ",".join(str(rng.randint(1, strands - 1))
                                    for _ in range(length))
                    try:
                        lch.plat.build_front(lch.plat.parse_plat(word, strands))
                    except ValueError:
                        continue
                    out.append((word, strands))
                    break
                else:
                    raise RuntimeError(f"no knot in {MAX_DRAWS} draws "
                                       f"({strands} strands, {length} letters)")
    return out


def prepare(lch: SimpleNamespace, root: Path, work: Path, workload: str,
            seed: int) -> SimpleNamespace:
    """Read the bundled files and make the workload's seeded inputs."""
    texts = {rel: (root / rel).read_text() for rel in BUNDLED}
    inp = SimpleNamespace(texts=texts, plats=[], k1_unit=None,
                          path=lambda rel: str(root / rel),
                          work=lambda name: str(work / name))
    if workload == "sweep":
        inp.plats = random_plats(lch, seed)
    elif workload == "certify":
        inp.k1_unit = lch.refdata.k1_unit_exprs()
        texts["neg/k2_quotient_altered.cert"] = replace_once(
            texts["certs/k2_quotient.cert"], "assert r_x11 = x11", "assert r_x11 = x12")
        texts["neg/m942_flipped.rep"] = flip_rep_bit(texts["reps/m9_42_dim2.rep"], "x10", 0)
        work.mkdir(parents=True, exist_ok=True)
        (work / "k2_tampered.dga").write_text(replace_once(
            texts["data/k2_appendixB.dga"], "d x2 = x1\n", "d x2 = x3\n"))
    return inp


def replace_once(text: str, old: str, new: str) -> str:
    if text.count(old) != 1:
        raise ValueError(f"expected exactly one {old!r}")
    return text.replace(old, new)


def flip_rep_bit(text: str, gen: str, bit: int) -> str:
    """The rep file with one bit of one generator's image flipped."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        head, _, bits = line.partition(" = ")
        if head == f"map {gen}":
            flipped = "1" if bits[bit] == "0" else "0"
            lines[i] = f"{head} = {bits[:bit]}{flipped}{bits[bit + 1:]}"
            return "\n".join(lines) + "\n"
    raise ValueError(f"no map line for {gen}")


# ---- shared steps ----

def front_of(tr: Tracer, lch, word: str, strands: int):
    plat = lch.plat
    return tr.call("plat.build_front", plat.build_front,
                   tr.call("plat.parse_plat", plat.parse_plat, word, strands))


def compute(tr: Tracer, lch, front, ring: str):
    g = tr.call("dga.compute_dga", lch.dga.compute_dga, front, ring)
    tr.count("dga.compute_dga.terms", sum(len(p.terms) for p in g.differential.values()))
    return g


def compute_or_refuse(tr: Tracer, lch, front, ring: str, key: Optional[str]):
    """compute(), where the sweep cap on a random plat (key None) is a refusal.

    The cap on a fixed item, whose answer is pinned, and any other exception,
    RecursionError included, stay errors that make the run incorrect.
    """
    try:
        return compute(tr, lch, front, ring)
    except RuntimeError as exc:
        if key is None and type(exc) is RuntimeError and SWEEP_CAP.fullmatch(str(exc)):
            raise Refused(str(exc)) from None
        raise


def search(tr: Tracer, lch, g, n: int, **kw):
    rho = tr.call(f"reps.search_matrix_rep.n{n}", lch.reps.search_matrix_rep, g, n, **kw)
    tr.count("reps.search_matrix_rep.found" if rho is not None
             else "reps.search_matrix_rep.inconclusive", 1)
    return rho


def augmentations(tr: Tracer, lch, g, graded: bool = False):
    found = tr.call("reps.find_augmentations", lch.reps.find_augmentations, g, graded=graded)
    tr.count("reps.find_augmentations.solutions", len(found))
    return found


def derive(tr: Tracer, derivation, p):
    tr.count("freealg.derive.terms", len(p.terms))
    return tr.call("freealg.derive", derivation, p)


def run_cli(tr: Tracer, lch, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = tr.call("cli.main", lch.cli.main, argv)
    return code, out.getvalue()


# ---- sweep: front -> DGA chain ----

def sweep_chain(tr: Tracer, lch, key: Optional[str], front, g2, tb=None) -> None:
    """Invariants, grading, ZT table, checks, round trips, graded augmentations.

    `key` names the pins of a fixed item; random items pass None and are
    checked by d^2 = 0, homogeneity and the round trips alone.
    """
    dga, F2, ZT = lch.dga, lch.freealg.F2, lch.freealg.ZT
    inv = tr.call("plat.classical_invariants", lch.plat.classical_invariants, front)
    table = tr.call("plat.maslov_grading", lch.plat.maslov_grading, front)
    gz = compute_or_refuse(tr, lch, front, ZT, key)
    for ring, g in ((F2, g2), (ZT, gz)):
        expect(tr.call("dga.check_d_squared", dga.check_d_squared, g) is None, f"d2 over {ring}")
        expect(tr.call("dga.check_homogeneous", dga.check_homogeneous, g) is None,
               f"homogeneity over {ring}")
        text = tr.call("dga.serialize", dga.serialize, g)
        back = tr.call("dga.deserialize", dga.deserialize, text)
        expect(back.presentation == g.presentation and back.differential == g.differential,
               f"round trip over {ring}")
        if key is not None:
            expect_pin(f"{key}.{ring}", text)
    found = augmentations(tr, lch, g2, graded=True)
    if key is not None:
        expect(tb is None or inv[0] == tb, f"tb = {inv[0]}, known {tb}")
        expect_pin(f"{key}.grading", f"{inv} {table.modulus} {sorted(table.grading.items())}")
        expect_pin(f"{key}.aug", repr(found))


def sweep_torus_item(lch, p: int, q: int) -> Item:
    def run(tr: Tracer) -> None:
        front, g2, _ = tr.call("dga.torus_dga", lch.dga.torus_dga, p, q)
        sweep_chain(tr, lch, f"torus.{p}_{q}", front, g2, tb=-p * q)
        d = g2.derivation()
        for name in g2.presentation.generators:
            expect(derive(tr, d, g2.d(name)).is_zero(), f"derive(d({name})) over F2")
    return Item(f"sweep.torus.{p}_{q}", run)


def sweep_plat_item(lch, key: Optional[str], word: str, strands: int, tb=None) -> Item:
    def run(tr: Tracer) -> None:
        front = front_of(tr, lch, word, strands)
        g2 = compute_or_refuse(tr, lch, front, lch.freealg.F2, key)
        sweep_chain(tr, lch, key, front, g2, tb)
    return Item(f"sweep.{key or 'plat.' + word + '/' + str(strands)}", run)


def sweep(lch, inp) -> list[Item]:
    ref = lch.refdata
    items = [sweep_torus_item(lch, p, q) for p, q in TORUS_LADDER]
    items += [
        sweep_plat_item(lch, "k1", ref.K1_WORD, ref.K1_STRANDS, tb=-1),
        sweep_plat_item(lch, "k2", ref.K2_WORD, ref.K2_STRANDS, tb=-1),
        sweep_plat_item(lch, "m942", ref.M942_WORD, ref.M942_STRANDS),
    ]
    items += [sweep_plat_item(lch, None, word, strands) for word, strands in inp.plats]
    return items


# ---- certify: replay every bundled artifact ----

def certify(lch, inp) -> list[Item]:
    dga, fa, chalg, reps, ref = lch.dga, lch.freealg, lch.chalg, lch.reps, lch.refdata
    F2, ZT = fa.F2, fa.ZT
    text = inp.texts
    items: list[Item] = []

    def item(name):
        def add(fn):
            items.append(Item(f"certify.{name}", fn))
            return fn
        return add

    def k1(tr):
        return compute(tr, lch, front_of(tr, lch, ref.K1_WORD, ref.K1_STRANDS), ZT)

    def k2(tr):
        return compute(tr, lch, front_of(tr, lch, ref.K2_WORD, ref.K2_STRANDS), F2)

    def m942(tr):
        return compute(tr, lch, front_of(tr, lch, ref.M942_WORD, ref.M942_STRANDS), F2)

    def replay(tr, g, name, ring):
        cert = tr.call("chalg.parse_certificate", chalg.parse_certificate, text[name], ring=ring)
        directives = tr.call("chalg.parse_cert_directives", chalg.parse_cert_directives,
                             text[name], ring=ring)
        rs = tr.call("chalg.char_algebra", chalg.char_algebra, g)
        rs = tr.call("chalg.adjoin_all", rs.adjoin_all, directives.assumptions)
        report = tr.call("chalg.verify_certificate", chalg.verify_certificate, rs, cert)
        tr.count("chalg.verify_certificate.steps", len(report.registered))
        return report

    @item("k1_table")
    def _(tr):
        bundled = tr.call("dga.deserialize", dga.deserialize, text["data/k1_appendixA.dga"])
        expect(tr.call("dga.check_d_squared", dga.check_d_squared, bundled) is None, "d2")
        expect(tr.call("dga.check_homogeneous", dga.check_homogeneous, bundled) is None,
               "homogeneity")
        ours = k1(tr)
        a = tr.call("dga.specialize_dga", dga.specialize_dga, ours)
        b = tr.call("dga.specialize_dga", dga.specialize_dga, bundled)
        expect(all(a.d(g) == b.d(g) for g in b.presentation.generators), "mod-2 match")
        witness = tr.call("dga.dga_diag_equivalent", dga.dga_diag_equivalent, ours, bundled)
        expect(witness is not None, "diagonal witness")

    @item("k2_table")
    def _(tr):
        bundled = tr.call("dga.deserialize", dga.deserialize, text["data/k2_appendixB.dga"])
        expect(tr.call("dga.check_d_squared", dga.check_d_squared, bundled) is None, "d2")
        expect(tr.call("dga.check_homogeneous", dga.check_homogeneous, bundled) is None,
               "homogeneity")
        ours = k2(tr)
        expect(ours.presentation == bundled.presentation
               and ours.differential == bundled.differential, "term-for-term match")

    @item("k1_unit")
    def _(tr):
        g = k1(tr)
        body = "\n".join(ln for ln in text["certs/k1_unit.expr"].splitlines()
                         if not ln.strip().startswith("#"))
        e = tr.call("freealg.parse", fa.parse, body, ZT)
        ex = inp.k1_unit
        expect(e == ex["e"], "k1_unit.expr is the reference element")
        d = g.derivation()
        expect(derive(tr, d, ex["a"]) == ex["b"], "d(a) = b")
        expect(derive(tr, d, ex["b"]).is_zero(), "d(b) = 0")
        expect(derive(tr, d, ex["c"]) == ex["dc"], "d(c) = dc")
        expect(derive(tr, d, e).is_one(), "d(e) = 1")
        expect(tr.call("chalg.verify_unit", chalg.verify_unit, g, e), "verify_unit")

    @item("k1_trivial")
    def _(tr):
        expect(replay(tr, k1(tr), "certs/k1_trivial.cert", ZT).ok, "k1_trivial replays")

    @item("k2_quotient")
    def _(tr):
        report = replay(tr, k2(tr), "certs/k2_quotient.cert", F2)
        expect(report.ok, "k2_quotient replays")
        expect(report.table["r_x11"] == tr.call("freealg.parse", fa.parse, "x11", F2),
               "x11 vanishes")

    @item("k2_norep")
    def _(tr):
        name = "certs/k2_norep.cert"
        cert = tr.call("chalg.parse_certificate", chalg.parse_certificate, text[name], ring=F2)
        w = tr.call("chalg.parse_cert_directives", chalg.parse_cert_directives,
                    text[name], ring=F2).witnesses
        rs = tr.call("chalg.char_algebra", chalg.char_algebra, k2(tr))
        verdict = tr.call("chalg.adjoin_and_derive", chalg.adjoin_and_derive,
                          rs, w["a"], w["b"], cert)
        tr.count("chalg.verify_certificate.steps", len(verdict.report.registered))
        expect(verdict.ok, "adjoining the inverse derives 0 = 1")

    @item("m942_rep")
    def _(tr):
        rho = tr.call("reps.deserialize_rep", reps.deserialize_rep, text["reps/m9_42_dim2.rep"])
        expect(tr.call("reps.verify_matrix_rep", reps.verify_matrix_rep, m942(tr), rho),
               "m(9_42) rep verifies")

    for p, q in ref.TORUS_ACCEPTANCE_PAIRS:
        @item(f"torus_rep.{p}_{q}")
        def _(tr, p=p, q=q):
            _, g, lab = tr.call("dga.torus_dga", dga.torus_dga, p, q)
            rho = tr.call("reps.torus_rep", reps.torus_rep, p, q, lab)
            expect(tr.call("reps.verify_matrix_rep", reps.verify_matrix_rep, g, rho),
                   f"T({p},-{q}) rep verifies")

    for n in R_SIZES:
        @item(f"R.N{n}")
        def _(tr, n=n):
            report = tr.call(f"reps.verify_R_relations.N{n}", reps.verify_R_relations, n)
            expect(report.ok and len(report.checks) == 7, f"operator model at N = {n}")

    @item("mat2")
    def _(tr):
        expect(tr.call("reps.mat2_presentation_check", reps.mat2_presentation_check),
               "2x2 matrix presentation")

    empties = {
        "k1": lambda tr: tr.call("dga.specialize_dga", dga.specialize_dga, k1(tr)),
        "k2": k2,
        "T3_4": lambda tr: tr.call("dga.torus_dga", dga.torus_dga, 3, 4)[1],
        "T3_5": lambda tr: tr.call("dga.torus_dga", dga.torus_dga, 3, 5)[1],
        "m942": m942,
    }
    for name, make in empties.items():
        @item(f"aug_empty.{name}")
        def _(tr, name=name, make=make):
            expect(augmentations(tr, lch, make(tr)) == [], f"{name} has no augmentation")

    @item("aug.trefoil")
    def _(tr):
        g = compute(tr, lch, front_of(tr, lch, "2,2,2", 4), F2)
        expect(len(augmentations(tr, lch, g)) == 20, "20 ungraded augmentations")
        expect(len(augmentations(tr, lch, g, graded=True)) == 5, "5 graded augmentations")

    # the README's verify and search aug commands, in-process
    readme = {
        "verify_d2": [["verify", "d2", "--dga", inp.path("data/k2_appendixB.dga")]],
        "verify_unit": [["verify", "unit", "--dga", inp.path("data/k1_appendixA.dga"),
                         "--element-file", inp.path("certs/k1_unit.expr")]],
        "verify_cert": [["verify", "cert", "--dga", inp.path("data/k2_appendixB.dga"),
                         "--cert", inp.path("certs/k2_quotient.cert")]],
        "verify_norep": [["verify", "norep", "--dga", inp.path("data/k2_appendixB.dga"),
                          "--cert", inp.path("certs/k2_norep.cert")]],
        "verify_rep": [["dga", ref.M942_WORD, "--strands", str(ref.M942_STRANDS),
                        "--out", inp.work("m942.dga")],
                       ["verify", "rep", "--dga", inp.work("m942.dga"),
                        "--rep", inp.path("reps/m9_42_dim2.rep")]],
        "verify_torus": [["verify", "torus", "--p", "3", "--q", "5"]],
        "verify_R": [["verify", "R", "--n", "256"]],
        "search_aug": [["torus-dga", "--p", "3", "--q", "4", "--out", inp.work("t34.dga")],
                       ["search", "aug", "--dga", inp.work("t34.dga")]],
    }
    for name, commands in readme.items():
        @item(f"cli.{name}")
        def _(tr, name=name, commands=commands):
            for k, argv in enumerate(commands):
                code, out = run_cli(tr, lch, argv)
                expect(code == 0, f"{' '.join(argv[:2])} exits {code}")
                expect_pin(f"cli.{name}.{k}", out)

    # negative controls: each must be reported as a failure
    @item("neg.R_corrupted_b")
    def _(tr):
        N = 256
        ops = dict(tr.call("reps.build_R_truncated", reps.build_R_truncated, N))
        rows = tuple(1 << (i + 1) if i + 1 < N else 0 for i in range(N))
        ops["b"] = reps.TruncatedOp(N, rows, 2, 2)
        report = tr.call("reps.check_R_relations", reps.check_R_relations, ops, N)
        expect(not report.ok, "corrupted b must fail")

    @item("neg.cert_assert_altered")
    def _(tr):
        expect(not replay(tr, k2(tr), "neg/k2_quotient_altered.cert", F2).ok,
               "altered assert must fail")

    @item("neg.rep_bit_flipped")
    def _(tr):
        rho = tr.call("reps.deserialize_rep", reps.deserialize_rep, text["neg/m942_flipped.rep"])
        expect(not tr.call("reps.verify_matrix_rep", reps.verify_matrix_rep, m942(tr), rho),
               "flipped bit must fail")

    @item("neg.cli_d2_tampered")
    def _(tr):
        code, out = run_cli(tr, lch, ["verify", "d2", "--dga", inp.work("k2_tampered.dga")])
        expect(code == 1 and out.startswith("FAILED d2("), f"tampered table exits {code}")

    return items


# ---- search: the matrix search kernel ----

def search_items(lch, inp) -> list[Item]:
    dga, reps, F2 = lch.dga, lch.reps, lch.freealg.F2
    items: list[Item] = []

    def found_item(key, make, n):
        def run(tr):
            g = make(tr)
            rho = search(tr, lch, g, n)
            expect(rho is not None, "a representation is found")
            expect(tr.call("reps.verify_matrix_rep", reps.verify_matrix_rep, g, rho),
                   "the hit verifies")
            expect_pin(key, tr.call("reps.serialize_rep", reps.serialize_rep, rho))
        items.append(Item(key, run))

    for q in SEARCH_N2:
        found_item(f"search.n2.T3_{q}",
                   lambda tr, q=q: tr.call("dga.torus_dga", dga.torus_dga, 3, q)[1], 2)
    for word in SEARCH_N3:
        found_item(f"search.n3.{word}",
                   lambda tr, word=word: compute(tr, lch, front_of(tr, lch, word, 4), F2), 3)

    def k2_budget(tr):
        ref = lch.refdata
        g = compute(tr, lch, front_of(tr, lch, ref.K2_WORD, ref.K2_STRANDS), F2)
        # k2_norep.cert rules out every finite-dimensional representation
        expect(search(tr, lch, g, 2, budget=K2_BUDGET) is None, "none within budget")
    items.append(Item("search.k2.budget", k2_budget))

    for q in AUG_EMPTY_T5:
        def aug(tr, q=q):
            g = tr.call("dga.torus_dga", dga.torus_dga, 5, q)[1]
            expect(augmentations(tr, lch, g) == [], f"T(5,-{q}) has no augmentation")
        items.append(Item(f"search.aug.T5_{q}", aug))
    return items


WORKLOADS = {"sweep": sweep, "certify": certify, "search": search_items}
