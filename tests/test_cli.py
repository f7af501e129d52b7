import numpy as np
import pytest

import gtool as gt
from gtool import serialize as ser
from gtool.cli import main
from gtool.corpus import build_family
from gtool.fm import ZGroupFM

from oracles import LOOPS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_cyclic(tmp_path, capsys):
    out = tmp_path / "c6.table"
    code, stdout, _ = run(capsys, "gen", "cyclic", "6", str(out))
    assert code == 0
    G = gt.load_cayley_file(out)
    assert G.n == 6
    # six rows plus the header
    assert len(out.read_text().splitlines()) == 7


@pytest.mark.parametrize("family, params, order", [
    ("cyclic", ["5"], 5), ("dihedral", ["4"], 8), ("abelian", ["2", "3"], 6),
    ("quaternion", [], 8), ("direct", ["q8", "c3"], 24),
    ("semidirect", ["7", "3", "2"], 21), ("symmetric", ["3"], 6),
    ("alternating", ["4"], 12)])
def test_gen_builds_every_family(tmp_path, capsys, family, params, order):
    out = tmp_path / "g.table"
    assert run(capsys, "gen", family, *params, str(out))[0] == 0
    assert gt.load_cayley_file(out).n == order
    # the table file reads back through the "file" family
    copy = tmp_path / "copy.table"
    assert run(capsys, "gen", "file", str(out), str(copy))[0] == 0
    assert copy.read_text() == out.read_text()


def test_gen_quaternion_matches_constructor(tmp_path, capsys):
    out = tmp_path / "q8.table"
    assert run(capsys, "gen", "quaternion", str(out))[0] == 0
    assert out.read_text() == gt.make_quaternion().dumps()


def test_gen_semidirect_order21(tmp_path, capsys):
    out = tmp_path / "g21.table"
    code, _, _ = run(capsys, "gen", "semidirect", "7", "3", "2", str(out))
    assert code == 0
    G = gt.load_cayley_file(out)
    assert G.n == 21


def test_build_rejects_a_loop_and_keeps_out(tmp_path, capsys):
    # Latin, with an identity and two-sided inverses, but not associative
    table = tmp_path / "loop5.table"
    table.write_text("5\n" + "".join(" ".join(map(str, r)) + "\n"
                                     for r in LOOPS[5]))
    good = tmp_path / "c5.table"
    run(capsys, "gen", "cyclic", "5", str(good))
    out = tmp_path / "c5.gta"
    assert run(capsys, "build", str(good), "block", str(out), "--delta", "1")[0] == 0
    before = out.read_bytes()
    code, _, err = run(capsys, "build", str(table), "block", str(out),
                       "--delta", "1")
    assert code == 2
    assert err == "precondition failure: (2*2)*3 = 3 but 2*(2*3) = 5\n"
    assert out.read_bytes() == before
    with pytest.raises(gt.ValidationError) as exc:
        gt.load_cayley_file(table)
    assert (exc.value.axiom, exc.value.witness) == ("associativity", (2, 2, 3))


def test_strict_flag_is_gone(tmp_path, capsys):
    table = tmp_path / "c5.table"
    assert run(capsys, "gen", "cyclic", "5", str(table))[0] == 0
    for argv in (("gen", "cyclic", "5", str(tmp_path / "x"), "--strict"),
                 ("build", str(table), "cyclic", str(tmp_path / "x"),
                  "--strict")):
        code, _, err = run(capsys, *argv)
        assert code == 1 and "--strict" in err, argv
    assert not (tmp_path / "x").exists()


def test_gen_refuses_orders_past_capacity(tmp_path, capsys):
    # numpy's _ArrayMemoryError ended this in a traceback and exit 1
    for argv, order in ((("cyclic", "100000"), 100000),
                        (("dihedral", "5000"), 10000),
                        (("abelian", "100", "100"), 10000)):
        code, stdout, err = run(capsys, "gen", *argv, str(tmp_path / "x"))
        assert (code, stdout) == (2, ""), argv
        assert err == (f"precondition failure: order {order} is past the "
                       "constructors' capacity of 8192\n"), argv
    assert not (tmp_path / "x").exists()


def test_gen_rejects_bad_params(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "cyclic", "zero", str(tmp_path / "x"))
    assert code == 1
    code, _, err = run(capsys, "gen", "semidirect", "7", "3", "3",
                       str(tmp_path / "x"))
    assert code == 2        # 3^3 != 1 mod 7: invalid action
    # a missing or extra parameter, or a family the parser does not list
    for argv in (("semidirect", "7", "3"), ("cyclic",), ("symmetric", "3.0"),
                 ("klein", "4"), ("cyclic", "5", "6"), ("quaternion", "2")):
        code, _, err = run(capsys, "gen", *argv, str(tmp_path / "x"))
        assert code == 1 and err.startswith("usage error"), argv
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("family, params, name", [
    ("direct", {"parts": ["c2.5"]}, "parts"),     # ValueError before
    ("direct", {"parts": []}, "parts"),           # IndexError before
    ("direct", {"parts": ["q8", "c"]}, "parts"),
    ("direct", {"parts": [5]}, "parts"),
    ("direct", {}, "parts"),
    ("cyclic", {}, "n"),                          # KeyError before
    ("semidirect", {"m": 7, "d": 3}, "a"),
    ("file", {}, "path"),
    ("klein", {"n": 4}, "family"),
    ("cyclic", None, "must be a dict"),           # TypeError before
    ("abelian", {"orders": 5}, "orders")])        # TypeError before
def test_build_family_names_the_bad_parameter(tmp_path, capsys, family,
                                              params, name):
    with pytest.raises(gt.ValidationError, match=name):
        build_family(family, params)
    # gen hands a direct product's parts to build_family as they are
    if family == "direct" and params.get("parts") is not None:
        out = tmp_path / "x"
        code, _, err = run(capsys, "gen", "direct", *map(str, params["parts"]),
                           str(out))
        assert code == 2 and "parts" in err and not out.exists()


def test_build_block_reports_slots(tmp_path, capsys):
    table = tmp_path / "c256.table"
    run(capsys, "gen", "cyclic", "256", str(table))
    art = tmp_path / "c256.block"
    code, stdout, _ = run(capsys, "build", str(table), "block",
                          str(art), "--delta", "1/2")
    assert code == 0
    line = stdout.strip().splitlines()[-1]
    fields = line.split(",")
    rep = ser.load(art)
    assert int(fields[3]) == 256 * (1 << rep.l_) * rep.m_ + 256 + 4
    # a delta that is not an exact rational is a malformed input
    for delta in ("abc", "1/0"):
        code, _, err = run(capsys, "build", str(table), "block",
                           str(tmp_path / "x.block"), "--delta", delta)
        assert code == 2 and "delta" in err, delta


def test_build_zgroup_on_klein_fails_with_reason(tmp_path, capsys):
    table = tmp_path / "v4.table"
    run(capsys, "gen", "abelian", "2", "2", str(table))
    code, _, err = run(capsys, "build", str(table), "zgroup",
                       str(tmp_path / "v4.z"))
    assert code == 2
    assert "Sylow 2-subgroup not cyclic" in err


def test_build_fm_zgroup_constant_slots(tmp_path, capsys):
    table = tmp_path / "s3.table"
    run(capsys, "gen", "symmetric", "3", str(table))
    code, stdout, _ = run(capsys, "build", str(table), "fm-zgroup",
                          str(tmp_path / "s3.fmz"))
    assert code == 0
    assert int(stdout.strip().splitlines()[-1].split(",")[3]) <= 80


def test_query_identity(tmp_path, capsys):
    table = tmp_path / "c6.table"
    run(capsys, "gen", "cyclic", "6", str(table))
    art = tmp_path / "c6.cyc"
    run(capsys, "build", str(table), "cyclic", str(art))
    code, stdout, _ = run(capsys, "query", str(art), "1", "4")
    assert code == 0 and stdout.strip() == "4"


def test_query_block_matches_oracle(tmp_path, capsys):
    table = tmp_path / "s4.table"
    run(capsys, "gen", "symmetric", "4", str(table))
    art = tmp_path / "s4.block"
    run(capsys, "build", str(table), "block", str(art), "--l", "2")
    G = gt.load_cayley_file(table)
    code, stdout, _ = run(capsys, "query", str(art), "7", "13", "--stats")
    assert code == 0
    assert int(stdout.splitlines()[0]) == G.mult(7, 13)
    assert "word_index=1" in stdout


def test_query_fm_prints_label(tmp_path, capsys):
    # the product, its label as the labeler gives it, and the reads of one
    # query, for every label scheme
    for group, kind, x, y, stats in (
            (gt.make_abelian([2, 4, 9]), "fm-abelian", 17, 50, "probes: 0"),
            (gt.make_direct(gt.make_quaternion(), gt.make_cyclic(3)),
             "fm-hamiltonian", 5, 22, "probes: 1 table=1"),
            (gt.make_cyclic(6), "fm-zgroup", 2, 3, "probes: 1 table=1"),
            (gt.make_alternating(4), "fm-semidirect", 7, 11,
             "probes: 4 backward=2 forward=2")):
        table, art = tmp_path / f"{kind}.table", tmp_path / f"{kind}.rep"
        group.dump(table)
        assert run(capsys, "build", str(table), kind, str(art))[0] == 0
        code, stdout, _ = run(capsys, "query", str(art), str(x), str(y),
                              "--stats")
        assert code == 0
        z = group.mult(x, y)
        label = ser.load(art).labeler_.label(z)
        assert stdout.splitlines() == [
            f"{z} label: {','.join(map(str, label))}", stats], kind


def test_verify_pass_and_corruption_detection(tmp_path, capsys):
    table = tmp_path / "s4.table"
    run(capsys, "gen", "symmetric", "4", str(table))
    art = tmp_path / "s4.block"
    run(capsys, "build", str(table), "block", str(art), "--l", "1")
    code, stdout, _ = run(capsys, "verify", str(art), str(table))
    assert code == 0 and stdout.startswith("pass")

    data = bytearray(art.read_bytes())
    data[-2] ^= 0x05                      # flip one multiplication slot
    bad = tmp_path / "bad.block"
    bad.write_bytes(bytes(data))
    code, stdout, err = run(capsys, "verify", str(bad), str(table))
    if code != 2:                         # load-time revalidation may catch it
        assert code == 3
        assert "got" in stdout and "want" in stdout


def test_verify_random_mode_seeded(tmp_path, capsys):
    table = tmp_path / "c100.table"
    run(capsys, "gen", "cyclic", "100", str(table))
    art = tmp_path / "c100.cyc"
    run(capsys, "build", str(table), "cyclic", str(art))
    code, stdout, _ = run(capsys, "verify", str(art), str(table),
                          "--mode", "random:5000", "--seed", "7")
    assert code == 0
    for mode in ("random:abc", "random:", "random:-5"):
        code, _, err = run(capsys, "verify", str(art), str(table),
                           "--mode", mode)
        assert code == 1 and err.startswith("usage error:"), mode
    for seed in ("-1", str(1 << 32)):       # outside numpy's seed range
        code, _, err = run(capsys, "verify", str(art), str(table),
                           "--mode", "random:10", "--seed", seed)
        assert code == 1 and err.startswith("usage error:"), seed
        assert "--seed" in err and "Traceback" not in err, seed
    assert run(capsys, "verify", str(art), str(table), "--mode", "random:10",
               "--seed", str((1 << 32) - 1))[0] == 0


def test_build_rejects_table_max_out_of_range(tmp_path, capsys):
    table = tmp_path / "c6.table"
    run(capsys, "gen", "cyclic", "6", str(table))
    out = tmp_path / "z.gta"
    for bad in ("-1", str(1 << 32)):
        code, _, err = run(capsys, "build", str(table), "fm-zgroup", str(out),
                           "--table-max", bad)
        assert code == 2 and "table_max" in err, bad
        assert "corrupt" not in err and not out.exists(), bad
    for ok in ("0", str((1 << 32) - 1)):
        assert run(capsys, "build", str(table), "fm-zgroup", str(out),
                   "--table-max", ok)[0] == 0
        assert ser.load(out).scheme_.table_max == int(ok)


def test_failed_build_keeps_the_artifact_at_out(tmp_path, capsys,
                                                monkeypatch):
    table = tmp_path / "c6.table"
    run(capsys, "gen", "cyclic", "6", str(table))
    out = tmp_path / "z.gta"
    assert run(capsys, "build", str(table), "fm-zgroup", str(out))[0] == 0
    good = out.read_bytes()
    fit = ZGroupFM.fit

    def fit_then_spoil(self, G):        # a store that the encoder rejects
        fit(self, G)
        self.scheme_.table_max = -1
        return self

    monkeypatch.setattr(ZGroupFM, "fit", fit_then_spoil)
    code, _, err = run(capsys, "build", str(table), "fm-zgroup", str(out))
    assert code == 2 and "table_max" in err
    assert out.read_bytes() == good


def test_verify_trivial_group(tmp_path, capsys):
    table = tmp_path / "c1.table"
    run(capsys, "gen", "cyclic", "1", str(table))
    art = tmp_path / "c1.block"
    run(capsys, "build", str(table), "block", str(art), "--l", "1")
    assert run(capsys, "verify", str(art), str(table))[0] == 0


def test_bench_csv_regimes(tmp_path, capsys):
    table = tmp_path / "c64.table"
    run(capsys, "gen", "cyclic", "64", str(table))
    out = tmp_path / "bench.csv"
    code, stdout, _ = run(capsys, "bench", str(table), str(out),
                          "--deltas", "1/6,1/3,1/2,1")
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta,l,m,slots,probes"
    block_rows = [ln.split(",") for ln in lines[1:] if ln[0].isdigit()
                  or "/" in ln.split(",")[0]]
    probes = [int(r[4]) for r in block_rows]
    slots = [int(r[3]) for r in block_rows]
    assert probes == sorted(probes, reverse=True)
    assert slots == sorted(slots)
    # the l = k row answers in a single multiplication-array probe
    assert probes[-1] == 1
    # applicable special rows are present
    assert any(ln.startswith("cyclic,") for ln in lines)
    assert any(ln.startswith("zgroup,") for ln in lines)
    code, _, err = run(capsys, "bench", str(table), str(out),
                       "--deltas", "1/2,1/x")
    assert code == 2 and "delta" in err
    # no delta at all is a usage error, and writes nothing
    for deltas in (",", "", ",,,"):
        fresh = tmp_path / "none.csv"
        code, stdout, err = run(capsys, "bench", str(table), str(fresh),
                                "--deltas", deltas)
        assert code == 1 and err.startswith("usage error") and not stdout
        assert "--deltas" in err and not fresh.exists()


def test_build_artifacts_byte_identical(tmp_path, capsys):
    table = tmp_path / "a4.table"
    run(capsys, "gen", "alternating", "4", str(table))
    a = tmp_path / "a.rep"
    b = tmp_path / "b.rep"
    run(capsys, "build", str(table), "composite", str(a))
    run(capsys, "build", str(table), "composite", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_io_error_exit_code(capsys):
    code, _, err = run(capsys, "gen", "cyclic", "6", "/nonexistent/dir/x")
    assert code == 4


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "build")
    assert code == 1


def test_mismatched_table_rejected(tmp_path, capsys):
    t6 = tmp_path / "c6.table"
    t8 = tmp_path / "c8.table"
    run(capsys, "gen", "cyclic", "6", str(t6))
    run(capsys, "gen", "cyclic", "8", str(t8))
    art = tmp_path / "c6.cyc"
    run(capsys, "build", str(t6), "cyclic", str(art))
    code, _, err = run(capsys, "verify", str(art), str(t8))
    assert code == 2
    # a table file that is not ASCII text is a parse error, not a crash
    bad = tmp_path / "bad.table"
    bad.write_bytes(b"2\n1 \xff\n2 1\n")
    code, _, err = run(capsys, "build", str(bad), "cyclic", str(art))
    assert code == 2 and "not ASCII" in err
    # so is an artifact whose header is corrupt: a composite with d = 0
    comp = tmp_path / "c6.cmp"
    run(capsys, "build", str(t6), "composite", str(comp))
    data = bytearray(comp.read_bytes())
    data[8:12] = bytes(4)
    comp.write_bytes(bytes(data))
    for argv in (("query", str(comp), "1", "2"),
                 ("verify", str(comp), str(t6))):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "corrupt artifact" in err
