import json

from coverlab import cli
from coverlab.formats import from_edge_list, from_graph6


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_stdout(capsys):
    code, out, _ = run(capsys, "gen", "sstar:3")
    assert code == 0
    assert from_edge_list(out).order == 7


def test_gen_g6_to_file(tmp_path, capsys):
    path = tmp_path / "g.g6"
    code, _, _ = run(capsys, "gen", "h3:2,3", "--format", "g6",
                     "--out", str(path))
    assert code == 0
    assert from_graph6(path.read_text()).order == 8


def test_gen_parse_error(capsys):
    code, _, err = run(capsys, "gen", "f9:4")
    assert code == 4
    assert "unknown graph family" in err


def test_solve_report(tmp_path, capsys):
    path = tmp_path / "k5.txt"
    run(capsys, "gen", "k:5", "--out", str(path))
    code, out, _ = run(capsys, "solve", str(path),
                       "--invariants", "inspc,inspp,ispc,ispp")
    assert code == 0
    report = json.loads(out)
    assert report["invariants"]["inspc"]["value"] == 3
    assert report["cross_checks"]["inspc<=inspp"] is True
    assert report["cross_checks"]["ispc<=ispp"] is True
    assert report["cross_checks"]["chi<=2*inspc"] is True


def test_solve_stilde(tmp_path, capsys):
    path = tmp_path / "s.txt"
    run(capsys, "gen", "stilde:4", "--out", str(path))
    code, out, _ = run(capsys, "solve", str(path), "--invariants", "inspp")
    assert code == 0
    assert json.loads(out)["invariants"]["inspp"]["value"] == 5


def test_solve_bad_invariant(tmp_path, capsys):
    path = tmp_path / "p.txt"
    run(capsys, "gen", "p:4", "--out", str(path))
    code, _, _ = run(capsys, "solve", str(path), "--invariants", "zeta")
    assert code == 4


def test_solve_format_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("not a graph\n")
    code, _, _ = run(capsys, "solve", str(path))
    assert code == 4


def test_solve_bad_graph6_order(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("~!!!\n")
    code, _, err = run(capsys, "solve", str(path), "--format", "g6")
    assert code == 4
    assert "bad graph6 character" in err


def test_check_free(tmp_path, capsys):
    p20 = tmp_path / "p20.txt"
    run(capsys, "gen", "p:20", "--out", str(p20))
    code, out, _ = run(capsys, "check-free", str(p20), "inspc:4")
    assert code == 0 and "free" in out
    k4 = tmp_path / "k4.txt"
    run(capsys, "gen", "k:4", "--out", str(k4))
    code, out, _ = run(capsys, "check-free", str(k4), "inspc:4")
    assert code == 2 and "not free" in out and "K_4" in out
    f4 = tmp_path / "f4.txt"
    run(capsys, "gen", "f4:4", "--out", str(f4))
    code, out, _ = run(capsys, "check-free", str(f4), "inspp:4")
    assert code == 2


def test_check_free_custom_family(tmp_path, capsys):
    c6 = tmp_path / "c6.txt"
    run(capsys, "gen", "c:6", "--out", str(c6))
    code, out, _ = run(capsys, "check-free", str(c6), "k:3+star:3")
    assert code == 0 and "free" in out


def test_check_order(capsys):
    code, out, _ = run(capsys, "check-order", "inspc:4", "inspc:5")
    assert code == 0 and "<=" in out
    code, out, _ = run(capsys, "check-order", "inspc:4", "inspc:4")
    assert code == 0 and "equivalent" in out


def test_characterize(capsys):
    code, out, _ = run(capsys, "characterize", "p:4", "--invariant", "inspc")
    assert code == 0 and out.strip() == "none"
    code, out, _ = run(capsys, "characterize",
                       "k:4+sstar:4+p:4", "--invariant", "insc")
    assert code == 0 and out.strip() == "4"


def test_construct(tmp_path, capsys):
    p40 = tmp_path / "p40.txt"
    run(capsys, "gen", "p:40", "--out", str(p40))
    out_path = tmp_path / "trace.json"
    code, _, _ = run(capsys, "construct", str(p40), "--mode", "cover",
                     "--n", "4", "--out", str(out_path))
    assert code == 0
    trace = json.loads(out_path.read_text())
    assert trace["intermediate"]["branch"] == "long"
    k5 = tmp_path / "k5.txt"
    run(capsys, "gen", "k:5", "--out", str(k5))
    code, _, err = run(capsys, "construct", str(k5), "--mode", "cover", "--n", "4")
    assert code == 2 and "K_4" in err


def test_convert_cover(tmp_path, capsys):
    k5 = tmp_path / "k5.txt"
    run(capsys, "gen", "k:5", "--out", str(k5))
    code, out, _ = run(capsys, "convert-cover", str(k5), "--to", "star",
                       "--n", "4")
    assert code == 0
    assert json.loads(out)["kind"] == "star"
    p9 = tmp_path / "p9.txt"
    run(capsys, "gen", "p:9", "--out", str(p9))
    code, _, _ = run(capsys, "convert-cover", str(p9), "--to", "star",
                     "--n", "4")
    assert code == 2  # a 9-vertex path piece cannot become stars at n=4


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "ramsey", "3", "4")
    assert code == 0 and "= 9" in out
    code, out, _ = run(capsys, "bounds", "constants", "4")
    assert code == 0 and "xi = 9" in out


def test_verify_suites_small(capsys):
    code, out, _ = run(capsys, "verify", "lemma41")
    assert code == 0 and out.endswith("\n39/39 checks passed\n")
    code, out, _ = run(capsys, "verify", "lemma42")
    assert code == 0 and out.endswith("\n30/30 checks passed\n")
    code, out, _ = run(capsys, "verify", "chains", "--count", "3")
    assert code == 0
    code, out, _ = run(capsys, "verify", "oracle", "--count", "5", "--seed", "9")
    assert code == 0


def test_verify_jobs(capsys):
    code, out, _ = run(capsys, "verify", "oracle", "--count", "6", "--jobs", "2")
    assert code == 0 and "6/6" in out
