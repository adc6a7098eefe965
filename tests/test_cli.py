import contextlib
import functools
import io
import json
import multiprocessing
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import coverlab
from coverlab import bounds, cli, formats, generators as gen, solvers, verify
from coverlab.formats import from_edge_list, from_graph6
from coverlab.graph import PieceKind


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


def test_check_free_out_file(tmp_path, capsys):
    k4 = tmp_path / "k4.txt"
    run(capsys, "gen", "k:4", "--out", str(k4))
    out_file = tmp_path / "verdict.txt"
    code, out, _ = run(capsys, "check-free", str(k4), "inspc:4",
                       "--out", str(out_file))
    assert code == 2 and out == ""
    assert out_file.read_text() == "not free: K_4 at [0, 1, 2, 3]\n"
    p20 = tmp_path / "p20.txt"
    run(capsys, "gen", "p:20", "--out", str(p20))
    code, out, _ = run(capsys, "check-free", str(p20), "inspc:4",
                       "--out", str(out_file))
    assert code == 0 and out == ""
    assert out_file.read_text() == "free\n"


@pytest.mark.parametrize("argv", [
    ["solve", "{g}", "--invariants", "inspc,insp"],
    ["construct", "{g}", "--mode", "cover", "--n", "4"],
    ["convert-cover", "{g}", "--to", "path", "--n", "4"],
    ["check-free", "{g}", "inspc:4"],
    ["gen", "c:6"],
], ids=lambda argv: argv[0])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv):
    graph = tmp_path / "p6.txt"
    run(capsys, "gen", "p:6", "--out", str(graph))
    argv = [arg.format(g=graph) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and err == ""
    out_file = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(out_file)) == (code, "", "")
    assert out_file.read_bytes() == out.encode()


@pytest.mark.parametrize("spec, argv", [
    ("p:6", ["solve", "{g}", "--invariants", ",".join(solvers.INVARIANT_SPECS)]),
    ("c:7", ["solve", "{g}", "--invariants", ",".join(solvers.INVARIANT_SPECS)]),
    ("star:4", ["convert-cover", "{g}", "--to", "star", "--n", "3"]),
    ("c:7", ["convert-cover", "{g}", "--to", "path", "--n", "4"]),
    ("c:12", ["construct", "{g}", "--mode", "cover", "--n", "4"]),
    ("c:12", ["construct", "{g}", "--mode", "partition", "--n", "4"]),
    ("p:200", ["construct", "{g}", "--mode", "cover", "--n", "4"]),
    ("p:200", ["construct", "{g}", "--mode", "partition", "--n", "5"]),
], ids=lambda x: x if isinstance(x, str) else " ".join(a for a in x if a != "{g}"))
def test_json_reports_equal_json_dumps(tmp_path, capsys, monkeypatch, spec, argv):
    # every JSON report goes through formats.to_json, which must write
    # json.dumps(..., sort_keys=True, indent=2) byte for byte
    graph = tmp_path / "g.txt"
    run(capsys, "gen", spec, "--out", str(graph))
    real, reports = formats.to_json, []

    def spy(obj):
        reports.append(obj)
        return real(obj)

    monkeypatch.setattr(formats, "to_json", spy)
    code, out, _ = run(capsys, *[arg.format(g=graph) for arg in argv])
    assert code == 0 and len(reports) == 1
    assert out == json.dumps(reports[0], sort_keys=True, indent=2) + "\n"
    if argv[0] == "construct":
        branch = "long" if spec == "p:200" else "small_diameter"
        assert reports[0]["intermediate"]["branch"] == branch


def test_solve_lists_the_maximal_paths_once_in_any_order(tmp_path, capsys, monkeypatch):
    # the cover runs first, so the partition reads the longest path off
    # the maximal paths instead of walking them again
    graph = tmp_path / "k40.txt"
    run(capsys, "gen", "complete:40", "--out", str(graph))
    real, calls = solvers._paths_at, []

    def counted(h, v, ring, maximal):
        calls.append((v, ring is None and maximal))
        return real(h, v, ring, maximal)

    monkeypatch.setattr(solvers, "_paths_at", counted)
    seen = []
    for order in ("inspp,inspc", "inspc,inspp"):
        calls.clear()
        code, out, _ = run(capsys, "solve", str(graph), "--invariants", order)
        assert code == 0
        assert [v for v, walk in calls if walk] == list(range(40))
        seen.append((out, len(calls)))
    assert seen[0] == seen[1]


def test_check_free_long_path(tmp_path, capsys):
    path = tmp_path / "p1200.txt"
    run(capsys, "gen", "p:1200", "--out", str(path))
    code, out, err = run(capsys, "check-free", str(path), "p:1100")
    assert code == 2 and err == ""
    assert out == f"not free: P_1100 at {list(range(1100))}\n"


def test_check_order(capsys):
    code, out, _ = run(capsys, "check-order", "inspc:4", "inspc:5")
    assert code == 0 and "<=" in out
    code, out, _ = run(capsys, "check-order", "inspc:4", "inspc:4")
    assert code == 0 and "equivalent" in out


def test_check_order_large_incomparable(capsys):
    code, out, _ = run(capsys, "check-order", "stilde:9", "sstar:8")
    assert code == 0 and out == "stilde:9 incomparable sstar:8\n"


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


def test_construct_partition(tmp_path, capsys):
    p40 = tmp_path / "p40.txt"
    run(capsys, "gen", "p:40", "--out", str(p40))
    code, out, err = run(capsys, "construct", str(p40), "--mode", "partition",
                         "--n", "4")
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    assert result["mode"] == "partition"
    cert = cli.solvers.PieceCertificate(
        PieceKind(result["kind"]), "partition",
        tuple(map(tuple, result["pieces"])), False, result["lower_bound"])
    assert cli.solvers.validate_certificate(gen.path(40), cert)


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
    k13 = tmp_path / "k13.txt"
    run(capsys, "gen", "star:3", "--out", str(k13))
    code, out, err = run(capsys, "convert-cover", str(k13), "--to", "path",
                         "--n", "3")
    assert (code, out) == (2, "")  # K_1,3 is the 3-leaf star itself
    assert err == ("error: star piece with 4 vertices in a graph meant "
                   "to have no induced 3-leaf star\n")


def test_solve_solves_each_named_invariant_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "c5.txt"
    run(capsys, "gen", "c:5", "--out", str(path))
    solved = []

    def counted(g, name, timeout, solve=cli.solvers.invariant_value):
        solved.append(name)
        return solve(g, name, timeout=timeout)

    monkeypatch.setattr(cli.solvers, "invariant_value", counted)
    code, out, _ = run(capsys, "solve", str(path), "--invariants",
                       "inspc,insp,inspc, insp")
    assert code == 0 and solved == ["inspc", "insp"]
    assert sorted(json.loads(out)["invariants"]) == ["insp", "inspc"]


def test_solve_validates_a_timed_out_certificate(monkeypatch, capsys):
    # a cover of P_5 that misses three vertices, returned as if timed out
    def invalid(g, name, timeout):
        return cli.solvers.PieceCertificate(PieceKind.PATH, "cover", ((0, 1),),
                                            False, 1)
    monkeypatch.setattr(cli.solvers, "invariant_value", invalid)
    monkeypatch.setattr("sys.stdin", io.StringIO("p 5\n0 1\n1 2\n2 3\n3 4\n"))
    code, out, err = run(capsys, "solve", "-", "--invariants", "inpc")
    assert code == 2 and out == ""
    assert err == "error: inpc: certificate failed validation\n"


def test_solve_timed_out_answer_exits_3(tmp_path, capsys):
    path = tmp_path / "g7.txt"
    g = gen.random_connected(7, 0.4, random.Random(11))
    path.write_text(formats.write_graph(g, "edges"))
    code, out, err = run(capsys, "solve", str(path), "--invariants", "inpp",
                         "--timeout", "0")
    assert code == 3 and err == ""
    got = json.loads(out)["invariants"]["inpp"]
    assert (got["value"], got["optimal"], got["lower_bound"]) == (4, False, 2)
    cert = cli.solvers.PieceCertificate(
        PieceKind.PATH, "partition", tuple(map(tuple, got["pieces"])), False, 2)
    assert cli.solvers.validate_certificate(g, cert)


def test_solve_failed_cross_check_exits_2(monkeypatch, capsys):
    # a redundant singleton still makes a valid cover, one piece too many;
    # claimed as exact, its lower bound lies above insc's value
    def padded(g, name, timeout, solve=cli.solvers.invariant_value):
        cert = solve(g, name, timeout=timeout)
        if name == "inspc":
            cert = cert._replace(pieces=cert.pieces + ((0,),),
                                 lower_bound=cert.lower_bound + 1)
        return cert

    monkeypatch.setattr(cli.solvers, "invariant_value", padded)
    monkeypatch.setattr("sys.stdin", io.StringIO("p 4\n0 1\n0 2\n0 3\n"))
    code, out, err = run(capsys, "solve", "-", "--invariants", "inspc,insc")
    assert code == 2 and err == ""
    checks = json.loads(out)["cross_checks"]
    assert checks == {"inspc<=insc": False, "chi<=2*inspc": True, "chi": 2}


def _cert(name, value, lower_bound):
    kind, mode = solvers.INVARIANT_SPECS[name]
    return solvers.PieceCertificate(kind, mode, ((0,),) * value,
                                    value == lower_bound, lower_bound)


@pytest.mark.parametrize("lo, hi, holds", [
    ((7, 6), (6, 6), True),    # a timed-out lo above an exact hi: only a bound
    ((7, 7), (6, 6), False),   # lo's lower bound above hi's value
    ((7, 7), (8, 6), True),    # a timed-out hi whose value is above lo's
    ((9, 8), (7, 5), False),   # both timed out, and the bounds contradict
], ids=["lo-timed-out", "exact", "hi-timed-out", "both-timed-out"])
def test_cross_check_fails_only_when_the_numbers_contradict_it(lo, hi, holds):
    certs = {"insc": _cert("insc", *lo), "insp": _cert("insp", *hi)}
    assert verify.cross_checks(gen.path(3), certs) == ({"insc<=insp": holds}, None)


def test_cross_check_after_a_timeout_still_exits_3(monkeypatch, capsys):
    # at no time at all insc stops at 7 (bound 6) and insp is exact at 6
    g = gen.generate("f5:7")
    monkeypatch.setattr("sys.stdin", io.StringIO(formats.write_graph(g, "edges")))
    code, out, err = run(capsys, "solve", "-", "--invariants", "insc,insp",
                         "--timeout", "0")
    assert code == 3 and err == ""
    report = json.loads(out)
    got = {name: (cert["value"], cert["lower_bound"], cert["optimal"])
           for name, cert in report["invariants"].items()}
    assert got == {"insc": (7, 6, False), "insp": (6, 6, True)}
    assert report["cross_checks"] == {"insc<=insp": True}


@pytest.mark.parametrize("command", ["solve", "convert-cover"])
def test_timeout_zero_is_valid(monkeypatch, capsys, command):
    monkeypatch.setattr("sys.stdin", io.StringIO("p 5\n0 1\n1 2\n2 3\n3 4\n"))
    extra = ["--to", "path", "--n", "5"] if command == "convert-cover" else []
    code, out, err = run(capsys, command, "-", *extra, "--timeout", "0")
    assert code in (0, 3) and err == ""
    assert json.loads(out)


def test_unbuildable_edge_list_names_the_error(monkeypatch, capsys):
    # a MemoryError has no text: the message gives its type instead
    def no_memory(*args):
        raise MemoryError()

    monkeypatch.setattr("coverlab.formats.build_graph", no_memory)
    monkeypatch.setattr("sys.stdin", io.StringIO("p 1000000000000000\n"))
    code, out, err = run(capsys, "solve", "-")
    assert (code, out, err) == (4, "", "error: MemoryError\n")


@pytest.mark.parametrize("table", ['{"3,3": ', '{"3": 6}', '[6]', '{"3,3": 6.5}',
                                   '{"3,0": 6}', '{"3,3": "6"}'])
@pytest.mark.parametrize("command", ["construct", "bounds"])
def test_malformed_table_exits_4(tmp_path, monkeypatch, capsys, table, command):
    p40, bad = tmp_path / "p40.txt", tmp_path / "table.json"
    run(capsys, "gen", "p:40", "--out", str(p40))
    bad.write_text(table)
    monkeypatch.setenv(bounds.TABLE_ENV_VAR, str(bad))
    # a value found by search in an earlier test would skip the table
    monkeypatch.setattr(bounds, "_search_cache", {})
    argv = {"construct": ("construct", str(p40), "--mode", "cover", "--n", "4"),
            "bounds": ("bounds", "ramsey", "3", "4")}[command]
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert err.startswith(f"error: Ramsey table {bad}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_refuted_table_entry_exits_4(tmp_path, monkeypatch, capsys):
    table = tmp_path / "table.json"
    table.write_text('{"3,4": 5}')
    monkeypatch.setenv(bounds.TABLE_ENV_VAR, str(table))
    monkeypatch.setattr(bounds, "_search_cache", {})
    # the search finds (K_3, I_4)-free graphs up to order 6, so R(3,4) > 6
    refuted = (f'error: Ramsey table {table}: entry "3,4": 5 is refuted: '
               'the search to order 6 found R(3,4) > 6\n')
    for argv in (("bounds", "ramsey", "3", "4", "--search-order", "6"),
                 ("bounds", "constants", "4")):
        assert run(capsys, *argv) == (4, "", refuted)
    # an entry above the search order is not searched
    assert (run(capsys, "bounds", "ramsey", "3", "4", "--search-order", "4")
            == (0, "R(3,4) = 5 [table_exact]\n", ""))



@pytest.mark.parametrize("entry", (5, 7))
def test_table_entry_the_search_contradicts_exits_4(tmp_path, monkeypatch,
                                                    capsys, entry):
    table = tmp_path / "table.json"
    table.write_text(f'{{"3,3": {entry}}}')
    monkeypatch.setenv(bounds.TABLE_ENV_VAR, str(table))
    monkeypatch.setattr(bounds, "_search_cache", {})
    refuted = (f'error: Ramsey table {table}: entry "3,3": {entry} is refuted: '
               'the search to order 7 found R(3,3) = 6\n')
    for _ in range(2):
        assert (run(capsys, "bounds", "ramsey", "3", "3", "--search-order", "7")
                == (4, "", refuted))


def test_built_in_table_entry_the_search_confirms_is_exact(monkeypatch, capsys):
    monkeypatch.delenv(bounds.TABLE_ENV_VAR, raising=False)
    monkeypatch.setattr(bounds, "_search_cache", {})
    assert (run(capsys, "bounds", "ramsey", "3", "4", "--search-order", "9")
            == (0, "R(3,4) = 9 [exact]\n", ""))

def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "ramsey", "3", "4")
    assert code == 0 and "= 9" in out
    code, out, _ = run(capsys, "bounds", "constants", "4")
    assert code == 0 and "xi = 9" in out


@pytest.mark.parametrize("n", ["4", "5"])
def test_bounds_constants_match_the_benchmark_pins(capsys, n):
    pins = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "pins"
    want = json.loads((pins / "verify.json").read_text())["constants"][n]
    assert run(capsys, "bounds", "constants", n) == (0, "\n".join(want) + "\n", "")


def test_bounds_constants_print_xi_past_the_int_to_text_limit(capsys):
    # xi_90 has 4,530 digits, more than Python's default limit of 4,300
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, _ = run(capsys, "bounds", "constants", "90")
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    digits, status = dict(line.split(" = ", 1) for line in out.splitlines())["xi"].split()
    value = bounds.xi_value(90, 88).value
    assert code == 0 and status == "[upper_bound_only]" and len(digits) == 4530
    assert digits[:50] == str(value // 10 ** 4480)
    assert digits[-50:] == str(value % 10 ** 50).zfill(50)
    code, out, _ = run(capsys, "bounds", "constants", "90", "--max-digits", "1000")
    assert code == 0 and "xi = <not materialized> [upper_bound_only] " \
        "(exceeds 1000-digit budget)\n" in out


@pytest.mark.parametrize("n", ["40", "3000"])
def test_bounds_constants_materialize_no_number_over_the_budget(capsys, n):
    # nu, and the lead term (n-1)^2 * nu of c_inspc, obey --max-digits too
    code, out, _ = run(capsys, "bounds", "constants", n, "--max-digits", "10")
    assert code == 0 and "nu = <not materialized>" in out
    assert max(int(x).bit_length() for x in re.findall(r"\d+", out)) <= 40


def test_bounds_constants_skip_an_xi_far_over_budget(capsys):
    start = time.monotonic()
    code, out, _ = run(capsys, "bounds", "constants", "3000")
    assert code == 0 and time.monotonic() - start < 1
    assert "xi = <not materialized>" in out


def test_verify_suites_small(capsys):
    code, out, _ = run(capsys, "verify", "lemma41")
    assert code == 0 and out.endswith("\n39/39 checks passed\n")
    code, out, _ = run(capsys, "verify", "lemma42")
    assert code == 0 and out.endswith("\n30/30 checks passed\n")
    code, out, _ = run(capsys, "verify", "chains", "--count", "3")
    assert code == 0
    code, out, _ = run(capsys, "verify", "oracle", "--count", "5", "--seed", "9")
    assert code == 0


def test_a_wrong_partition_solver_fails_the_oracle_suite(monkeypatch, capsys):
    min_partition = verify.solvers.min_partition

    def one_piece_too_many(g, kind, *args):
        cert = min_partition(g, kind, *args)
        return cert._replace(pieces=cert.pieces + cert.pieces[:1])

    monkeypatch.setattr(verify.solvers, "min_partition", one_piece_too_many)
    code, out, _ = run(capsys, "verify", "oracle", "--count", "2")
    assert code == 2 and out.count("FAIL oracle(seed=") == 2
    assert out.endswith("\n0/2 checks passed\n")


def test_a_broken_chain_inequality_fails_the_chains_suite(monkeypatch, capsys):
    invariant_value = verify.solvers.invariant_value

    def no_star_cover(g, name, *args):
        # insc = 0 breaks inspc <= insc and no other CHAIN_PAIRS inequality
        cert = invariant_value(g, name, *args)
        return cert._replace(pieces=()) if name == "insc" else cert

    monkeypatch.setattr(verify.solvers, "invariant_value", no_star_cover)
    code, out, _ = run(capsys, "verify", "chains", "--count", "2")
    assert code == 2 and out.count("FAIL chains(seed=") == 2
    assert out.endswith("\n0/2 checks passed\n")


@pytest.mark.parametrize("count", ["0", "-2"])
def test_verify_count_below_one(capsys, count):
    code, out, err = run(capsys, "verify", "oracle", "--count", count)
    assert code == 4 and out == ""
    assert "--count must be at least 1" in err


def test_solve_too_deep_exits_5(tmp_path, monkeypatch, capsys):
    # 1100 singletons: the bound 1100 meets the first solution, so the
    # search proves it optimal at the root
    path = tmp_path / "kbar.txt"
    run(capsys, "gen", "kbar:1100", "--out", str(path))
    code, out, _ = run(capsys, "solve", str(path), "--invariants", "inspc")
    assert code == 0
    report = json.loads(out)["invariants"]["inspc"]
    assert (report["value"], report["optimal"]) == (1100, True)
    # K_1,1100 and 1100 isolated vertices: each component is searched on
    # its own, and the search keeps its open nodes on a list, so it answers
    path = tmp_path / "star_and_kbar.txt"
    path.write_text("p 2201\n" + "".join(f"0 {i}\n" for i in range(1, 1101)))
    code, out, _ = run(capsys, "solve", str(path), "--invariants", "insp")
    assert code == 0
    report = json.loads(out)["invariants"]["insp"]
    assert (report["value"], report["optimal"]) == (1101, True)

    # a solver that still runs out of recursion depth exits 5, with one
    # error line and no traceback
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli.solvers, "invariant_value", too_deep)
    code, out, err = run(capsys, "solve", str(path), "--invariants", "insp")
    assert code == 5 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_out_of_memory_exits_5(monkeypatch, capsys):
    def no_memory(spec):
        raise MemoryError()

    monkeypatch.setattr(cli.gen, "generate", no_memory)
    code, out, err = run(capsys, "gen", "k:100000000000000")
    assert (code, out, err) == (5, "", "error: MemoryError\n")


def test_solve_large_star_partition_from_stdin(monkeypatch, capsys):
    # `coverlab gen star:1100 | coverlab solve - --invariants insp,insc`;
    # insc's maximal stars come from a Bron-Kerbosch run 1100 leaves deep
    code, graph, _ = run(capsys, "gen", "star:1100")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(graph))
    code, out, err = run(capsys, "solve", "-", "--invariants", "insp,insc")
    assert code == 0 and err == ""
    for name in ("insp", "insc"):
        report = json.loads(out)["invariants"][name]
        assert (report["value"], report["optimal"]) == (1, True), name


def test_verify_jobs(capsys):
    code, out, _ = run(capsys, "verify", "oracle", "--count", "6", "--jobs", "2")
    assert code == 0 and "6/6" in out


def test_verify_pool_has_no_more_workers_than_cases_or_cpus(monkeypatch, capsys):
    started = []

    class InlinePool:
        """Notes its size and runs the cases here: no process starts."""

        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, cases):
            return [fn(*case) for case in cases]

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    code, out, _ = run(capsys, "verify", "oracle", "--count", "4",
                       "--jobs", "100000")
    assert code == 0 and out.endswith("\n4/4 checks passed\n")
    assert started == [4]
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert verify.seeded("chains", 5, 6, 100_000) == verify.seeded("chains", 5, 6)
    assert started == [4, 3]
    for cpus in (1, None):  # one CPU: no pool
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert len(verify.seeded("chains", 0, 2, 8)) == 2
    assert started == [4, 3]


def test_verify_jobs_below_one(capsys):
    for jobs in ("0", "-1"):
        code, out, err = run(capsys, "verify", "chains", "--count", "1",
                             "--jobs", jobs)
        assert code == 4 and out == ""
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"


@pytest.mark.parametrize("command", ["solve", "convert-cover"])
@pytest.mark.parametrize("timeout", ["nan", "inf", "-inf", "abc"])
def test_timeout_must_be_finite(tmp_path, capsys, command, timeout):
    path = tmp_path / "p4.txt"
    run(capsys, "gen", "p:4", "--out", str(path))
    extra = ["--to", "star", "--n", "4"] if command == "convert-cover" else []
    code, out, err = run(capsys, command, str(path), *extra,
                         f"--timeout={timeout}")
    assert code == 4 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["bounds", "ramsey", "0", "0"], "Ramsey arguments must be positive"),
    (["bounds", "ramsey", "3", "-2"], "Ramsey arguments must be positive"),
    (["bounds", "constants", "-1"], "n >= 4 required"),
    (["bounds", "ramsey", "3"], "bounds ramsey needs two arguments"),
    (["solve", "g.txt", "--timeout", "abc"],
     "argument --timeout: invalid float value: 'abc'"),
    (["solve", "g.txt", "--bogus"], "unrecognized arguments: --bogus"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
    (["bounds", "constants", "4", "--max-digits", "-3"],
     "max_digits >= 1 required, got -3"),
    (["bounds", "constants", "4", "--max-digits", "0"],
     "max_digits >= 1 required, got 0"),
    (["bounds", "constants", "4", "--c-chi", "-1"], "c_chi >= 0 required, got -1"),
    (["convert-cover", "-", "--to", "path", "--n", "-2"], "n >= 1 required, got -2"),
    (["convert-cover", "-", "--to", "star", "--n", "0"], "n >= 1 required, got 0"),
    (["solve", "-", "--invariants", "inpc", "--timeout", "-1"],
     "--timeout must be a finite number >= 0, got -1.0"),
    (["convert-cover", "-", "--to", "star", "--n", "4", "--timeout", "-0.5"],
     "--timeout must be a finite number >= 0, got -0.5"),
    (["bounds", "ramsey", "3", "4", "--search-order", "-1"],
     "max_search_order >= 0 required, got -1"),
    (["bounds", "constants", "4", "7"], "bounds constants takes one argument"),
    (["check-free", "-", "inspc:x"], "bad target family spec 'inspc:x'"),
    (["gen", "complete:0"], "complete: n >= 1 required"),
    (["gen", "empty:0"], "empty: n >= 1 required"),
    (["gen", "path:0"], "path: n >= 1 required"),
    (["gen", "stilde:1"], "stilde: n >= 2 required"),
    (["gen", "f1:1"], "f1: n >= 2 required"),
    (["gen", "kstar:0"], "kstar: n >= 1 required"),
    (["construct", "-", "--mode", "cover", "--n", "3"], "n >= 4 required"),
    (["construct", "-", "--mode", "partition", "--n", "4", "--root", "99"],
     "root out of range"),
])
def test_argument_and_parameter_errors_exit_4(monkeypatch, capsys, argv, message):
    # a command that reads a graph reads P_5 from stdin
    monkeypatch.setattr("sys.stdin", io.StringIO("p 5\n0 1\n1 2\n2 3\n3 4\n"))
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("n", ["0", "-2"])
def test_convert_cover_checks_n_before_the_solve(monkeypatch, capsys, n):
    def no_solve(*args, **kwargs):
        raise AssertionError("min_cover ran before --n was checked")
    monkeypatch.setattr(cli.solvers, "min_cover", no_solve)
    monkeypatch.setattr("sys.stdin", io.StringIO("p 5\n0 1\n1 2\n2 3\n3 4\n"))
    code, out, err = run(capsys, "convert-cover", "-", "--to", "path", "--n", n)
    assert code == 4 and out == ""
    assert err == f"error: n >= 1 required, got {n}\n"


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_help_same_from_one_command_parser(capsys, command):
    with pytest.raises(SystemExit) as full:
        cli.build_parser().parse_args([command, "--help"])
    expected = capsys.readouterr().out
    with pytest.raises(SystemExit) as one:  # main's parser has `command` alone
        cli.main([command, "--help"])
    assert full.value.code == one.value.code == 0
    assert capsys.readouterr().out == expected
    assert expected.startswith(f"usage: coverlab {command} ")


def test_main_builds_each_parser_once(tmp_path, monkeypatch, capsys):
    built, build = [], cli.build_parser

    def counting(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "_parser", functools.cache(counting))
    path = tmp_path / "p4.txt"
    path.write_text("p 4\n0 1\n1 2\n2 3\n")
    for argv in (["solve", str(path)], ["solve", str(path), "--invariants", "insp"],
                 ["gen", "p:3"]):
        assert run(capsys, *argv)[0] == 0
    assert built == ["solve", "gen"]


def test_kept_parser_unchanged_by_errors_and_help(tmp_path, capsys):
    path = tmp_path / "c5.txt"
    path.write_text("p 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    argv = ["solve", str(path), "--invariants", "inpp,inspc"]
    src = os.path.dirname(os.path.dirname(coverlab.__file__))
    fresh = subprocess.run([sys.executable, "-m", "coverlab.cli", *argv],
                           env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, check=True)
    code, out, err = run(capsys, "solve", str(path), "--timeout", "abc")
    assert code == 4 and out == ""
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == fresh.stdout


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert text == cli.build_parser().format_help()
    assert "{" + ",".join(cli.COMMANDS) + "}" in text


def test_import_leaves_out_multiprocessing():
    src = os.path.dirname(os.path.dirname(coverlab.__file__))
    probe = "import sys, coverlab.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


# argv drawn from fixed fragments; {graph}, {g6} and {out} are small files,
# and --count, --jobs and the graphs keep every call to milliseconds
_NUMBERS = ("-2", "-1", "0", "1", "3", "nan", "inf", "abc")
_AT_MOST_2 = ("-2", "-1", "0", "1", "2", "nan", "inf", "abc")
_WORDS = (*cli.COMMANDS, "bogus", "{graph}", "{g6}", "ramsey", "constants",
          "lemma41", "lemma42", "theorems", "chains", "oracle", "inspc", "insp",
          "ispp", "--bogus", "-z", "-h", "--n", "--timeout")
_SPECS = st.builds("{}:{}".format,
                   st.sampled_from(("inspc", "inpp", "p", "k", "star", "sstar")),
                   st.sampled_from(_NUMBERS))
_OPTIONS = st.one_of(
    st.tuples(st.sampled_from(("--timeout", "--n", "--root", "--seed",
                               "--search-order", "--max-digits", "--c-chi")),
              st.sampled_from(_NUMBERS)),
    st.tuples(st.sampled_from(("--count", "--jobs")), st.sampled_from(_AT_MOST_2)),
    st.tuples(st.just("--mode"), st.sampled_from(("cover", "partition", "x"))),
    st.tuples(st.just("--to"), st.sampled_from(("star", "path", "x"))),
    st.tuples(st.sampled_from(("--invariant", "--invariants")),
              st.sampled_from(("inspc", "insp", "ispp", "inspc,inpp", "zeta"))),
    st.tuples(st.just("--format"), st.sampled_from(("g6", "edges", "x"))),
    st.tuples(st.just("--out"), st.sampled_from(("{out}", "-"))),
)
_FRAGMENTS = st.one_of(st.sampled_from(_WORDS).map(lambda w: (w,)),
                       _SPECS.map(lambda s: (s,)),
                       st.sampled_from(_NUMBERS).map(lambda n: (n,)), _OPTIONS)
# put first, so that a drawn value overrides them
_SAFE = {"solve": ("--timeout", "0.05"), "convert-cover": ("--timeout", "0.05"),
         "verify": ("--count", "1")}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    (root / "p5.txt").write_text("p 5\n0 1\n1 2\n2 3\n3 4\n")
    (root / "c4.g6").write_text("Cl\n")
    return {"{graph}": str(root / "p5.txt"), "{g6}": str(root / "c4.g6"),
            "{out}": str(root / "out.txt")}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(head=st.sampled_from((*cli.COMMANDS, "bogus", "--bogus", "-h")),
       fragments=st.lists(_FRAGMENTS, max_size=6))
def test_any_argv_exits_with_a_documented_code(cli_files, head, fragments):
    argv = [head, *_SAFE.get(head, ()), *(w for f in fragments for w in f)]
    argv = [cli_files.get(word, word) for word in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    err = err.getvalue()
    assert code in (0, 2, 3, 4, 5), (argv, code, err)
    assert "Traceback" not in err
    if code == 4:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
