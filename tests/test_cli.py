import hashlib
import json
import tracemalloc

import pytest

from conftest import c4_example, cospan_example, path_example
from limsolve import CSetCoDecomposition, FinCat, jsonio
from limsolve.cli import main
from limsolve.generate import cycle_graph, lift_to_terminal_cset


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(jsonio.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_solve_c4_empty(tmp_path, capsys):
    path = write(tmp_path, "c4.json", jsonio.diagram_to_json(c4_example()))
    code, out, _ = run(capsys, ["solve", path])
    assert code == 0
    assert out[-1] == "EMPTY"
    report = dict(line.split("=", 1) for line in out[:-1])
    assert report["n"] == "4" and report["w"] == "2"
    assert report["k"] == "1" and report["section_tests"] == "2"


def test_solve_path_with_witness(tmp_path, capsys):
    path = write(tmp_path, "path.json", jsonio.diagram_to_json(path_example()))
    code, out, _ = run(capsys, ["solve", path, "--witness"])
    assert code == 1
    assert out[-1] == "NONEMPTY"
    report = dict(line.split("=", 1) for line in out[:-1])
    assert report["witness_vertices"] == "c,β,r"
    assert report["witness_edges"] == "y,v"


def test_solve_malformed_legs(tmp_path, capsys):
    doc = jsonio.diagram_to_json(cospan_example())
    doc["legs"] = doc["legs"][:1]
    path = write(tmp_path, "bad.json", doc)
    code, _, err = run(capsys, ["solve", path])
    assert code == 2
    assert "error:" in err and "leg" in err


def test_solve_deterministic_is_byte_identical(tmp_path, capsys):
    path = write(tmp_path, "c4.json", jsonio.diagram_to_json(c4_example()))
    _, out1, _ = run(capsys, ["solve", path, "--deterministic", "--witness"])
    _, out2, _ = run(capsys, ["solve", path, "--deterministic", "--witness"])
    assert out1 == out2
    assert not any(line.startswith("time_ms") for line in out1)


def test_solve_supplied_fvs(tmp_path, capsys):
    path = write(tmp_path, "c4.json", jsonio.diagram_to_json(c4_example()))
    code, out, _ = run(capsys, ["solve", path, "--fvs", "2"])
    assert code == 0 and out[-1] == "EMPTY"
    code, _, err = run(capsys, ["solve", path, "--fvs", ""])
    assert code == 2 and "feedback vertex set" in err
    # tokens are ASCII decimal digits: int() would read "1_0" as 10, and
    # "+0" and the Arabic-Indic zero as 0
    for token in ("1_0", "+0", "٠", "-1", "2.0", "0x2", "2 3"):
        code, out, err = run(capsys, ["solve", path, "--fvs", f"0,{token}"])
        assert code == 2 and out == []
        assert err == f"error: --fvs token {token!r} is not a vertex id\n"
    # longer than any vertex id: refused by name, not echoed, and never
    # reaching int()'s 4300-digit limit
    for digits in (4000, 5000):
        code, out, err = run(capsys, ["solve", path, "--fvs", "9" * digits])
        assert code == 2 and out == []
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--fvs" in err and len(err.encode()) < 200
    # leading zeros count towards no limit: int() refused these 5000
    for token in ("0002", "0" * 4999 + "2", "0" * 5000):
        code, out, _ = run(capsys, ["solve", path, "--fvs", token])
        assert code == 0 and out[-1] == "EMPTY"
    code, out, _ = run(capsys, ["solve", path, "--fvs", " 2 ,"])
    assert code == 0 and out[-1] == "EMPTY"
    # a forest is recognised without the FVS search, which checks the
    # budget, so the budget is checked on that path too
    forest = write(tmp_path, "path.json",
                   jsonio.diagram_to_json(path_example()))
    for diagram in (path, forest):
        code, out, err = run(capsys, ["solve", diagram, "--fvs-max", "-1"])
        assert code == 2 and out == []
        assert err == "error: k_max must be >= 0\n"


def _huge_edge_set(doc):
    # 1-entry legs into 10^7 edge elements: per-edge hit lists of that size
    doc["edge_sets"] = [{"size": 10 ** 7}]
    doc["legs"][1]["map"] = [0]
    return doc


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_set_above_size_cap_is_an_error(tmp_path, capsys, command):
    path = write(tmp_path, "big.json",
                 _huge_edge_set(jsonio.diagram_to_json(cospan_example())))
    code, out, err = run(capsys, [command, path])
    assert code == 2 and out == []
    assert err.startswith("error:") and "edge set 0" in err and "limit" in err


def test_cset_set_above_size_cap_is_an_error(tmp_path, capsys):
    doc = jsonio.cset_diagram_to_json(lift_to_terminal_cset(cospan_example()))
    doc["edge_csets"][0]["objects"] = [{"size": 10 ** 7}]
    cat_path = write(tmp_path, "cat.json", jsonio.fincat_to_json(FinCat.terminal()))
    dia_path = write(tmp_path, "cd.json", doc)
    code, _, err = run(capsys, ["cset-solve", cat_path, dia_path])
    assert code == 2
    assert err.startswith("error:") and "limit" in err


@pytest.mark.parametrize("command, where", [
    ("fvs", "graph"), ("hom", "decomposition X")])
def test_graph_above_vertex_cap_is_an_error(tmp_path, capsys, command, where):
    # a 30-byte document must not make the loader build a list per vertex
    graph = {"n": jsonio.MAX_SET_SIZE + 1, "edges": []}
    doc = graph if command == "fvs" else {
        "X": graph, "shape": {"n": 1, "edges": []}, "bags": [[0]]}
    path = write(tmp_path, "big.json", doc)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, [command, path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == []
    assert err == (f"error: {where}: vertex count 1048577 exceeds the limit "
                   f"of 1048576 vertices\n")
    # one pointer per vertex alone would be 8 MiB
    assert peak < 2 ** 20


def test_oracle_command(tmp_path, capsys):
    path = write(tmp_path, "path.json", jsonio.diagram_to_json(path_example()))
    code, out, _ = run(capsys, ["oracle", path])
    assert code == 1
    assert "family_count=2" in out
    assert out[-1] == "NONEMPTY"
    path = write(tmp_path, "c4.json", jsonio.diagram_to_json(c4_example()))
    code, out, _ = run(capsys, ["oracle", path])
    assert code == 0 and out[-1] == "EMPTY"


def test_oracle_cap(tmp_path, capsys):
    doc = jsonio.diagram_to_json(path_example())
    path = write(tmp_path, "path.json", doc)
    code, _, err = run(capsys, ["oracle", path, "--cap", "2"])
    assert code == 2 and "cap" in err


def test_image_command_golden(tmp_path, capsys):
    path = write(tmp_path, "path.json", jsonio.diagram_to_json(path_example()))
    code, out, _ = run(capsys, ["image", path])
    assert code == 0
    doc = json.loads(out[0])
    assert doc["vertex_sets"] == [{"elements": ["c"]},
                                  {"elements": ["β"]},
                                  {"elements": ["r", "s"]}]
    assert doc["edge_sets"] == [{"elements": ["y"]}, {"elements": ["v"]}]


def test_image_command_edgeless_echo(tmp_path, capsys):
    doc = {"shape": {"n": 2, "edges": []},
           "vertex_sets": [{"size": 2}, {"size": 1}],
           "edge_sets": [], "legs": []}
    path = write(tmp_path, "disc.json", doc)
    code, out, _ = run(capsys, ["image", path])
    assert code == 0
    echoed = json.loads(out[0])
    assert echoed["vertex_sets"] == [{"size": 2}, {"size": 1}]


def test_image_command_rejects_cycles(tmp_path, capsys):
    path = write(tmp_path, "c4.json", jsonio.diagram_to_json(c4_example()))
    code, _, err = run(capsys, ["image", path])
    assert code == 2 and "forest" in err


def test_image_command_matches_brute_serialization(tmp_path, capsys):
    import random

    from limsolve import as_subdiagram, brute_image
    from limsolve.generate import random_diagram, random_tree

    rng = random.Random(8)
    d = random_diagram(rng, random_tree(rng, 6), 3)
    path = write(tmp_path, "tree.json", jsonio.diagram_to_json(d))
    code, out, _ = run(capsys, ["image", path])
    assert code == 0
    expected = jsonio.diagram_to_json(as_subdiagram(d, brute_image(d)))
    assert json.loads(out[0]) == expected


def test_hom_command(tmp_path, capsys):
    k4 = {"X": {"n": 4, "edges": [[i, j] for i in range(4)
                                  for j in range(i + 1, 4)]},
          "shape": {"n": 1, "edges": []},
          "bags": [[0, 1, 2, 3]]}
    path = write(tmp_path, "k4.json", k4)
    code, out, _ = run(capsys, ["hom", path, "--template", "k3"])
    assert code == 0 and out[-1] == "NO-HOM"

    c5 = {"X": {"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]},
          "shape": {"n": 1, "edges": []},
          "bags": [[0, 1, 2, 3, 4]]}
    path = write(tmp_path, "c5.json", c5)
    code, out, _ = run(capsys, ["hom", path, "--template", "k3", "--witness"])
    assert code == 1 and out[-1] == "HOM"
    coloring = [int(c) for line in out if line.startswith("coloring=")
                for c in line.split("=", 1)[1].split(",")]
    assert len(coloring) == 5
    for i in range(5):
        assert coloring[i] != coloring[(i + 1) % 5]


def test_hom_command_single_vertex(tmp_path, capsys):
    doc = {"X": {"n": 1, "edges": []},
           "shape": {"n": 1, "edges": []},
           "bags": [[0]]}
    path = write(tmp_path, "one.json", doc)
    code, out, _ = run(capsys, ["hom", path])
    assert code == 1 and out[-1] == "HOM"


def test_hom_bad_template(tmp_path, capsys):
    doc = {"X": {"n": 1, "edges": []},
           "shape": {"n": 1, "edges": []},
           "bags": [[0]]}
    path = write(tmp_path, "one.json", doc)
    code, _, err = run(capsys, ["hom", path, "--template", "nope"])
    assert code == 2 and "template" in err


def test_hom_explicit_empty_adhesions(tmp_path, capsys):
    # adhesions: [] on a shape with an edge was once read as "omitted",
    # defaulted to the bag intersections, and gave a colouring and HOM
    doc = {"X": {"n": 3, "edges": [[0, 1], [1, 2]]},
           "shape": {"n": 2, "edges": [[0, 1]]},
           "bags": [[0, 1], [1, 2]], "adhesions": []}
    path = write(tmp_path, "adh.json", doc)
    code, out, err = run(capsys, ["hom", path, "--witness"])
    assert code == 2 and out == []
    assert err.startswith("error:")
    assert "one adhesion per shape edge required" in err
    assert "Traceback" not in err
    edgeless = {"X": {"n": 2, "edges": []}, "shape": {"n": 2, "edges": []},
                "bags": [[0], [1]], "adhesions": []}
    path = write(tmp_path, "edgeless.json", edgeless)
    code, out, _ = run(capsys, ["hom", path])
    assert code == 1 and out[-1] == "HOM"


def test_hom_set_above_cap_is_an_error(tmp_path, capsys):
    # 1025 colours for each of two free vertices: the second level of the
    # enumeration could exceed 2**20 maps and is refused before it is built
    doc = {"X": {"n": 2, "edges": []}, "shape": {"n": 1, "edges": []},
           "bags": [[0, 1]]}
    path = write(tmp_path, "two.json", doc)
    template = write(tmp_path, "h.json", {"n": 1025, "edges": []})
    code, out, err = run(capsys, ["hom", path, "--template", "file:" + template])
    assert code == 2 and out == []
    assert err.startswith("error: bag 0: hom-set may exceed the limit of "
                          "1048576 maps")
    assert "Traceback" not in err


def test_hom_uncovered_vertices_are_one_line(tmp_path, capsys):
    # one problem line per uncovered vertex once made a 50 MB error line
    doc = {"X": {"n": jsonio.MAX_SET_SIZE, "edges": []},
           "shape": {"n": 1, "edges": []}, "bags": [[0]]}
    path = write(tmp_path, "big.json", doc)
    code, out, err = run(capsys, ["hom", path])
    assert code == 2 and out == []
    assert err == ("error: invalid decomposition: 1048575 vertices of the "
                   "target graph are in no bag: 1, 2, 3, 4, 5, …\n")
    assert len(err.encode()) < 1024
    # one line per shape edge whose adhesion leaves its bags made 6.5 MB
    n = 100_000
    doc = {"X": {"n": 2, "edges": []},
           "shape": {"n": n, "edges": [[i, i + 1] for i in range(n - 1)]},
           "bags": [[i % 2] for i in range(n)], "adhesions": [[0]] * (n - 1)}
    path = write(tmp_path, "adhesions.json", doc)
    code, out, err = run(capsys, ["hom", path])
    assert code == 2 and out == []
    assert err.startswith("error: invalid decomposition: 99999 shape edges "
                          "have adhesions not contained in both of their "
                          "bags: 0, 1, 2, 3, 4, …; ")
    assert err.count("\n") == 1 and len(err.encode()) < 1024


def run_small(capsys, argv):
    """run, with the peak of traced memory the call reached."""
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out, err, peak


def test_template_above_edge_cap_is_refused(tmp_path, capsys):
    # K_1448 has 1 047 628 edges, K_1449 has 1 049 076 > 2**20
    doc = {"X": {"n": 1, "edges": []}, "shape": {"n": 1, "edges": []},
           "bags": [[0]]}
    path = write(tmp_path, "one.json", doc)
    code, out, err, peak = run_small(capsys, ["hom", path, "--template",
                                              "k1449"])
    assert code == 2 and out == []
    assert err == ("error: template 'k1449': K_1449 has 1049076 edges, "
                   "above the limit of 1048576\n")
    assert peak < 2 ** 20


@pytest.mark.parametrize("template, text", [
    # int() read the Arabic-Indic three as 3 and answered HOM (exit 1)
    ("k\u0663", "--template 'k\u0663': k<n> takes ASCII digits"),
    # int() refused with a text on the 4300-digit limit that named no option
    ("k" + "9" * 5000, "--template k of 5000 digits: K_k has more than "
                       "1048576 edges"),
    ("k" + "0" * 4999 + "3", None),
    ("nope", "unknown template 'nope'"),
], ids=["non-ascii", "5000-digits", "leading-zeros", "unknown"])
def test_template_digits(tmp_path, capsys, template, text):
    doc = {"X": {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
           "shape": {"n": 1, "edges": []}, "bags": [[0, 1, 2]]}
    path = write(tmp_path, "triangle.json", doc)
    code, out, err = run(capsys, ["hom", path, "--template", template])
    if text is None:
        # 5000 digits that are K_3: refused neither by length nor by int()
        assert code == 1 and out[-1] == "HOM" and err == ""
    else:
        assert code == 2 and out == []
        assert err == f"error: {text}\n"
    code, out, _ = run(capsys, ["hom", path, "--template", "k3"])
    assert code == 1 and out[-1] == "HOM"


@pytest.mark.parametrize("kind, n, w, text", [
    ("path", 2 ** 20 + 1, 2, "--n 1048577 exceeds the limit of 1048576"),
    ("path", 10, 2 ** 20 + 1, "--w 1048577 exceeds the limit of 1048576"),
    # one draw per vertex pair, and K_1449 has 1 049 076 > 2**20 pairs
    ("random", 1449, 2, "random graph on 1449 vertices has 1049076 vertex "
                        "pairs, above the limit of 1048576"),
], ids=["n", "w", "random"])
def test_gen_above_cap_is_refused(capsys, kind, n, w, text):
    code, out, err, peak = run_small(capsys, ["gen", kind, "--n", str(n),
                                              "--w", str(w)])
    assert code == 2 and out == []
    assert err == f"error: {text}\n"
    assert peak < 2 ** 20


# sha256 prefixes of `gen <kind> --n 30 --w 4 --seed 7`, as written before
# diagram_to_json read the columns instead of the set and function views
GEN_DIGESTS = [
    ("tree", False, "bfa8fd7acd6468ed"),
    ("tree", True, "f579bffeb6a964ee"),
    ("path", False, "7e74462104aea803"),
    ("path", True, "29e4ee8d1d3e4aee"),
    ("cycle", False, "12afa409183713bc"),
    ("cycle", True, "7150eaf3e4388f67"),
    ("random", False, "f9287294ecd1fb81"),
    ("random", True, "760a1ecd4f4064df"),
]


@pytest.mark.parametrize("kind, fixed, digest", GEN_DIGESTS)
def test_gen_output_is_pinned(capsys, kind, fixed, digest):
    argv = ["gen", kind, "--n", "30", "--w", "4", "--seed", "7"]
    code, out, _ = run(capsys, argv + ["--fixed-size"] * fixed)
    assert code == 0 and len(out) == 1
    assert hashlib.sha256(out[0].encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("labelled", [False, True])
def test_image_output_round_trips(tmp_path, capsys, labelled):
    if labelled:
        doc = jsonio.diagram_to_json(path_example())
    else:
        _, out, _ = run(capsys, ["gen", "tree", "--n", "5", "--w", "3",
                                 "--seed", "3", "--fixed-size"])
        doc = json.loads(out[0])
    code, out, _ = run(capsys, ["image", write(tmp_path, "d.json", doc)])
    assert code == 0 and len(out) == 1
    if not labelled:
        # pinned as written from the set and function views
        assert hashlib.sha256(out[0].encode()).hexdigest()[:16] == \
            "e92283d2affb7d25"
    again = jsonio.diagram_to_json(jsonio.parse_diagram(json.loads(out[0])))
    assert jsonio.dumps(again) == out[0]


def test_cset_solve_command(tmp_path, capsys):
    d = lift_to_terminal_cset(path_example())
    cat_path = write(tmp_path, "cat.json", jsonio.fincat_to_json(FinCat.terminal()))
    dia_path = write(tmp_path, "cd.json", jsonio.cset_diagram_to_json(d))
    code, out, _ = run(capsys, ["cset-solve", cat_path, dia_path])
    assert code == 1 and out[-1] == "NONEMPTY"
    dia_path = write(tmp_path, "c4.json", jsonio.cset_diagram_to_json(
        lift_to_terminal_cset(c4_example())))
    code, out, _ = run(capsys, ["cset-solve", cat_path, dia_path])
    assert code == 0 and out[-1] == "EMPTY"


def test_cset_solve_over_no_objects_is_empty(tmp_path, capsys):
    # over no C-object the answer is EMPTY with no FVS search, so a budget
    # of 0 on a 6-cycle is not refused
    empty = FinCat(0, (), (), (), ())
    cat_path = write(tmp_path, "cat.json", jsonio.fincat_to_json(empty))
    d = CSetCoDecomposition(empty, cycle_graph(6), [], [()] * 6, [()] * 6)
    dia_path = write(tmp_path, "cd.json", jsonio.cset_diagram_to_json(d))
    for flags in ([], ["--fvs-max", "0"], ["--fvs", "0,1,2,3,4,5"]):
        code, out, err = run(capsys, ["cset-solve", cat_path, dia_path]
                             + flags)
        assert (code, out, err) == (0, ["n=6", "w_sum=0", "w_slice=0",
                                        "EMPTY"], "")
    code, out, err = run(capsys, ["cset-solve", cat_path, dia_path,
                                  "--fvs-max", "-1"])
    assert (code, out, err) == (2, [], "error: k_max must be >= 0\n")


def test_cset_solve_duplicate_leg_is_an_error(tmp_path, capsys):
    d = lift_to_terminal_cset(path_example())
    doc = jsonio.cset_diagram_to_json(d)
    doc["legs"].append(dict(doc["legs"][0]))
    cat_path = write(tmp_path, "cat.json", jsonio.fincat_to_json(FinCat.terminal()))
    dia_path = write(tmp_path, "cd.json", doc)
    code, _, err = run(capsys, ["cset-solve", cat_path, dia_path])
    assert code == 2
    assert err.startswith("error:") and "duplicate leg" in err


def test_cset_solve_missing_cset_is_an_error(tmp_path, capsys):
    d = lift_to_terminal_cset(path_example())
    doc = jsonio.cset_diagram_to_json(d)
    doc["vertex_csets"].pop()
    cat_path = write(tmp_path, "cat.json", jsonio.fincat_to_json(FinCat.terminal()))
    dia_path = write(tmp_path, "cd.json", doc)
    code, _, err = run(capsys, ["cset-solve", cat_path, dia_path])
    assert code == 2
    assert err.startswith("error:") and "vertex C-set" in err


def test_fvs_command(tmp_path, capsys):
    path = write(tmp_path, "c4g.json",
                 {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]})
    code, out, _ = run(capsys, ["fvs", path])
    assert code == 0
    assert "k=1" in out
    code, out, _ = run(capsys, ["fvs", path, "--max", "0"])
    assert code == 1 and out == ["n=4", "NONE"]


def test_fvs_command_reads_a_diagram_shape(tmp_path, capsys):
    _, out, _ = run(capsys, ["gen", "cycle", "--n", "8", "--w", "2",
                             "--seed", "0"])
    path = write(tmp_path, "d.json", json.loads(out[0]))
    code, out, _ = run(capsys, ["fvs", path, "--max", "1"])
    assert code == 0 and out[-1] == "fvs=0"
    lifted = lift_to_terminal_cset(c4_example())
    path = write(tmp_path, "cd.json", jsonio.cset_diagram_to_json(lifted))
    code, out, _ = run(capsys, ["fvs", path])
    assert code == 0 and out[-2:] == ["k=1", "fvs=0"]


@pytest.mark.parametrize("name, text, named", [
    ("missing.json", None, "cannot read"),
    ("broken.json", '{"n": ', "invalid JSON"),
], ids=["missing", "invalid-json"])
def test_unreadable_input_is_an_error(tmp_path, capsys, name, text, named):
    path = tmp_path / name
    if text is not None:
        path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, ["solve", str(path)])
    assert code == 2 and out == []
    assert err.startswith("error: ") and named in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unexpected_exception_is_an_error(tmp_path, capsys, monkeypatch):
    import limsolve.cli

    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(limsolve.cli, "inlim", crash)
    path = write(tmp_path, "c4.json", jsonio.diagram_to_json(c4_example()))
    code, out, err = run(capsys, ["solve", path])
    assert code == 2 and out == []
    assert err == "error: RuntimeError: boom\n"


def test_gen_is_seed_stable(capsys):
    code, out1, _ = run(capsys, ["gen", "tree", "--n", "6", "--w", "3",
                                 "--seed", "11"])
    assert code == 0
    _, out2, _ = run(capsys, ["gen", "tree", "--n", "6", "--w", "3",
                              "--seed", "11"])
    assert out1 == out2
    _, out3, _ = run(capsys, ["gen", "tree", "--n", "6", "--w", "3",
                              "--seed", "12"])
    assert out1 != out3


def test_gen_output_validates_and_solves(capsys):
    code, out, _ = run(capsys, ["gen", "random", "--n", "7", "--w", "3",
                                "--seed", "4"])
    assert code == 0
    d = jsonio.parse_diagram(json.loads(out[0]))
    assert d.shape.n == 7


def test_gen_cycles_have_fvs_one(capsys):
    from limsolve import fvs_exact
    code, out, _ = run(capsys, ["gen", "cycle", "--n", "8", "--w", "2",
                                "--seed", "0"])
    assert code == 0
    d = jsonio.parse_diagram(json.loads(out[0]))
    assert len(fvs_exact(d.shape, 8)) == 1


def _leg_edge_not_an_id(doc):
    doc["legs"][0]["edge"] = "x"


def _map_entry(value):
    def mutate(doc):
        doc["legs"][0]["map"] = [value]
    return mutate


def _shape_vertex_string(doc):
    doc["shape"]["edges"][0][1] = "1"


def _shape_edge_triple(doc):
    doc["shape"]["edges"][0].append(7)


def _edge_set(value):
    def mutate(doc):
        doc["edge_sets"][0] = value
    return mutate


def _not_a_list(key):
    def mutate(doc):
        doc[key] = 3
    return mutate


def _size_string(doc):
    doc["vertex_sets"][1] = {"size": "1"}


@pytest.mark.parametrize("mutate", [
    _leg_edge_not_an_id, _map_entry(0.5), _map_entry(True),
    _shape_vertex_string, _shape_edge_triple,
    _edge_set({"elements": "ab"}), _edge_set({"elements": {"a": 1, "b": 2}}),
    _edge_set({"elements": [["x"], "y"]}), _edge_set({"elements": 5}),
    _not_a_list("vertex_sets"), _not_a_list("edge_sets"), _not_a_list("legs"),
    _size_string,
], ids=["leg-edge-x", "map-entry-0.5", "map-entry-true", "shape-vertex-str",
        "shape-edge-triple", "elements-str", "elements-object",
        "elements-nested", "elements-int", "vertex-sets-int", "edge-sets-int",
        "legs-int", "size-str"])
def test_solve_malformed_input_is_an_error(tmp_path, capsys, mutate):
    doc = jsonio.diagram_to_json(cospan_example())
    mutate(doc)
    path = write(tmp_path, "bad.json", doc)
    code, _, err = run(capsys, ["solve", path])
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, doc", [
    ("hom", {"X": {"n": -1, "edges": []}, "shape": {"n": 0, "edges": []},
             "bags": []}),
    ("fvs", {"n": -1, "edges": []}),
], ids=["hom", "fvs"])
def test_negative_vertex_count_is_an_error(tmp_path, capsys, command, doc):
    path = write(tmp_path, "neg.json", doc)
    code, out, err = run(capsys, [command, path])
    assert code == 2 and out == []
    assert err.startswith("error:") and "vertex count -1" in err
    assert "Traceback" not in err


_ONE_BAG = {"X": {"n": 2, "edges": [[0, 1]]}, "shape": {"n": 1, "edges": []}}


@pytest.mark.parametrize("bags, named", [
    ([[0, 1, True]], "bag 0"), (5, "bags"), (["ab"], "bag 0"),
], ids=["bag-true", "bags-int", "bag-string"])
def test_hom_malformed_bags_are_an_error(tmp_path, capsys, bags, named):
    # a JSON true once read as vertex 1, so this printed a colouring and HOM
    path = write(tmp_path, "bad.json", dict(_ONE_BAG, bags=bags))
    code, out, err = run(capsys, ["hom", path, "--witness"])
    assert code == 2 and out == []
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("target, key, value", [
    ("category", "morphisms", 5), ("category", "comp", 5),
    ("diagram", "vertex_csets", 3), ("diagram", "edge_csets", 3),
], ids=["morphisms-int", "comp-int", "vertex-csets-int", "edge-csets-int"])
def test_cset_solve_non_list_is_an_error(tmp_path, capsys, target, key, value):
    docs = {"category": jsonio.fincat_to_json(FinCat.terminal()),
            "diagram": jsonio.cset_diagram_to_json(
                lift_to_terminal_cset(path_example()))}
    docs[target][key] = value
    cat_path = write(tmp_path, "cat.json", docs["category"])
    dia_path = write(tmp_path, "cd.json", docs["diagram"])
    code, out, err = run(capsys, ["cset-solve", cat_path, dia_path])
    assert code == 2 and out == []
    assert err.startswith("error:") and f"{key} must be a list" in err
    assert "Traceback" not in err
