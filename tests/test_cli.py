"""CLI contract: subcommands, wire formats, exit codes, stable output."""

import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner

import clutterkit
from clutterkit.cli import main
from clutterkit.graphs import enumerate_graphs_upto_iso
from oracles import seeded_graph

DATA = Path(__file__).parent / "data"


def invoke(args, input=None):
    return CliRunner().invoke(main, args, input=input)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


STAR4 = {"n": 4, "edges": [[1, 2], [1, 3], [1, 4]]}
C4 = {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]}
TWO_K2_CLUTTER = {"n": 4, "edges": [[1, 2], [3, 4]]}
PAW_CLUTTER = {"n": 4, "edges": [[3, 4], [1, 4], [2, 4], [2, 3]]}
TRIANGLE_MATRIX = {
    "rows": 3,
    "cols": 4,
    "data": [[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]],
}


class TestSimis:
    def test_star_graph_fails_with_witness(self, tmp_path):
        path = write_json(tmp_path, "g.json", STAR4)
        result = invoke(["simis", path, "-k", "2"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload == {"k": 2, "equal": False, "witness": [0, 1, 1, 1]}

    def test_square_cycle_passes_degree_three(self, tmp_path):
        path = write_json(tmp_path, "g.json", C4)
        payload = json.loads(invoke(["simis", path, "-k", "3"]).output)
        assert payload["equal"] is True

    def test_principal_ideal_high_degree(self):
        # one generator at every minimal prime, whatever k is
        data = json.dumps({"n": 2, "gens": [[1, 1]]})
        for k in (5, 10**9):
            result = invoke(["simis", "-", "-k", str(k)], input=data)
            assert result.exit_code == 0
            assert json.loads(result.output) == {"k": k, "equal": True, "witness": None}

    def test_malformed_input_exits_2(self):
        assert invoke(["simis", "-"], input="{not json").exit_code == 2

    def test_wrong_shape_exits_2(self):
        assert invoke(["simis", "-"], input='{"n": 3}').exit_code == 2

    def test_missing_file_exits_2(self):
        assert invoke(["simis", "/nonexistent/input.json"]).exit_code == 2

    def test_degree_over_cap_exits_2(self):
        # the C4 complement ideal is equal at every k, so simis tests every
        # generator of I^(2000), and those tests pass the packing search's
        # cap of row visits
        c4 = json.dumps({"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]})
        result = invoke(["simis", "-", "-k", "2000"], input=c4)
        assert result.exit_code == 2
        assert "resource cap exceeded: packing search made" in result.output

    def test_path_complement_answers_degree_four_hundred(self):
        # symbolic_power refuses to build all of I^(400); simis stops at the
        # witness, its third symbolic generator in lex order
        path5 = json.dumps({"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5]]})
        result = invoke(["simis", "-", "-k", "400"], input=path5)
        assert result.exit_code == 0
        assert json.loads(result.output) == {"k": 400, "equal": False, "witness": [1, 1, 399, 399, 399]}

    def test_path_complement_answers_degree_forty(self):
        path5 = json.dumps({"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5]]})
        result = invoke(["simis", "-", "-k", "40"], input=path5)
        assert result.exit_code == 0
        assert json.loads(result.output) == {"k": 40, "equal": False, "witness": [1, 1, 39, 39, 39]}

    def test_two_generators_sharing_a_variable_answer_degree_thousand(self):
        ideal = json.dumps({"n": 3, "gens": [[1, 1, 0], [1, 0, 1]]})
        result = invoke(["simis", "-", "-k", "1000"], input=ideal)
        assert result.exit_code == 0
        assert json.loads(result.output) == {"k": 1000, "equal": True, "witness": None}

    def test_symbolic_side_over_cap_exits_2(self):
        # the 2K2 complement ideal (x2x3, x1x4) is equal at every k, and at
        # k = 1,000 the search for its symbolic generators passes its own
        # step cap in branches that end without one
        two_k2 = json.dumps({"n": 4, "edges": [[1, 4], [2, 3]]})
        result = invoke(["simis", "-", "-k", "1000"], input=two_k2)
        assert result.exit_code == 2
        assert "the symbolic-generator search over 4 minimal primes at k = 1000" in result.output

    def test_six_vertex_graph_answers_degree_forty_five(self):
        # symbolic_power refuses to build all of I^(45); simis stops at the
        # witness
        graph = {"n": 6, "edges": [[1, 2], [1, 3], [1, 5], [1, 6], [2, 3], [2, 4], [2, 6], [3, 4], [3, 5]]}
        result = invoke(["simis", "-", "-k", "45"], input=json.dumps(graph))
        assert result.exit_code == 0
        assert json.loads(result.output) == {"k": 45, "equal": False, "witness": [0, 1, 44, 45, 44, 44]}

    def test_sixty_cubics_answer_degree_two(self):
        result = invoke(["simis", str(DATA / "simis_60_cubics_14_vars.json"), "-k", "2"])
        assert result.exit_code == 0
        assert json.loads(result.output) == {
            "k": 2, "equal": False, "witness": [0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1],
        }


class TestPacking:
    def test_two_disjoint_edges_pack(self, tmp_path):
        path = write_json(tmp_path, "h.json", TWO_K2_CLUTTER)
        payload = json.loads(invoke(["packing", path]).output)
        assert payload == {"packs": True, "failing_minor": None}

    def test_paw_clutter_certificate(self, tmp_path):
        path = write_json(tmp_path, "h.json", PAW_CLUTTER)
        payload = json.loads(invoke(["packing", path]).output)
        assert payload["packs"] is False
        assert payload["failing_minor"] == {
            "deleted": [1],
            "contracted": [],
            "cover_number": 2,
            "matching_number": 1,
        }

    def test_edgeless_packs(self):
        data = json.dumps({"n": 3, "edges": []})
        payload = json.loads(invoke(["packing", "-"], input=data).output)
        assert payload["packs"] is True

    def test_max_n_cap(self, tmp_path):
        big = {"n": 13, "edges": [[1, 2], [1, 3], [2, 3]]}
        path = write_json(tmp_path, "h.json", big)
        assert invoke(["packing", path]).exit_code == 2


    def test_oversized_n_is_refused_before_any_mask_is_built(self):
        # the one label 4*10^8 would be a 50 MB mask: the parent process, run
        # in a fresh process of its own, reads its child's peak RSS
        measure = (
            "import resource, subprocess, sys, time\n"
            "start = time.perf_counter()\n"
            "done = subprocess.run([sys.executable, '-m', 'clutterkit.cli', 'packing', '-'],\n"
            "                      input=sys.argv[1], capture_output=True, text=True)\n"
            "print(done.returncode, time.perf_counter() - start,\n"
            "      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, repr(done.stderr))\n"
        )
        request = json.dumps({"n": 400000000, "edges": [[400000000]]})
        env = dict(os.environ, PYTHONPATH=str(Path(clutterkit.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", measure, request], env=env,
                             capture_output=True, text=True, check=True).stdout.split(" ", 3)
        status, seconds, peak_kb = int(out[0]), float(out[1]), int(out[2])
        if sys.platform == "darwin":
            peak_kb //= 1024  # bytes there, KiB on Linux
        assert status == 2
        assert "exceeds the cap of 12 vertices" in out[3]
        assert seconds < 5.0
        assert peak_kb < 60 * 1024


class TestKoenigClassifyDecompose:
    def test_koenig_numbers(self, tmp_path):
        path = write_json(tmp_path, "h.json", PAW_CLUTTER)
        payload = json.loads(invoke(["koenig", path]).output)
        assert payload == {"koenig": True, "cover_number": 2, "matching_number": 2}

    def test_koenig_answers_the_complete_graph_on_twenty_vertices(self):
        K20 = {"n": 20, "edges": [[a, b] for a in range(1, 21) for b in range(a + 1, 21)]}
        result = invoke(["koenig", "-"], input=json.dumps(K20))
        assert result.exit_code == 0
        assert json.loads(result.output) == {"koenig": False, "cover_number": 19, "matching_number": 10}

    def test_koenig_solves_each_number_once(self, monkeypatch, tmp_path):
        import clutterkit.cli as cli

        calls = []
        for name in ("cover_number", "matching_number"):
            original = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda H, f=original, name=name: calls.append(name) or f(H))
        path = write_json(tmp_path, "h.json", PAW_CLUTTER)
        payload = json.loads(invoke(["koenig", path]).output)
        assert payload == {"koenig": True, "cover_number": 2, "matching_number": 2}
        assert sorted(calls) == ["cover_number", "matching_number"]

    def test_classify(self, tmp_path):
        path = write_json(tmp_path, "g.json", {"n": 5, "edges": [[1, 2], [2, 3], [3, 4]]})
        payload = json.loads(invoke(["classify", path]).output)
        assert payload == {"label": "P4", "isolated_count": 1}

    def test_decompose(self, tmp_path):
        path = write_json(tmp_path, "g.json", STAR4)
        payload = json.loads(invoke(["decompose", path]).output)
        assert payload == {"n": 4, "primes": [[2, 3], [2, 4], [3, 4]]}

    def test_koenig_over_cover_cap_exits_2(self):
        path40 = {"n": 40, "edges": [[v, v + 1] for v in range(1, 40)]}
        result = invoke(["koenig", "-"], input=json.dumps(path40))
        assert result.exit_code == 2
        assert "resource cap exceeded" in result.output

    def test_decompose_edgeless_exits_2(self):
        data = json.dumps({"n": 3, "edges": []})
        assert invoke(["decompose", "-"], input=data).exit_code == 2

    def test_decompose_over_cap_exits_2(self):
        data = json.dumps(seeded_graph(40, 0.9).to_json_dict())
        result = invoke(["decompose", "-"], input=data)
        assert result.exit_code == 2
        assert "resource cap exceeded" in result.output


class TestLp:
    def test_alpha_report(self, tmp_path):
        path = write_json(tmp_path, "m.json", TRIANGLE_MATRIX)
        payload = json.loads(invoke(["lp", path, "--alpha", "1,1,1,1"]).output)
        assert (payload["phi"], payload["psi"], payload["gap"]) == (2, 1, 1)

    def test_scan_clean_identity(self):
        dense = "100\n010\n001\n"
        payload = json.loads(invoke(["lp", "-", "--scan", "2"], input=dense).output)
        assert payload["gap_found"] is False

    def test_scan_extended_two_k2(self):
        dense = "11001\n00111\n"
        payload = json.loads(invoke(["lp", "-", "--scan", "2"], input=dense).output)
        assert payload["gap_found"] is False

    def test_scan_triangle_finds_gap(self, tmp_path):
        path = write_json(tmp_path, "m.json", TRIANGLE_MATRIX)
        payload = json.loads(invoke(["lp", path, "--scan", "1"]).output)
        assert payload["gap_found"] is True
        assert payload["alpha"] == [0, 1, 1, 1]
        assert payload["gap"] == 1

    def test_structural_flag(self, tmp_path):
        path = write_json(tmp_path, "m.json", TRIANGLE_MATRIX)
        payload = json.loads(invoke(["lp", path, "--structural"]).output)
        assert payload["structural_mfmc"] is False

    @pytest.mark.parametrize("dense", [
        "0011111111\n1100111111\n",  # 2K2 plus 6 isolated vertices
        "001111111\n100111111\n110011111\n",  # P4 plus 5 isolated vertices
        "00" + "1" * 38 + "\n" + "1100" + "1" * 36 + "\n",  # 2K2 plus 36
    ])
    def test_structural_answers_past_the_column_cap(self, dense):
        result = invoke(["lp", "-", "--structural"], input=dense)
        assert result.exit_code == 0
        assert json.loads(result.output)["structural_mfmc"] is True

    def test_requires_an_action(self, tmp_path):
        path = write_json(tmp_path, "m.json", TRIANGLE_MATRIX)
        assert invoke(["lp", path]).exit_code == 2

    def test_alpha_scan_exclusive(self, tmp_path):
        path = write_json(tmp_path, "m.json", TRIANGLE_MATRIX)
        assert invoke(["lp", path, "--alpha", "1,1,1,1", "--scan", "1"]).exit_code == 2

    def test_bad_dense_matrix_exits_2(self):
        assert invoke(["lp", "-", "--scan", "1"], input="10\n2\n").exit_code == 2

    def test_psi_over_node_cap_exits_2(self):
        source = str(DATA / "all_pairs_of_9_columns.txt")
        result = invoke(["lp", source, "--alpha", ",".join(["2"] * 9)])
        assert result.exit_code == 2
        assert "resource cap exceeded" in result.output

    def test_psi_large_objective_entry_answers(self):
        result = invoke(["lp", "-", "--alpha", "3000000"], input="1\n")
        assert result.exit_code == 0
        assert json.loads(result.output)["psi"] == 3000000

    def test_psi_large_objective_entry_on_two_equal_rows_answers(self):
        result = invoke(["lp", "-", "--alpha", "3000000"], input="1\n1\n")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert (payload["psi"], payload["y_opt"]) == (3000000, [3000000, 0])

    @pytest.mark.parametrize("name, cols", [
        ("tall_1200_rows_8_columns.txt", 8), ("tall_600_rows_12_columns.txt", 12),
    ])
    def test_psi_on_tall_matrix_exits_2(self, name, cols):
        result = invoke(["lp", str(DATA / name), "--alpha", ",".join(["1"] * cols)])
        assert result.exit_code == 2
        assert "resource cap exceeded" in result.output


class TestInputBoundary:
    @pytest.mark.parametrize("args, payload", [
        (["koenig", "-"], {"n": True, "edges": [[True]]}),
        (["classify", "-"], {"n": 4, "edges": [[1.0, 2], [3, 4]]}),
        (["packing", "-"], {"n": 2, "edges": [[1, 2.0]]}),
        (["simis", "-"], {"n": 2, "gens": [[True, 0]]}),
        (["lp", "-", "--structural"], {"rows": 1, "cols": 3, "data": [[True, 0, 0]]}),
        (["lp", "-", "--structural"], {"rows": 0, "cols": -3, "data": []}),
        (["simis", "-"], {"n": 2, "gens": [[1.0, 0]]}),
    ])
    def test_ill_typed_numbers_exit_2(self, args, payload):
        result = invoke(args, input=json.dumps(payload))
        assert result.exit_code == 2
        assert "invalid input" in result.output

    @pytest.mark.parametrize("args, dense", [
        (["lp", "-", "--structural"], "10\n1\n"),
        (["lp", "-", "--structural"], "10\n2\n"),
        (["lp", "-", "--structural"], "10\nx1\n"),
        (["lp", "-", "--alpha", "1,1"], "00\n11\n"),
    ], ids=["ragged-rows", "entry-2", "non-digit", "zero-row"])
    def test_bad_dense_matrix_is_invalid_input(self, args, dense):
        result = invoke(args, input=dense)
        assert result.exit_code == 2
        assert "invalid input" in result.output
        assert result.stdout == ""

    @pytest.mark.parametrize("args, text, message", [
        (["packing", "-"], "[1, 2]", "input must be a JSON object"),
        (["lp", "-", "--structural"], "\n \n", "dense matrix input is empty"),
        (["lp", "-", "--alpha", "1,x"], "11\n",
         "bad --alpha value: invalid literal for int() with base 10: 'x'"),
        (["lp", "-", "--alpha", "1,-1"], "11\n",
         "invalid input: objective must be nonnegative integers: (1, -1)"),
        (["lp", "-", "--structural"], '{"rows": 2, "cols": 2, "data": [[1, 1]]}',
         "invalid input: expected 2 rows, got 1"),
        (["simis", "-"], '{"n": 2, "edges": [[1, 2]]}',
         "invalid input: clutter_of_graph requires at least 3 vertices, got 2"),
        (["decompose", "-"], '{"n": 2, "edges": [[1, 2]]}',
         "invalid input: clutter_of_graph requires at least 3 vertices, got 2"),
    ], ids=["not-an-object", "empty-dense", "non-integer-alpha", "negative-alpha",
            "rows-disagree", "simis-two-vertices", "decompose-two-vertices"])
    def test_refusal_names_the_fault(self, args, text, message):
        result = invoke(args, input=text)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.output.rstrip("\n").endswith(f"Error: {message}")

    def test_two_vertex_graph_still_classifies(self):
        result = invoke(["classify", "-"], input='{"n": 2, "edges": [[1, 2]]}')
        assert result.exit_code == 0
        assert json.loads(result.output) == {"label": "K2", "isolated_count": 0}

    def test_library_type_error_is_not_an_input_error(self, monkeypatch, tmp_path):
        def broken(*args, **kwargs):
            raise TypeError("library bug")

        monkeypatch.setattr("clutterkit.cli.has_packing", broken)
        result = invoke(["packing", write_json(tmp_path, "h.json", TWO_K2_CLUTTER)])
        assert result.exit_code != 2
        assert isinstance(result.exception, TypeError)


class TestVerifyTheoremCommand:
    def test_three_vertices_consistent(self):
        result = invoke(["verify-theorem", "-n", "3"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["consistent"] is True
        assert payload["classes"] == 3
        assert payload["satisfying"] == 3

    def test_four_vertices_counts(self):
        payload = json.loads(invoke(["verify-theorem", "-n", "4"]).output)
        assert (payload["satisfying"], payload["failing"]) == (6, 4)

    def test_out_of_range_exits_2(self):
        assert invoke(["verify-theorem", "-n", "9"]).exit_code == 2

    def test_degree_below_one_exits_2(self):
        result = invoke(["verify-theorem", "-n", "7", "-k", "0"])
        assert result.exit_code == 2
        assert "k_list entries must be >= 1, got 0" in result.output

    def test_disagreement_exits_1(self, monkeypatch):
        # every n = 3 class satisfies all five characterizations; a structural
        # check that says no to each makes every class disagree
        monkeypatch.setattr("clutterkit.verify.structural_mfmc_check", lambda M: False)
        result = invoke(["verify-theorem", "-n", "3"])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert (payload["consistent"], payload["classes"]) == (False, 3)
        assert [row["all_agree"] for row in payload["rows"]] == [False] * 3

    def test_csv_output(self):
        result = invoke(["--csv", "verify-theorem", "-n", "3"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("label,isolated,edges")
        assert len(lines) == 4


class TestOutputStability:
    @pytest.mark.parametrize("args", [
        ["packing", "PATH"],
        ["--csv", "packing", "PATH"],
        ["verify-theorem", "-n", "3"],
    ])
    def test_redirected_stdout_is_released(self, tmp_path, args):
        # One in-process request, as a caller that redirects stdout makes it:
        # the output stream must not outlive the request.
        path = write_json(tmp_path, "h.json", TWO_K2_CLUTTER)
        args = [path if a == "PATH" else a for a in args]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main.main(args=args, prog_name="clutterkit", standalone_mode=False)
        assert out.getvalue()
        released = weakref.ref(out)
        del out
        gc.collect()
        assert released() is None

    def test_byte_stable_across_runs(self, tmp_path):
        path = write_json(tmp_path, "g.json", STAR4)
        first = invoke(["simis", path, "-k", "2"]).output
        second = invoke(["simis", path, "-k", "2"]).output
        assert first == second
        v1 = invoke(["verify-theorem", "-n", "4"]).output
        v2 = invoke(["verify-theorem", "-n", "4"]).output
        assert v1 == v2

    def test_csv_key_value_mode(self, tmp_path):
        path = write_json(tmp_path, "g.json", STAR4)
        result = invoke(["--csv", "simis", path, "-k", "2"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "key,value"

    # sha256 of the JSON stdout of verify-theorem -n 3, 4, 5, 7; the benchmark
    # pins the same values for n = 3..6 in perfbench/workloads.py, and CI the
    # n = 6 and n = 7 values for the installed console script.
    REPORT_SHA256 = {
        3: "54074f013779851193cd3731000aedb488fe8a8763397f3d56bbf7529272b54c",
        4: "c0637a75e753a9459e22e94d2ec43eb5a5d7609650a72c41df846096923ab3e8",
        5: "e3b7a3d31a6d370ee3af35d352efe30b2c244ca7239e96822a2bca0064bee619",
        7: "96ab9636bbddd2a4f72637daba0f272f0e1fa92dd64cc847dae5b313f871cf52",
    }

    def test_verify_theorem_report_bytes(self):
        for n, digest in self.REPORT_SHA256.items():
            result = invoke(["verify-theorem", "-n", str(n)])
            assert result.exit_code == 0
            assert hashlib.sha256(result.stdout.encode("utf-8")).hexdigest() == digest

    # sha256 of the --csv stdout of verify-theorem -n 5, as written: the csv
    # module ends rows with \r\n, which CliRunner's decoded stdout turns to \n.
    CSV_SHA256 = "fc5601915d4dd0bdd8083afc534b4c9b4a5126cf1ce005d4c64a2a8aa41a504e"

    def test_verify_theorem_csv_bytes(self):
        result = invoke(["--csv", "verify-theorem", "-n", "5"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == self.CSV_SHA256

    # sha256 of the exit code and stdout of simis -k 2, simis -k 3, decompose
    # and classify on every graph class with n = 1..5, edgeless ones included,
    # taken when the complementary edge ideal was still built by minimalizing
    # the products off each edge
    GRAPH_FORM_SHA256 = "c55f01f780cd2b12863f1121112a35662d5cd2a86d6b5b26dd45ea33ed8e0438"

    def test_graph_form_request_bytes(self):
        digest = hashlib.sha256()
        for n in range(1, 6):
            for G in enumerate_graphs_upto_iso(n):
                data = json.dumps(G.to_json_dict())
                for args in (["simis", "-", "-k", "2"], ["simis", "-", "-k", "3"],
                             ["decompose", "-"], ["classify", "-"]):
                    result = invoke(args, input=data)
                    digest.update(f"{result.exit_code}\n{result.stdout}".encode())
        assert digest.hexdigest() == self.GRAPH_FORM_SHA256
