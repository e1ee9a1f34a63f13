import contextlib
import csv
import io
import json
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dominion import DominationSummary, cli, families


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_family_spec(self, capsys):
        code, out, _ = run(capsys, "compute", "alt-even:n=8")
        assert code == 0
        assert "gamma      4" in out
        assert "zeta       5" in out
        assert "closed_form" in out

    def test_files_fold_without_neighbour_lists(self, capsys, monkeypatch, tmp_path):
        # Validation's peel gives the fold order; the CSR is built only for
        # `neighbors` and `degree`, which neither generate nor compute needs.
        from dominion import tree

        def refuse(*_):
            raise AssertionError("neighbour lists were built")

        monkeypatch.setattr(tree, "_csr", refuse)
        path = tmp_path / "r.edges"
        assert run(capsys, "generate", "random:n=40,seed=3", str(path)) == (0, "", "")
        code, out, err = run(capsys, "compute", str(path))
        assert (code, err) == (0, "") and "dp" in out

    def test_binary(self, capsys):
        code, out, _ = run(capsys, "compute", "binary:h=3")
        assert code == 0
        assert "gamma      5" in out
        assert "zeta       3" in out

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "p5.edges"
        path.write_text("v1 v2\nv2 v3\nv3 v4\nv4 v5\n")
        code, out, _ = run(capsys, "compute", str(path))
        assert code == 0
        assert "gamma      2" in out
        assert "zeta       3" in out
        assert "method     dp" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "compute", "--json", "uniform:n=70,r=1")
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma"] == 70
        assert payload["zeta"] == str(2**70)
        assert payload["method"] == "closed_form"
        assert payload["n_vertices"] == 140

    def test_csv_round_trip(self, capsys):
        code, out, _ = run(capsys, "compute", "--csv", "binary:h=3")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["family", "n_vertices", "gamma", "zeta", "method"]
        assert rows[1] == ["binary:h=3", "15", "5", "3", "closed_form"]

    def test_random_spec_uses_dp(self, capsys):
        code, out, _ = run(capsys, "compute", "--json", "random:n=12,seed=42")
        assert code == 0
        assert json.loads(out)["method"] == "dp"

    def test_perturbed_binary_uses_dp(self, capsys):
        code, out, _ = run(capsys, "compute", "--json", "binary:h=3,delete=b8")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "dp"
        assert (payload["gamma"], payload["zeta"]) == (5, "6")
        assert payload["n_vertices"] == 14

    def test_path_method_is_dp(self, capsys):
        code, out, _ = run(capsys, "compute", "--json", "path:n=7")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "dp"
        assert (payload["gamma"], payload["zeta"]) == (3, "8")

    def test_missing_input_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "no-such-file.edges")
        assert code == 1
        assert "error" in err

    def test_bad_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "uniform:n=0,r=1")
        assert code == 1

    def test_star_error_names_m(self, capsys):
        # The message names the parameter as written, not the field m is stored in.
        assert run(capsys, "compute", "star:m=0") == (1, "", "error: star needs m >= 1\n")

    @pytest.mark.parametrize("command", ["compute", "oracle"])
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_input_is_usage_error(self, capsys, tmp_path, command, kind):
        path = tmp_path / "input.edges"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe a b\n")
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(str(path)) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("header", ["vertices: a b c\n", ""])
    def test_byte_order_mark_is_ignored(self, capsys, tmp_path, header):
        path = tmp_path / "bom.edges"
        path.write_bytes(("\ufeff" + header + "a b\nb c\n").encode())
        code, out, err = run(capsys, "oracle", "--enumerate", str(path))
        assert (code, out, err) == (0, "b\n", "")

    def test_mismatch_exits_2(self, capsys, monkeypatch):
        from dominion import closed_form

        monkeypatch.setattr(
            closed_form, "summary_for", lambda spec: DominationSummary(1, 1)
        )
        code, _, err = run(capsys, "compute", "alt-even:n=8")
        assert code == 2
        assert "mismatch" in err

    def test_path_runs_the_dp_once(self, capsys, monkeypatch):
        # A path spec folds its spine once; neither compute nor the gamma
        # cross-check folds a built tree, and `summary_for` builds no path.
        from dominion import closed_form, dp, families

        calls = []
        real = families._spine_state

        def counting(*args):
            calls.append(args)
            return real(*args)

        def refuse(*_):
            raise AssertionError("a tree was built or folded")

        monkeypatch.setattr(families, "_spine_state", counting)
        monkeypatch.setattr(dp, "dp_count", refuse)
        monkeypatch.setitem(families.FAMILIES, "path", families.FAMILIES["path"]._replace(build=refuse))
        code, out, _ = run(capsys, "compute", "--json", "path:n=9")
        assert code == 0
        assert json.loads(out)["zeta"] == "1"
        assert len(calls) == 1
        assert closed_form.summary_for(families.parse_family_spec("path:n=9")) == DominationSummary(3, 1)
        assert len(calls) == 2

    def test_compute_never_roots(self, capsys, monkeypatch, tmp_path):
        # The DP folds the leaf peel towards vertex 0 that Tree validation
        # already made, so neither `compute` nor `dp_count` calls `root_at`.
        import sys

        from dominion import dp, families, tree

        def refuse(*_):
            raise AssertionError("root_at was called")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "dominion" and hasattr(module, "root_at"):
                monkeypatch.setattr(module, "root_at", refuse)
        with pytest.raises(AssertionError):
            tree.root_at(families.make_path(2), "v1")
        path = tmp_path / "p4.edges"
        path.write_text("a b\nb c\nc d\n")
        specs = ["uniform:n=4,r=2", "comb:n=4", "interior:n=6", "alt-even:n=6", "alt-odd:n=3",
                 "star:m=5", "binary:h=3,delete=b8+b11", "path:n=7", "random:n=12,seed=42"]
        assert {s.partition(":")[0] for s in specs} == set(families.KINDS)
        for text in specs + [str(path)]:
            assert cli.compute_row(text).gamma >= 1
        assert dp.dp_count(families.make_complete_binary(4)) == DominationSummary(9, 1)


class TestSpecFolds:
    """Every family spec takes its DP state from the spec."""

    @pytest.mark.parametrize("spec,digests", [
        ("uniform:n=5,r=2", ("236630cff75db7c80252d59a78999c350f17dcbb775f421b31593a13d6680002",
                             "1cae61ca75c4d7cb006b880531f0982fa08ed2c279836e2ec70f890b8b151105",
                             "38ccc31f8f8bd653cf69999015adc6f0a86cf6912aa907d4a860d7eb6444c8ca")),
        ("comb:n=11", ("0f98c2c70c8324fd33c102cebb8d53911cdbf6857c80e239e6a3c1481994f491",
                       "15bef951e81ae2d8de41063af0248686287535ebbb2b4815725da6e6a956d1dc",
                       "44fb28563be3f570a2fcf64aa7b7bf63f23c3ce85a63c1210c255b9a9f1ba60e")),
        ("interior:n=9", ("63892955b7cd92202544c08837b3d77d07e76c444ad7bd5c46cb6a71e327d4ff",
                          "33d53568bcc9179c44d6e96a52b89f975ebf62370d503928d58ebef6a2345a51",
                          "d72b475526102dfba78854037e661922edfd32f273e12032080eb21e325058da")),
        ("alt-even:n=12", ("ff993d280991794a7252a4bb7bd5d69da617c588dc7291fabc6a506b630305ed",
                           "884d42a51457645c7b7656e201a26f5b83b360ba36b72080ec5ae5e7a2c3053a",
                           "9541ed6baa89e7b45601fbbe320ae63c8d632de8ec519e6b3d13b1e5f70cc048")),
        ("alt-odd:n=13", ("6e3aae2d564c962f2beacb6b89dc500dbfd6ac47ce39a8fc42b3484259edc51a",
                          "fc7b2f8739c692d4dd704776c9c9c59b2a56a246cde85e67983a1d8bc9034b7c",
                          "38f1129a5808bd8de39b47827783fc95d7a105068087099dfd3561d915cdaaed")),
        ("star:m=6", ("60106463c3b81e741f26341a21cddca62550dc1e132fc8ae76a582db8201f20f",
                      "01eb5542c1b50864aaacd4e328b424fa6d2790d4fced97817370f58e17c8ad6f",
                      "b2aa0658b91e8d47994e6f510738567da5e007ff6bf399b91c1a43927518a766")),
        ("binary:h=6", ("f9d8a8692fa4d1256626cf8d547c106462d2977e8fb56570ea165fee5d08fc95",
                        "75792005a16214642944720d3a326a2a870ce9237eb295db96c3759c8f097c7b",
                        "4f8f390cea7540f3e42822c09df60ebbe1bd41e9d642933dc93ada0b857555a7")),
        ("binary:h=5,delete=b32+b33+b35", ("ec3d6bd6fc9a357a18fa6656172514fb0aac5e1a5ba20326cf21783d05906fa0",
                                           "065d819b6d381c3472b08d77d82de334a606d6ce78411fdf09273c22e2be1467",
                                           "8c360b22517c06279fa8ee21c24871337238a928e0a2196904a11072f46eda9f")),
        ("path:n=10", ("32839dd9787430d34ca230a300c747bafac165804f7e41a758a79c47cf2a7a25",
                       "055ee858d8987685d5dfb0b5eac5e96741d4ec52463b63f116d59741444f1e74",
                       "04014477cd50270a8197d1c29e402f232df7df342e04856279f4a6f4d48a192a")),
        ("random:n=30,seed=5", ("568d6a79f1ea877597704995e3050f8756554c57ecd27dde34528f9788f3a462",
                                "32697977ae4b3b4fa74b780d07e47a128dc10a28477182fcdeb7555b54c514d3",
                                "ac3c7a86b3c81e6c66f57efb54207519981ad77980186eeb206928f8b63d82b3")),
    ])
    def test_output_is_pinned(self, capsys, spec, digests):
        # Digests recorded from the build-and-fold path, in the human, JSON
        # and CSV formats; the spec folds must reproduce them byte for byte.
        import hashlib

        for fmt, digest in zip(((), ("--json",), ("--csv",)), digests):
            code, out, err = run(capsys, "compute", *fmt, spec)
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (spec, fmt)

    def test_builds_no_tree(self, capsys, monkeypatch):
        from dominion import families, tree

        def boom(*_, **__):
            raise AssertionError("a tree was built")

        monkeypatch.setattr(tree.Tree, "__init__", boom)
        monkeypatch.setattr(families, "build_tree", boom)
        specs = ["uniform:n=4,r=2", "comb:n=7", "interior:n=6", "alt-even:n=9", "alt-odd:n=8", "star:m=5",
                 "binary:h=4", "binary:h=4,delete=b16+b17+b20+b31", "path:n=11", "random:n=5,seed=1"]
        assert {s.partition(":")[0] for s in specs} == set(families.KINDS)
        for spec in specs:
            assert cli.compute_row(spec).gamma >= 1

    @pytest.mark.parametrize("h", [40, 1100])
    def test_binary_far_past_a_buildable_tree(self, capsys, h):
        import time

        from dominion import binary_summary

        start = time.perf_counter()
        code, out, err = run(capsys, "compute", "--json", f"binary:h={h}")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        row = json.loads(out)
        expected = binary_summary(h)
        assert (row["n_vertices"], row["gamma"], row["zeta"]) == (2 ** (h + 1) - 1, expected.gamma, str(expected.zeta))
        assert row["method"] == "closed_form"

    def test_binary_values_past_the_digit_limit(self, capsys):
        # The vertex count and gamma of binary:h=14290 have 4302 digits, more
        # than str() and json.dumps write.
        from dominion import binary_summary

        h = 14290
        spec = f"binary:h={h}"
        size = cli._digits((2 << h) - 1)
        gamma = cli._digits(binary_summary(h).gamma)
        assert len(size) > 4300 and len(gamma) > 4300
        code, out, err = run(capsys, "compute", "--json", spec)
        assert (code, err) == (0, "")
        row = json.loads(out, parse_int=str)
        assert row == {"family": spec, "n_vertices": size, "gamma": gamma, "zeta": "1", "method": "closed_form"}
        code, out, err = run(capsys, "compute", "--csv", spec)
        assert (code, err) == (0, "")
        assert out == f"family,n_vertices,gamma,zeta,method\r\n{spec},{size},{gamma},1,closed_form\r\n"
        code, out, err = run(capsys, "compute", spec)
        assert (code, err) == (0, "")
        assert out.splitlines()[1:3] == [f"vertices   {size}", f"gamma      {gamma}"]

    @pytest.mark.parametrize(
        "delete,err",
        [
            ("b08", "error: no vertex 'b08'\n"),
            ("b8+b08", "error: no vertex 'b08'\n"),  # not a second hit below b4
            ("b9+b\u0668", "error: no vertex 'b\u0668'\n"),
            ("b08+b4", "error: 'b4' is not a level-3 leaf of the height-3 tree\n"),
        ],
    )
    def test_leaf_label_errors(self, capsys, delete, err):
        # The spec fold checks labels with the helper analyze_deletion uses,
        # and gives the errors the built tree gave.
        assert run(capsys, "compute", f"binary:h=3,delete={delete}") == (1, "", err)


class TestSizeGuard:
    """Specs past families._MAX_VERTICES are refused before anything is built
    or decoded; the spies make any allocation fail the test instead."""

    @pytest.fixture
    def no_allocation(self, monkeypatch):
        from dominion import families, tree

        def boom(*_, **__):
            raise AssertionError("a tree was allocated")

        monkeypatch.setattr(tree.Tree, "__init__", boom)
        monkeypatch.setattr(families, "_pruefer_edges", boom)
        for kind, family in families.FAMILIES.items():
            monkeypatch.setitem(families.FAMILIES, kind, family._replace(build=boom))

    @pytest.mark.parametrize("argv,spec", [
        (("compute", "--json"), "random:n=10000000000,seed=0"),
        (("compute",), "random:n=4194305,seed=3"),
        (("generate",), "binary:h=40"),
        (("generate",), "random:n=10000000000,seed=0"),
        (("generate",), "uniform:n=2000000,r=2"),
        (("oracle",), "binary:h=40"),
        (("oracle", "--cap", "30"), "star:m=4194304"),
        (("oracle",), "binary:h=22,delete=b4194304"),
    ])
    def test_refused_before_allocating(self, capsys, no_allocation, argv, spec):
        out_args = ("-",) if argv[0] == "generate" else ()
        err = f"error: {spec} has more vertices than the limit of 4194304\n"
        assert run(capsys, *argv, spec, *out_args) == (1, "", err)

    @pytest.mark.parametrize("build,spec", [
        (lambda f: f.make_path(4194305), "path:n=4194305"),
        (lambda f: f.make_uniform_pendant(1398102, 2), "uniform:n=1398102,r=2"),
        (lambda f: f.make_interior_pendant(2097154), "interior:n=2097154"),
        (lambda f: f.make_alternating(2796204, "odd"), "alt-odd:n=2796204"),
        (lambda f: f.make_star(10**10), "star:m=10000000000"),
        (lambda f: f.make_complete_binary(40), "binary:h=40"),
        (lambda f: f.random_tree(10**10, 1), "random:n=10000000000,seed=1"),
    ])
    def test_builders_refused_before_allocating(self, no_allocation, build, spec):
        # The public builders build through build_tree, so its limit holds for them.
        from dominion import families
        from dominion.errors import TooLargeError

        with pytest.raises(TooLargeError, match=f"^{spec} has more vertices than the limit of 4194304$"):
            build(families)

    def test_binary_height_refused_without_its_size(self):
        # The binary size refuses a height past the limit before 2 << h is formed.
        from dominion import families
        from dominion.errors import TooLargeError

        h = _Height(10**12)
        with pytest.raises(TooLargeError, match=f"^height {h} is more than the limit of 262144$"):
            families._check_size(families.FamilySpec("binary", h=h))

    @pytest.mark.parametrize("spec", [
        "binary:h=20", "binary:h=21", "random:n=4194304,seed=1", "star:m=4194303", "path:n=300000",
        "random:n=250000,seed=1", "binary:h=17", "comb:n=2097152", "uniform:n=1398101,r=2",
    ])
    def test_the_limit_admits(self, spec):
        # binary:h=20 and every size the tests and the benchmark build fit.
        from dominion import families

        families._check_size(families.parse_family_spec(spec))


class _Height(int):
    """A height that fails the test if 2^h, or 2^(h+1), is ever formed."""

    def __rlshift__(self, other):
        raise AssertionError("2^h was formed")


class TestHeightBound:
    """Binary heights past families._MAX_HEIGHT are refused before the level
    fold runs, and before 2^h is formed."""

    def test_refused_before_2_to_the_h(self):
        from dominion import analyze_deletion, families, random_leaf_subset
        from dominion.errors import TooLargeError

        h = _Height(10**11)
        spec = families.FamilySpec("binary", h=h)
        calls = [lambda: families.FAMILIES["binary"].size(spec), lambda: families.FAMILIES["binary"].fold(spec),
                 lambda: analyze_deletion(h, ()), lambda: random_leaf_subset(h, 3, 0),
                 lambda: random_leaf_subset(h, -1, 0)]
        for call in calls:
            with pytest.raises(TooLargeError, match=f"^height {h} is more than the limit of 262144$"):
                call()

    def test_cli_refuses_past_the_limit(self, capsys, monkeypatch):
        from dominion import families

        monkeypatch.setattr(families, "_MAX_HEIGHT", 20)
        err = "error: height 21 is more than the limit of 20\n"
        for argv in [("compute", "binary:h=21"), ("compute", "--json", "binary:h=21,delete=b2097152"),
                     ("perturb", "--h", "21"), ("perturb", "--h", "21", "--random-size", "3")]:
            assert run(capsys, *argv) == (1, "", err)
        assert run(capsys, "compute", "binary:h=20")[0] == 0
        assert run(capsys, "perturb", "--h", "20", "--random-size", "3")[0] == 0

    def test_the_limit_admits(self):
        # binary:h=14290, which the tests fold, and every larger test height.
        from dominion import families

        for h in (1, 14290, families._MAX_HEIGHT):
            families._check_height(h)


class TestSameVerdict:
    """A bad input meets the checks in one order, whatever the command: the
    grammar, the parameters, the leaf labels, the height, the whole level
    (perturb), the vertex limit and the oracle cap."""

    @pytest.mark.parametrize("spec,perturb,err", [
        ("binary:h=300000", ("--h", "300000"), "height 300000 is more than the limit of 262144"),
        ("binary:h=25,delete=b033554432", ("--h", "25", "--delete", "b033554432"), "no vertex 'b033554432'"),
        ("binary:h=2,delete=b4+b5+b6+b07", ("--h", "2", "--delete", "b4+b5+b6+b07"), "no vertex 'b07'"),
        # several bad labels: the least in str order is named, non-leaves first
        ("binary:h=3,delete=b6+b5+b4", ("--h", "3", "--delete", "b6+b5+b4"),
         "'b4' is not a level-3 leaf of the height-3 tree"),
        ("binary:h=3,delete=b09+b08+b010", ("--h", "3", "--delete", "b09+b08+b010"), "no vertex 'b010'"),
        ("star:n=3", None, "star does not take parameter n"),
        ("star:m=3,n=2", None, "star does not take parameter n"),
        (None, ("--h", "300000", "--random-size", "70000"), "height 300000 is more than the limit of 262144"),
        (None, ("--h", "300000", "--all-single-leaves"), "height 300000 is more than the limit of 262144"),
        # a label written twice is a grammar error, as a repeated key is
        ("binary:h=3,delete=b9+b8+b9+b8", ("--h", "3", "--delete", "b9+b8+b9+b8"), "leaf 'b9' is named more than once"),
        ("binary:h=300000,delete=b8+b8", ("--h", "300000", "--delete", "b8+b8"), "leaf 'b8' is named more than once"),
    ])
    def test_every_command_gives_the_same_error(self, capsys, spec, perturb, err):
        runs = []
        if spec is not None:
            runs += [("compute", spec), ("compute", "--json", spec), ("generate", spec, "-"), ("oracle", spec),
                     ("oracle", "--enumerate", spec)]
        if perturb is not None:
            runs.append(("perturb", *perturb))
        for argv in runs:
            assert run(capsys, *argv) == (1, "", f"error: {err}\n"), argv

    def test_stderr_does_not_depend_on_the_hash_seed(self):
        # Set iteration order follows PYTHONHASHSEED; the error must not.
        import subprocess
        import sys
        from pathlib import Path

        import dominion

        script = (
            "from dominion import cli\n"
            "for spec in ('b4+b5+b6', 'b08+b09+b010', 'b8+b08+b9+b010', 'b08+b4+b16'):\n"
            "    cli.main(['compute', 'binary:h=3,delete=' + spec])\n"
            "    cli.main(['perturb', '--h', '3', '--delete', spec])\n"
        )
        src = str(Path(dominion.__file__).resolve().parents[1])
        errs = set()
        for seed in range(6):
            env = {"PATH": "", "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
            errs.add(done.stderr)
        (err,) = errs
        assert err.splitlines() == [
            *["error: 'b4' is not a level-3 leaf of the height-3 tree"] * 2,
            *["error: no vertex 'b010'"] * 4,
            *["error: 'b16' is not a level-3 leaf of the height-3 tree"] * 2,
        ]


class TestDigits:
    """`_digits` converts by bit halves above `_SPLIT_BITS`; it must match `str`."""

    @pytest.mark.parametrize(
        "bits", [0, 1, 2, 100, cli._SPLIT_BITS, cli._SPLIT_BITS + 1, 3 * cli._SPLIT_BITS, 60_000]
    )
    def test_matches_str(self, bits):
        import sys

        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for n in {(1 << bits) - 1, 1 << bits, 3**bits, (1 << bits) + 12345}:
                assert cli._digits(n) == str(n)
                assert cli._digits(-n) == str(-n)
        finally:
            sys.set_int_max_str_digits(limit)


class TestCountBudget:
    """Spine folds refuse a count past `dp._MAX_COUNT_BITS`, not a vertex count."""

    @pytest.mark.parametrize("spec", ["comb:n=100000000000", "uniform:n=100000000000,r=1"])
    def test_huge_counts_are_refused(self, capsys, spec):
        err = "error: the count of minimum dominating sets would pass the limit of 4194304 bits\n"
        assert run(capsys, "compute", spec) == (1, "", err)

    @pytest.mark.parametrize("spec", ["alt-odd:n=100000000000", "alt-even:n=100000000000"])
    def test_refused_before_the_fold(self, capsys, spec):
        # The closed form's bit bound refuses at once; the fold would first
        # square the alternating block for seconds.
        import time

        err = "error: the count of minimum dominating sets would pass the limit of 4194304 bits\n"
        start = time.perf_counter()
        assert run(capsys, "compute", spec) == (1, "", err)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("spec,row", [
        ("path:n=100000000000", (100000000000, 33333333334, str((33333333333**2 + 5 * 33333333333 + 2) // 2))),
        ("star:m=1000000000000", (1000000000001, 1, "1")),
        ("uniform:n=2,r=1000000000000", (2000000000002, 2, "1")),
    ])
    def test_small_counts_of_huge_trees_answer(self, capsys, spec, row):
        code, out, err = run(capsys, "compute", "--json", spec)
        assert (code, err) == (0, "")
        got = json.loads(out)
        assert (got["n_vertices"], got["gamma"], got["zeta"]) == row

    @pytest.mark.parametrize("n", [2**63, 2**64])
    @pytest.mark.parametrize("template", ["comb:n={}", "uniform:n={},r=2", "interior:n={}"])
    @pytest.mark.parametrize("command", ["compute", "generate", "oracle"])
    def test_host_counts_past_ssize_t(self, capsys, n, template, command):
        # A path kind's hosts are a range too long for len(): every command
        # answers or refuses with a typed error instead of an OverflowError.
        spec = template.format(n)
        code, out, err = run(capsys, command, spec, *(("-",) if command == "generate" else ()))
        if command != "compute":
            assert (code, out, err) == (1, "", f"error: {spec} has more vertices than the limit of 4194304\n")
        elif template.startswith("uniform"):
            assert (code, err) == (0, "")
            assert out.splitlines()[1:4] == [f"vertices   {3 * n}", f"gamma      {n}", "zeta       1"]
        else:
            assert (code, out) == (1, "")
            assert err == "error: the count of minimum dominating sets would pass the limit of 4194304 bits\n"


class TestCountsPastTheDigitLimit:
    """Counts above the interpreter's 4300-digit int-to-str limit print exactly."""

    def test_random_json(self, capsys):
        code, out, err = run(capsys, "compute", "--json", "random:n=70000,seed=1")
        assert (code, err) == (0, "")
        zeta = json.loads(out)["zeta"]
        assert zeta.isdigit() and len(zeta) > 4300

    def test_comb_human(self, capsys):
        code, out, err = run(capsys, "compute", "comb:n=15000")
        assert (code, err) == (0, "")
        zeta = out.split("zeta", 1)[1].split()[0]
        assert Decimal(zeta) == 2**15000

    def test_perturb_csv(self, capsys):
        code, out, err = run(capsys, "perturb", "--h", "16", "--random-size", "30000", "--seed", "1")
        assert (code, err) == (0, "")
        header, line = out.splitlines()  # the X column outgrows csv's field limit
        row = dict(zip(header.split(","), line.split(",")))
        assert len(row["envelope"]) > 4300
        assert Decimal(row["envelope"]) == 2 ** int(row["m1"]) * int(row["zeta_before"])
        assert row["zeta_after"].isdigit()


class TestOracleCommand:
    def test_row(self, capsys):
        code, out, _ = run(capsys, "oracle", "--json", "alt-odd:n=3")
        assert code == 0
        payload = json.loads(out)
        assert (payload["gamma"], payload["zeta"]) == (2, "3")
        assert payload["method"] == "oracle"

    def test_enumerate(self, capsys, tmp_path):
        path = tmp_path / "p2.edges"
        path.write_text("a b\n")
        code, out, _ = run(capsys, "oracle", "--enumerate", str(path))
        assert code == 0
        assert out.splitlines() == ["a", "b"]

    def test_enumerate_e6(self, capsys):
        code, out, _ = run(capsys, "oracle", "--enumerate", "alt-even:n=6")
        assert code == 0
        assert out.splitlines() == ["l4 v2 v6", "l6 v2 v4", "v2 v4 v6"]

    @pytest.mark.parametrize("fmt", ["--json", "--csv"])
    def test_enumerate_is_an_output_format(self, capsys, fmt):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "--enumerate", fmt, "comb:n=2"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (1, "")
        assert "not allowed with argument" in captured.err

    def test_cap(self, capsys):
        code, _, err = run(capsys, "oracle", "--cap", "4", "path:n=5")
        assert code == 1
        assert "cap" in err

    def test_cap_is_checked_before_building(self, capsys, monkeypatch, tmp_path):
        # A spec over --cap is refused from its vertex count, before it is
        # built, with the text the oracle gives a parsed file over the cap.
        from dominion import families

        built = []

        def spy(build):
            return lambda spec: built.append(spec) or build(spec)

        for kind, family in families.FAMILIES.items():
            monkeypatch.setitem(families.FAMILIES, kind, family._replace(build=spy(family.build)))
        for argv, n, cap in [(("binary:h=20",), 2097151, 24), (("--enumerate", "random:n=25,seed=1"), 25, 24),
                             (("--json", "--cap", "4", "path:n=5"), 5, 4)]:
            assert run(capsys, "oracle", *argv) == (1, "", f"error: {n} vertices exceeds the oracle cap of {cap}\n")
        assert built == []
        path = tmp_path / "p5.edges"
        path.write_text("v1 v2\nv2 v3\nv3 v4\nv4 v5\n")
        assert run(capsys, "oracle", "--cap", "4", str(path)) == (1, "", "error: 5 vertices exceeds the oracle cap of 4\n")
        # What building refuses is still refused first, and a spec within the cap is built.
        assert run(capsys, "oracle", "binary:h=5,delete=b032") == (1, "", "error: no vertex 'b032'\n")
        # generate refuses a misspelled deleted leaf before building too.
        assert run(capsys, "generate", "binary:h=5,delete=b63+b032", "-") == (1, "", "error: no vertex 'b032'\n")
        assert run(capsys, "oracle", "--cap", "5", "path:n=5")[0] == 0
        assert [spec.spec_string() for spec in built] == ["path:n=5"]

    def test_subset_budget(self, capsys):
        code, out, err = run(capsys, "oracle", "path:n=1000", "--cap", "1000")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (("--json", "comb:n=11"), "431b05ca55d34e1b51d3cc13560b016044c4f8e97ec2bedef20e3f7eb7a1531a"),
            (("--json", "alt-odd:n=16"), "c8d65d97c83dd5857fb3b50c738c77a2fa92aa5b50d9366fcbc50815686078d1"),
            (("--json", "random:n=22,seed=3"),
             "f1a0e465e0196f814e20df580be6c5acac361607ad065cbad9608824501bf91c"),
            (("--enumerate", "alt-even:n=10"),
             "f57f0b8295dbf8a5beab052f4ec6a8647a58c05ed92fd75e1f74802cf8f03757"),
            (("--enumerate", "comb:n=6"), "1ab1b05740a18df02b5767ac74834995b859e3f5b207abdfab0cc03bee92634f"),
        ],
    )
    def test_output_is_pinned(self, capsys, argv, digest):
        # Digests recorded from the unpruned search, which tested every
        # subset; the pruned search must reproduce its output byte for byte.
        import hashlib

        code, out, err = run(capsys, "oracle", *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestGenerate:
    def test_binary_h2(self, capsys, tmp_path):
        out_path = tmp_path / "t2.edges"
        code, _, _ = run(capsys, "generate", "binary:h=2", str(out_path))
        assert code == 0
        from dominion import parse_edge_list

        assert parse_edge_list(out_path.read_text()).vertex_count == 7

    def test_uniform(self, capsys, tmp_path):
        out_path = tmp_path / "u.edges"
        run(capsys, "generate", "uniform:n=3,r=2", str(out_path))
        from dominion import parse_edge_list

        assert parse_edge_list(out_path.read_text()).vertex_count == 9

    def test_random_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        run(capsys, "generate", "random:n=10,seed=7", str(a))
        run(capsys, "generate", "random:n=10,seed=7", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "spec,digest",
        [
            ("binary:h=10", "bf2bc3675c83c14a8dda0b6307812f5ea39e849b6e5ce5e3616ac6d4a6075167"),
            ("random:n=2000,seed=7",
             "21dfd8cca3689eab196ef7e12f7eda5debcd01c4f4d4bf66179c1fb8d14e5fa3"),
            ("path:n=999", "fad66fdc875e3fc5b31dcf5ded0b5fe15bdc31130347bad77cf035e166aaccdb"),
            ("uniform:n=50,r=3",
             "4786181f5b1d86da5b8719d08c2d0549e0a00a32cd0fb1ae5f65205fb1ee04a9"),
        ],
    )
    def test_output_is_pinned(self, capsys, spec, digest):
        # Digests recorded from the serializer that sorted label pairs; the
        # rank-pair sort must reproduce its output byte for byte.
        import hashlib

        code, out, _ = run(capsys, "generate", spec, "-")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, kind):
        path = tmp_path / "missing" / "x.edges" if kind == "missing-directory" else tmp_path
        code, out, err = run(capsys, "generate", "comb:n=3", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert repr(str(path)) in err

    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "generate", "star:m=2", "-")
        assert code == 0
        assert out.startswith("vertices: c u1 u2\n")

    def test_writes_in_blocks(self, monkeypatch):
        # The header, then the edge lines in blocks of 2^14; never the whole text at once.
        from dominion import build_tree, parse_family_spec, to_edge_list

        class Handle:
            def write(self, text):
                writes.append(text)

        writes = []
        monkeypatch.setattr(cli.sys, "stdout", Handle())
        assert cli.main(["generate", "path:n=40000", "-"]) == 0
        monkeypatch.undo()
        assert [text.count("\n") for text in writes] == [1, 16384, 16384, 7231]
        assert "".join(writes) == to_edge_list(build_tree(parse_family_spec("path:n=40000")))

    def test_compute_on_file_matches_spec(self, capsys, tmp_path):
        out_path = tmp_path / "g.edges"
        run(capsys, "generate", "alt-odd:n=9", str(out_path))
        code, out_file, _ = run(capsys, "compute", "--json", str(out_path))
        file_payload = json.loads(out_file)
        code, out_spec, _ = run(capsys, "compute", "--json", "alt-odd:n=9")
        spec_payload = json.loads(out_spec)
        assert (file_payload["gamma"], file_payload["zeta"]) == (
            spec_payload["gamma"],
            spec_payload["zeta"],
        )


class TestPerturb:
    def test_single_deletion(self, capsys):
        code, out, _ = run(capsys, "perturb", "--h", "3", "--delete", "b8")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(cli.PERTURB_COLUMNS)
        assert rows[1] == ["3", "b8", "1", "5", "5", "3", "6", "6", "true"]

    def test_columns_follow_the_report_fields(self, capsys):
        # Each row is the report's fields in declaration order, with the
        # deleted set written as X and bound_holds as holds.
        from dataclasses import fields

        from dominion import LeafDeletionReport

        names = [f.name for f in fields(LeafDeletionReport)]
        renamed = {"deleted": "X", "bound_holds": "holds"}
        assert [renamed.get(name, name) for name in names] == list(cli.PERTURB_COLUMNS)
        code, out, err = run(capsys, "perturb", "--h", "2", "--delete", "b5+b4")
        assert (code, err) == (0, "")
        assert list(csv.reader(io.StringIO(out)))[1] == ["2", "b4+b5", "0", "2", "2", "1", "2", "1", "false"]

    def test_all_single_leaves(self, capsys):
        code, out, _ = run(capsys, "perturb", "--h", "2", "--all-single-leaves")
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 5  # header + one row per leaf
        assert {r[1] for r in rows[1:]} == {"b4", "b5", "b6", "b7"}

    def test_random_size_deterministic(self, capsys):
        _, out1, _ = run(capsys, "perturb", "--h", "4", "--random-size", "3", "--seed", "11")
        _, out2, _ = run(capsys, "perturb", "--h", "4", "--random-size", "3", "--seed", "11")
        assert out1 == out2

    def test_random_size_defaults_to_seed_0(self, capsys):
        args = ("perturb", "--h", "4", "--random-size", "5")
        assert run(capsys, *args) == run(capsys, *args, "--seed", "0")

    @pytest.mark.parametrize("mode", [(), ("--delete", "b8"), ("--all-single-leaves",)])
    def test_seed_without_random_size_is_a_usage_error(self, capsys, mode):
        err = "error: --seed is only used with --random-size\n"
        assert run(capsys, "perturb", "--h", "3", *mode, "--seed", "4") == (1, "", err)

    def test_empty_deletion_default(self, capsys):
        code, out, _ = run(capsys, "perturb", "--h", "2")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1] == ["2", "", "0", "2", "2", "1", "1", "1", "true"]

    def test_empty_delete_is_the_default(self, capsys):
        assert run(capsys, "perturb", "--h", "3", "--delete", "") == run(capsys, "perturb", "--h", "3")

    def test_sibling_pair_reported_false(self, capsys):
        code, out, _ = run(capsys, "perturb", "--h", "2", "--delete", "b4+b5")
        assert code == 0  # reporting is not a verification failure
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][-1] == "false"

    def test_bad_height(self, capsys):
        code, _, err = run(capsys, "perturb", "--h", "1")
        assert code == 1

    @pytest.mark.parametrize(
        "h,delete,err",
        [
            ("3", "b08", "error: no vertex 'b08'\n"),
            ("3", "b8+b08", "error: no vertex 'b08'\n"),
            ("3", "b\u0668", "error: no vertex 'b\u0668'\n"),
            ("3", "b08+b4", "error: 'b4' is not a level-3 leaf of the height-3 tree\n"),
            ("2", "b4+b5+b6+b07", "error: no vertex 'b07'\n"),  # b7 stays: not the whole level
            ("2", "b4+b5+b6+b7", "error: cannot delete the entire bottom level\n"),
        ],
    )
    def test_label_errors(self, capsys, h, delete, err):
        assert run(capsys, "perturb", "--h", h, "--delete", delete) == (1, "", err)

    def test_large_height(self, capsys):
        leaf = f"b{1 << 1100}"
        code, out, err = run(capsys, "perturb", "--h", "1100", "--delete", leaf)
        assert (code, err) == (0, "")
        row = list(csv.reader(io.StringIO(out)))[1]
        assert row[:3] == ["1100", leaf, "1"]
        assert row[3] == row[4] and row[5:] == ["1", "2", "2", "true"]

    def test_gamma_past_the_digit_limit(self, capsys):
        from dominion import binary_summary

        code, out, err = run(capsys, "perturb", "--h", "14290")
        assert (code, err) == (0, "")
        row = list(csv.reader(io.StringIO(out)))[1]
        gamma = str(Decimal(binary_summary(14290).gamma))
        assert len(gamma) > 4300 and row[3:5] == [gamma, gamma]

    def test_random_size_at_height_40(self, capsys):
        import time

        start = time.perf_counter()
        code, out, err = run(capsys, "perturb", "--h", "40", "--random-size", "5", "--seed", "1")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert len(list(csv.reader(io.StringIO(out)))[1][1].split("+")) == 5

    @pytest.mark.parametrize("h", ["17", "40"])
    def test_all_single_leaves_past_the_limit_lists_nothing(self, capsys, monkeypatch, h):
        from dominion import families

        def refuse(*_):
            raise AssertionError("the level was listed")

        monkeypatch.setattr(families, "level_labels", refuse)
        err = f"error: --all-single-leaves at height {h} lists 2^{h} leaves, more than the limit of 65536\n"
        assert run(capsys, "perturb", "--h", h, "--all-single-leaves") == (1, "", err)

    def test_all_single_leaves_at_the_limit_is_admitted(self, capsys, monkeypatch):
        from dominion import families

        calls = []
        monkeypatch.setattr(families, "level_labels", lambda h, level: calls.append((h, level)) or ["b65536"])
        code, out, err = run(capsys, "perturb", "--h", "16", "--all-single-leaves")
        assert (code, err, calls) == (0, "", [(16, 16)])
        assert len(out.splitlines()) == 2

    @pytest.mark.parametrize("h,size", [("30", "100000000"), ("17", "65537")])
    def test_random_size_past_the_limit_draws_nothing(self, capsys, monkeypatch, h, size):
        from dominion import SplitMix64

        def refuse(*_):
            raise AssertionError("leaves were drawn")

        monkeypatch.setattr(SplitMix64, "sample", refuse)
        err = f"error: a random leaf set of {size} leaves is more than the limit of 65536\n"
        assert run(capsys, "perturb", "--h", h, "--random-size", size) == (1, "", err)

    def test_random_size_past_the_digit_limit(self, capsys, monkeypatch):
        # 2^14285 - 1, the largest level-14284 label, is the first with 4301
        # digits; the refusal comes before any leaf is drawn.
        from dominion import SplitMix64

        code, out, err = run(capsys, "perturb", "--h", "14283", "--random-size", "1")
        assert (code, err) == (0, "")
        assert len(list(csv.reader(io.StringIO(out)))[1][1]) <= 4301

        def refuse(*_):
            raise AssertionError("leaves were drawn")

        monkeypatch.setattr(SplitMix64, "sample", refuse)
        err = "error: level-14284 leaf labels have more than 4300 digits, the int-to-str limit\n"
        assert run(capsys, "perturb", "--h", "14284", "--random-size", "1") == (1, "", err)

    @pytest.mark.parametrize("h,size,extra", [(63, 5, ("--seed", "1")), (200, 3, ())])
    def test_random_size_past_the_ssize_t_range(self, capsys, h, size, extra):
        # 2^63 leaves overflow len() of the level's range; 2^200 are more
        # than one 64-bit draw can index.
        import time

        start = time.perf_counter()
        code, out, err = run(capsys, "perturb", "--h", str(h), "--random-size", str(size), *extra)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        leaves = list(csv.reader(io.StringIO(out)))[1][1].split("+")
        assert len(set(leaves)) == size
        assert all(1 << h <= int(leaf[1:]) < 2 << h for leaf in leaves)


class TestVerifyTables:
    def test_fresh_build_passes(self, capsys):
        code, out, _ = run(capsys, "verify-tables")
        assert code == 0
        assert "table 1: 36 cells checked" in out
        assert "all checks passed" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify-tables", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["table1_cells"] == 36
        assert all(cell["ok"] for cell in payload["cells"])

    def test_csv_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify-tables", "--csv"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (1, "")
        assert "unrecognized arguments: --csv" in captured.err

    def test_fault_injection_names_failing_cell(self, capsys, monkeypatch):
        from dominion import closed_form

        real = closed_form.fibonacci
        monkeypatch.setattr(
            closed_form, "fibonacci", lambda t: real(t) + (1 if t == 2 else 0)
        )
        code, out, _ = run(capsys, "verify-tables")
        assert code == 2
        assert out.splitlines()[0] == (
            "MISMATCH alt-even:n=2: closed_form=(gamma=1, zeta=2), dp=(gamma=1, zeta=1), oracle=(gamma=1, zeta=1)"
        )
        assert "alt-" in out
        code, out, _ = run(capsys, "verify-tables", "--json")
        payload = json.loads(out)
        assert (code, payload["ok"], payload["table1_cells"], payload["table2_cells"]) == (2, False, 36, 82)
        assert payload["cells"][0] == {
            "table": 1, "family": "alt-even:n=2", "ok": False,
            "methods": {"closed_form": {"gamma": 1, "zeta": "2"}, "dp": {"gamma": 1, "zeta": "1"},
                        "oracle": {"gamma": 1, "zeta": "1"}},
        }
        assert list(payload["cells"][0]) == ["table", "family", "ok", "methods"]


class TestUsageContract:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    def test_conflicting_perturb_modes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["perturb", "--h", "2", "--delete", "b4", "--all-single-leaves"])
        assert exc.value.code == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0

    def test_python_dash_m(self):
        # The package runs as a module with the same streams and exit codes.
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for argv, code in ((["compute", "--json", "comb:n=3"], 0), (["compute", "comb:n=0"], 1)):
            done = subprocess.run([sys.executable, "-m", "dominion", *argv],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert (done.returncode, done.stdout, done.stderr) == _call(argv)
            assert done.returncode == code


# Edge-list text with comments, headers, a BOM, self-loops and repeated
# edges: a random tree's edges (v(i+1) below one of v0..vi) mixed with lines
# over a few labels, so that trees, cycles and repeats all come up.
_LABELS = st.sampled_from(["a", "b", "v0", "v1", "v2", "01", "#x", "vertices:", "é"])
_LINES = st.one_of(
    st.tuples(_LABELS, _LABELS).map(" ".join),
    st.lists(_LABELS, max_size=4).map(lambda labels: " ".join(["vertices:", *labels])),
    st.text(max_size=8).map(lambda text: "# " + text),
    st.lists(_LABELS, max_size=3).map(" ".join),
    st.text(alphabet=" \t\r\x0b\x0c\x1c\u2028\ufeffab", max_size=6),
)
_TREE = st.lists(st.integers(0, 99), max_size=7).map(
    lambda picks: [f"v{i + 1} v{p % (i + 1)}" for i, p in enumerate(picks)])
_EDGE_TEXT = st.tuples(
    st.sampled_from(["", "\ufeff"]),
    st.tuples(_TREE, st.lists(_LINES, max_size=3)).flatmap(lambda t: st.permutations(t[0] + t[1])),
    st.sampled_from(["\n", "\r\n"]),
).map(lambda t: t[0] + t[2].join(t[1]) + t[2])
_FILE_BYTES = st.one_of(_EDGE_TEXT.map(str.encode), st.binary(max_size=24))

# Spec strings: well-formed ones for every kind, and near misses. n stays
# small, since the alternating folds run for seconds on a huge n before the
# count budget refuses it; the other parameters go huge too, as they are
# refused or folded in O(log) time.
_SMALL = st.integers(-3, 40).map(str)
_VALUES = {
    "n": st.one_of(_SMALL, st.just("9" * 4400)),
    "delete": st.sampled_from(["b8", "b8+b11", "b8+b8", "b3", "x", "", "b" + str(1 << 70)]),
}
_HUGE = st.sampled_from([str(10**11), str(2**70)])
_WELL_FORMED = st.sampled_from(families.KINDS).flatmap(lambda kind: st.tuples(
    *(st.integers(0, 12).map(lambda v, p=p: f"{p}={v}") for p in families.FAMILIES[kind].params)
).map(lambda params: f"{kind}:" + ",".join(params)))


def _specs(values):
    """Spec strings whose parameter `key`, when written, takes its value
    from `values[key]`."""
    param = st.sampled_from(["n", "m", "r", "h", "seed", "delete", "q", ""]).flatmap(
        lambda key: values.get(key, st.one_of(_SMALL, _HUGE, st.sampled_from(["x", " 5 "])))
        .map(lambda value: f"{key}={value}")
    )
    return st.one_of(_WELL_FORMED, st.tuples(
        st.sampled_from([*families.KINDS, "Binary", " comb", "nope", ""]),
        st.sampled_from([":", ""]),
        st.lists(st.one_of(param, st.text(max_size=4)), max_size=3).map(",".join),
    ).map("".join))


_SPEC = _specs(_VALUES)
# `generate` builds every tree it is given, and h = 18..21 is 2^19..2^22
# vertices, so a height stays small unless it is refused before any work.
_SMALL_HEIGHT = st.one_of(st.integers(-3, 10).map(str), _HUGE, st.just(str((1 << 18) + 1)))
_GENERATE_SPEC = _specs({**_VALUES, "h": _SMALL_HEIGHT})
_SIZE = st.one_of(st.integers(0, 12).map(str), _SMALL, _HUGE, st.just("x"))
_PERTURB_FLAG = st.one_of(
    _VALUES["delete"].map(lambda leaves: ["--delete", leaves]),
    st.tuples(_SIZE, st.one_of(_SMALL, _HUGE)).map(lambda t: ["--random-size", t[0], "--seed", t[1]]),
    _SIZE.map(lambda size: ["--random-size", size]),
    st.one_of(_SMALL, _HUGE).map(lambda seed: ["--seed", seed]),
    st.just(["--all-single-leaves"]),
)
_PERTURB_ARGV = st.tuples(
    st.one_of(st.integers(2, 10).map(str), _SMALL_HEIGHT).map(lambda h: ["--h", h]),
    st.lists(_PERTURB_FLAG, max_size=2),
).map(lambda t: ["perturb", *t[0], *(arg for flag in t[1] for arg in flag)])


def _call(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert out == ""


class TestFuzz:
    """Any input ends in exit 0, 1 or 2 with a typed error: no traceback,
    and nothing on stdout when the input is refused."""

    @settings(max_examples=120, deadline=None)
    @given(contents=_FILE_BYTES, command=st.sampled_from([
        ["compute"], ["compute", "--json"], ["compute", "--csv"], ["oracle", "--cap", "8"],
        ["oracle", "--enumerate", "--cap", "8"]]))
    def test_edge_list_files(self, tmp_path_factory, contents, command):
        path = tmp_path_factory.getbasetemp() / "fuzz.edges"
        path.write_bytes(contents)
        _assert_contract(*_call([*command, str(path)]))

    @settings(max_examples=120, deadline=None)
    @given(spec=_SPEC, command=st.sampled_from([
        ["compute"], ["compute", "--json"], ["compute", "--csv"], ["oracle", "--cap", "8"]]))
    def test_spec_strings(self, spec, command):
        _assert_contract(*_call([*command, spec]))

    @settings(max_examples=60, deadline=None)
    @given(spec=_GENERATE_SPEC, out=st.sampled_from(["file", "-", "directory"]))
    def test_generate(self, tmp_path_factory, spec, out):
        base = tmp_path_factory.getbasetemp()
        path = {"file": str(base / "fuzz-generated.edges"), "-": "-", "directory": str(base)}[out]
        _assert_contract(*_call(["generate", spec, path]))

    @settings(max_examples=80, deadline=None)
    @given(argv=_PERTURB_ARGV)
    def test_perturb(self, argv):
        _assert_contract(*_call(argv))
