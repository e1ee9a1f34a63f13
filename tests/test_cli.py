import csv
import io
import json
from decimal import Decimal

import pytest

from dominion import DominationSummary, cli


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
        from dominion import closed_form, dp

        calls = []
        real = dp.dp_count

        def counting(tree):
            calls.append(tree)
            return real(tree)

        monkeypatch.setattr(dp, "dp_count", counting)
        monkeypatch.setattr(closed_form, "dp_count", counting)
        code, out, _ = run(capsys, "compute", "--json", "path:n=9")
        assert code == 0
        assert json.loads(out)["zeta"] == "1"
        assert len(calls) == 1


    def test_compute_never_roots(self, capsys, monkeypatch, tmp_path):
        # The DP folds the traversal from vertex 0 that Tree validation
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
            ("2", "b4+b5+b6+b07", "error: cannot delete the entire bottom level\n"),
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
        assert "MISMATCH" in out
        assert "alt-" in out


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
