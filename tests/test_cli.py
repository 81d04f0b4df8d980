import json
import os
from unittest import mock

import pytest

import ggsver as gv
from ggsver import cli
from ggsver.ggs import DEGREE_CAP, default_depth


class TestVectorParsing:
    def test_rows_and_entries(self):
        assert cli.parse_vectors("1,2;2,1") == [[1, 2], [2, 1]]

    def test_garbage_rejected(self):
        with pytest.raises(gv.SpecError):
            cli.parse_vectors("1,x")

    def test_out_of_range_warns_and_reduces(self, capsys):
        code = cli.main(
            ["verify", "--p", "3", "--vectors", "4,2", "--depth", "2",
             "--checks", "rank_growth", "--format", "json"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "reduced mod 3" in captured.err
        payload = json.loads(captured.out)
        assert payload["report"]["spec"]["vectors"] == [[1, 2]]


class TestSpecFiles:
    def test_round_trip(self):
        text = cli.format_spec_file(5, [(1, 1, 1, 1), (1, 0, 0, 1)], label="pair")
        p, vectors, label = cli.parse_spec_file(text)
        assert (p, vectors, label) == (5, [[1, 1, 1, 1], [1, 0, 0, 1]], "pair")
        assert cli.format_spec_file(p, vectors, label) == text

    def test_unknown_field_named(self):
        with pytest.raises(gv.SpecError) as exc:
            cli.parse_spec_file("format = ggsver-spec/1\np = 3\nwat = 1\n")
        assert "wat" in str(exc.value)

    def test_missing_fields(self):
        with pytest.raises(gv.SpecError):
            cli.parse_spec_file("format = ggsver-spec/1\np = 3\n")

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "spec.txt"
        path.write_text(cli.format_spec_file(3, [(1, 2)], label="basic"))
        code = cli.main(
            ["verify", "--spec", str(path), "--depth", "2",
             "--checks", "rank_growth", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["spec"]["label"] == "basic"

    def test_label_overrides_the_file(self, tmp_path, capsys):
        path = tmp_path / "spec.txt"
        path.write_text(cli.format_spec_file(3, [(1, 2)], label="basic"))
        assert cli.main(["info", "--spec", str(path), "--label", "other"]) == 0
        assert capsys.readouterr().out.startswith("label: other\n")

    @pytest.mark.parametrize(
        "command",
        [["verify"], ["info"], ["table", "--max-depth", "2"]],
        ids=["verify", "info", "table"],
    )
    @pytest.mark.parametrize(
        "mixed",
        [["--p", "5"], ["--vectors", "1,1,1,1"], ["--p", "5", "--vectors", "1,1,1,1"]],
        ids=["p", "vectors", "both"],
    )
    def test_spec_file_with_p_or_vectors_refused(self, command, mixed, tmp_path, capsys):
        # the file says p = 3; neither source may silently win
        path = tmp_path / "spec.txt"
        path.write_text(cli.format_spec_file(3, [(1, 2)]))
        with work_started(), mock.patch.object(
            cli, "run_all", side_effect=AssertionError("work started")
        ):
            code = cli.main(command + ["--spec", str(path), *mixed])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: --spec FILE cannot be combined with --p or --vectors\n"
        )


class TestVerifyCommand:
    def test_exit_zero_and_report_shape(self, capsys):
        code = cli.main(
            ["verify", "--p", "3", "--vectors", "1,2", "--depth", "3",
             "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == cli.REPORT_FORMAT
        ids = [c["id"] for c in payload["report"]["checks"]]
        assert ids == list(gv.CHECKS)

    def test_validation_error_is_exit_two(self, capsys):
        code = cli.main(
            ["verify", "--p", "3", "--vectors", "1,2;2,1", "--depth", "3"]
        )
        assert code == 2
        assert "dependent" in capsys.readouterr().err

    def test_constant_spec_exit_zero(self, capsys):
        code = cli.main(
            ["verify", "--p", "3", "--vectors", "1,1", "--depth", "4",
             "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["classification"] == "ConstantVectorException"

    @pytest.mark.parametrize(
        "vectors,depth,abelianization",
        [
            ("1,2", 1, "vacuous"),
            ("1,2", 2, "holds"),
            ("1,0;0,1", 1, "vacuous"),
            ("1,0;0,1", 2, "vacuous"),
        ],
    )
    def test_shallow_depths_give_no_verdict_without_evidence(
        self, vectors, depth, abelianization, capsys
    ):
        # abelianization needs depth r+1 and the st(1)' containment depth 3;
        # below that they are vacuous, and nothing fails
        code = cli.main(
            ["verify", "--p", "3", "--vectors", vectors, "--depth", str(depth),
             "--format", "json"]
        )
        assert code == 0
        checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)["report"]["checks"]}
        assert "fails" not in {c["status"] for c in checks.values()}
        assert checks["abelianization"]["status"] == abelianization
        assert checks["stab1_derived_in_gamma3"]["status"] == "vacuous"
        assert "needs depth at least 3" in checks["stab1_derived_in_gamma3"]["reason"]

    @pytest.mark.parametrize(
        "p,vectors,skipped",
        [
            # a symmetric single vector: the branch identity is not claimed
            ("5", "1,2,2,1", "regular_branch"),
            # no row starts with a nonzero entry: no reduction is reachable
            ("3", "0,1", "key_congruence"),
        ],
    )
    def test_unmet_hypotheses_are_skipped_not_failed(self, p, vectors, skipped, capsys):
        code = cli.main(
            ["verify", "--p", p, "--vectors", vectors, "--depth", "4",
             "--format", "json"]
        )
        assert code == 0
        checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)["report"]["checks"]}
        assert "fails" not in {c["status"] for c in checks.values()}
        assert checks[skipped]["status"] == "skipped"

    def test_failing_verdict_maps_to_exit_one(self):
        payload = {"report": {"checks": [{"status": "fails"}, {"status": "holds"}]}}
        assert cli.exit_code_for(payload) == 1
        payload = {"report": {"checks": [{"status": "skipped"}, {"status": "vacuous"}]}}
        assert cli.exit_code_for(payload) == 0

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(
            ["verify", "--p", "3", "--vectors", "1,2", "--depth", "3",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["depth"] == 3

    @pytest.mark.parametrize("selection", [",", ""])
    def test_empty_selection_is_refused(self, selection, capsys):
        code = cli.main(
            ["verify", "--p", "3", "--vectors", "1,2", "--depth", "3", "--checks", selection]
        )
        assert code == 2
        assert "names no check" in capsys.readouterr().err

    def test_writes_nothing_but_the_out_report(self, tmp_path, monkeypatch, capsys):
        # the benchmark's guard against stored reports reads these two places
        home, store = tmp_path / "home", tmp_path / "store"
        home.mkdir()
        store.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("GGSVER_CACHE_DIR", str(store))
        args = ["verify", "--p", "3", "--vectors", "1,2", "--depth", "3", "--format", "json"]
        out = tmp_path / "report.json"
        assert cli.main(args + ["--no-cache"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert cli.main(args + ["--out", str(out)]) == 0
        assert list(home.iterdir()) == [] and list(store.iterdir()) == []
        assert sorted(tmp_path.iterdir()) == [home, out, store]
        written = json.loads(out.read_text())
        assert cli.strip_timings(printed) == cli.strip_timings(written)
        with pytest.raises(SystemExit):
            cli.main(["verify", "--help"])
        assert "cache" not in capsys.readouterr().out.lower()

    def test_unknown_check_exit_two(self, capsys):
        code = cli.main(
            ["verify", "--p", "3", "--vectors", "1,2", "--depth", "3",
             "--checks", "nope"]
        )
        assert code == 2


class TestFormatAgreement:
    def test_all_formats_carry_the_same_numbers(self, capsys):
        spec = gv.validate(3, [(1, 2)])
        report = gv.run_all(spec, depth=3)
        payload = cli.report_payload(report)
        as_json = json.loads(cli.render_json(payload))
        assert as_json == payload

        csv_text = cli.render_csv(payload)
        lines = csv_text.strip().splitlines()[1:]
        assert len(lines) == len(payload["report"]["checks"])
        for line, entry in zip(lines, payload["report"]["checks"]):
            head, _, details = line.partition(',"')
            claim_id, status, level, _ = head.split(",")
            assert claim_id == entry["id"]
            assert status == entry["status"]
            assert int(level) == entry["level"]
            parsed = json.loads(details[:-1].replace('""', '"'))
            assert parsed == entry["details"]

        text = cli.render_text(payload)
        for entry in payload["report"]["checks"]:
            assert entry["id"] in text
            if entry["details"]:
                blob = json.dumps(
                    entry["details"], sort_keys=True, separators=(",", ":")
                )
                assert blob in text


class TestDeterminism:
    def test_reports_identical_modulo_timings(self, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = cli.main(
                ["verify", "--p", "3", "--vectors", "1,2", "--depth", "3",
                 "--out", str(out)]
            )
            assert code == 0
            outs.append(json.loads(out.read_text()))
        stripped = [cli.strip_timings(p) for p in outs]
        assert json.dumps(stripped[0], sort_keys=True) == json.dumps(
            stripped[1], sort_keys=True
        )
        assert outs[0]["fingerprint"] == outs[1]["fingerprint"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--p", "3", "--vectors", "1,0;0,1", "--depth", "4", "--format", "text"],
            ["table", "--p", "3", "--vectors", "1,2", "--max-depth", "4", "--format", "csv"],
            ["info", "--p", "5", "--vectors", "1,1,1,1;1,0,0,1"],
        ],
    )
    def test_the_one_parser_gives_byte_identical_output(self, argv, capsys):
        # the text report has no wall times; the parser is built once per
        # process and parsing leaves it as it was
        outs = []
        for _ in range(2):
            assert cli.main(argv) == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1] and outs[0].out
        assert cli.build_parser() is cli.build_parser()

    @staticmethod
    def _golden(name):
        golden_path = os.path.join(os.path.dirname(__file__), "golden", name)
        with open(golden_path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def test_golden_report(self):
        spec = gv.validate(3, [(1, 2)])
        payload = cli.strip_timings(cli.report_payload(gv.run_all(spec, depth=4)))
        assert payload == self._golden("gupta_sidki_depth4.json")

    def test_golden_two_generator_report(self):
        # r = 2 runs psi2_second_derived and compares with block products
        # and the subdirect projection of a group with two directed generators
        spec = gv.validate(3, [(1, 0), (0, 1)])
        payload = cli.strip_timings(cli.report_payload(gv.run_all(spec, depth=4)))
        assert payload == self._golden("two_generators_depth4.json")


SIX_UNIT_ROWS = ";".join(",".join(str(int(i == j)) for j in range(6)) for i in range(6))

# (p, vectors, the deepest depth within DEGREE_CAP = 3125 leaves): 2187,
# exactly 3125 and 2401 leaves; one level deeper is 6561, 15625 and 16807
CAP_EDGES = [(3, "1,2", 7), (5, "1,2,3,4", 5), (7, SIX_UNIT_ROWS, 4)]


def entry_points(p, vectors, depth, opt_in):
    """build, run_all, verify and table at one depth, with or without the
    opt-in; the CLI ones return the exit code."""
    spec = cli.validate(p, cli.parse_vectors(vectors))
    args = ["--p", str(p), "--vectors", vectors]
    flag = ["--allow-slow"] if opt_in else []
    return [
        lambda: gv.build(spec, depth, allow_large=opt_in),
        lambda: gv.run_all(spec, depth=depth, allow_large=opt_in),
        lambda: cli.main(["verify", *args, "--depth", str(depth), *flag]),
        lambda: cli.main(["table", *args, "--max-depth", str(depth), *flag]),
    ]


def work_started():
    return mock.patch("ggsver.ggs.rooted", side_effect=AssertionError("work started"))


class TestDepthPolicy:
    """One size gate, in build: every entry point refuses the same depths
    with the same message and accepts them with the opt-in."""

    @pytest.mark.parametrize("p,vectors,deepest", CAP_EDGES)
    def test_refused_above_the_cap_with_one_message(self, p, vectors, deepest, capsys):
        depth = deepest + 1
        assert p**deepest <= DEGREE_CAP < p**depth
        build, run_all, verify, table = entry_points(p, vectors, depth, False)
        with work_started():
            with pytest.raises(gv.SpecError) as refused:
                build()
            message = str(refused.value)
            assert "allow_large" in message and "--allow-slow" in message
            with pytest.raises(gv.SpecError) as again:
                run_all()
            assert str(again.value) == message
            for command in (verify, table):
                assert command() == 2
                assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("p,vectors,deepest", CAP_EDGES)
    def test_accepted_within_the_cap_or_with_the_opt_in(self, p, vectors, deepest):
        runs = entry_points(p, vectors, deepest, False)
        runs += entry_points(p, vectors, deepest + 1, True)
        with work_started():
            for run in runs:
                with pytest.raises(AssertionError, match="work started"):
                    run()

    @pytest.mark.parametrize(
        "p,vectors",
        [(3, "1,2"), (3, "1,0;0,1"), (5, "1,2,3,4"), (11, "1,2,3,4,5,6,7,8,9,10")],
    )
    def test_default_depth_runs_quietly(self, p, vectors, capsys):
        code = cli.main(
            ["verify", "--p", str(p), "--vectors", vectors, "--format", "json"]
        )
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        spec = cli.validate(p, cli.parse_vectors(vectors))
        assert json.loads(captured.out)["report"]["depth"] == default_depth(spec)

    @pytest.mark.parametrize("depth", ["0", "-2"])
    @pytest.mark.parametrize(
        "command,option", [(["verify"], "--depth"), (["table"], "--max-depth")]
    )
    def test_depth_below_one_refused(self, command, option, depth, capsys):
        code = cli.main(command + ["--p", "3", "--vectors", "1,2", option, depth])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: depth must be at least 1, got {depth}\n")

    def test_past_what_numpy_can_index_is_refused_without_a_traceback(self, capsys):
        code = cli.main(
            ["verify", "--p", "3", "--vectors", "1,2", "--depth", "40", "--allow-slow"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_out_of_memory_is_exit_two(self, capsys):
        with mock.patch("ggsver.ggs.rooted", side_effect=MemoryError("no room")):
            code = cli.main(
                ["verify", "--p", "3", "--vectors", "1,2", "--depth", "3"]
            )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    @pytest.mark.parametrize("flag,opted_in", [([], False), (["--allow-slow"], True)])
    def test_verify_passes_allow_slow_to_run_all(self, flag, opted_in, monkeypatch):
        calls = []

        def fake_run_all(spec, **kwargs):
            calls.append(kwargs)
            raise gv.SpecError("stopped before work")

        monkeypatch.setattr(cli, "run_all", fake_run_all)
        code = cli.main(
            ["verify", "--p", "3", "--vectors", "1,2", "--depth", "3"] + flag
        )
        assert code == 2
        assert calls[0]["allow_large"] is opted_in


class TestInfoAndTable:
    def test_info_constant(self, capsys):
        assert cli.main(["info", "--p", "3", "--vectors", "1,1"]) == 0
        out = capsys.readouterr().out
        assert "constant: yes" in out
        assert "ConstantVectorException" in out
        assert "no congruence subgroup property" in out

    def test_info_symmetric_pair(self, capsys):
        assert cli.main(["info", "--p", "5", "--vectors", "1,1,1,1;1,0,0,1"]) == 0
        out = capsys.readouterr().out
        assert "symmetric" in out
        assert "(0,4,4,0)" in out

    def test_info_already_reduced(self, capsys):
        assert cli.main(["info", "--p", "3", "--vectors", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "already in reduced form" in out
        assert "HasCSP" in out

    @pytest.mark.parametrize("p,vectors", [("3", "0,1"), ("5", "0,1,1,0")])
    def test_info_unreachable_reduction(self, p, vectors, capsys):
        assert cli.main(["info", "--p", p, "--vectors", vectors]) == 0
        out = capsys.readouterr().out
        assert "reduction: unreachable" in out
        assert "HasCSP" in out

    def test_table_values(self, capsys):
        header = "level,order_exponent,derived_index_exponent,rank,stabilizer_index_exponents"
        tables = {
            "1,2": ['1,1,1,1,"1"', '2,3,2,2,"1;3"', '3,7,2,2,"1;3;7"', '4,19,2,2,"1;3;7;19"'],
            "1,0;0,1": [
                '1,1,1,1,"1"', '2,4,2,2,"1;4"', '3,12,3,3,"1;4;12"', '4,34,3,3,"1;4;12;34"'
            ],
            "1,1": ['1,1,1,1,"1"', '2,4,2,2,"1;4"', '3,9,2,2,"1;4;9"', '4,23,2,2,"1;4;9;23"'],
        }
        for vectors, rows in tables.items():
            assert cli.main(
                ["table", "--p", "3", "--vectors", vectors, "--max-depth", "4",
                 "--format", "csv"]
            ) == 0
            assert capsys.readouterr().out.splitlines() == [header] + rows, vectors

    def test_table_builds_once(self, capsys):
        # rows below the top depth are the top session's restrictions
        with mock.patch.object(cli, "build", wraps=cli.build) as build:
            assert cli.main(
                ["table", "--p", "3", "--vectors", "1,0;0,1", "--max-depth", "4"]
            ) == 0
        assert build.call_count == 1
        assert len(capsys.readouterr().out.splitlines()) == 5

    def test_table_text_matches_csv(self, capsys):
        assert cli.main(
            ["table", "--p", "3", "--vectors", "1,2", "--max-depth", "2"]
        ) == 0
        text = capsys.readouterr().out
        assert cli.main(
            ["table", "--p", "3", "--vectors", "1,2", "--max-depth", "2",
             "--format", "csv"]
        ) == 0
        csv_out = capsys.readouterr().out
        for token in ("1", "3", "2"):
            assert token in text and token in csv_out
