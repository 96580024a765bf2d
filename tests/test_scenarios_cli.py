"""Scenario configs, deterministic execution, report emission, CLI."""

import csv
import io
import json
import os

import numpy as np
import pytest

import ergolab.cli
from ergolab.cli import main
from ergolab.scenarios import (
    MAX_TRAJECTORY_SLOTS,
    ConfigError,
    Report,
    SCENARIO_KINDS,
    builtin_corpus,
    emit_report,
    load_scenario,
    run_scenario,
    scenario_from_mapping,
    write_report,
)


def _sweep_doc(**over):
    doc = {"name": "sweep", "kind": "variation-sweep", "seed": 7,
           "dims": [2], "horizon": 64, "q_grid": [2.0], "cases": 3}
    doc.update(over)
    return doc


class TestConfigValidation:
    def test_minimal_defaults(self):
        sc = scenario_from_mapping({"name": "n", "kind": "variation-sweep"})
        assert sc.seed == 0
        assert sc.params["dims"] == [4]
        assert sc.params["horizon"] == 256
        assert sc.params["cases"] == 8

    def test_missing_name(self):
        with pytest.raises(ConfigError, match="name"):
            scenario_from_mapping({"kind": "variation-sweep"})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            scenario_from_mapping({"name": "n", "kind": "bogus"})

    def test_unknown_key_lists_allowed(self):
        with pytest.raises(ConfigError) as info:
            scenario_from_mapping(_sweep_doc(horizont=128))
        msg = str(info.value)
        assert "horizont" in msg and "allowed" in msg and "horizon" in msg

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="boolean"):
            scenario_from_mapping(_sweep_doc(horizon=True))

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            scenario_from_mapping(_sweep_doc(seed=-1))

    def test_seed_override_wins(self):
        sc = scenario_from_mapping(_sweep_doc(seed=7), seed_override=99)
        assert sc.seed == 99

    def test_q_grid_below_one(self):
        with pytest.raises(ConfigError, match="q_grid"):
            scenario_from_mapping(_sweep_doc(q_grid=[0.5]))

    def test_eps_grid_cap(self):
        doc = {"name": "n", "kind": "fluctuation-vs-bound", "eps_grid": [2.0]}
        with pytest.raises(ConfigError, match="eps"):
            scenario_from_mapping(doc)

    def test_unknown_g_selector(self):
        doc = {"name": "n", "kind": "metastability", "g": "triple"}
        with pytest.raises(ConfigError, match="triple"):
            scenario_from_mapping(doc)

    def test_p_grid_floor(self):
        doc = {"name": "n", "kind": "counterexample-suite", "p_grid": [1]}
        with pytest.raises(ConfigError, match="p_grid"):
            scenario_from_mapping(doc)

    def test_nested_audit_unknown_key(self):
        doc = {"name": "n", "kind": "convexity-audit",
               "audits": [{"p": 2.0, "K": 0.125, "dims": 2}]}
        with pytest.raises(ConfigError, match=r"audits\[0\]"):
            scenario_from_mapping(doc)

    def test_nested_audit_missing_required(self):
        doc = {"name": "n", "kind": "convexity-audit", "audits": [{"p": 2.0}]}
        with pytest.raises(ConfigError, match="K"):
            scenario_from_mapping(doc)

    def test_nested_audit_invalid_descriptor(self):
        doc = {"name": "n", "kind": "convexity-audit",
               "audits": [{"p": 2.0, "K": -0.5}]}
        with pytest.raises(ConfigError, match=r"audits\[0\]"):
            scenario_from_mapping(doc)

    def test_inadmissible_but_constructible_k(self):
        doc = {"name": "n", "kind": "convexity-audit",
               "audits": [{"p": 2.0, "K": 1.0, "trials": 100}]}
        sc = scenario_from_mapping(doc)
        assert not sc.params["audits"][0]["descriptor"].admissible


class TestLoadScenario:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_sweep_doc()))
        sc = load_scenario(str(path))
        assert (sc.name, sc.kind, sc.seed) == ("sweep", "variation-sweep", 7)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(str(path))

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "1e999"])
    def test_non_finite_numbers_rejected(self, tmp_path, literal):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_sweep_doc()).replace('"q_grid": [2.0]',
                                                         f'"q_grid": [{literal}]'))
        with pytest.raises(ConfigError, match="non-finite"):
            load_scenario(str(path))


    @pytest.mark.parametrize("doc", [
        _sweep_doc(q_grid=[float("nan")]),
        {"name": "meta", "kind": "metastability", "seed": 5, "dims": [2], "horizon": 16,
         "eps_grid": [float("nan")], "g": "double", "cases": 1},
        {"name": "dy", "kind": "dyadic-constants", "p": float("inf")},
        {"name": "dy", "kind": "dyadic-constants", "ratio_cap": float("nan")},
        {"name": "fb", "kind": "fluctuation-vs-bound", "p": float("nan")},
        {"name": "cv", "kind": "convexity-audit", "audits": [{"p": 2.0, "K": float("-inf")}]},
    ])
    def test_non_finite_numbers_rejected_from_mapping(self, doc):
        with pytest.raises(ConfigError, match="non-finite"):
            scenario_from_mapping(doc)

    @pytest.mark.parametrize("kind", ["variation-sweep", "fluctuation-vs-bound", "metastability"])
    def test_trajectory_slots_capped(self, kind):
        doc = {"name": "n", "kind": kind, "dims": [4], "horizon": MAX_TRAJECTORY_SLOTS // 4}
        assert scenario_from_mapping(doc).params["horizon"] == MAX_TRAJECTORY_SLOTS // 4
        with pytest.raises(ConfigError, match="horizon"):
            scenario_from_mapping(dict(doc, dims=[1, 5]))


class TestDeterminism:
    def test_same_seed_same_rows(self):
        sc = scenario_from_mapping(_sweep_doc())
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert a.rows == b.rows

    def test_jobs_do_not_change_rows(self, tmp_path):
        # --jobs is accepted and ignored: two runs give the same rows
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_sweep_doc(cases=4)))
        for jobs in ("1", "4"):
            assert main(["run", str(cfg), "--out", str(tmp_path / jobs), "--jobs", jobs]) == 0
        rows = [json.loads((tmp_path / jobs / "sweep.json").read_text())["rows"] for jobs in "14"]
        assert rows[0] == rows[1]

    def test_seeds_spawned_one_per_case(self, monkeypatch):
        # each case spawns its own child as it runs: no call asks for more than one
        sc = scenario_from_mapping(_sweep_doc(cases=8))
        rows = run_scenario(sc).rows
        asked = []

        class SpySeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                asked.append(n_children)
                return super().spawn(n_children)

        monkeypatch.setattr(np.random, "SeedSequence", SpySeedSequence)
        assert run_scenario(sc).rows == rows
        assert asked == [1] * 8

    def test_different_seed_different_rows(self):
        a = run_scenario(scenario_from_mapping(_sweep_doc(seed=1)))
        b = run_scenario(scenario_from_mapping(_sweep_doc(seed=2)))
        assert a.rows != b.rows

    def test_environment_stamp(self):
        rep = run_scenario(scenario_from_mapping(_sweep_doc()))
        env = rep.environment
        assert env["seed"] == 7
        assert "PCG64" in env["generator"]
        assert env["float_format"] == ".17g"


class TestEmission:
    def test_json_parses_and_round_trips_floats(self):
        rep = run_scenario(scenario_from_mapping(_sweep_doc()))
        doc = json.loads(emit_report(rep, "json"))
        assert doc["scenario"]["name"] == "sweep"
        assert len(doc["rows"]) == len(rep.rows)
        for parsed, row in zip(doc["rows"], rep.rows):
            for key, val in row.items():
                if isinstance(val, float):
                    assert parsed[key] == val  # 17 digits round-trip exactly
                else:
                    assert parsed[key] == val

    def test_csv_matches_json_rows(self):
        # one scenario of every kind: each has its own columns and cell types
        for sc in builtin_corpus(0):
            rep = run_scenario(sc)
            text = emit_report(rep, "csv")
            assert "\r\n" in text
            rows = list(csv.reader(io.StringIO(text)))
            header, body = rows[0], rows[1:]
            assert header == list(rep.rows[0].keys())
            assert len(body) == len(rep.rows)
            for cells, row in zip(body, rep.rows):
                for key, cell in zip(header, cells):
                    val = row[key]
                    if isinstance(val, bool):
                        assert cell == ("true" if val else "false")
                    elif isinstance(val, float):
                        assert float(cell) == val
                    else:
                        assert cell == str(val)

    def test_empty_rows_keep_header(self):
        rep = run_scenario(scenario_from_mapping(_sweep_doc(cases=1)))
        empty = Report(scenario=rep.scenario, rows=[], environment=rep.environment)
        text = emit_report(empty, "csv")
        lines = text.split("\r\n")
        assert lines[0].startswith("case,")
        assert lines[1:] == [""]

    def test_unknown_format(self):
        rep = run_scenario(scenario_from_mapping(_sweep_doc(cases=1)))
        from ergolab import InvalidInputError

        with pytest.raises(InvalidInputError, match="format"):
            emit_report(rep, "yaml")

    def test_write_report_names_and_cleans_up(self, tmp_path):
        rep = run_scenario(scenario_from_mapping(_sweep_doc(name="my run/1")))
        path = write_report(rep, str(tmp_path), "json")
        assert os.path.basename(path) == "my-run-1.json"
        assert json.loads(open(path, encoding="utf-8").read())["rows"]
        assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []


class TestBuiltinCorpus:
    def test_covers_every_kind_once(self):
        corpus = builtin_corpus(3)
        assert sorted(sc.kind for sc in corpus) == sorted(SCENARIO_KINDS)
        assert len({sc.name for sc in corpus}) == len(corpus)
        assert all(sc.seed == 3 for sc in corpus)

    def test_dyadic_member_passes(self):
        sc = next(s for s in builtin_corpus(0) if s.kind == "dyadic-constants")
        rep = run_scenario(sc)
        assert rep.all_passed
        assert len(rep.rows) == 3 * sc.params["cases"]


class TestCLI:
    def test_presets_list(self, capsys):
        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        assert "hilbert" in out and "clarkson" in out

    def test_run_success_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_sweep_doc()))
        code = main(["run", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "sweep.json").exists()
        assert "rows passed" in capsys.readouterr().out

    def test_run_config_error_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_sweep_doc(horizont=4)))
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"name": "dy", "kind": "dyadic-constants", "p": float("nan"),
         "support": 48, "levels": 5, "cases": 1},
        {"name": "meta", "kind": "metastability", "seed": 5, "dims": [2], "horizon": 16,
         "eps_grid": [float("nan")], "g": "double", "cases": 1},
    ])
    def test_run_non_finite_config_exit_two(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))  # writes the bare constant NaN
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "non-finite number NaN" in capsys.readouterr().err

    def test_run_unbounded_horizon_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_sweep_doc(horizon=10**11)))
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "exceeds the cap" in capsys.readouterr().err
        assert not (tmp_path / "sweep.json").exists()

    def test_run_unbounded_dyadic_levels_exit_two(self, tmp_path, capsys):
        # level 40 would allocate 2^40 rows: rejected before anything runs
        doc = {"name": "dy", "kind": "dyadic-constants", "support": 48, "levels": 40, "cases": 1}
        with pytest.raises(ConfigError, match="levels"):
            scenario_from_mapping(doc)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "levels" in capsys.readouterr().err
        assert not (tmp_path / "dy.json").exists()

    def test_run_failing_rows_exit_one(self, tmp_path, capsys):
        # horizon 4 cannot resolve eps = 1e-6 metastability for rotations
        # with angle magnitudes >= 1/4: exhaustion flags every row
        doc = {"name": "tiny", "kind": "metastability", "seed": 5,
               "dims": [2], "horizon": 4, "eps_grid": [1e-6],
               "g": "next-power-of-two", "cases": 2}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = main(["run", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "horizon-exhausted" in out

    def test_out_precedence_cli_beats_config_beats_env(self, tmp_path, monkeypatch):
        for sub in ("cli", "cfg", "env"):
            (tmp_path / sub).mkdir()
        monkeypatch.setenv("ERGOLAB_OUT", str(tmp_path / "env"))
        doc = _sweep_doc(cases=1, out=str(tmp_path / "cfg"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))

        main(["run", str(cfg), "--out", str(tmp_path / "cli")])
        assert (tmp_path / "cli" / "sweep.json").exists()

        main(["run", str(cfg)])
        assert (tmp_path / "cfg" / "sweep.json").exists()

        doc.pop("out")
        cfg.write_text(json.dumps(doc))
        main(["run", str(cfg)])
        assert (tmp_path / "env" / "sweep.json").exists()

    def test_env_out_is_default_when_nothing_else(self, tmp_path, monkeypatch):
        monkeypatch.delenv("ERGOLAB_OUT", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_sweep_doc(cases=1)))
        monkeypatch.chdir(tmp_path)
        main(["run", str(cfg)])
        assert (tmp_path / "sweep.json").exists()

    def test_seed_override_changes_report(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_sweep_doc()))
        main(["run", str(cfg), "--out", str(tmp_path / "a"), "--seed", "1"])
        main(["run", str(cfg), "--out", str(tmp_path / "b"), "--seed", "2"])
        rows_a = json.loads((tmp_path / "a" / "sweep.json").read_text())["rows"]
        rows_b = json.loads((tmp_path / "b" / "sweep.json").read_text())["rows"]
        assert rows_a != rows_b

    def test_jobs_guard(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_sweep_doc()))
        assert main(["run", str(cfg), "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_verify_all_deterministic_across_runs(self, tmp_path, capsys):
        code1 = main(["verify-all", "--out", str(tmp_path / "r1"), "--seed", "11"])
        code2 = main(["verify-all", "--out", str(tmp_path / "r2"), "--seed", "11"])
        assert code1 == 0 and code2 == 0
        out = capsys.readouterr().out
        assert out.count("verify-all: OK") == 2
        names = sorted(os.listdir(tmp_path / "r1"))
        assert names == sorted(os.listdir(tmp_path / "r2"))
        assert len(names) == 6
        for name in names:
            doc1 = json.loads((tmp_path / "r1" / name).read_text())
            doc2 = json.loads((tmp_path / "r2" / name).read_text())
            assert doc1["rows"] == doc2["rows"]
            assert doc1["scenario"] == doc2["scenario"]


BIG = 10**400  # a 401-digit integer: valid JSON, past the float range


class TestHostileConfigs:
    @pytest.mark.parametrize("doc, key", [
        (_sweep_doc(q_grid=[2.0, BIG]), "q_grid"),
        ({"name": "dy", "kind": "dyadic-constants", "ratio_cap": BIG}, "ratio_cap"),
        ({"name": "fb", "kind": "fluctuation-vs-bound", "preset": "clarkson", "p": BIG}, "p"),
        ({"name": "cv", "kind": "convexity-audit", "audits": [{"p": BIG, "K": 0.125}]}, "p"),
    ])
    def test_integer_past_float_range(self, tmp_path, capsys, doc, key):
        with pytest.raises(ConfigError) as info:
            scenario_from_mapping(doc)
        msg = str(info.value)
        assert msg.startswith(f"key '{key}': integer too large for a float")
        assert "0000" not in msg  # the digits are not echoed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "integer too large for a float" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("p", [1100, 10.0**300, -2000, 0])
    def test_clarkson_exponent_outside_float_range(self, tmp_path, capsys, monkeypatch, p):
        # 2^p overflows (or p * 2^p vanishes): a config error, and nothing runs
        doc = {"name": "fb", "kind": "fluctuation-vs-bound", "preset": "clarkson", "p": p}
        with pytest.raises(ConfigError):
            scenario_from_mapping(doc)
        monkeypatch.setattr(ergolab.cli, "run_scenario", lambda sc: pytest.fail("a case ran"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_integer_literal_past_digit_limit(self, tmp_path):
        # int() refuses literals over 4300 digits; that is a config error too
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_sweep_doc()).replace('"horizon": 64', '"horizon": ' + "9" * 5000))
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(str(path))

    # Validation only: none of these configs is ever run.
    @pytest.mark.parametrize("grid", [[5], [2, 64], [BIG]])
    def test_counterexample_exponent_capped(self, grid):
        doc = {"name": "n", "kind": "counterexample-suite", "p_grid": grid}
        with pytest.raises(ConfigError, match=r"key 'p_grid': entries must be <= 4"):
            scenario_from_mapping(doc)

    def test_counterexample_exponent_four_accepted(self):
        doc = {"name": "n", "kind": "counterexample-suite", "p_grid": [2, 3, 4]}
        assert scenario_from_mapping(doc).params["p_grid"] == [2, 3, 4]

    def test_audit_samples_capped(self):
        audit = {"p": 2.0, "K": 0.125, "dim": 4096, "trials": MAX_TRAJECTORY_SLOTS // 4096}
        doc = {"name": "n", "kind": "convexity-audit", "audits": [audit]}
        assert scenario_from_mapping(doc).params["audits"][0]["trials"] == 4096
        with pytest.raises(ConfigError, match=r"key 'trials': dim \* trials exceeds the cap"):
            scenario_from_mapping(dict(doc, audits=[audit, dict(audit, trials=4097)]))
        with pytest.raises(ConfigError, match="exceeds the cap"):
            scenario_from_mapping(dict(doc, audits=[{"p": 2.0, "K": 0.125, "trials": BIG}]))


class TestFlaggedRows:
    # q = 1e308 overflows every variation above 1 to inf (numpy warns)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_value_flags_the_case(self):
        rep = run_scenario(scenario_from_mapping(_sweep_doc(q_grid=[2.0, 1e308], cases=2)))
        assert [row["case"] for row in rep.rows] == [0, 1]
        for row in rep.rows:
            assert row["passed"] is False
            assert row["note"] == "InvalidInputError: non-finite variation_max = inf"
        assert json.loads(emit_report(rep, "json"))["rows"] == rep.rows
        cells = [cell for row in csv.reader(io.StringIO(emit_report(rep, "csv"))) for cell in row]
        assert "inf" not in cells

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_value_through_cli(self, tmp_path, capsys, fmt):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_sweep_doc(q_grid=[1e308], cases=1)))
        assert main(["run", str(cfg), "--out", str(tmp_path), "--format", fmt]) == 1
        assert "non-finite variation_max" in capsys.readouterr().out
        assert (tmp_path / f"sweep.{fmt}").exists()

    def test_flagged_rows_carry_their_case(self):
        # eps a hair below 2 fails the bound's precondition for the cases whose
        # normalized start vector rounds to a norm below 1
        doc = {"name": "fb", "kind": "fluctuation-vs-bound", "dims": [3, 5, 6, 7], "horizon": 64,
               "eps_grid": [1.9999999999999998], "cases": 8, "include_constant": True}
        rows = run_scenario(scenario_from_mapping(doc)).rows
        assert [row["case"] for row in rows] == list(range(8))
        flagged = [row for row in rows if row["note"]]
        assert flagged and all(not row["passed"] for row in flagged)
        assert all(row["note"].startswith("PreconditionError") for row in flagged)
