import json
import math

import numpy as np
import pytest

from zbsim import DEFAULT_MIX, ParticleConfig, cli, dynamics, expectation_table, single_mode, spectral
from zbsim.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY,
    SI_C,
    SI_HBAR,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestFrequencies:
    def test_reference_row(self, capsys):
        code, out = run(capsys, "frequencies", "--p", "0", "--delta", "0.4")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row["omega_L"]) == pytest.approx(0.8)
        assert float(row["omega_zb1"]) == pytest.approx(2.8)
        assert float(row["omega_zb2"]) == pytest.approx(2.0)
        assert float(row["omega_zb3"]) == pytest.approx(1.2)

    def test_degenerate_row(self, capsys):
        code, out = run(capsys, "frequencies", "--p", "0", "--delta", "0")
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row["omega_L"]) == 0.0
        for key in ("omega_zb1", "omega_zb2", "omega_zb3", "omega_zb"):
            assert float(row[key]) == pytest.approx(2.0)

    def test_velocity_input_with_c_suffix(self, capsys):
        code, out = run(capsys, "frequencies", "--v", "0.6c", "--delta", "0.4")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert float(rows[0]["p"]) == pytest.approx(0.75, rel=1e-12)

    def test_json_format(self, capsys):
        code, out = run(capsys, "frequencies", "--p", "0.5", "--delta", "0.4",
                        "--format", "json")
        doc = json.loads(out)
        assert doc["omega_zb2"] == pytest.approx(math.sqrt(2.21) + math.sqrt(0.61))

    def test_conflicting_momentum_flags(self, capsys):
        code, _ = run(capsys, "frequencies", "--p", "0.2", "--v", "0.5")
        assert code == EXIT_CONFIG

    def test_conflicting_coupling_flags(self, capsys):
        code, _ = run(capsys, "frequencies", "--p", "0", "--delta", "0.4", "--mu", "1.0")
        assert code == EXIT_CONFIG

    def test_dipole_route(self, capsys):
        code, out = run(capsys, "frequencies", "--p", "0", "--dmom", "0.8",
                        "--efield", "0.5")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert float(rows[0]["omega_L"]) == pytest.approx(0.8)

    def test_field_group_prints_what_delta_prints(self, capsys):
        # the CLI alone derives delta = d*E - mu*B, in natural units and in SI (joules)
        si = ("--units", "si", "--mass", "1.6749e-27")
        cases = [
            ((), ("--mu", "0.3", "--bfield", "0.5", "--dmom", "0.8", "--efield", "0.7"),
             0.8 * 0.7 - 0.3 * 0.5),
            ((), ("--mu", "0.25", "--bfield", "1.5"), 0.0 * 0.0 - 0.25 * 1.5),
            (si, ("--mu=-9.66e-27", "--bfield", "1e12", "--dmom", "1e-30", "--efield", "3e13"),
             1e-30 * 3e13 - -9.66e-27 * 1e12),
        ]
        commands = [("frequencies", "--p", "0.7"), ("frequencies", "--v", "0.3", "--format", "json"),
                    ("sweep", "--steps", "5"), ("evolve", "--samples", "4", "--observable", "S_y,r_x")]
        for units, fields, delta in cases:
            for command in commands:
                code, by_fields = run(capsys, *command, *units, *fields)
                assert code == EXIT_OK
                assert run(capsys, *command, *units, f"--delta={delta!r}") == (EXIT_OK, by_fields)

    @pytest.mark.parametrize("value", ["-1e-3", "-2.5E-1", "-.25", "-0.3"])
    def test_negative_values_in_any_notation(self, capsys, value):
        # a leading minus before a digit or ".digit" is a value, not a flag
        code, out = run(capsys, "frequencies", "--p", "0.5", "--delta", value)
        assert code == EXIT_OK
        assert run(capsys, "frequencies", "--p", "0.5", f"--delta={value}") == (EXIT_OK, out)

    def test_negative_si_moment_in_exponent_notation(self, capsys):
        si = ("--units", "si", "--mass", "1.6749e-27", "--bfield", "1e12")
        code, out = run(capsys, "frequencies", "--p", "0.5", *si, "--mu", "-9.66e-27")
        assert code == EXIT_OK
        assert run(capsys, "frequencies", "--p", "0.5", *si, "--mu=-9.66e-27") == (EXIT_OK, out)
        _, rows = parse_csv(out)
        assert float(rows[0]["delta"]) == pytest.approx(9.66e-15, rel=1e-10)  # joules

    def test_si_units_scale_output(self, capsys):
        mass = 1.6749e-27  # kg
        mc2 = mass * SI_C**2
        code, out = run(capsys, "frequencies", "--p", "0", "--units", "si",
                        "--mass", str(mass), "--delta", str(0.4 * mc2))
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert float(rows[0]["omega_forbidden"]) == pytest.approx(2.0 * mc2 / SI_HBAR, rel=1e-10)
        assert float(rows[0]["omega_L"]) == pytest.approx(0.8 * mc2 / SI_HBAR, rel=1e-10)
        assert float(rows[0]["delta"]) == pytest.approx(0.4 * mc2, rel=1e-10)  # joules
        si = ("--units", "si", "--mass", str(mass), "--delta", str(0.4 * mc2),
              "--observable", "S_y", "--samples", "4", "--t-max", "2")
        code, out = run(capsys, "evolve", *si)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert float(rows[1]["t"]) == pytest.approx(0.5 * SI_HBAR / mc2, rel=1e-10)
        assert float(rows[0]["p0"]) == pytest.approx(0.5 * mass * SI_C, rel=1e-10)
        assert float(rows[0]["delta"]) == pytest.approx(0.4 * mc2, rel=1e-10)
        code, out = run(capsys, "evolve", *si, "--format", "json")
        assert json.loads(out)["delta"] == pytest.approx(0.4 * mc2, rel=1e-10)

    def test_si_requires_mass(self, capsys):
        code, _ = run(capsys, "frequencies", "--p", "0", "--units", "si")
        assert code == EXIT_CONFIG

    def test_si_unit_mass_is_explicit(self, capsys):
        # 1.0 kg is a legitimate mass, not a missing one
        code, out = run(capsys, "frequencies", "--p", "0", "--units", "si", "--mass", "1.0")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert float(rows[0]["omega_L"]) == pytest.approx(0.8 * SI_C**2 / SI_HBAR, rel=1e-10)

    @pytest.mark.parametrize("mass", ["0", "-1.0", "nan", "inf"])
    def test_si_mass_must_be_positive_and_finite(self, capsys, mass):
        code, out = run(capsys, "frequencies", "--p", "0", "--units", "si", f"--mass={mass}")
        assert code == EXIT_CONFIG
        assert out == ""

    def test_natural_units_reject_other_mass(self, capsys):
        code, _ = run(capsys, "frequencies", "--p", "0", "--mass", "2.0")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flag,value", [("--delta", "nan"), ("--p", "nan"),
                                            ("--p", "inf"), ("--p", "-inf"),
                                            ("--v", "nan")])
    def test_non_finite_input_rejected(self, capsys, flag, value):
        code, out = run(capsys, "frequencies", f"{flag}={value}")
        assert code == EXIT_CONFIG
        assert out == ""


class TestSweep:
    @pytest.mark.parametrize("figure,header", [
        ("fig1", ["v", "omega_zb"]),
        ("fig2", ["v", "omega_zb2", "omega_L", "omega_sb"]),
        ("fig3", ["v", "omega_zb1", "omega_zb3", "omega_ob1"]),
    ])
    def test_figure_headers(self, capsys, figure, header):
        code, out = run(capsys, "sweep", "--figure", figure, "--steps", "4")
        assert code == EXIT_OK
        got, rows = parse_csv(out)
        assert got == header
        assert len(rows) == 4

    def test_unknown_figure_rejected(self, capsys):
        code, _ = run(capsys, "sweep", "--figure", "fig9")
        assert code == EXIT_CONFIG

    def test_full_table_default(self, capsys):
        code, out = run(capsys, "sweep", "--steps", "3")
        header, rows = parse_csv(out)
        assert header[:3] == ["v", "p", "omega_zb"]
        assert "omega_forbidden" in header
        assert float(rows[0]["omega_L"]) == pytest.approx(0.8)

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "sweep", "--figure", "fig2", "--steps", "7")
        _, second = run(capsys, "sweep", "--figure", "fig2", "--steps", "7")
        assert first == second

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_steps_must_be_positive(self, capsys, value):
        code = main(["sweep", f"--steps={value}"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and captured.out == ""
        assert "--steps" in captured.err

    def test_json_rows(self, capsys):
        code, out = run(capsys, "sweep", "--figure", "fig1", "--steps", "3",
                        "--format", "json")
        doc = json.loads(out)
        assert len(doc) == 3
        assert set(doc[0]) == {"v", "omega_zb"}

    @pytest.mark.parametrize("argv", [
        ("--steps", "1"),
        ("--steps", "5000", "--figure", "fig3"),  # crosses a row block
        ("--steps", "9", "--units", "si", "--mass", "1.6749e-27"),
    ])
    def test_streamed_json_equals_one_dump(self, capsys, argv):
        code, out = run(capsys, "sweep", "--format", "json", *argv)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc) == int(argv[1])
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestEvolve:
    def test_csv_contract(self, capsys):
        code, out = run(capsys, "evolve", "--observable", "S_y", "--samples", "128",
                        "--periods", "2")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["t", "value", "observable", "p0", "delta"]
        assert len(rows) == 128
        assert rows[0]["observable"] == "S_y"
        assert float(rows[0]["p0"]) == 0.5
        assert float(rows[0]["delta"]) == 0.4

    def test_csv_rows_contract(self, capsys):
        # 12 significant digits per cell; observable, p0 and delta repeat on each row of a tag
        p0 = "0.1234567890123456"
        code, out = run(capsys, "evolve", "--observable", "S_y,r_x", "--samples", "4",
                        "--t-max", "2", "--p0", p0, "--delta", "0.4")
        assert code == EXIT_OK
        lines = out.split("\n")
        assert lines[0] == "t,value,observable,p0,delta" and lines[-1] == ""
        assert [line.split(",")[0] for line in lines[1:5]] == ["0", "0.5", "1", "1.5"]
        wp = single_mode(float(p0), DEFAULT_MIX, ParticleConfig(delta=0.4))
        table = expectation_table(wp, np.linspace(0.0, 2.0, 4, endpoint=False))
        assert lines[1:-1] == [
            f"{t:.12g},{x:.12g},{tag},0.123456789012,0.4"
            for tag in ("S_y", "r_x") for t, x in zip(table[tag].times, table[tag].values)
        ]

    def test_multiple_observables_concatenated(self, capsys):
        code, out = run(capsys, "evolve", "--observable", "S_y,alpha_x",
                        "--samples", "64", "--periods", "1")
        _, rows = parse_csv(out)
        assert len(rows) == 128
        assert {r["observable"] for r in rows} == {"S_y", "alpha_x"}

    def test_unknown_observable(self, capsys):
        code, _ = run(capsys, "evolve", "--observable", "spin", "--samples", "64")
        assert code == EXIT_CONFIG

    def test_json_series(self, capsys):
        code, out = run(capsys, "evolve", "--observable", "S_x", "--samples", "64",
                        "--periods", "1", "--format", "json")
        doc = json.loads(out)
        assert len(doc["series"]["S_x"]["values"]) == 64

    def test_deterministic_output(self, capsys):
        argv = ("evolve", "--observable", "r_y", "--samples", "64", "--periods", "1")
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second


class TestVerify:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert set(report["observables"]) == {
            "S_x", "S_y", "S_z", "alpha_x", "alpha_y", "alpha_z", "r_x", "r_y", "r_z"
        }
        for entry in report["observables"].values():
            assert entry["pass"] is True

    def test_report_is_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--out", str(a)]) == EXIT_OK
        assert main(["verify", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_match_report_fields(self, tmp_path):
        out = tmp_path / "report.json"
        main(["verify", "--out", str(out)])
        entry = json.loads(out.read_text())["observables"]["S_y"]
        labels = {a["label"] for a in entry["match"]["assignments"]}
        assert labels == {"omega_L", "omega_zb2"}
        assert entry["beat"]["label"] == "omega_sb"
        assert entry["beat"]["residual_rel"] <= 1e-2

    def test_negative_splitting_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--delta", "-0.4", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["pass"] is True

    def test_broadened_packet_fails_verification(self, tmp_path):
        # sigma_p-broadened tones shift/blur beyond the matching tolerance
        out = tmp_path / "report.json"
        code = main(["verify", "--modes", "64", "--sigma-p", "0.2", "--out", str(out)])
        assert code == EXIT_VERIFY
        assert json.loads(out.read_text())["pass"] is False

    @pytest.mark.parametrize("command", ["verify", "evolve"])
    @pytest.mark.parametrize("flag,value", [("--p0", "nan"), ("--p0", "inf"),
                                            ("--sigma-p", "nan"), ("--sigma-p", "inf")])
    def test_non_finite_packet_rejected(self, capsys, command, flag, value):
        code, out = run(capsys, command, flag, value)
        assert code == EXIT_CONFIG
        assert out == ""

    @pytest.mark.parametrize("command", ["verify", "evolve"])
    @pytest.mark.parametrize("value", ["0", "1", "-3"])
    def test_samples_below_two_rejected(self, capsys, command, value):
        code = main([command, f"--samples={value}"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and captured.out == ""
        assert "--samples" in captured.err

    @pytest.mark.parametrize("command", ["verify", "evolve"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
    def test_t_max_must_be_positive_and_finite(self, capsys, command, value):
        code = main([command, f"--t-max={value}"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and captured.out == ""
        assert "--t-max" in captured.err

    @pytest.mark.parametrize("command", ["verify", "evolve"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-2"])
    def test_periods_must_be_positive_and_finite(self, capsys, command, value):
        code = main([command, f"--periods={value}"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and captured.out == ""
        assert "--periods" in captured.err

    @pytest.mark.parametrize("command", ["verify", "evolve"])
    @pytest.mark.parametrize("value", ["nan,0,0,1", "0.5,inf,0.5,0.5", "0.5,0.5,nanj,0.5"])
    def test_mix_must_be_finite(self, capsys, command, value):
        code = main([command, f"--mix={value}"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and captured.out == ""
        assert "--mix" in captured.err

    @pytest.mark.parametrize("command", ["verify", "evolve"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_modes_must_be_positive(self, capsys, command, value):
        code = main([command, f"--modes={value}"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and captured.out == ""
        assert "--modes" in captured.err

    @pytest.mark.parametrize("samples", ["64", "71"])
    def test_too_few_samples_for_the_beat_envelope(self, capsys, samples):
        # trimming 1/16 from each end leaves fewer than 64 envelope samples:
        # a resolution problem of the run (exit 1), not a verification failure
        code = main(["verify", "--samples", samples])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and captured.out == ""
        assert "at least 72 samples" in captured.err and f"got {samples}" in captured.err

    def test_insufficient_resolution_is_config_error(self, capsys):
        code, _ = run(capsys, "verify", "--samples", "256", "--periods", "2")
        assert code == EXIT_CONFIG


class TestPlumbing:
    def test_io_error_exit_code(self, capsys):
        code, _ = run(capsys, "frequencies", "--p", "0",
                      "--out", "/nonexistent-dir/x.csv")
        assert code == EXIT_IO

    def test_usage_error_exit_code(self, capsys):
        code, _ = run(capsys, "frequencies", "--badflag")
        assert code == EXIT_CONFIG

    def test_seed_flag_removed(self, capsys):
        code, _ = run(capsys, "frequencies", "--p", "0", "--seed", "1")
        assert code == EXIT_CONFIG

    def test_missing_subcommand(self, capsys):
        code, _ = run(capsys)
        assert code == EXIT_CONFIG

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("delta = 0.2\np = 0.0\n")
        code, out = run(capsys, "frequencies", "--config", str(cfgfile))
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert float(rows[0]["omega_L"]) == pytest.approx(0.4)

    def test_explicit_flags_beat_config_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("delta = 0.2\np = 0.0\n")
        code, out = run(capsys, "frequencies", "--config", str(cfgfile),
                        "--delta", "0.4")
        _, rows = parse_csv(out)
        assert float(rows[0]["omega_L"]) == pytest.approx(0.8)

    def test_malformed_config_line(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("delta 0.2\n")
        code, _ = run(capsys, "frequencies", "--config", str(cfgfile))
        assert code == EXIT_CONFIG

    def test_twelve_significant_digits(self, capsys):
        _, out = run(capsys, "frequencies", "--p", "0.5", "--delta", "0.4")
        _, rows = parse_csv(out)
        assert rows[0]["omega_zb2"] == "2.26763184232"


class TestVerifyWork:
    """Each spectrum and each eigensystem set of a `verify` run is computed once."""

    @staticmethod
    def count(monkeypatch, name, *modules):
        calls = []
        original = getattr(modules[0], name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_periodogram_per_tone_tag_and_beat(self, monkeypatch, tmp_path):
        grams = self.count(monkeypatch, "periodogram", spectral, cli)
        picks = self.count(monkeypatch, "extract_peaks", spectral, cli)
        out = tmp_path / "report.json"
        assert main(["verify", "--out", str(out)]) == EXIT_OK
        entries = json.loads(out.read_text())["observables"].values()
        expected = sum("match" in e for e in entries) + sum("beat" in e for e in entries)
        assert expected == 16
        assert len(grams) == len(picks) == expected

    @pytest.mark.parametrize("modes", [1, 8])
    def test_eigensystems_built_twice_per_mode(self, monkeypatch, tmp_path, modes):
        # once for the oracle, once for the tone plan of all eight tone tags
        builds = self.count(monkeypatch, "eigensystem_numeric", dynamics)
        main(["verify", "--modes", str(modes), "--out", str(tmp_path / "report.json")])
        assert len(builds) == 2 * modes


L, ZB1, ZB2, ZB3 = "omega_L", "omega_zb1", "omega_zb2", "omega_zb3"
CONST = None  # a constant-kind tag: only its pass is pinned

#: Pinned `verify` verdicts: exit code and, per tag, (pass, assignment labels in
#: report order, missing labels, unexplained count). A change that moves any of
#: them changes what `verify` concludes, and needs a deliberate, logged edit here.
VERDICTS = {
    (): (EXIT_OK, {
        "S_x": (True, CONST), "S_y": (True, (L, ZB2), (), 0), "S_z": (True, (L, ZB2), (), 0),
        "alpha_x": (True, (ZB1, ZB3), (), 0), "alpha_y": (True, (ZB2, L), (), 0),
        "alpha_z": (True, (ZB2, L), (), 0), "r_x": (True, (ZB3, ZB1), (), 0),
        "r_y": (True, (ZB2, L), (), 0), "r_z": (True, (ZB2, L), (), 0)}),
    ("--p0", "0.5", "--delta", "0.1"): (EXIT_VERIFY, {
        "S_x": (True, CONST), "S_y": (True, (L, ZB2), (), 0), "S_z": (True, (L, ZB2), (), 0),
        "alpha_x": (True, (ZB1, ZB3), (), 0), "alpha_y": (False, (ZB2,), (L,), 0),
        "alpha_z": (False, (ZB2,), (L,), 0), "r_x": (True, (ZB3, ZB1), (), 0),
        "r_y": (True, (ZB2, L), (), 0), "r_z": (True, (ZB2, L), (), 0)}),
    ("--delta", "-0.4"): (EXIT_OK, {
        "S_x": (True, CONST), "S_y": (True, (L, ZB2), (), 0), "S_z": (True, (L, ZB2), (), 0),
        "alpha_x": (True, (ZB3, ZB1), (), 0), "alpha_y": (True, (ZB2, L), (), 0),
        "alpha_z": (True, (ZB2, L), (), 0), "r_x": (True, (ZB1, ZB3), (), 0),
        "r_y": (True, (ZB2, L), (), 0), "r_z": (True, (ZB2, L), (), 0)}),
    ("--modes", "8"): (EXIT_VERIFY, {
        "S_x": (True, CONST), "S_y": (False, (), (L, ZB2), 2), "S_z": (False, (), (L, ZB2), 2),
        "alpha_x": (False, (), (ZB1, ZB3), 3), "alpha_y": (False, (), (L, ZB2), 2),
        "alpha_z": (False, (), (L, ZB2), 2), "r_x": (False, (), (ZB1, ZB3), 3),
        "r_y": (False, (), (L, ZB2), 2), "r_z": (False, (), (L, ZB2), 2)}),
    ("--mix", "0.7,0,0.7,0"): (EXIT_OK, {
        "S_x": (True, CONST), "S_y": (True, CONST), "S_z": (True, CONST),
        "alpha_x": (True, (ZB1,), (), 0), "alpha_y": (True, CONST), "alpha_z": (True, CONST),
        "r_x": (True, (ZB1,), (), 0), "r_y": (True, CONST), "r_z": (True, CONST)}),
    ("--p0", "1.7", "--delta", "-0.75"): (EXIT_OK, {
        "S_x": (True, CONST), "S_y": (True, (ZB2, L), (), 0), "S_z": (True, (ZB2, L), (), 0),
        "alpha_x": (True, (ZB3, ZB1), (), 0), "alpha_y": (True, (ZB2, L), (), 0),
        "alpha_z": (True, (ZB2, L), (), 0), "r_x": (True, (ZB3, ZB1), (), 0),
        "r_y": (True, (L, ZB2), (), 0), "r_z": (True, (L, ZB2), (), 0)}),
}


@pytest.mark.parametrize("argv", list(VERDICTS), ids=lambda argv: " ".join(argv) or "defaults")
def test_verify_verdicts_are_pinned(tmp_path, argv):
    out = tmp_path / "report.json"
    code = main(["verify", *argv, "--out", str(out)])
    verdicts = {}
    for tag, entry in json.loads(out.read_text())["observables"].items():
        match = entry.get("match")
        verdicts[tag] = (entry["pass"], CONST) if match is None else (
            entry["pass"], tuple(a["label"] for a in match["assignments"]),
            tuple(match["missing"]), len(match["unexplained"]))
    assert (code, verdicts) == VERDICTS[argv]
