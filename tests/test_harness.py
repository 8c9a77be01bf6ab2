import json
import os

import numpy as np
import pytest

from entrobounds import cli
from entrobounds.gibbs import HamiltonianSpec
from entrobounds.harness import (
    SCHEMA_LINE,
    SUITES,
    CampaignConfig,
    ConfigError,
    emit_gibbs_table,
    render_report,
    run_campaign,
)


SMALL = dict(dims=(2, 3), samples=5, seed=7)


class TestConfig:
    def test_unknown_suite(self):
        with pytest.raises(ConfigError, match="unknown suite"):
            CampaignConfig(suite="nope")

    def test_bad_samples(self):
        with pytest.raises(ConfigError, match="samples"):
            CampaignConfig(suite="fannes", samples=0)

    def test_empty_grid(self):
        with pytest.raises(ConfigError, match="non-empty"):
            CampaignConfig(suite="fannes", dims=())

    def test_bad_format(self):
        with pytest.raises(ConfigError, match="format"):
            CampaignConfig(suite="fannes", format="xml")


def _dim(case, cases_per_dim):
    return 2 if case < cases_per_dim else 3


# (case, variant, dim, energy) of every record at dims=(2, 3), samples=3,
# energies=(1.0, 2.0), epsilons=(0.1, 0.3, 0.6).  A case is one sample per
# grid point; af numbers its general and qc variants, and tightness its
# fannes and af witnesses (0.6 > 1 - 1/2 is skipped at d=2), as separate
# cases; couplings and energy_bounds emit several records per case.
CASE_LAYOUT = {
    "fannes": [(k, "fannes_exact", _dim(k, 3), None) for k in range(6)],
    "af": [(k, ("af_general", "af_classical_B")[k % 2], _dim(k, 6), None)
           for k in range(12)],
    "dc": [(k, "dc_generic", _dim(k, 3), None) for k in range(6)],
    "couplings": [(k, v, _dim(k, 3), None) for k in range(6)
                  for v in ("quantum_overlap_psi", "quantum_fidelity_theta",
                            "diagonal_largest_eigenvalue")],
    "cor_pure": [(k, "ef_cor1", _dim(k, 3), None) for k in range(6)],
    "gibbs": [(0, "formula_vs_direct", 257, 1.0), (1, "formula_vs_direct", 257, 2.0)],
    "energy_bounds": [(k, v, 41, 1.0 if k < 3 else 2.0) for k in range(6)
                      for v in ("lemma4", "meta5")],
    "tightness": [(k, ("fannes_exact", "af_general")[k % 2], _dim(k, 4), None)
                  for k in range(10)],
}


class TestCampaigns:
    @pytest.mark.parametrize("suite", SUITES)
    def test_every_suite_runs_clean(self, suite):
        cfg = CampaignConfig(suite=suite, dims=(2, 3), samples=3, seed=1,
                             energies=(1.0, 2.0), epsilons=(0.1, 0.3, 0.6))
        report = run_campaign(cfg)
        assert report.records
        assert report.violations == 0
        assert report.min_slack >= -cfg.tolerance
        layout = [(r["case"], r["variant"], r["dim"], r["energy"]) for r in report.records]
        assert layout == CASE_LAYOUT[suite]

    def test_deterministic_given_seed(self):
        cfg = CampaignConfig(suite="fannes", **SMALL)
        a = render_report(run_campaign(cfg), "csv")
        b = render_report(run_campaign(cfg), "csv")
        assert a == b

    def test_seed_changes_records(self):
        a = run_campaign(CampaignConfig(suite="fannes", dims=(3,), samples=5, seed=1))
        b = run_campaign(CampaignConfig(suite="fannes", dims=(3,), samples=5, seed=2))
        assert [r["lhs"] for r in a.records] != [r["lhs"] for r in b.records]

    def test_csv_schema_line(self):
        text = render_report(run_campaign(CampaignConfig(suite="fannes", **SMALL)), "csv")
        assert text.startswith(SCHEMA_LINE + "\r\n")
        header = text.split("\r\n")[1]
        assert header.startswith("suite,case,variant,dim")

    def test_json_roundtrip(self):
        report = run_campaign(CampaignConfig(suite="fannes", **SMALL))
        data = json.loads(render_report(report, "json"))
        assert len(data) == len(report.records)
        assert data[0]["suite"] == "fannes"
        assert isinstance(data[0]["slack"], float)

    def test_output_file_written(self, tmp_path):
        path = str(tmp_path / "out.csv")
        cfg = CampaignConfig(suite="fannes", output=path, **SMALL)
        run_campaign(cfg)
        with open(path) as fh:
            assert fh.readline().startswith("# entrobounds-report v1")

    def test_dc_suite_flags_estimated_kappa(self):
        cfg = CampaignConfig(suite="dc", dims=(2,), samples=2, seed=0)
        report = run_campaign(cfg)
        assert all(r["kappa_estimated"] for r in report.records)


class TestGibbsTable:
    def test_rows_and_error_marking(self):
        h = HamiltonianSpec.explicit([0.0, 1.0])
        rows = emit_gibbs_table(h, [0.25, 0.9])  # 0.9 > max mean energy 0.5
        assert rows[0]["error"] == ""
        assert rows[0]["abs_diff"] < 1e-9
        assert "attainable" in rows[1]["error"] or "interval" in rows[1]["error"]

    def test_file_output(self, tmp_path):
        path = str(tmp_path / "table.csv")
        h = HamiltonianSpec.oscillators([1.0], n_max=128)
        emit_gibbs_table(h, [1.0], path=path)
        with open(path) as fh:
            first = fh.readline()
        assert first.startswith("# entrobounds-gibbs-table v1")


class TestCli:
    def test_verify_ok(self, capsys):
        rc = cli.main(["verify", "fannes", "--dims", "2,3", "--samples", "3",
                       "--seed", "1"])
        assert rc == cli.EXIT_OK
        assert "violations=0" in capsys.readouterr().out

    def test_verify_writes_report(self, tmp_path, capsys):
        path = str(tmp_path / "r.csv")
        rc = cli.main(["verify", "couplings", "--dims", "2", "--samples", "2",
                       "--seed", "0", "--out", path])
        assert rc == cli.EXIT_OK
        assert os.path.exists(path)

    def test_verify_byte_reproducible(self, tmp_path):
        paths = [str(tmp_path / f"r{i}.csv") for i in range(2)]
        for p in paths:
            assert cli.main(["verify", "af", "--dims", "2", "--samples", "2",
                             "--seed", "3", "--out", p]) == cli.EXIT_OK
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("dims=2\nsamples=2\nseed=5\n")
        rc = cli.main(["verify", "fannes", "--config", str(cfg), "--samples", "4"])
        assert rc == cli.EXIT_OK
        assert "cases=4" in capsys.readouterr().out

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bogus=1\n")
        rc = cli.main(["verify", "fannes", "--config", str(cfg)])
        assert rc == cli.EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_line_exits_2(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("just a line\n")
        assert cli.main(["verify", "fannes", "--config", str(cfg)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command", ["verify tightness", "witness fannes"])
    def test_empty_grid_exits_2(self, command, capsys):
        # eps = 0.75 exceeds 1 - 1/d at d = 2, so nothing is checked
        rc = cli.main([*command.split(), "--dims", "2", "--eps", "0.75"])
        assert rc == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    def test_witness_fannes(self, capsys):
        rc = cli.main(["witness", "fannes", "--dims", "2,4", "--eps", "0.25"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "valid=True" in out

    def test_witness_verdicts_follow_tol(self, capsys):
        # the d=8, eps=0.25 witness saturates its bound to slack -2.2e-16
        rc = cli.main(["witness", "fannes", "--dims", "2,8", "--eps", "0.25,0.5",
                       "--tol", "0"])
        assert rc == cli.EXIT_VIOLATIONS
        lines = capsys.readouterr().out.splitlines()
        assert [line.endswith("valid=True") for line in lines] == [True, True, False, True]

    def test_witness_oscillator(self, capsys):
        rc = cli.main(["witness", "oscillator", "--eps", "0.2",
                       "--energies", "10"])
        assert rc == cli.EXIT_OK

    def test_witness_oscillator_loops_over_energies(self, capsys):
        # --dims has no meaning for the oscillator and must not multiply lines
        rc = cli.main(["witness", "oscillator", "--dims", "2,8",
                       "--energies", "10,20,40", "--eps", "0.1,0.2"])
        assert rc == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            f"oscillator E={e} eps={eps}"
            for e in (10.0, 20.0, 40.0) for eps in (0.1, 0.2)]
        assert len({line.split(": ")[1] for line in lines}) == 6

    def test_gibbs_table_command(self, capsys):
        rc = cli.main(["gibbs-table", "--energies", "0.5,1.0", "--modes", "1.0"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "beta=" in out

    def test_gibbs_table_explicit_levels_domain_error_row(self, capsys):
        rc = cli.main(["gibbs-table", "--levels", "0,1", "--energies", "0.25,0.9"])
        # the unattainable row is reported, not a violation of the identity
        assert rc == cli.EXIT_OK

    def test_coupling_demo(self, capsys):
        rc = cli.main(["coupling-demo", "--dims", "3", "--seed", "2"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "quantum coupling" in out
        assert "diagonal coupling" in out
