"""Job loading, the pipeline entry points, exports, and exit codes."""

import copy
import json
import math
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from mflo.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_SCHEMA,
    JOB_SCHEMA,
    JobError,
    build_parser,
    export_state,
    gate_count_table,
    load_job,
    main,
    read_report,
    read_state_export,
    run_decompose,
    run_fit,
    run_verify,
)
import mflo.cli
from mflo.cpd import CpdOptions, decompose_cores
from mflo import ResourceLimitError
from mflo.fitting import OptimizeOptions

JOBS = Path(__file__).resolve().parent.parent / "jobs"
SINGLE = JOBS / "single_gaussian.json"
H2 = JOBS / "h2_like.json"
H2_N12 = JOBS / "h2_n12.json"
BOX_4x3x3 = JOBS / "h2_box_4x3x3.json"
BOX_6x4x4 = JOBS / "h2_box_6x4x4.json"


def _broken_job(tmp_path, mutate):
    job = json.loads(SINGLE.read_text())
    mutate(job)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    return path


@pytest.fixture(scope="module")
def single_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("fit") / "single.report.json"
    report, path = run_fit(SINGLE, out_path=out)
    return report, path


@pytest.fixture(scope="module")
def box_4x3x3_report(tmp_path_factory):
    """Path of a fitted h2_box_4x3x3 report; tests copy it before they edit it."""
    return run_fit(BOX_4x3x3, out_path=tmp_path_factory.mktemp("fit") / "box.report.json")[1]


class TestLoadJob:
    @pytest.mark.parametrize("path", [SINGLE, H2])
    def test_shipped_jobs_valid(self, path):
        job = load_job(path)
        assert job["schema"] == 1
        assert job["cell"]["n_qe"] >= 1

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(JobError, match="cannot read"):
            load_job(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(JobError, match="invalid JSON") as err:
            load_job(path)
        assert err.value.pointer == ""

    def test_missing_section(self, tmp_path):
        path = _broken_job(tmp_path, lambda j: j.pop("molecule"))
        with pytest.raises(JobError, match="molecule") as err:
            load_job(path)
        assert err.value.pointer == ""

    def test_bad_field_type(self, tmp_path):
        def mutate(j):
            j["cell"]["n_qe"] = "four"
        with pytest.raises(JobError) as err:
            load_job(_broken_job(tmp_path, mutate))
        assert err.value.pointer == "/cell/n_qe"

    @pytest.mark.parametrize("field", ["/extra", "/fit/max_iter", "/fit/f_tol",
                                       "/fit/restart_jitter", "/cpd/max_sweeps"])
    def test_unknown_key_rejected(self, tmp_path, capsys, field):
        pointer, key = field.rsplit("/", 1)

        def mutate(j):
            (j.setdefault(pointer[1:], {}) if pointer else j)[key] = 1
        code = main(["fit", "--job", str(_broken_job(tmp_path, mutate))])
        assert code == EXIT_SCHEMA
        err = json.loads(capsys.readouterr().err)
        assert err["pointer"] == pointer
        assert key in err["message"]

    @pytest.mark.parametrize("pointer, value", [
        ("/cell/n_qe", 4.0), ("/cpd/seed", 0.0), ("/fit/restarts", 2.0),
        ("/cpd/n_restarts", 2.0), ("/cpd/ranks/0", 1.0), ("/lorentzian/centers/x/0", 8.0),
        ("/fit/grad_tol", math.nan), ("/lorentzian/alpha_pen", math.nan),
        ("/cell/edge_lengths/0", math.nan), ("/lorentzian/initial_widths", math.inf),
        pytest.param("/lorentzian/alpha_pen", 10**400, id="/lorentzian/alpha_pen-1e400"),
    ])
    def test_integral_floats_and_nonfinite_numbers_rejected(self, tmp_path, capsys,
                                                            pointer, value):
        # JSON Schema accepts each of these, but the pipeline cannot run them: they
        # crash it or reach the report as NaN, which strict JSON parsers reject
        *parents, key = pointer[1:].split("/")

        def mutate(j):
            node = j
            for part in parents:
                node = node[int(part)] if isinstance(node, list) else node.setdefault(part, {})
            node[int(key) if isinstance(node, list) else key] = value
        out = tmp_path / "r.json"
        code = main(["fit", "--job", str(_broken_job(tmp_path, mutate)), "--out", str(out)])
        assert code == EXIT_SCHEMA
        assert json.loads(capsys.readouterr().err)["pointer"] == pointer
        assert not out.exists()

    @pytest.mark.parametrize("section, field, value, pointer, message", [
        ("cell", "edge_lengths", [0.0, 8.0, 8.0], "/cell", "edge lengths"),
        ("ao", "exponents", [-1.0], "/molecule/aos/0", "exponents"),
        ("ao", "exponents", [4.0, 2.0, 1.0], "/molecule/aos/0", "3 exponents vs 1"),
        ("ao", "coefficients", [0.0], "/molecule/aos/0", "zero norm"),
    ])
    def test_cell_and_ao_errors_name_their_object(self, tmp_path, capsys, section, field,
                                                  value, pointer, message):
        # the schema passes these; the cell and AO constructors reject them
        def mutate(j):
            (j["cell"] if section == "cell" else j["molecule"]["aos"][0])[field] = value
        out = tmp_path / "r.json"
        code = main(["fit", "--job", str(_broken_job(tmp_path, mutate)), "--out", str(out)])
        assert code == EXIT_SCHEMA
        err = json.loads(capsys.readouterr().err)
        assert err["pointer"] == pointer
        assert message in err["message"]
        assert not out.exists()

    def test_run_option_fields_match_the_options(self):
        props = {name: set(JOB_SCHEMA["properties"][name]["properties"])
                 for name in ("fit", "cpd")}
        assert props["fit"] == {f.name for f in fields(OptimizeOptions)}
        assert props["cpd"] == {f.name for f in fields(CpdOptions)} | {"ranks"}

    def test_centers_and_box_both_given(self, tmp_path):
        def mutate(j):
            j["lorentzian"]["box"] = {
                "box_min": [2.0, 2.0, 2.0], "box_edges": [4.0, 4.0, 4.0],
                "counts": [1, 1, 1]}
        with pytest.raises(JobError) as err:
            load_job(_broken_job(tmp_path, mutate))
        assert err.value.pointer.startswith("/lorentzian")

    def test_neither_centers_nor_box(self, tmp_path):
        def mutate(j):
            j["lorentzian"].pop("centers")
        with pytest.raises(JobError) as err:
            load_job(_broken_job(tmp_path, mutate))
        assert err.value.pointer.startswith("/lorentzian")

    def test_center_outside_grid(self, tmp_path):
        def mutate(j):
            j["lorentzian"]["centers"]["x"] = [99]
        with pytest.raises(JobError, match="outside the grid") as err:
            load_job(_broken_job(tmp_path, mutate))
        assert err.value.pointer == "/lorentzian/centers/x/0"

    def test_mo_coefficient_count(self, tmp_path):
        def mutate(j):
            j["molecule"]["mos"]["ground"] = [1.0, 0.5]
        with pytest.raises(JobError, match="coefficients") as err:
            load_job(_broken_job(tmp_path, mutate))
        assert err.value.pointer == "/molecule/mos/ground"

    def test_width_count_mismatch(self, tmp_path):
        def mutate(j):
            j["lorentzian"]["initial_widths"] = {"x": [1.0, 2.0], "y": [1.0], "z": [1.0]}
        with pytest.raises(JobError, match="widths") as err:
            load_job(_broken_job(tmp_path, mutate))
        assert err.value.pointer == "/lorentzian/initial_widths/x"

    def test_nonpositive_scalar_width(self, tmp_path):
        def mutate(j):
            j["lorentzian"]["initial_widths"] = -1.0
        with pytest.raises(JobError) as err:
            load_job(_broken_job(tmp_path, mutate))
        assert err.value.pointer.startswith("/lorentzian")

    def test_rank_exceeds_basis(self, tmp_path):
        def mutate(j):
            j["cpd"]["ranks"] = [2]
        with pytest.raises(JobError, match="n_prod") as err:
            load_job(_broken_job(tmp_path, mutate))
        assert err.value.pointer == "/cpd/ranks/0"


class TestRunFit:
    def test_report_structure(self, single_report):
        report, path = single_report
        assert report["schema"] == 1
        assert report["generator"]["name"] == "mflo"
        assert report["n_prod"] == 1
        assert report["ancillae"] == {"per_axis": [0, 0, 0], "lorentzian": 0}
        assert set(report["mos"]) == {"ground"}
        on_disk = json.loads(Path(path).read_text())
        assert on_disk["n_prod"] == 1
        assert sorted(on_disk["mos"]) == ["ground"]

    def test_trivial_layout_counts(self, single_report):
        report, _ = single_report
        counts = report["cnot_tucker"]
        assert counts["sph"] == -9 + 3 * 4 * 3
        assert counts["amp"] == 0
        assert counts["total"] == counts["sph"]
        assert counts["qft_informational"] == 3 * (4 * 3 + 3 * 2)

    def test_single_state_core_and_probability(self, single_report):
        report, _ = single_report
        entry = report["mos"]["ground"]
        assert entry["core"]["shape"] == [1, 1, 1]
        assert entry["core"]["values"][0] == pytest.approx(1.0, abs=1e-12)
        assert entry["success_probability_tucker"] == pytest.approx(1.0, abs=1e-12)
        assert entry["penalty"] == 0.0
        assert entry["fidelity"] == pytest.approx(entry["squared_overlap"], rel=1e-12)
        assert entry["fidelity"] == pytest.approx(entry["kappa_max"], rel=1e-12)

    def test_lfs_sharing_a_center_fit(self, tmp_path):
        # a line-search trial clips both x widths to one bound, which makes
        # the metric singular; the guard rejects it and the fit goes on
        job = json.loads(H2.read_text())
        job["lorentzian"]["centers"]["x"] = [32, 32]
        job["lorentzian"]["initial_widths"] = {"x": [2.0, 2.6], "y": [2.0], "z": [2.0]}
        (tmp_path / "job.json").write_text(json.dumps(job))
        out = tmp_path / "r.json"
        assert main(["fit", "--job", str(tmp_path / "job.json"), "--out", str(out)]) == EXIT_OK
        for entry in json.loads(out.read_text())["mos"].values():
            assert len(set(entry["widths"]["x"])) == 2
            assert max(entry["identity_residuals"].values()) <= 1e-10

    def test_identity_residuals_small(self, single_report):
        report, _ = single_report
        res = report["mos"]["ground"]["identity_residuals"]
        assert set(res) == {"core_metric_norm", "overlap_kappa", "fidelity_decomposition"}
        assert all(abs(v) <= 1e-10 for v in res.values())

    def test_canonical_rank_one_entry(self, single_report):
        report, _ = single_report
        canon = report["mos"]["ground"]["canonical"]["1"]
        assert canon["requested_rank"] == 1
        assert canon["rank"] == 1
        assert canon["deviation"] <= 1e-12
        assert canon["success_probability"] == pytest.approx(1.0, abs=1e-12)
        assert canon["cnot"]["total"] == report["cnot_tucker"]["total"]
        # the rank-1 core is exact at the SVD start
        assert (canon["sweeps"], canon["converged"]) == (0, True)

    def test_booleans_written_as_json_booleans(self, single_report):
        _, path = single_report
        on_disk = json.loads(Path(path).read_text())
        assert on_disk["mos"]["ground"]["diagnostics"]["converged"] is True
        assert on_disk["job"]["molecule"]["renormalize"] is True

    def test_history_recorded(self, single_report):
        report, _ = single_report
        diag = report["mos"]["ground"]["diagnostics"]
        hist = diag["fidelity_history"]
        assert len(hist) == diag["iterations"] + 1
        assert diag["stop_reason"] in ("grad_tol", "f_tol")
        assert diag["evaluations"] >= len(hist)
        assert hist[-1] == pytest.approx(report["mos"]["ground"]["fidelity"], rel=1e-12)
        assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))

    def test_identity_residual_past_tolerance_raises(self, tmp_path, monkeypatch):
        # with T doubled, |<ideal|trial>|^2 = 4 kappa_max: no report is written
        t_tensor = mflo.cli.t_tensor
        monkeypatch.setattr(mflo.cli, "t_tensor", lambda problem: 2.0 * t_tensor(problem))
        with pytest.raises(RuntimeError, match="identity check failed"):
            run_fit(H2, out_path=tmp_path / "r.json")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("prob", [0.0, -0.25, 1.0 + 1e-9, math.nan])
    def test_tucker_probability_outside_unit_interval_raises(self, tmp_path, monkeypatch, prob):
        monkeypatch.setattr(mflo.cli, "success_prob_tucker", lambda tucker: prob)
        with pytest.raises(RuntimeError, match=r"Tucker success probability .* outside \(0, 1\]"):
            run_fit(H2, out_path=tmp_path / "r.json")
        assert not (tmp_path / "r.json").exists()

    def test_repeated_runs_byte_identical(self, tmp_path):
        _, p1 = run_fit(SINGLE, out_path=tmp_path / "a.json")
        _, p2 = run_fit(SINGLE, out_path=tmp_path / "b.json")
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_report_reproduces_from_embedded_job(self, tmp_path):
        out = tmp_path / "r.json"
        run_fit(H2, out_path=out)
        first = out.read_bytes()
        embedded = tmp_path / "embedded.json"
        embedded.write_text(json.dumps(json.loads(first)["job"]))
        assert main(["fit", "--job", str(embedded), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == first

    def test_default_report_path_from_job(self, tmp_path):
        job_copy = tmp_path / "single_gaussian.json"
        shutil.copy(SINGLE, job_copy)
        _, path = run_fit(job_copy)
        assert Path(path) == tmp_path / "single_gaussian.report.json"
        # the report is the only file a fit writes
        assert sorted(tmp_path.iterdir()) == [job_copy, Path(path)]

    def test_fine_grid_job_fits_past_dense_limit(self, tmp_path):
        # n_qe=12 exceeds the default guard of 8; fitting builds no grid
        report, _ = run_fit(H2_N12, out_path=tmp_path / "n12.json")
        # the same job on a 16x coarser grid, with the centers at the same points
        job = json.loads(H2_N12.read_text())
        job["cell"]["n_qe"] = 8
        job["lorentzian"]["centers"] = {
            ax: [k // 16 for k in ks] for ax, ks in job["lorentzian"]["centers"].items()}
        coarse = tmp_path / "n8_job.json"
        coarse.write_text(json.dumps(job))
        coarse_report, _ = run_fit(coarse, out_path=tmp_path / "n8.json")
        assert set(report["mos"]) == {"bonding", "antibonding"}
        for name, entry in report["mos"].items():
            assert entry["diagnostics"]["converged"]
            assert entry["diagnostics"]["flags"] == []
            assert abs(entry["fidelity"] - coarse_report["mos"][name]["fidelity"]) < 1e-4


class TestExports:
    def test_binary_and_csv_agree(self, single_report, tmp_path):
        report, _ = single_report
        p_bin = export_state(report, "ideal", "binary", out_path=tmp_path / "s.bin")
        p_csv = export_state(report, "ideal", "csv", out_path=tmp_path / "s.csv")
        a_bin, meta_bin = read_state_export(p_bin)
        a_csv, meta_csv = read_state_export(p_csv)
        np.testing.assert_array_equal(a_bin, a_csv)
        assert meta_bin == {"format": "binary", "version": 1, "n_qe": 4, "form": "ideal"}
        assert meta_csv == {"format": "csv", "n_qe": 4}
        assert float(a_bin @ a_bin) == pytest.approx(1.0, abs=1e-12)

    def test_csv_indices_are_grid_coordinates(self, single_report, tmp_path):
        report, _ = single_report
        path = export_state(report, "ideal", "csv", out_path=tmp_path / "s.csv")
        lines = path.read_text().splitlines()
        assert lines[1].startswith("0,0,0,")
        # k_z runs fastest in the flattened order
        assert lines[2].startswith("0,0,1,")
        assert lines[-1].startswith("15,15,15,")

    def test_tucker_overlap_against_ideal(self, single_report, tmp_path):
        report, _ = single_report
        ideal, _ = read_state_export(
            export_state(report, "ideal", "binary", out_path=tmp_path / "i.bin"))
        trial, meta = read_state_export(
            export_state(report, "tucker", "binary", out_path=tmp_path / "t.bin"))
        assert meta["form"] == "tucker"
        f = float(ideal @ trial)
        assert f * f == pytest.approx(report["mos"]["ground"]["squared_overlap"], abs=1e-8)

    def test_canonical_defaults_to_largest_rank(self, single_report, tmp_path):
        report, _ = single_report
        amps, meta = read_state_export(
            export_state(report, "canonical", "binary", out_path=tmp_path / "c.bin"))
        assert meta["form"] == "canonical"
        trial, _ = read_state_export(
            export_state(report, "tucker", "binary", out_path=tmp_path / "t.bin"))
        # rank 1 on a single-product layout reproduces the Tucker state
        np.testing.assert_allclose(amps, trial, atol=1e-10)

    def test_bad_selectors(self, single_report, tmp_path):
        report, _ = single_report
        with pytest.raises(ValueError, match="no MO named"):
            export_state(report, "ideal", "csv", mo="nope", out_path=tmp_path / "x.csv")
        with pytest.raises(ValueError, match="format"):
            export_state(report, "ideal", "json", out_path=tmp_path / "x.json")
        with pytest.raises(ValueError, match="state selector"):
            export_state(report, "dense", "csv", out_path=tmp_path / "x.csv")
        with pytest.raises(ValueError, match="rank-7"):
            export_state(report, "canonical", "csv", rank=7, out_path=tmp_path / "x.csv")

    def test_guard_applies_to_reconstruction(self, single_report, tmp_path):
        report, _ = single_report
        with pytest.raises(ResourceLimitError):
            export_state(report, "tucker", "csv", out_path=tmp_path / "x.csv",
                         max_qubits=3)

    def test_truncated_binary_rejected(self, single_report, tmp_path):
        report, _ = single_report
        path = export_state(report, "ideal", "binary", out_path=tmp_path / "s.bin")
        data = path.read_bytes()
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="expected"):
            read_state_export(clipped)
        odd = tmp_path / "odd.bin"
        odd.write_bytes(data[:-3])
        with pytest.raises(ValueError, match="odd.bin: expected"):
            read_state_export(odd)
        short = tmp_path / "short.bin"
        short.write_bytes(data[:20])
        with pytest.raises(ValueError, match="short.bin: binary header"):
            read_state_export(short)

    def test_unknown_binary_version_rejected(self, single_report, tmp_path):
        report, _ = single_report
        data = bytearray(export_state(report, "ideal", "binary",
                                      out_path=tmp_path / "s.bin").read_bytes())
        data[4:8] = (2).to_bytes(4, "little")
        patched = tmp_path / "v2.bin"
        patched.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version 2"):
            read_state_export(patched)

    def test_unknown_form_tag_rejected(self, single_report, tmp_path):
        report, _ = single_report
        data = bytearray(export_state(report, "ideal", "binary",
                                      out_path=tmp_path / "s.bin").read_bytes())
        data[12:16] = (7).to_bytes(4, "little")
        patched = tmp_path / "tag7.bin"
        patched.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="tag7.bin: unknown form tag 7"):
            read_state_export(patched)

    def test_canonical_export_needs_a_decomposition(self, single_report, tmp_path, capsys):
        _, path = single_report
        bare = json.loads(path.read_text())
        for entry in bare["mos"].values():
            entry["canonical"] = {}
        bare_path = tmp_path / "bare.report.json"
        bare_path.write_text(json.dumps(bare))
        code = main(["export-state", "--report", str(bare_path), "--which", "canonical",
                     "--out", str(tmp_path / "c.csv")])
        assert code == EXIT_FAIL
        error = json.loads(capsys.readouterr().err)
        assert (error["error"], error["message"]) == (
            "run", "MO 'ground' has no canonical decompositions in the report")

    def test_clipped_csv_rejected(self, single_report, tmp_path):
        report, _ = single_report
        lines = export_state(report, "ideal", "csv",
                             out_path=tmp_path / "s.csv").read_text().splitlines()
        clipped = tmp_path / "clipped.csv"
        clipped.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="amplitude rows"):
            read_state_export(clipped)
        joined = tmp_path / "joined.csv"
        joined.write_text("\n".join([*lines[:-1], lines[-1].replace(",", " ")]) + "\n")
        with pytest.raises(ValueError, match="joined.csv: an amplitude row"):
            read_state_export(joined)

    def test_csv_without_header_rejected(self, single_report, tmp_path):
        report, _ = single_report
        lines = export_state(report, "ideal", "csv",
                             out_path=tmp_path / "s.csv").read_text().splitlines()
        renamed = tmp_path / "renamed.csv"
        renamed.write_text("\n".join(["x,y,z,amp"] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="header"):
            read_state_export(renamed)

    def test_csv_without_rows_rejected_without_a_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("k_x,k_y,k_z,amplitude\n")
        message = r"empty.csv: expected 8\^n_qe amplitude rows, found 0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                read_state_export(path)


class TestRunDecompose:
    def test_updates_report_in_place(self, tmp_path):
        _, path = run_fit(SINGLE, out_path=tmp_path / "r.json")
        before = json.loads(Path(path).read_text())
        report, out = run_decompose(path, [1])
        assert Path(out) == Path(path)
        canon = report["mos"]["ground"]["canonical"]["1"]
        assert canon["deviation"] <= 1e-12
        on_disk = json.loads(Path(path).read_text())["mos"]["ground"]["canonical"]["1"]
        assert on_disk["rank"] == canon["rank"] == 1
        assert on_disk["deviation"] == canon["deviation"]
        assert on_disk["success_probability"] == canon["success_probability"]
        assert before["mos"]["ground"]["core"] == report["mos"]["ground"]["core"]

    def test_separate_output_path(self, tmp_path):
        _, path = run_fit(SINGLE, out_path=tmp_path / "r.json")
        original = Path(path).read_bytes()
        _, out = run_decompose(path, [1], out_path=tmp_path / "r2.json")
        assert Path(out) == tmp_path / "r2.json"
        assert Path(path).read_bytes() == original

    def test_ranks_checked_before_any_work(self, tmp_path, monkeypatch):
        import mflo.cpd as cpd

        _, path = run_fit(H2, out_path=tmp_path / "r.json")
        original = Path(path).read_bytes()

        def never(*args, **kwargs):
            raise AssertionError("decomposed before validating")

        monkeypatch.setattr(cpd, "_rank_stage", never)
        with pytest.raises(ValueError, match=r"rank must be in \[1, 2\], got 99"):
            run_decompose(path, [1, 99])
        with pytest.raises(ValueError, match=r"rank must be in \[1, 2\], got 0"):
            run_decompose(path, [2, 0])
        assert Path(path).read_bytes() == original

    @staticmethod
    def _off_center_y_report(tmp_path):
        # off-center y LFs give the 2x2x1 cores rank 2 (antibonding) and 1 (bonding)
        job = json.loads(H2.read_text())
        job["lorentzian"]["centers"]["y"] = [26, 34]
        (tmp_path / "job.json").write_text(json.dumps(job))
        return run_fit(tmp_path / "job.json", out_path=tmp_path / "r.json")[1]

    def test_each_rank_decomposed_once_in_ascending_order(self, tmp_path, monkeypatch):
        import mflo.cpd as cpd

        path = self._off_center_y_report(tmp_path)
        ranks = []
        stage = cpd._rank_stage
        monkeypatch.setattr(cpd, "_rank_stage",
                            lambda d, R, *rest: ranks.append(R) or stage(d, R, *rest))
        assert main(["decompose", "--report", str(path), "--ranks", "4,1,2,1"]) == EXIT_OK
        assert ranks == [1, 2]
        mos = json.loads(Path(path).read_text())["mos"]
        for name, exact in (("bonding", 1), ("antibonding", 2)):
            canon = mos[name]["canonical"]
            assert sorted(canon, key=int) == ["1", "2", "4"]
            assert (canon["4"]["rank"], canon["4"]["flags"]) == (exact, ["rank-reduced"])

    def test_exact_rank_not_padded_with_round_off_terms(self, tmp_path):
        # bonding is exact at rank 1 to well below the deviation's resolution;
        # padding it with round-off terms would halve P and add CNOTs
        path = self._off_center_y_report(tmp_path)
        report, _ = run_decompose(path, [1, 2, 4])
        canon = report["mos"]["bonding"]["canonical"]
        for rank in ("2", "4"):
            assert canon[rank]["flags"] == ["rank-reduced"]
            for key in ("rank", "success_probability", "cnot", "n_a_canonical", "deviation"):
                assert canon[rank][key] == canon["1"][key]

    def test_exact_rank_repeated_at_higher_ranks(self, tmp_path):
        report, _ = run_fit(H2, out_path=tmp_path / "r.json")
        for entry in report["mos"].values():
            one, two = entry["canonical"]["1"], entry["canonical"]["2"]
            assert (two["requested_rank"], two["rank"], two["flags"]) == (2, 1, ["rank-reduced"])
            assert two["success_probability"] == one["success_probability"]
            assert two["cnot"] == one["cnot"]
            assert two["deviation"] == one["deviation"]

    def test_bad_rank(self, tmp_path):
        _, path = run_fit(SINGLE, out_path=tmp_path / "r.json")
        with pytest.raises(ValueError, match=r"rank must be in \[1, 1\], got 2"):
            run_decompose(path, [2])

    def test_empty_ladder_rejected(self, tmp_path):
        # a job whose cpd.ranks is empty would fail the schema on a refit
        path = _broken_job(tmp_path, lambda j: j["cpd"].pop("ranks"))
        _, report = run_fit(path, out_path=tmp_path / "r.json")
        original = Path(report).read_bytes()
        with pytest.raises(ValueError, match="at least one rank"):
            run_decompose(report, [])
        assert Path(report).read_bytes() == original

    def test_added_ranks_extend_the_fitted_ladder(self, tmp_path):
        # the 6x4x4 fit holds the ladder 1, 2, 4 with an exact R=4, the closed
        # form of rank 3; ranks added later join that ladder instead of
        # starting one of their own
        _, path = run_fit(BOX_6x4x4, out_path=tmp_path / "r.json")
        report, _ = run_decompose(path, [5, 6])
        assert report["job"]["cpd"]["ranks"] == [1, 2, 4, 5, 6]
        for entry in report["mos"].values():
            canon = [entry["canonical"][k] for k in sorted(entry["canonical"], key=int)]
            devs = [c["deviation"] for c in canon]
            assert all(b <= a for a, b in zip(devs, devs[1:])), devs
            exact = next(c for c in canon if c["deviation"] <= np.finfo(float).eps)
            for c in canon[canon.index(exact) + 1:]:
                assert c["flags"] == exact["flags"] + ["rank-reduced"] * (
                    "rank-reduced" not in exact["flags"])
                for key in ("rank", "success_probability", "cnot"):
                    assert c[key] == exact[key]

    def test_closed_form_entries_match_a_refit(self, tmp_path, monkeypatch):
        # R* = 3 on this job: the fitted R=4 rung and the added 5 and 8 are the
        # closed form, which decompose reads from the report: it parses no
        # molecule and builds no fit problem or engine
        import mflo.fitting

        _, path = run_fit(BOX_6x4x4, out_path=tmp_path / "r.json")

        def never(*args, **kwargs):
            raise AssertionError("decompose rebuilt the fit")

        with monkeypatch.context() as patch:
            for owner, name in ((mflo.cli, "_job_molecule"), (mflo.cli, "FitProblem"),
                                (mflo.fitting, "_Engine")):
                patch.setattr(owner, name, never)
            report, _ = run_decompose(path, [5, 8])
        for entry in report["mos"].values():
            assert entry["structural_rank"] == 3
            for rank in ("4", "5", "8"):
                canon = entry["canonical"][rank]
                assert (canon["rank"], canon["sweeps"]) == (3, 0)
                assert canon["flags"] == ["structural", "rank-reduced"]
        job = tmp_path / "embedded.json"
        job.write_text(json.dumps(report["job"]))
        _, refit = run_fit(job, out_path=tmp_path / "refit.json")
        assert Path(refit).read_bytes() == Path(path).read_bytes()

    def test_edited_closed_form_runs_cp(self, tmp_path):
        # a closed form that misses the core by more than EXACT_TOL is not
        # taken: its first rung at or above R* = 3 runs CP instead
        _, path = run_fit(BOX_6x4x4, out_path=tmp_path / "r.json")
        report = json.loads(Path(path).read_text())
        row = report["mos"]["bonding"]["structural_factors"]["x"][0]
        row[:] = [value * (1.0 + 1e-6) for value in row]
        Path(path).write_text(json.dumps(report))
        report, _ = run_decompose(path, [5])
        canon = report["mos"]["bonding"]["canonical"]
        assert canon["4"]["sweeps"] > 0 and "structural" not in canon["4"]["flags"]
        devs = [canon[k]["deviation"] for k in sorted(canon, key=int)]
        assert all(b <= a for a, b in zip(devs, devs[1:])), devs
        assert report["mos"]["antibonding"]["canonical"]["4"]["flags"][0] == "structural"

    def test_report_without_closed_form_rejected(self, tmp_path, capsys):
        # decompose reads the closed form only from the report, and
        # export-state reads reports through the same reader
        _, path = run_fit(H2, out_path=tmp_path / "r.json")
        report = json.loads(Path(path).read_text())
        del report["mos"]["antibonding"]["structural_factors"]
        Path(path).write_text(json.dumps(report))
        original = Path(path).read_bytes()
        message = f"{path}: /mos/antibonding: 'structural_factors' is a required property"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_decompose(path, [2])
        capsys.readouterr()
        out = tmp_path / "tucker.bin"
        assert main(["decompose", "--report", str(path), "--ranks", "2"]) == EXIT_FAIL
        assert main(["export-state", "--report", str(path), "--which", "tucker",
                     "--mo", "bonding", "--format", "binary", "--out", str(out)]) == EXIT_FAIL
        errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert errors == [{"error": "run", "message": message}] * 2
        assert Path(path).read_bytes() == original
        assert not out.exists()

    @pytest.mark.parametrize("mo, axis, edit", [
        ("antibonding", "y", lambda factors: factors["y"][0].pop()),  # a short row
        ("antibonding", "x", lambda factors: factors.update(x=sum(factors["x"], []))),  # flattened
        # the bonding MO's exact R=2 rung is carried up, so its factors are
        # never tried: only the parse sees this edit
        ("bonding", "z", lambda factors: factors["z"].append(list(factors["z"][0]))),
    ], ids=["short-row", "flattened-axis", "extra-row"])
    def test_malformed_closed_form_rejected(self, box_4x3x3_report, tmp_path, capsys,
                                            mo, axis, edit):
        report = json.loads(Path(box_4x3x3_report).read_text())
        assert report["mos"]["bonding"]["canonical"]["2"]["deviation"] <= 1e-15
        edit(report["mos"][mo]["structural_factors"])
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report))
        original = path.read_bytes()
        message = f"MO '{mo}': structural_factors['{axis}'] is not R >= 1 rows of "
        with pytest.raises(ValueError, match=re.escape(message)):
            run_decompose(path, [5])
        capsys.readouterr()
        assert main(["decompose", "--report", str(path), "--ranks", "5"]) == EXIT_FAIL
        out = tmp_path / "tucker.bin"
        assert main(["export-state", "--report", str(path), "--which", "tucker", "--mo", mo,
                     "--format", "binary", "--out", str(out)]) == EXIT_FAIL
        errors = [json.loads(line)["message"] for line in capsys.readouterr().err.splitlines()]
        assert len(errors) == 2 and all(e.startswith(f"{path}: {message}") for e in errors)
        assert path.read_bytes() == original
        assert not out.exists()

    def test_request_that_adds_no_rank_runs_no_cp(self, box_4x3x3_report, tmp_path, capsys,
                                                  monkeypatch):
        # the job's ladder is 1, 2, 4: asking for ranks it holds leaves the
        # report, and --out gets its bytes
        path, copy = tmp_path / "r.json", tmp_path / "copy" / "r.json"
        shutil.copyfile(box_4x3x3_report, path)
        original = path.read_bytes()
        report = json.loads(original)
        assert report["job"]["cpd"]["ranks"] == [1, 2, 4]
        table = [f"{name} R={key}: deviation={entry['deviation']:.3e} "
                 f"P_canonical={entry['success_probability']:.6f}"
                 for name in sorted(report["mos"])
                 for key, entry in sorted(report["mos"][name]["canonical"].items(),
                                          key=lambda item: int(item[0]))]

        def never(*args, **kwargs):
            raise AssertionError("decompose ran CP for a request that adds no rank")

        monkeypatch.setattr(mflo.cli, "decompose_cores", never)
        capsys.readouterr()
        assert main(["decompose", "--report", str(path), "--ranks", "4,1"]) == EXIT_OK
        assert main(["decompose", "--report", str(path), "--ranks", "2",
                     "--out", str(copy)]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        assert printed == [*table, f"report written to {path}", *table, f"report written to {copy}"]
        assert path.read_bytes() == copy.read_bytes() == original
        with pytest.raises(AssertionError, match="adds no rank"):
            run_decompose(path, [3])
        assert path.read_bytes() == original

    def test_refitting_the_embedded_job_reproduces_the_report(self, tmp_path):
        path = self._off_center_y_report(tmp_path)
        report, _ = run_decompose(path, [4])
        job = tmp_path / "embedded.json"
        job.write_text(json.dumps(report["job"]))
        _, refit = run_fit(job, out_path=tmp_path / "refit.json")
        assert Path(refit).read_bytes() == Path(path).read_bytes()

    def test_ranks_added_in_steps_equal_ranks_added_at_once(self, tmp_path):
        job = json.loads(H2.read_text())
        job["lorentzian"]["centers"]["y"] = [26, 34]
        del job["cpd"]["ranks"]
        (tmp_path / "job.json").write_text(json.dumps(job))
        _, path = run_fit(tmp_path / "job.json", out_path=tmp_path / "r.json")
        steps, once = tmp_path / "steps.json", tmp_path / "once.json"
        run_decompose(path, [2], out_path=steps)
        run_decompose(steps, [4])
        run_decompose(path, [2, 4], out_path=once)
        assert json.loads(once.read_text())["job"]["cpd"]["ranks"] == [2, 4]
        assert steps.read_bytes() == once.read_bytes()


def _rename_ground(report):
    report["mos"]["nope"] = report["mos"].pop("ground")


@pytest.mark.parametrize("command", [["decompose", "--ranks", "1"],
                                     ["export-state", "--which", "tucker"]],
                         ids=["decompose", "export-state"])
@pytest.mark.parametrize("edit, error", [
    ([1, 2], "<document>: expected object, got [1, 2]"),
    ({"job": {"cell": {"n_qe": 6}, "cpd": {"ranks": [1]}}, "mos": []},
     "/job: 'schema' is a required property"),
    (lambda report: report["mos"]["ground"].pop("core"),
     "/mos/ground: 'core' is a required property"),
    (lambda report: report["mos"]["ground"]["core"].update(shape=[1, 1, 2]),
     "MO 'ground': core is not [1, 1, 1], one value per LF product"),
    (lambda report: report["mos"]["ground"]["widths"].update(x=[-1.0]),
     "MO 'ground': direction x: widths must be positive"),
    (_rename_ground, "/mos/nope: not an MO of the report's job"),
    (lambda report: report["job"]["lorentzian"].update(alpha_pen=-1),
     "/job/lorentzian/alpha_pen: expected a value >= 0, got -1"),
    (lambda report: report["mos"]["ground"].pop("canonical"),
     "/mos/ground: 'canonical' is a required property"),
    (lambda report: report["mos"]["ground"]["canonical"]["1"].update(u=[[1.0]]),
     "/mos/ground/canonical/1/u: expected object, got [[1.0]]"),
    (lambda report: report["mos"]["ground"]["canonical"]["1"].update(
        u={ax: [[1.0], [1.0]] for ax in "xyz"}),
     "MO 'ground', rank 1: u['x'] is not 1 rows of 1 numbers, one per lambda"),
], ids=["list", "job-without-schema", "entry-without-core", "core-shape", "bad-width",
        "mo-not-in-job", "job-fails-schema", "entry-without-canonical", "canonical-u-list",
        "canonical-rows-per-lambda"])
def test_a_file_that_is_not_a_report_is_refused(single_report, tmp_path, capsys, command, edit,
                                                 error):
    # one reader serves both commands: a one-line run error that names the
    # file and the field, before any work or write; ``edit`` changes a
    # fitted report, or is the whole document
    document = json.loads(single_report[1].read_text())
    if callable(edit):
        edit(document)
    else:
        document = edit
    path, out = tmp_path / "r.json", tmp_path / "out" / "x"
    path.write_text(json.dumps(document))
    original = path.read_bytes()
    capsys.readouterr()
    assert main([command[0], "--report", str(path), *command[1:], "--out", str(out)]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "run", "message": f"{path}: {error}"}
    assert path.read_bytes() == original
    assert not out.parent.exists()


class TestGateCountTable:
    def test_reference_layout(self):
        table = gate_count_table((3, 3, 3), 7, ranks=(3,))
        assert table["ancillae"] == {"per_axis": [2, 2, 2], "lorentzian": 6}
        assert table["tucker"] == {"total": 305, "sph": 243, "amp": 62}
        assert table["qft_informational"] == 3 * (7 * 6 + 3 * 3)
        assert table["canonical"]["3"] == {
            "total": 281, "sph": 243, "amp": 38, "n_a_canonical": 2}

    def test_report_agrees_with_gate_count(self, tmp_path, capsys):
        report, _ = run_fit(H2, out_path=tmp_path / "r.json")
        entries = [c for mo in report["mos"].values() for c in mo["canonical"].values()]
        # the h2 rank-2 entries are rank-reduced, so rows are keyed by the reported rank
        ranks = sorted({c["rank"] for c in entries})
        out = tmp_path / "gc.json"
        argv = ["gate-count", "--job", str(H2), "--out", str(out)]
        assert main(argv + [f"--rank={r}" for r in ranks]) == EXIT_OK
        table = json.loads(out.read_text())
        assert table["ancillae"] == report["ancillae"]
        tucker = dict(report["cnot_tucker"])
        assert tucker.pop("qft_informational") == table["qft_informational"]
        assert table["tucker"] == tucker
        for c in entries:
            row = dict(table["canonical"][str(c["rank"])])
            assert row.pop("n_a_canonical") == c["n_a_canonical"]
            assert row == c["cnot"]


class TestMain:
    def test_schema_error_exit_and_stderr(self, tmp_path, capsys):
        path = _broken_job(tmp_path, lambda j: j.pop("cell"))
        code = main(["fit", "--job", str(path)])
        assert code == EXIT_SCHEMA
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "schema"
        assert "pointer" in err

    def test_fit_success_output(self, tmp_path, capsys):
        code = main(["fit", "--job", str(SINGLE), "--out", str(tmp_path / "r.json")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "ground: squared_overlap=" in out
        assert "report written to" in out

    def test_job_with_outputs_section_rejected(self, tmp_path, capsys):
        path = _broken_job(tmp_path, lambda j: j.update(outputs={"report": "r.json"}))
        code = main(["fit", "--job", str(path)])
        assert code == EXIT_SCHEMA
        assert "outputs" in json.loads(capsys.readouterr().err)["message"]
        assert sorted(tmp_path.iterdir()) == [path]

    def test_resource_exit_code(self, single_report, tmp_path, capsys):
        _, report = single_report
        code = main(["export-state", "--report", str(report), "--which", "tucker",
                     "--out", str(tmp_path / "s.csv"), "--max-qubits", "3"])
        assert code == EXIT_RESOURCE
        assert json.loads(capsys.readouterr().err)["error"] == "resource"

    def test_parser_built_once_and_reused_cleanly(self):
        # the parser is cached across calls; one call's arguments must not leak into the next
        parser = build_parser()
        assert build_parser() is parser
        first = parser.parse_args(["gate-count", "--n-qe", "7", "--rank", "3"])
        second = parser.parse_args(["gate-count", "--n-qe", "7"])
        assert (first.rank, second.rank) == ([3], None)

    def test_gate_count_stdout(self, capsys):
        code = main(["gate-count", "--n-l", "3,3,3", "--n-qe", "7", "--rank", "3"])
        assert code == EXIT_OK
        table = json.loads(capsys.readouterr().out)
        assert table["tucker"]["total"] == 305
        assert table["canonical"]["3"]["total"] == 281

    def test_gate_count_from_job(self, capsys):
        code = main(["gate-count", "--job", str(H2)])
        assert code == EXIT_OK
        table = json.loads(capsys.readouterr().out)
        assert table["n_l"] == [2, 1, 1]
        assert table["tucker"]["total"] == 63
        assert table["canonical"]["2"]["total"] == 65

    @pytest.mark.parametrize("argv, message", [
        (["decompose", "--report", "r.json", "--ranks", "x"],
         "argument --ranks: expected comma-separated integers, got 'x'"),
        (["decompose", "--report", "r.json", "--ranks", "1,,2"],
         "argument --ranks: expected comma-separated integers, got '1,,2'"),
        (["gate-count", "--n-l", "a,b,c", "--n-qe", "7"],
         "argument --n-l: expected 3 comma-separated integers, got 'a,b,c'"),
        (["gate-count", "--n-l", "3,3", "--n-qe", "7"],
         "argument --n-l: expected 3 comma-separated integers, got '3,3'"),
    ])
    def test_malformed_integer_lists_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"mflo {argv[0]}: error: {message}"
        assert "_parse" not in err and "_int_list" not in err

    def test_gate_count_needs_layout(self, capsys):
        code = main(["gate-count", "--n-qe", "7"])
        assert code == EXIT_FAIL
        assert json.loads(capsys.readouterr().err)["error"] == "run"

    @pytest.mark.parametrize("rank", [[], ["--rank", "2"]])
    @pytest.mark.parametrize("n_qe", ["0", "-2"])
    def test_gate_count_rejects_fewer_than_one_grid_qubit(self, capsys, n_qe, rank):
        code = main(["gate-count", "--n-l", "2,1,1", "--n-qe", n_qe, *rank])
        assert code == EXIT_FAIL
        error = json.loads(capsys.readouterr().err)
        assert (error["error"], error["message"]) == ("run", f"n_qe must be >= 1, got {n_qe}")

    def test_decompose_and_export(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert main(["fit", "--job", str(SINGLE), "--out", str(report)]) == EXIT_OK
        assert main(["decompose", "--report", str(report), "--ranks", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "R=1: deviation=" in out
        state = tmp_path / "s.csv"
        assert main(["export-state", "--report", str(report), "--which", "tucker",
                     "--out", str(state)]) == EXIT_OK
        assert state.exists()

    def test_closed_stdout_fails_without_a_message(self):
        # the reader takes one line of a 1.5 MB table and closes the pipe
        code = "import sys; from mflo.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "two-center", "--n", "6", "--a", "0.5",
             "--center-a", "20", "--center-b", "40", "--points", "20001"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"theta,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (EXIT_FAIL, b"")

    def test_two_center_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["two-center", "--n", "4", "--a", "0.8", "--center-a", "4",
                     "--center-b", "12", "--points", "5", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,probability,bonding_approx,antibonding_approx"
        assert len(lines) == 6
        thetas = [float(line.split(",")[0]) for line in lines[1:]]
        assert thetas[0] == pytest.approx(-math.pi / 2)
        assert thetas[-1] == pytest.approx(math.pi / 2)

    def test_verify_passes_on_shipped_job(self, capsys):
        assert main(["verify", "--job", str(H2)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "13/13 checks passed" in out
        assert "FAIL" not in out
        assert "skip" not in out

    @pytest.mark.parametrize("argv", [
        ["fit", "--job", str(SINGLE), "--seed", "9"],
        ["decompose", "--report", "r.json", "--ranks", "1", "--seed", "9"],
        ["decompose", "--report", "r.json", "--ranks", "1", "--restarts", "2"],
        ["verify", "--job", str(SINGLE), "--seed", "9"],
        ["fit", "--job", str(SINGLE), "--max-qubits", "3"],
    ])
    def test_run_options_come_only_from_the_job(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cp_exactness_check_runs_cp(tmp_path, bench_jobs, monkeypatch):
    # the fitted state carries its closed form; the check must not take it
    report, tuckers = read_report(
        run_fit(bench_jobs("fit-box", 1)["h2_box"], out_path=tmp_path / "r.json")[1])
    assert all(e["canonical"]["4"]["flags"][0] == "structural" for e in report["mos"].values())
    found = []

    def recording(*args, **kwargs):
        out = decompose_cores(*args, **kwargs)
        found.extend(state for states in out.values() for state in states)
        return out

    monkeypatch.setattr(mflo.cli, "decompose_cores", recording)
    detail = mflo.cli._check_cp_exactness(tuckers)
    [canon] = found
    assert canon.sweeps > 0 and "structural" not in canon.flags
    assert f"after {canon.sweeps} CP sweeps" in detail
    # the 6x4x4 layout's tensor-rank bound, not n_prod = 96
    assert detail.startswith("R_b=min(n_x n_y, n_x n_z, n_y n_z)=16: ")


def test_run_verify_skips_grid_checks_past_the_guard(capsys):
    # h2_like is on a 2^6 grid; a guard of 5 leaves every check but the two
    # that build N^3 states runnable
    assert run_verify(H2, max_qubits=5) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    skipped = [line.split()[0] for line in lines if line.split()[1:2] == ["skip"]]
    assert skipped == ["statevector-overlap", "export-roundtrip"]
    assert not any(line.split()[1:2] == ["FAIL"] for line in lines)
    assert lines[-1] == ("11/13 checks passed, 2 skipped: "
                         "statevector-overlap, export-roundtrip")


def _double_core(report):
    for entry in report["mos"].values():
        entry["core"]["values"] = 2.0 * np.asarray(entry["core"]["values"])


def _shift_tucker_probability(report):
    for entry in report["mos"].values():
        entry["success_probability_tucker"] *= 1.01


def _writing(fault):
    """A ``_write_report`` that writes the report with ``fault`` applied to a copy."""
    write = mflo.cli._write_report

    def faulty(report, path):
        report = copy.deepcopy(report)
        fault(report)
        write(report, path)
    return "_write_report", faulty


def _perturbed_lambdas():
    decompose = mflo.cli.decompose_cores

    def perturbed(*args, **kwargs):
        return {R: [replace(c, lambdas=c.lambdas[::-1]) for c in states]
                for R, states in decompose(*args, **kwargs).items()}
    return "decompose_cores", perturbed


def _flipped_binary_byte():
    export = mflo.cli.export_state

    def flipped(report, which, fmt, **kwargs):
        path = export(report, which, fmt, **kwargs)
        if fmt == "binary":
            data = bytearray(path.read_bytes())
            data[32] ^= 1  # the lowest bit of the first amplitude
            path.write_bytes(bytes(data))
        return path
    return "export_state", flipped


@pytest.mark.parametrize("check, patch, detail", [
    ("statevector-overlap", lambda: _writing(_double_core), "statevector overlap residual"),
    ("tucker-probability-oracle", lambda: _writing(_shift_tucker_probability),
     "probability oracle residual"),
    ("cp-exactness", _perturbed_lambdas, "deviation"),
    ("export-roundtrip", _flipped_binary_byte, "CSV and binary exports disagree"),
], ids=["statevector-overlap", "tucker-probability-oracle", "cp-exactness", "export-roundtrip"])
def test_a_fault_seeded_into_a_report_check_fails_it(tmp_path, capsys, monkeypatch, check, patch,
                                                     detail):
    # the report checks read the report file the fit wrote; off-center y LFs
    # give the first MO (antibonding) a core of rank 2 = R_b, so CP runs
    job = json.loads(H2.read_text())
    job["lorentzian"]["centers"]["y"] = [26, 34]
    (tmp_path / "job.json").write_text(json.dumps(job))
    monkeypatch.setattr(mflo.cli, *patch())
    assert run_verify(tmp_path / "job.json") == EXIT_FAIL
    failed = [line.split(maxsplit=2) for line in capsys.readouterr().out.splitlines()
              if line.split()[1:2] == ["FAIL"]]
    assert [(name, message.startswith(detail)) for name, _, message in failed] == [(check, True)]


def test_run_verify_reports_failures(tmp_path, capsys):
    # a job that cannot be loaded must fail the pipeline-dependent checks
    # and report a nonzero exit, not raise
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code = run_verify(bad)
    out = capsys.readouterr().out
    assert code == EXIT_FAIL
    assert "failed:" in out
    assert "pipeline-identities" in out
    for name in ("tucker-probability-oracle", "statevector-overlap", "cp-exactness",
                 "export-roundtrip", "determinism"):
        assert re.search(rf"^{name} +FAIL  skipped: pipeline run failed$", out, re.M), name


def test_cli_import_loads_neither_jsonschema_nor_scipy():
    # scipy alone adds about 49 MB to a bare interpreter's peak RSS, and
    # jsonschema about 0.09 s and 5 MB to every mflo start
    code = ("import sys, mflo.cli; "
            "loaded = [m for m in ('jsonschema', 'scipy') if m in sys.modules]; "
            "sys.exit(bool(loaded) and f'imported {loaded}')")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
