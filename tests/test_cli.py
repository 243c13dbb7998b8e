import concurrent.futures
import itertools
import os
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqscan.cli as cli
from seqscan import PosteriorBand, ci_band, relative_copy_number

from conftest import proc_from_z


def write_reads(path, positions, chrom="chr1"):
    with open(path, "w") as fh:
        fh.write("#chrom\tposition\n")
        for p in positions:
            fh.write(f"{chrom}\t{int(p)}\n")


def make_single_spike(tmp_path, seed=0, m=3000):
    """Case/control files with one strong gain in the middle third."""
    rng = np.random.default_rng(seed)
    span = 3_000_000
    control = np.sort(rng.integers(0, span, m))
    lo, hi = span // 3, 2 * span // 3
    weight = np.where((np.arange(0, span, 100) >= lo) & (np.arange(0, span, 100) < hi), 3.0, 1.0)
    case_bins = rng.choice(np.arange(0, span, 100), size=m, p=weight / weight.sum())
    case = np.sort(case_bins + rng.integers(0, 100, m))
    write_reads(tmp_path / "case.tsv", case)
    write_reads(tmp_path / "control.tsv", control)
    return tmp_path / "case.tsv", tmp_path / "control.tsv", (lo, hi)


def read_tsv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0], [line.split("\t") for line in lines[1:]]


class TestSegmentCommand:
    def test_single_spike_three_segments(self, tmp_path):
        case, control, (lo, hi) = make_single_spike(tmp_path)
        out = tmp_path / "out"
        rc = cli.main([
            "segment", "--case", str(case), "--control", str(control),
            "--out-dir", str(out), "--max-k", "12", "--band-grid-step", "25",
        ])
        assert rc == 0
        header, rows = read_tsv(out / "segments.tsv")
        assert header.startswith("#chrom")
        assert len(rows) == 3
        # middle segment has elevated case fraction near the spiked region
        assert float(rows[1][7]) > float(rows[0][7])
        assert abs(int(rows[1][1]) - lo) < 60_000 and abs(int(rows[1][2]) - hi) < 60_000
        _, curve = read_tsv(out / "mbic_chr1.tsv")
        values = [float(r[1]) for r in curve]
        assert int(np.argmax(values)) == 2

        _, band = read_tsv(out / "band.tsv")
        assert all(float(r[2]) <= float(r[3]) <= float(r[4]) for r in band)

    def test_empty_case_single_segment(self, tmp_path):
        rng = np.random.default_rng(1)
        write_reads(tmp_path / "case.tsv", [])
        write_reads(tmp_path / "control.tsv", np.sort(rng.integers(0, 10**6, 500)))
        out = tmp_path / "out"
        rc = cli.main([
            "segment", "--case", str(tmp_path / "case.tsv"),
            "--control", str(tmp_path / "control.tsv"), "--out-dir", str(out),
        ])
        assert rc == 0
        _, rows = read_tsv(out / "segments.tsv")
        assert len(rows) == 1
        assert float(rows[0][7]) == 0.0
        assert rows[0][8] == "0"

    def test_labeled_single_file_mode(self, tmp_path):
        rng = np.random.default_rng(2)
        reads = tmp_path / "reads.tsv"
        with open(reads, "w") as fh:
            fh.write("#chrom\tposition\tlabel\n")
            for p in np.sort(rng.integers(0, 10**5, 200)):
                fh.write(f"chr1\t{p}\tcase\n")
            for p in np.sort(rng.integers(0, 10**5, 200)):
                fh.write(f"chr1\t{p}\tcontrol\n")
        out = tmp_path / "out"
        rc = cli.main(["segment", "--reads", str(reads), "--out-dir", str(out)])
        assert rc == 0
        assert (out / "segments.tsv").exists()

    def test_byte_order_mark_does_not_change_outputs(self, tmp_path):
        case, control, _ = make_single_spike(tmp_path, m=600)

        def outputs(name, prefix, skip):
            argv = ["segment", "--max-k", "4", "--out-dir", str(tmp_path / name)]
            for flag, src in (("--case", case), ("--control", control)):
                lines = src.read_text().splitlines(keepends=True)[skip:]
                dst = tmp_path / f"{name}-{src.name}"
                dst.write_bytes((prefix + "".join(lines)).encode())
                argv += [flag, str(dst)]
            assert cli.main(argv) == 0
            return {f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())}

        plain = outputs("plain", "", 0)
        # before the header, and before the first data row of a headerless file
        assert outputs("bom", "\ufeff", 0) == plain
        assert outputs("bom-headerless", "\ufeff", 1) == plain

    def test_short_chromosome_skipped(self, tmp_path, caplog):
        write_reads(tmp_path / "case.tsv", [1, 2, 3])
        write_reads(tmp_path / "control.tsv", [4, 5, 6])
        out = tmp_path / "out"
        rc = cli.main([
            "segment", "--case", str(tmp_path / "case.tsv"),
            "--control", str(tmp_path / "control.tsv"), "--out-dir", str(out),
        ])
        assert rc == 0
        _, rows = read_tsv(out / "segments.tsv")
        assert rows == []

    def test_parse_error_exit_code(self, tmp_path, capsys):
        (tmp_path / "bad.tsv").write_text("chr1\toops\n")
        write_reads(tmp_path / "control.tsv", [1, 2, 3])
        rc = cli.main([
            "segment", "--case", str(tmp_path / "bad.tsv"),
            "--control", str(tmp_path / "control.tsv"), "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        assert ":1:" in capsys.readouterr().err

    @pytest.mark.parametrize("mistake", [
        "band_grid_step_zero", "band_grid_step_negative", "missing_case_file",
        "binary_case_file", "non_integer_calls_index", "bin_width_zero", "sine_period_zero",
        "seed_negative", "out_dir_not_creatable", "alpha_nan", "n_segments_negative",
        "tolerance_reads_negative", "reads_with_case", "max_k_not_integer", "mbic_curve_alpha",
        "calls_index_above_m", "calls_index_above_m_bp", "calls_index_below_one",
        "calls_index_below_one_bp", "reads_above_bound", "huge_reads", "n_segments_above_bound",
        "min_seg_bp_below_one", "span_bins_above_bound", "control_bins_above_bound",
        "span_bp_above_max_position", "case_position_above_max", "layout_cannot_fit",
        "truth_bp_negative", "truth_bp_above_max", "chrom_comment", "chrom_tab",
        "chrom_newline", "chrom_carriage_return", "chrom_slash", "chrom_nul",
        "segment_chrom_slash", "segment_chrom_nul", "mbic_curve_chrom_slash",
        "mbic_curve_chrom_nul",
    ])
    def test_input_error_exit_code(self, tmp_path, capsys, monkeypatch, mistake):
        def no_sampling(*args, **kwargs):
            raise AssertionError("reads were sampled before the mistake was reported")

        def no_scan(*args, **kwargs):
            raise AssertionError("reads were scanned before the mistake was reported")

        monkeypatch.setattr(cli, "sample_nhpp", no_sampling)
        monkeypatch.setattr(cli, "cbs_segment", no_scan)
        case, control = tmp_path / "case.tsv", tmp_path / "control.tsv"
        write_reads(case, range(0, 400, 2))
        write_reads(control, range(1, 400, 2))
        (tmp_path / "binary.tsv").write_bytes(bytes(range(128, 256)))
        (tmp_path / "reads.tsv").write_text(
            "".join(f"chr1\t{p}\t{('case', 'control')[p % 2]}\n" for p in range(400))
        )
        (tmp_path / "truth.tsv").write_text("chr1\t100\t200\t1.5\n")
        (tmp_path / "neg_truth.tsv").write_text("chr1\t-5\t7\t1.5\n")
        (tmp_path / "far_truth.tsv").write_text(f"chr1\t100\t{10**15 + 1}\t1.5\n")
        (tmp_path / "calls.tsv").write_text("chr1\t0\t399\t1\t400\t200\t200\t0.5\t1\n")
        (tmp_path / "bad_calls.tsv").write_text("chr1\t0\t399\tone\t400\t200\t200\t0.5\t1\n")
        # start_idx beyond the 400 merged reads, and at or below 0
        (tmp_path / "over_calls.tsv").write_text(
            "chr1\t0\t199\t1\t899\t0\t0\t0.5\t1\nchr1\t200\t399\t900\t901\t0\t0\t0.5\t1\n"
        )
        (tmp_path / "under_calls.tsv").write_text(
            "chr1\t0\t199\t-5\t-1\t0\t0\t0.5\t1\nchr1\t200\t399\t0\t400\t0\t0\t0.5\t1\n"
        )
        write_reads(tmp_path / "far.tsv", [0, 10**11])  # 10**8 + 1 bins of 1 kb
        write_reads(tmp_path / "beyond.tsv", [5, 10**15 + 1])
        # names that cannot be part of the file name mbic_<chrom>.tsv
        write_reads(tmp_path / "slash.tsv", range(0, 400, 2), chrom="a/b")
        write_reads(tmp_path / "nul.tsv", range(1, 400, 2), chrom="a\0b")
        (tmp_path / "slash_reads.tsv").write_text(
            "".join(f"a/b\t{p}\t{('case', 'control')[p % 2]}\n" for p in range(400))
        )
        (tmp_path / "nul_reads.tsv").write_text(
            "".join(f"a\0b\t{p}\t{('case', 'control')[p % 2]}\n" for p in range(400))
        )
        out = tmp_path / "out"
        pair = ["--case", str(case), "--control", str(control)]
        segment = ["segment", *pair, "--out-dir", str(out)]
        simulate = ["simulate", "--span-bp", "200000", "--reads", "300", "--n-segments", "0",
                    "--out-dir", str(out)]
        evaluate = ["evaluate", *pair, "--truth", str(tmp_path / "truth.tsv"),
                    "--calls", str(tmp_path / "calls.tsv"), "--out-dir", str(out)]
        argv = {
            "band_grid_step_zero": segment + ["--band-grid-step", "0"],
            "band_grid_step_negative": segment + ["--band-grid-step", "-1"],
            "missing_case_file": segment + ["--case", str(tmp_path / "absent.tsv")],
            "binary_case_file": segment + ["--case", str(tmp_path / "binary.tsv")],
            "non_integer_calls_index": evaluate + ["--calls", str(tmp_path / "bad_calls.tsv")],
            "bin_width_zero": simulate + ["--bin-width", "0"],
            "sine_period_zero": simulate + ["--sine-period", "0"],
            "seed_negative": simulate + ["--seed", "-1"],
            "out_dir_not_creatable": simulate + ["--out-dir", str(case / "sub")],
            "alpha_nan": segment + ["--alpha", "nan"],
            "n_segments_negative": simulate + ["--n-segments", "-3"],
            "tolerance_reads_negative": evaluate + ["--tolerance-reads", "-1"],
            "reads_with_case": segment + ["--reads", str(tmp_path / "reads.tsv")],
            "max_k_not_integer": segment + ["--max-k", "abc"],
            "mbic_curve_alpha": ["mbic-curve", *pair, "--out-dir", str(out), "--alpha", "7"],
            "calls_index_above_m": evaluate + ["--calls", str(tmp_path / "over_calls.tsv")],
            "calls_index_above_m_bp": evaluate + ["--calls", str(tmp_path / "over_calls.tsv"),
                                                  "--tolerance-bp", "50"],
            "calls_index_below_one": evaluate + ["--calls", str(tmp_path / "under_calls.tsv")],
            "calls_index_below_one_bp": evaluate + ["--calls", str(tmp_path / "under_calls.tsv"),
                                                    "--tolerance-bp", "50"],
            "reads_above_bound": simulate + ["--reads", str(10**9 + 1)],
            "huge_reads": simulate + ["--reads", str(10**36)],
            "n_segments_above_bound": simulate + ["--n-segments", str(10**5 + 1)],
            "min_seg_bp_below_one": simulate + ["--n-segments", "1", "--min-seg-bp", "0.99",
                                                "--max-seg-bp", "2"],
            "span_bins_above_bound": simulate + ["--span-bp", str((10**8 + 1) * 1000)],
            "control_bins_above_bound": simulate + ["--control", str(tmp_path / "far.tsv")],
            "span_bp_above_max_position": simulate + ["--span-bp", str(10**15 + 1),
                                                      "--bin-width", str(10**12)],
            "case_position_above_max": segment + ["--case", str(tmp_path / "beyond.tsv")],
            "layout_cannot_fit": simulate + ["--n-segments", str(10**5)],
            "truth_bp_negative": evaluate + ["--truth", str(tmp_path / "neg_truth.tsv")],
            "truth_bp_above_max": evaluate + ["--truth", str(tmp_path / "far_truth.tsv")],
            # a name that would write comment rows, or rows that do not read back
            "chrom_comment": simulate + ["--chrom", "#x"],
            "chrom_tab": simulate + ["--chrom", "chr\t1"],
            "chrom_newline": simulate + ["--chrom", "chr1\nchr2"],
            "chrom_carriage_return": simulate + ["--chrom", "chr1\r"],
            "chrom_slash": simulate + ["--chrom", "chr1/2"],
            "chrom_nul": simulate + ["--chrom", "chr1\0"],
            "segment_chrom_slash": segment + ["--case", str(tmp_path / "slash.tsv")],
            "segment_chrom_nul": ["segment", "--reads", str(tmp_path / "nul_reads.tsv"),
                                  "--out-dir", str(out)],
            "mbic_curve_chrom_slash": ["mbic-curve", "--reads", str(tmp_path / "slash_reads.tsv"),
                                       "--out-dir", str(out)],
            "mbic_curve_chrom_nul": ["mbic-curve", *pair, "--control", str(tmp_path / "nul.tsv"),
                                     "--out-dir", str(out)],
        }[mistake]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("seqscan: error: ")
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("blocked", ["out_dir_is_file", "tmp_path_is_directory",
                                         "band_path_is_directory"])
    def test_unwritable_output_exit_code(self, tmp_path, capsys, blocked):
        case, control = tmp_path / "case.tsv", tmp_path / "control.tsv"
        write_reads(case, range(0, 400, 2))
        write_reads(control, range(1, 400, 2))
        out = tmp_path / "out"
        if blocked == "out_dir_is_file":
            out.write_text("keep")
        elif blocked == "tmp_path_is_directory":
            (out / "segments.tsv.tmp").mkdir(parents=True)
        else:
            # band.tsv.tmp is written in full, then cannot replace the directory
            (out / "band.tsv").mkdir(parents=True)
        rc = cli.main(["segment", "--case", str(case), "--control", str(control),
                       "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("seqscan: error: ")
        if blocked == "out_dir_is_file":
            assert out.read_text() == "keep"
        elif blocked == "tmp_path_is_directory":
            assert not (out / "segments.tsv").exists() and not (out / "band.tsv").exists()
        else:
            assert (out / "band.tsv").is_dir() and list(out.glob("*.tmp")) == []

    def test_missing_inputs_rejected(self, tmp_path, capsys):
        rc = cli.main(["segment", "--out-dir", str(tmp_path)])
        assert rc == 2

    @staticmethod
    def write_three_chromosomes(tmp_path):
        rng = np.random.default_rng(3)
        case, control = tmp_path / "case.tsv", tmp_path / "control.tsv"
        with open(case, "w") as fc, open(control, "w") as fk:
            fc.write("#chrom\tposition\n")
            fk.write("#chrom\tposition\n")
            for chrom in ("chr1", "chr2", "chr3"):
                for p in np.sort(rng.integers(0, 10**5, 300)):
                    fc.write(f"{chrom}\t{p}\n")
                for p in np.sort(rng.integers(0, 10**5, 300)):
                    fk.write(f"{chrom}\t{p}\n")
        return case, control

    def test_thread_count_does_not_change_results(self, tmp_path):
        case, control = self.write_three_chromosomes(tmp_path)
        mbic = {"mbic_chr1.tsv", "mbic_chr2.tsv", "mbic_chr3.tsv"}
        for command, extra, expected in (
            ("segment", ["--band-grid-step", "20"], mbic | {"segments.tsv", "band.tsv"}),
            ("mbic-curve", [], mbic),
        ):
            outs = {}
            for threads in (1, 2, 4):
                out = tmp_path / f"{command}-t{threads}"
                rc = cli.main([
                    command, "--case", str(case), "--control", str(control),
                    "--out-dir", str(out), "--threads", str(threads), "--max-k", "8", *extra,
                ])
                assert rc == 0
                outs[threads] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            assert set(outs[1]) == expected
            assert outs[2] == outs[1]
            assert outs[4] == outs[1]

    def test_workers_capped_at_chromosome_count(self, tmp_path, monkeypatch):
        requested = []

        class InlinePool:
            """Stands in for ProcessPoolExecutor: records max_workers, runs jobs here."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        # _run_chromosomes looks the pool up in concurrent.futures when it forks
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        case, control = self.write_three_chromosomes(tmp_path)
        rc = cli.main([
            "mbic-curve", "--case", str(case), "--control", str(control),
            "--out-dir", str(tmp_path / "out"), "--threads", "1000", "--max-k", "4",
        ])
        assert rc == 0
        assert requested == [3]
        assert len(list((tmp_path / "out").iterdir())) == 3


class TestBandWriter:
    @staticmethod
    def row_by_row(chrom, band):
        """band.tsv rows with every value formatted on its own row (reference writer)."""
        return [
            (chrom, int(pos), lo, pt, hi,
             relative_copy_number(lo), relative_copy_number(pt), relative_copy_number(hi))
            for pos, lo, pt, hi in zip(band.grid, band.lower, band.point_est, band.upper)
        ]

    def assert_same_bytes(self, tmp_path, band):
        rows = cli._tsv_lines(self.row_by_row("chr2", band))
        cli._write_atomic(str(tmp_path / "old.tsv"), "band", rows)
        cli._write_atomic(str(tmp_path / "new.tsv"), "band", cli._band_lines("chr2", band))
        assert (tmp_path / "old.tsv").read_bytes() == (tmp_path / "new.tsv").read_bytes()

    def test_ci_band_rows_identical_to_row_by_row(self, tmp_path):
        rng = np.random.default_rng(2)
        p_vec = np.where((np.arange(1500) >= 500) & (np.arange(1500) < 1000), 0.75, 0.35)
        proc = proc_from_z((rng.random(1500) < p_vec).astype(int), W=np.arange(1500) * 7 + 3)
        band = ci_band(proc, [501, 1001], grid=np.unique(proc.W)[::3])
        assert len(set(band.lower.tolist())) > 10
        self.assert_same_bytes(tmp_path, band)

    def test_long_and_one_row_runs_identical_to_row_by_row(self, tmp_path):
        # one run longer than two chunks, then a one-row run at every position
        lower = np.concatenate([np.full(2 * cli.CHUNK_ROWS + 7, 0.25), np.linspace(0, 0.5, 500)])
        band = PosteriorBand(grid=np.arange(lower.size) * 3 + 1, lower=lower, upper=lower + 0.5,
                             point_est=lower + 0.25)
        self.assert_same_bytes(tmp_path, band)

    def test_position_lines_identical_to_row_by_row(self):
        for n in (0, 1, cli.CHUNK_ROWS, cli.CHUNK_ROWS + 1):
            pos = np.arange(n, dtype=np.int64) * 11
            rows = cli._tsv_lines(("chrX", int(p)) for p in pos)
            assert "".join(cli._position_lines("chrX", pos)) == "".join(rows)

    def test_edge_values_identical_to_row_by_row(self, tmp_path):
        # repeated and returning runs, a p of 1 (rel_cn inf) and a signed zero
        lower = np.array([0.0, 0.0, -0.0, 0.2, 0.2, 0.0, 1.0, 1.0])
        upper = np.array([0.5, 0.5, 0.5, 0.9, 0.9, 0.5, 1.0, 1.0])
        point = np.array([0.25, 0.25, 0.25, 0.5, 0.5, 0.25, 1.0, 1.0])
        band = PosteriorBand(grid=np.arange(10, 18), lower=lower, upper=upper, point_est=point)
        self.assert_same_bytes(tmp_path, band)

    def test_fmt_literal_text(self):
        # the row-by-row reference formats through _fmt too, so pin its text here
        values = (np.inf, -np.inf, float("inf"), np.nan, -0.0, 0.1 + 0.2, 1e-300, 7, "chr1")
        assert [cli._fmt(v) for v in values] == [
            "inf", "-inf", "inf", "nan", "-0", "0.3", "1e-300", "7", "chr1"]


class TestSimulateCommand:
    def test_default_truth_has_fifty_segments(self, tmp_path):
        out = tmp_path / "sim"
        rc = cli.main([
            "simulate", "--out-dir", str(out), "--span-bp", "60000000",
            "--reads", "20000", "--seed", "5",
        ])
        assert rc == 0
        _, rows = read_tsv(out / "truth.tsv")
        assert len(rows) == 50
        assert set(r[3] for r in rows) <= {"1.5", "0.5"}

    def test_zero_segments_case_equals_baseline_law(self, tmp_path):
        out = tmp_path / "sim"
        rc = cli.main([
            "simulate", "--out-dir", str(out), "--span-bp", "2000000",
            "--reads", "2000", "--n-segments", "0", "--seed", "5",
        ])
        assert rc == 0
        _, rows = read_tsv(out / "truth.tsv")
        assert rows == []
        assert (out / "case.tsv").exists() and (out / "control.tsv").exists()

    def test_dense_default_layout(self, tmp_path):
        # 120 segments of 0.2-0.5 Mb fill about 39 of the default 50 Mb
        out = tmp_path / "sim"
        rc = cli.main(["simulate", "--out-dir", str(out), "--n-segments", "120", "--reads", "500"])
        assert rc == 0
        _, rows = read_tsv(out / "truth.tsv")
        assert len(rows) == 120

    def test_different_seeds_differ(self, tmp_path):
        args = ["simulate", "--span-bp", "4000000", "--reads", "2000",
                "--n-segments", "4", "--min-seg-bp", "200000", "--max-seg-bp", "400000"]
        cli.main(args + ["--out-dir", str(tmp_path / "a"), "--seed", "1"])
        cli.main(args + ["--out-dir", str(tmp_path / "b"), "--seed", "2"])
        assert (tmp_path / "a/truth.tsv").read_bytes() != (tmp_path / "b/truth.tsv").read_bytes()

    def test_baseline_from_control_file(self, tmp_path):
        rng = np.random.default_rng(7)
        write_reads(tmp_path / "real.tsv", np.sort(rng.integers(0, 2_000_000, 5000)))
        out = tmp_path / "sim"
        rc = cli.main([
            "simulate", "--out-dir", str(out), "--control", str(tmp_path / "real.tsv"),
            "--reads", "3000", "--n-segments", "2",
            "--min-seg-bp", "100000", "--max-seg-bp", "200000",
        ])
        assert rc == 0
        _, rows = read_tsv(out / "truth.tsv")
        assert len(rows) == 2

    def test_huge_bandwidth_returns_at_once(self, tmp_path, capsys):
        # a kernel of 8e9 taps would need 64 GB; capped at the control's 1,000 bins
        write_reads(tmp_path / "real.tsv", np.arange(0, 1_000_000, 1000))
        out = tmp_path / "sim"
        rc = cli.main([
            "simulate", "--out-dir", str(out), "--control", str(tmp_path / "real.tsv"),
            "--reads", "2000", "--bandwidth", "1e9",
        ])
        err = capsys.readouterr().err.splitlines()
        assert rc == 0 or (rc == 2 and len(err) == 1), (rc, err)
        rc = cli.main([
            "simulate", "--out-dir", str(out), "--control", str(tmp_path / "real.tsv"),
            "--reads", "2000", "--bandwidth", "1e9", "--n-segments", "0",
        ])
        assert rc == 0
        _, rows = read_tsv(out / "control.tsv")
        assert max(int(r[1]) for r in rows) < 1_000_000


class TestEvaluateCommand:
    def test_perfect_and_empty_calls(self, tmp_path):
        # build a tiny dataset and a calls file that matches truth exactly
        rng = np.random.default_rng(11)
        write_reads(tmp_path / "case.tsv", np.sort(rng.integers(0, 10**5, 400)))
        write_reads(tmp_path / "control.tsv", np.sort(rng.integers(0, 10**5, 400)))
        (tmp_path / "truth.tsv").write_text(
            "#chrom\tstart_bp\tend_bp\tmultiplier\nchr1\t20000\t40000\t1.5\n"
        )
        # perfect caller stub: segments split exactly at the truth breakpoints
        from seqscan import merge_reads, nearest_read_index
        from seqscan.process import read_positions, read_sets_from_table

        case = read_sets_from_table(read_positions(tmp_path / "case.tsv"))["chr1"]
        ctrl = read_sets_from_table(read_positions(tmp_path / "control.tsv"))["chr1"]
        proc = merge_reads(case, ctrl)
        i1 = nearest_read_index(proc, 20000)
        i2 = nearest_read_index(proc, 40000)
        with open(tmp_path / "calls.tsv", "w") as fh:
            fh.write("#chrom\tstart_bp\tend_bp\tstart_idx\tend_idx\tn_case\tn_control\tp_hat\trel_cn\n")
            for s, e in [(1, i1 - 1), (i1, i2 - 1), (i2, proc.m)]:
                fh.write(f"chr1\t{proc.W[s-1]}\t{proc.W[e-1]}\t{s}\t{e}\t0\t0\t0.5\t1\n")
        out = tmp_path / "ev"
        rc = cli.main([
            "evaluate", "--case", str(tmp_path / "case.tsv"),
            "--control", str(tmp_path / "control.tsv"),
            "--truth", str(tmp_path / "truth.tsv"),
            "--calls", str(tmp_path / "calls.tsv"), "--out-dir", str(out),
        ])
        assert rc == 0
        _, rows = read_tsv(out / "report.tsv")
        assert rows[0][1:] == ["2", "2", "2", "1", "1"]

        # no-call stub: a single whole-chromosome segment
        with open(tmp_path / "nocalls.tsv", "w") as fh:
            fh.write("#chrom\tstart_bp\tend_bp\tstart_idx\tend_idx\tn_case\tn_control\tp_hat\trel_cn\n")
            fh.write(f"chr1\t{proc.W[0]}\t{proc.W[-1]}\t1\t{proc.m}\t0\t0\t0.5\t1\n")
        rc = cli.main([
            "evaluate", "--case", str(tmp_path / "case.tsv"),
            "--control", str(tmp_path / "control.tsv"),
            "--truth", str(tmp_path / "truth.tsv"),
            "--calls", str(tmp_path / "nocalls.tsv"), "--out-dir", str(out),
        ])
        assert rc == 0
        _, rows = read_tsv(out / "report.tsv")
        assert float(rows[0][4]) == 0.0  # recall

        # genomic-coordinate tolerance: perfect calls still match exactly
        rc = cli.main([
            "evaluate", "--case", str(tmp_path / "case.tsv"),
            "--control", str(tmp_path / "control.tsv"),
            "--truth", str(tmp_path / "truth.tsv"),
            "--calls", str(tmp_path / "calls.tsv"), "--out-dir", str(out),
            "--tolerance-bp", "500",
        ])
        assert rc == 0
        _, rows = read_tsv(out / "report.tsv")
        assert rows[0][4] == "1" and rows[0][5] == "1"


class TestParser:
    def test_defaults_and_rejected_values(self, tmp_path, capsys):
        parse = cli.build_parser().parse_args
        args = parse(["segment"])
        assert (args.stat, args.grid_step, args.max_k) == ("glr", 10, 50)
        assert (args.alpha, args.beta, args.ci_level, args.epsilon) == (1.0, 1.0, 0.95, 1e-4)
        evaluate = parse(["evaluate", "--case", "c", "--control", "k", "--truth", "t",
                          "--calls", "s"])
        assert evaluate.tolerance_reads == 100
        for flag, value in (("--stat", "nope"), ("--grid-step", "1"), ("--ci-level", "0.0"),
                            ("--epsilon", "2.0")):
            out = tmp_path / flag
            assert cli.main(["segment", flag, value, "--out-dir", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"seqscan: error: argument {flag}")
            assert not out.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["segment", "--help"])
        assert exc.value.code == 0
        assert "--band-grid-step" in capsys.readouterr().out


# a small valid value per numeric flag; the fuzz draws each from it and the boundary values
SMALL_VALID = {
    "segment": {"--seed": "3", "--grid-step": "3", "--max-k": "4", "--alpha": "0.5",
                "--beta": "2", "--ci-level": "0.9", "--epsilon": "0.001",
                "--band-grid-step": "7"},
    "mbic-curve": {"--seed": "3", "--grid-step": "3", "--max-k": "4"},
    "simulate": {"--seed": "3", "--n-segments": "2", "--reads": "300", "--span-bp": "200000",
                 "--bin-width": "1000", "--bandwidth": "5", "--min-seg-bp": "20000",
                 "--max-seg-bp": "40000", "--sine-period": "50000", "--sine-depth": "0.3"},
    "evaluate": {"--seed": "3", "--tolerance-reads": "10", "--tolerance-bp": "500",
                 "--replicate-id": "4"},
}


def test_cli_import_skips_scipy_optimize():
    # importing the CLI loads no scipy module at all, scipy.optimize included
    import subprocess
    import sys

    # the child imports the same seqscan as this process, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, seqscan.cli; print(sorted(k for k in sys.modules if k.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.split() == ["[]"]


def test_benchmark_tracer_installs():
    # the benchmark's traced mode wraps library names by attribute, so renaming
    # one breaks it; -B keeps the child from writing bytecode under perfbench/
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    perfbench = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
    probe = "import tracer; tracer.install(tracer.Tracer())"
    out = subprocess.run([sys.executable, "-B", "-c", probe], cwd=perfbench, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("preset,want", [(None, "1"), ("2", "2")])
def test_openblas_single_threaded_unless_set(preset, want):
    # importing seqscan sets OPENBLAS_NUM_THREADS before numpy loads; a value the
    # user set is kept.  Where /proc lists the threads, single-threaded OpenBLAS
    # starts none besides the main thread
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = ("import os, seqscan.cli\n"
             "task = '/proc/self/task'\n"
             "n = len(os.listdir(task)) if os.path.isdir(task) else 1\n"
             "print(os.environ['OPENBLAS_NUM_THREADS'], n)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env)
    value, threads = out.stdout.split()
    assert value == want
    if preset is None:
        assert threads == "1"


def test_benchmark_reference_outputs(tmp_path):
    # the benchmark's seed-0 inputs of every workload, run through the CLI and
    # checked as the benchmark checks them: byte-identical segments.tsv and
    # mbic_*.tsv, and band.tsv within 1e-6 of perfbench/reference/
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    perfbench = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
    probe = (
        "import os, sys\n"
        "import run, workloads\n"
        "from seqscan.cli import main\n"
        "for name, wl in workloads.WORKLOADS.items():\n"
        "    work = os.path.join(sys.argv[1], name)\n"
        "    inputs = workloads.generate(wl, run.DEFAULT_SEED, os.path.join(work, 'in'))\n"
        "    out = os.path.join(work, 'out')\n"
        "    assert main(workloads.cli_args(wl, inputs, out)) == 0, name\n"
        "    run.check_outputs(wl, inputs, out, os.path.join('reference', name))\n"
        "    print(name, 'ok')\n"
    )
    # -B keeps the child from writing bytecode under perfbench/
    out = subprocess.run([sys.executable, "-B", "-c", probe, str(tmp_path)], cwd=perfbench,
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split() == ["band-full", "ok", "scan-deep", "ok", "ingest-null", "ok"]


@pytest.mark.parametrize("command,threads", [
    (None, 1), ("mbic-curve", 1), ("mbic-curve", 2), ("segment", 1), ("segment", 2),
    ("simulate", 1), ("evaluate", 1),
])
def test_no_command_loads_scipy(tmp_path, command, threads):
    # seqscan needs numpy alone at run time: importing the CLI (command None) and
    # every command load no scipy module, in one process or with workers
    import json
    import subprocess
    import sys

    rng = np.random.default_rng(11)
    case, control = tmp_path / "case.tsv", tmp_path / "control.tsv"
    for path, gained in ((case, 300), (control, 100)):
        with open(path, "w") as fh:
            for chrom in ("chr1", "chr2"):
                pos = np.concatenate([rng.integers(0, 10**5, 300),
                                      rng.integers(0, 2 * 10**4, gained)])
                fh.writelines(f"{chrom}\t{p}\n" for p in np.sort(pos))
    (tmp_path / "truth.tsv").write_text("chr1\t1000\t20000\t1.5\n")
    (tmp_path / "calls.tsv").write_text(
        "chr1\t0\t9\t1\t99\t0\t0\t0.5\t1\nchr1\t10\t99\t100\t300\t0\t0\t0.5\t1\n"
    )
    argv = {
        "simulate": ["--span-bp", "200000", "--reads", "300", "--n-segments", "2",
                     "--min-seg-bp", "20000", "--max-seg-bp", "40000"],
        "evaluate": ["--case", str(case), "--control", str(control), "--truth",
                     str(tmp_path / "truth.tsv"), "--calls", str(tmp_path / "calls.tsv")],
    }.get(command, ["--case", str(case), "--control", str(control), "--threads", str(threads),
                    "--max-k", "4"])
    argv = [command, *argv, "--out-dir", str(tmp_path / "out")] if command else []
    probe = ("import json, sys\n"
             "from seqscan.cli import main\n"
             "rc = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
             "print(json.dumps([rc, sorted(k for k in sys.modules if k.startswith('scipy'))]))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    rc, loaded = json.loads(out.stdout.splitlines()[-1])
    assert rc == 0
    assert loaded == []


def test_flag_fuzz_exits_zero_or_two_with_one_line(tmp_path, capsys):
    rng = np.random.default_rng(5)
    case, control = tmp_path / "case.tsv", tmp_path / "control.tsv"
    with open(case, "w") as fc, open(control, "w") as fk:
        for chrom in ("chr1", "chr2"):
            for p in np.sort(rng.integers(0, 10**5, 150)):
                fc.write(f"{chrom}\t{p}\n")
            for p in np.sort(rng.integers(0, 10**5, 150)):
                fk.write(f"{chrom}\t{p}\n")
    (tmp_path / "truth.tsv").write_text("chr1\t20000\t40000\t1.5\n")
    (tmp_path / "calls.tsv").write_text(
        "chr1\t0\t9\t1\t99\t0\t0\t0.5\t1\nchr1\t10\t99\t100\t300\t0\t0\t0.5\t1\n"
    )
    pair = ["--case", str(case), "--control", str(control)]
    # simulate's defaults are a full-size run: pin its sizes small; drawn values override them
    sizes = [arg for flag in ("--n-segments", "--reads", "--span-bp", "--min-seg-bp",
                              "--max-seg-bp") for arg in (flag, SMALL_VALID["simulate"][flag])]
    base = {
        "segment": pair,
        "mbic-curve": pair,
        "simulate": sizes,
        "evaluate": pair + ["--truth", str(tmp_path / "truth.tsv"),
                            "--calls", str(tmp_path / "calls.tsv")],
    }
    boundary = {
        command: {flag: ["-1", "0", "1", valid, "nan", "inf", "x"]
                  for flag, valid in SMALL_VALID[command].items()}
        for command in base
    }
    for command in ("segment", "mbic-curve"):
        boundary[command]["--threads"] = ["1", "2", "0", "-1", "x"]
    # every (subcommand, flag, value) is equally likely to be the one under test
    targets = [(command, flag, value) for command, flags in sorted(boundary.items())
               for flag, values in sorted(flags.items()) for value in values]
    runs = itertools.count()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def run(data):
        command, flag, value = data.draw(st.sampled_from(targets))
        argv = [command, *base[command], "--out-dir", str(tmp_path / f"out{next(runs)}"),
                flag, value]
        others = sorted(set(boundary[command]) - {flag})
        for other in data.draw(st.lists(st.sampled_from(others), max_size=2, unique=True)):
            argv += [other, data.draw(st.sampled_from(boundary[command][other]))]
        if command == "simulate" and data.draw(st.booleans()):
            argv += ["--control", str(control)]
        rc = cli.main(argv)
        err = capsys.readouterr().err.splitlines()
        assert rc == 0 or (rc == 2 and len(err) == 1 and err[0].startswith("seqscan: error: ")), (
            argv, rc, err)

    run()


CHROMS = st.sampled_from(["chr1", "chr2"])
POSITIONS = st.integers(0, 3000).map(str)
# the fields of one valid row of each input file, by the flag that names it
ROW_FIELDS = {
    "--case": st.tuples(CHROMS, POSITIONS),
    "--control": st.tuples(CHROMS, POSITIONS),
    "--reads": st.tuples(CHROMS, POSITIONS, st.sampled_from(["case", "control"])),
    "--truth": st.tuples(CHROMS, POSITIONS, POSITIONS, st.just("1.5")),
    "--calls": st.tuples(CHROMS, POSITIONS, POSITIONS, st.integers(-2, 320).map(str),
                         st.integers(0, 320).map(str), st.just("0"), st.just("0"),
                         st.just("0.5"), st.just("1")),
}
# one field replaced by one of these: non-integer, negative, too large, unknown label, empty
BAD_FIELDS = ["x", "1.5", "-4", str(10**16), "tumor", ""]
# integers as int() reads them that are not plain digit strings, and one beyond MAX_POSITION
ODD_INTEGERS = ["+5", " 5", "007", "1234567890123456789", "\u0665"]
# the field each input file has read as an integer
INT_FIELD = {"--case": 1, "--control": 1, "--reads": 1, "--truth": 1, "--calls": 3}
ROW_DEFECTS = ("truncated_row", "extra_column", "bad_field", "odd_integer", "interleaved")
DEFECTS = [*ROW_DEFECTS, "crlf", "bom", "empty_file", "non_utf8"]


@st.composite
def input_file(draw, flag, defect):
    """Bytes of one input file: valid rows in any order, '#' and blank lines, and the defect."""
    min_rows = 1 if defect in ROW_DEFECTS else 0
    rows = [list(r) for r in draw(st.lists(ROW_FIELDS[flag], min_size=min_rows, max_size=150))]
    if defect in ROW_DEFECTS:
        row = draw(st.sampled_from(rows))
        if defect == "truncated_row":
            del row[draw(st.integers(1, len(row) - 1)):]
        elif defect == "extra_column":
            row.append(draw(st.sampled_from(["", "x", "9"])))
        elif defect == "bad_field":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_FIELDS))
        elif defect == "odd_integer":
            row[INT_FIELD[flag]] = draw(st.sampled_from(ODD_INTEGERS))
        else:
            for k, r in enumerate(rows):
                r[0] = ("chr1", "chr2")[k % 2]
    lines = ["\t".join(r) for r in rows]
    for extra in draw(st.lists(st.sampled_from(["", "#note", "#chrom\tposition"]), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    data = "".join(line + "\n" for line in lines).encode()
    if defect == "empty_file":
        return b""
    if defect == "crlf":
        return data.replace(b"\n", b"\r\n")
    if defect == "bom":
        return "\ufeff".encode() + data
    if defect == "non_utf8":
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\xff\xfe" + data[at:]
    return data


def test_file_fuzz_exits_zero_or_two_with_one_line(tmp_path, capsys):
    commands = {
        "segment": [["--case", "--control"], ["--reads"]],
        "mbic-curve": [["--case", "--control"], ["--reads"]],
        "evaluate": [["--case", "--control", "--truth", "--calls"]],
    }
    runs = itertools.count()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def run(data):
        command = data.draw(st.sampled_from(sorted(commands)))
        flags = data.draw(st.sampled_from(commands[command]))
        # at most one file is malformed, so that most runs get past the parsers
        target = data.draw(st.sampled_from([None, *flags]))
        n = next(runs)
        argv = [command, "--out-dir", str(tmp_path / f"out{n}")]
        for flag in flags:
            defect = data.draw(st.sampled_from(DEFECTS)) if flag == target else None
            path = tmp_path / f"{n}{flag}.tsv"
            path.write_bytes(data.draw(input_file(flag, defect)))
            argv += [flag, str(path)]
        if command != "evaluate":
            argv += ["--max-k", "4"]
        elif data.draw(st.booleans()):
            argv += ["--tolerance-bp", "50"]
        rc = cli.main(argv)
        err = capsys.readouterr().err.splitlines()
        assert rc == 0 or (rc == 2 and len(err) == 1 and err[0].startswith("seqscan: error: ")), (
            argv, rc, err)

    run()
