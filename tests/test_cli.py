import os

import numpy as np
import pytest

import seqscan.cli as cli
from seqscan import InputError, PosteriorBand, ci_band, relative_copy_number

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
        "binary_case_file", "non_integer_calls_index",
    ])
    def test_input_error_exit_code(self, tmp_path, capsys, mistake):
        case, control = tmp_path / "case.tsv", tmp_path / "control.tsv"
        write_reads(case, range(0, 400, 2))
        write_reads(control, range(1, 400, 2))
        segment = ["segment", "--case", str(case), "--control", str(control),
                   "--out-dir", str(tmp_path / "out")]
        if mistake == "band_grid_step_zero":
            argv = segment + ["--band-grid-step", "0"]
        elif mistake == "band_grid_step_negative":
            argv = segment + ["--band-grid-step", "-1"]
        elif mistake == "missing_case_file":
            argv = segment[:2] + [str(tmp_path / "absent.tsv")] + segment[3:]
        elif mistake == "binary_case_file":
            case.write_bytes(bytes(range(128, 256)))
            argv = segment
        else:
            (tmp_path / "truth.tsv").write_text("chr1\t100\t200\t1.5\n")
            (tmp_path / "calls.tsv").write_text(
                "chr1\t0\t399\tone\t400\t200\t200\t0.5\t1\n"
            )
            argv = ["evaluate", "--case", str(case), "--control", str(control),
                    "--truth", str(tmp_path / "truth.tsv"),
                    "--calls", str(tmp_path / "calls.tsv"), "--out-dir", str(tmp_path / "ev")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.count("seqscan: error:") == 1
        assert not (tmp_path / "out" / "band.tsv").exists()

    def test_missing_inputs_rejected(self, tmp_path, capsys):
        rc = cli.main(["segment", "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_thread_count_does_not_change_results(self, tmp_path):
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
        outs = []
        for threads, name in ((1, "t1"), (4, "t4")):
            out = tmp_path / name
            rc = cli.main([
                "segment", "--case", str(case), "--control", str(control),
                "--out-dir", str(out), "--threads", str(threads),
                "--max-k", "8", "--band-grid-step", "20",
            ])
            assert rc == 0
            outs.append((out / "segments.tsv").read_bytes())
        assert outs[0] == outs[1]

    def test_env_var_overrides_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEQSCAN_THREADS", "not-a-number")
        write_reads(tmp_path / "case.tsv", list(range(20)))
        write_reads(tmp_path / "control.tsv", list(range(20)))
        rc = cli.main([
            "segment", "--case", str(tmp_path / "case.tsv"),
            "--control", str(tmp_path / "control.tsv"), "--out-dir", str(tmp_path),
        ])
        assert rc == 2


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
        cli._write_atomic(str(tmp_path / "old.tsv"), "band", self.row_by_row("chr2", band))
        cli._write_atomic(str(tmp_path / "new.tsv"), "band", cli._band_rows("chr2", band))
        assert (tmp_path / "old.tsv").read_bytes() == (tmp_path / "new.tsv").read_bytes()

    def test_ci_band_rows_identical_to_row_by_row(self, tmp_path):
        rng = np.random.default_rng(2)
        p_vec = np.where((np.arange(1500) >= 500) & (np.arange(1500) < 1000), 0.75, 0.35)
        proc = proc_from_z((rng.random(1500) < p_vec).astype(int), W=np.arange(1500) * 7 + 3)
        band = ci_band(proc, [501, 1001], grid=np.unique(proc.W)[::3])
        assert len(set(band.lower.tolist())) > 10
        self.assert_same_bytes(tmp_path, band)

    def test_edge_values_identical_to_row_by_row(self, tmp_path):
        # repeated and returning runs, a p of 1 (rel_cn inf) and a signed zero
        lower = np.array([0.0, 0.0, -0.0, 0.2, 0.2, 0.0, 1.0, 1.0])
        upper = np.array([0.5, 0.5, 0.5, 0.9, 0.9, 0.5, 1.0, 1.0])
        point = np.array([0.25, 0.25, 0.25, 0.5, 0.5, 0.25, 1.0, 1.0])
        band = PosteriorBand(grid=np.arange(10, 18), lower=lower, upper=upper, point_est=point)
        self.assert_same_bytes(tmp_path, band)


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


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            cli.RunConfig(stat_kind="nope")
        with pytest.raises(InputError):
            cli.RunConfig(grid_step=1)
        with pytest.raises(InputError):
            cli.RunConfig(ci_level=0.0)
        with pytest.raises(InputError):
            cli.RunConfig(epsilon=2.0)
        cfg = cli.RunConfig()
        assert (cfg.stat_kind, cfg.grid_step, cfg.max_k) == ("glr", 10, 50)
        assert (cfg.alpha, cfg.beta, cfg.ci_level, cfg.epsilon) == (1.0, 1.0, 0.95, 1e-4)
        assert cfg.tolerance_reads == 100
