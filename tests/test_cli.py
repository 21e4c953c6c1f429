import ast
import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gridscope import cli, export, fusion, jsonio
from gridscope.calibration import load_calibration
from gridscope.cli import RunConfig, load_run_config, main
from gridscope.detections import (
    CSV_HEADER,
    Detection,
    parse_detections_file,
    synchronize,
    write_detections,
)
from gridscope.errors import ConfigError
from gridscope.evaluation import SEGMENTS_HEADER, Segment, write_segments
from gridscope.export import EXPORT_FORMATS
from gridscope.fusion import TRACK_HEADER, build_track, read_track, write_track

from gridscope.metrics import GT_HEADER

from oracles import bundle_table, ply_oracle
from strategies import (
    DETECTION_ROW,
    GT_ROW,
    SEGMENT_ROW,
    TRACK_ROW,
    fuzzed_doc,
    plausible_segment_row,
    plausible_track_row,
)

SCENARIO_DOC = {
    "format_version": 1,
    "seed": 9,
    "n_frames": 40,
    "confidence_jitter": 0.0,
    "grid_a": {"w_mm": 390.0, "d_mm": 390.0, "h_mm": 850.0},
    "cameras": {"mode": "aligned", "resolution": [1920, 1080]},
    "grid_b": {"origin": [120.0, 120.0, 100.0], "size": [150.0, 150.0, 400.0]},
    "path": {
        "face": "y_max",
        "speed_mm_s": 20.0,
        "waypoints": [[150.0, 270.0, 200.0], [250.0, 270.0, 200.0]],
    },
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole pipeline once; tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    scenario = root / "scenario.json"
    jsonio.write_doc(scenario, SCENARIO_DOC)
    sim = root / "sim"
    assert main(["simulate", str(scenario), "--out", str(sim)]) == 0

    cal = root / "calibration.json"
    assert main(["calibrate", str(sim / "picks.json"), "--out", str(cal)]) == 0

    track = root / "track.csv"
    stats = root / "stats.json"
    detection_files = sorted(str(p) for p in sim.glob("detections_*.csv"))
    assert len(detection_files) == 5
    assert (
        main(
            [
                "reconstruct",
                *detection_files,
                "--calibration", str(cal),
                "--out", str(track),
                "--stats", str(stats),
            ]
        )
        == 0
    )

    segments = root / "segments.csv"
    write_segments(segments, [Segment("walk", 0.0, 2000.0, "y_max")])
    report = root / "report.json"
    assert (
        main(
            [
                "evaluate",
                "--track", str(track),
                "--segments", str(segments),
                "--calibration", str(cal),
                "--grid-b", "120,120,100,150,150,400",
                "--stats", str(stats),
                "--report", str(report),
            ]
        )
        == 0
    )
    return root


class TestPipeline:
    def test_simulate_artifacts(self, pipeline):
        sim = pipeline / "sim"
        assert (sim / "picks.json").exists()
        assert (sim / "truth.csv").exists()
        assert len(list(sim.glob("detections_*.csv"))) == 5

    def test_track_covers_every_frame(self, pipeline):
        track = read_track(pipeline / "track.csv")
        assert len(track) == 40
        assert list(track)[0].timestamp_ms == 0.0

    def test_stats_file(self, pipeline):
        doc = json.loads((pipeline / "stats.json").read_text())
        assert doc["total"] == 40
        assert doc["plotted"] == 40
        assert doc["rejected_z"] == 0

    def test_object_api_gives_what_reconstruct_wrote(self, pipeline, tmp_path):
        # reconstruct runs on detection tables; the Detection and FrameBundle
        # edges must reach the same track and stats
        cal = load_calibration(pipeline / "calibration.json")
        detections = [
            d
            for path in sorted(str(p) for p in (pipeline / "sim").glob("detections_*.csv"))
            for d in parse_detections_file(path).detections
        ]
        track, stats = build_track(cal, bundle_table(synchronize(detections)))
        write_track(tmp_path / "track.csv", track)
        assert (tmp_path / "track.csv").read_bytes() == (pipeline / "track.csv").read_bytes()
        assert stats.as_doc() == json.loads((pipeline / "stats.json").read_text())

    def test_no_track_point_is_built_on_the_chain(self, pipeline, tmp_path, capsys):
        # the track stays a TrackTable from reconstruct to the last writer
        cal = str(pipeline / "calibration.json")
        track = str(tmp_path / "track.csv")
        argvs = [
            ["reconstruct", *sorted(str(p) for p in (pipeline / "sim").glob("detections_*.csv")),
             "--calibration", cal, "--out", track],
            *(
                ["evaluate", "--track", track, "--segments", str(pipeline / "segments.csv"),
                 "--calibration", cal, *flags]
                for flags in ([], ["--bounded"])
            ),
            *(
                ["export", "--track", track, "--calibration", cal, "--format", fmt,
                 "--out", str(tmp_path / f"out.{fmt}")]
                for fmt in EXPORT_FORMATS
            ),
        ]
        built = AssertionError("a TrackPoint was built")
        with mock.patch.object(fusion.TrackPoint, "__post_init__", side_effect=built):
            for argv in argvs:
                assert main(argv) == 0, argv[0]
        assert (tmp_path / "track.csv").read_bytes() == (pipeline / "track.csv").read_bytes()
        capsys.readouterr()

    def test_report_file(self, pipeline):
        doc = json.loads((pipeline / "report.json").read_text())
        assert doc["plot_rate"] == 1.0
        assert doc["overall_mm"] < 1e-6
        assert doc["segments"][0]["segment_id"] == "walk"
        assert doc["segments"][0]["points"] == 40

    def test_evaluate_prints_table(self, pipeline, capsys):
        code = main(
            [
                "evaluate",
                "--track", str(pipeline / "track.csv"),
                "--segments", str(pipeline / "segments.csv"),
                "--calibration", str(pipeline / "calibration.json"),
                "--grid-b", "120,120,100,150,150,400",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "overall mean error" in out
        assert "walk" in out

    def test_export_formats(self, pipeline, tmp_path):
        for fmt in ("csv", "ply", "svg"):
            out = tmp_path / f"track.{fmt}"
            code = main(
                [
                    "export",
                    "--track", str(pipeline / "track.csv"),
                    "--calibration", str(pipeline / "calibration.json"),
                    "--format", fmt,
                    "--out", str(out),
                ]
            )
            assert code == 0
            assert out.stat().st_size > 0
        csv_out = (tmp_path / "track.csv").read_bytes()
        assert csv_out == (pipeline / "track.csv").read_bytes()

    def test_ply_export_of_values_the_kernel_leaves_to_str_format(self, pipeline, tmp_path):
        """x holds zeros, a value below 1e-4, 1e16 and a subnormal, which the
        {:.17g} kernel leaves to str.format: the PLY is still ply_oracle's,
        and -0.0 writes 0."""
        header, *rows = (pipeline / "track.csv").read_text(encoding="utf-8").splitlines()
        xs = ["0.0", "-0.0", "3e-5", "1e16", "5e-324"]
        for i, x in enumerate(xs):
            fields = rows[i].split(",")
            rows[i] = ",".join([fields[0], x, *fields[2:]])
        track = tmp_path / "track.csv"
        track.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        out = tmp_path / "track.ply"
        code = main(
            [
                "export",
                "--track", str(track),
                "--calibration", str(pipeline / "calibration.json"),
                "--format", "ply",
                "--out", str(out),
            ]
        )
        assert code == 0
        ply_oracle(tmp_path / "oracle.ply", read_track(track))
        assert out.read_bytes() == (tmp_path / "oracle.ply").read_bytes()
        written = [line.split(" ")[0] for line in out.read_text().splitlines()[7:12]]
        assert written == [
            "0", "0", "3.0000000000000001e-05", "10000000000000000",
            "4.9406564584124654e-324",
        ]


class TestDetMetrics:
    def test_contrived_boxes(self, tmp_path, capsys):
        preds = [
            Detection("det", "2", 0.0, 100.0, 100.0, 110.0, 110.0, 0.95),
            Detection("det", "0", 0.0, 0.0, 0.0, 10.0, 10.0, 0.9),
            Detection("det", "1", 0.0, 2.0, 0.0, 12.0, 10.0, 0.85),
            Detection("det", "0", 0.0, 19.0, 20.0, 29.0, 30.0, 0.8),
            Detection("det", "0", 0.0, 0.0, 0.0, 10.0, 10.0, 0.5),
        ]
        pred_path = tmp_path / "preds.csv"
        write_detections(pred_path, preds)
        gt_path = tmp_path / "gt.csv"
        gt_path.write_text(
            "frame_id,u_min,v_min,u_max,v_max\n"
            "0,0,0,10,10\n"
            "0,20,20,30,30\n"
            "1,0,0,10,10\n"
            "2,5,5,15,15\n"
        )
        report_path = tmp_path / "det_report.json"
        code = main(
            [
                "detmetrics",
                "--predictions", str(pred_path),
                "--ground-truth", str(gt_path),
                "--report", str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fitness" in out
        doc = json.loads(report_path.read_text())
        assert doc["precision"] == 3.0 / 5.0
        assert doc["recall"] == 3.0 / 4.0
        assert doc["map50"] == 57.0 / 101.0


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.sync_tolerance_ms == 25.0
        assert cfg.z_reject_mm == 30.0
        assert cfg.pair_strategy == "best"
        assert cfg.depth_correction and cfg.vertical_correction

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(sync_tolerance_ms=-1.0)
        with pytest.raises(ConfigError):
            RunConfig(z_reject_mm=-0.5)
        with pytest.raises(ConfigError):
            RunConfig(pair_strategy="first")

    def test_load_partial_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        jsonio.write_doc(p, {"z_reject_mm": 12.5, "pair_strategy": "average_all"})
        cfg = load_run_config(p)
        assert cfg.z_reject_mm == 12.5
        assert cfg.pair_strategy == "average_all"
        assert cfg.sync_tolerance_ms == 25.0

    def test_load_every_key(self, tmp_path):
        doc = {
            "sync_tolerance_ms": 10,
            "reference_camera": "top",
            "z_reject_mm": 12.5,
            "pair_strategy": "average_all",
            "depth_correction": False,
            "vertical_correction": False,
        }
        p = tmp_path / "cfg.json"
        jsonio.write_doc(p, doc)
        assert load_run_config(p) == RunConfig(**doc)

    def test_stray_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        jsonio.write_doc(p, {"z_tolerance": 5.0})
        with pytest.raises(ConfigError) as err:
            load_run_config(p)
        assert "z_tolerance" in str(err.value)

    def test_flag_overrides_config_file(self, pipeline, tmp_path, capsys):
        # The config file kills every noisy pair; the flag restores them.
        cfg = tmp_path / "cfg.json"
        jsonio.write_doc(cfg, {"z_reject_mm": 12.5})
        detection_files = sorted(
            str(p) for p in (pipeline / "sim").glob("detections_*.csv")
        )
        out = tmp_path / "track.csv"
        stats_path = tmp_path / "stats.json"
        code = main(
            [
                "reconstruct",
                *detection_files,
                "--calibration", str(pipeline / "calibration.json"),
                "--out", str(out),
                "--stats", str(stats_path),
                "--config", str(cfg),
                "--z-reject-mm", "0.25",
            ]
        )
        capsys.readouterr()
        assert code == 0
        # Noise-free aligned data has zero disagreement, so nothing is
        # rejected even at the tight flag value; the run proves the merge
        # path end to end.
        doc = json.loads(stats_path.read_text())
        assert doc["plotted"] == 40

    def _reconstruct(self, pipeline, out: Path, caplog, capsys, *extra):
        """One reconstruct run's exit code, stdout, track and stats bytes,
        and the warning messages it logged."""
        detection_files = sorted(
            str(p) for p in (pipeline / "sim").glob("detections_*.csv")
        )
        caplog.clear()
        code = main(
            [
                "reconstruct",
                *detection_files,
                "--calibration", str(pipeline / "calibration.json"),
                "--out", str(out / "track.csv"),
                "--stats", str(out / "stats.json"),
                *extra,
            ]
        )
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        files = [(out / name).read_bytes() for name in ("track.csv", "stats.json")]
        return code, stdout, files, warnings

    def test_null_reference_camera_is_the_default(
        self, pipeline, tmp_path, caplog, capsys
    ):
        runs = []
        for k, doc in enumerate(({}, {"reference_camera": None})):
            out = tmp_path / str(k)
            out.mkdir()
            jsonio.write_doc(out / "cfg.json", doc)
            runs.append(
                self._reconstruct(
                    pipeline, out, caplog, capsys, "--config", str(out / "cfg.json")
                )
            )
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][3] == []

    def test_missing_reference_camera_warns(self, pipeline, tmp_path, caplog, capsys):
        cfg = tmp_path / "cfg.json"
        jsonio.write_doc(cfg, {"reference_camera": "zz"})
        runs = {}
        for name, extra in (
            ("default", ()),
            ("flag", ("--reference-camera", "zz")),
            ("config", ("--config", str(cfg))),
        ):
            (tmp_path / name).mkdir()
            runs[name] = self._reconstruct(
                pipeline, tmp_path / name, caplog, capsys, *extra
            )
        code, stdout, files, warnings = runs["default"]
        assert code == 0 and warnings == []
        # every camera's first frame is at 0 ms, so the smallest id is used
        for name in ("flag", "config"):
            assert runs[name][:3] == (code, stdout, files)
            assert runs[name][3] == [
                "reference camera 'zz' has no detections; grouping around 'side0'"
            ]


class TestExitCodes:
    def test_missing_input_file(self, tmp_path, capsys):
        code = main(
            ["simulate", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "i/o error" in capsys.readouterr().err

    def test_config_error_from_scenario(self, tmp_path, capsys):
        doc = dict(SCENARIO_DOC)
        doc["format_version"] = 9
        scenario = tmp_path / "scenario.json"
        jsonio.write_doc(scenario, doc)
        code = main(["simulate", str(scenario), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_argparse_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_non_finite_config_value(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"sync_tolerance_ms": NaN}\n')
        args = [
            "reconstruct", str(pipeline / "sim" / "detections_top.csv"),
            "--calibration", str(pipeline / "calibration.json"),
            "--out", str(tmp_path / "track.csv"),
        ]
        assert main(args + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: ")
        assert "sync_tolerance_ms" in err and "finite" in err
        assert "Traceback" not in err
        assert main(args + ["--sync-tolerance-ms", "nan"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--sync-tolerance-ms", "inf", "sync_tolerance_ms must be finite, got inf"),
            ("--sync-tolerance-ms", "1e999", "sync_tolerance_ms must be finite, got inf"),
            ("--z-reject-mm", "inf", "z_reject_mm must be finite, got inf"),
            ("--z-reject-mm", "-inf", "z_reject_mm must be >= 0, got -inf"),
            ("--z-reject-mm", "-1", "z_reject_mm must be >= 0, got -1.0"),
            ("--sync-tolerance-ms", "nan", "sync_tolerance_ms must be >= 0, got nan"),
        ],
    )
    def test_a_flag_obeys_the_config_file_rule(
        self, pipeline, tmp_path, capsys, flag, value, message
    ):
        track = tmp_path / "track.csv"
        code = main(
            [
                "reconstruct", str(pipeline / "sim" / "detections_top.csv"),
                "--calibration", str(pipeline / "calibration.json"),
                "--out", str(track),
                f"{flag}={value}",  # so "-inf" is no option
            ]
        )
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", f"config error: {message}\n")
        assert not track.exists()

    @pytest.mark.parametrize(
        "value, message", [("-1e3", "got -1000.0"), ("-inf", "got -inf")]
    )
    def test_a_negative_value_argparse_takes_for_an_option_needs_an_equals_sign(
        self, pipeline, tmp_path, capsys, value, message
    ):
        """argparse reads "-1" as a number but "-1e3" and "-inf" as options."""
        args = [
            "reconstruct", str(pipeline / "sim" / "detections_top.csv"),
            "--calibration", str(pipeline / "calibration.json"),
            "--out", str(tmp_path / "track.csv"),
        ]
        assert main([*args, f"--z-reject-mm={value}"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: z_reject_mm must be >= 0, {message}\n"
        with pytest.raises(SystemExit) as exc:
            main([*args, "--z-reject-mm", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --z-reject-mm: expected one argument\n")
        assert not (tmp_path / "track.csv").exists()

    @pytest.mark.parametrize(
        "command, document, edit, message",
        [
            (
                "simulate", "scenario.json",
                lambda doc: doc.update(noise_sigma=doc.pop("noise_sigma_px")),
                "top level: unknown key 'noise_sigma'",
            ),
            (
                "calibrate", "picks.json",
                lambda doc: doc["cameras"][2].update(
                    depth_marker=doc["cameras"][2].pop("depth_markers")
                ),
                "cameras[2]: unknown key 'depth_marker'",
            ),
        ],
    )
    def test_a_misspelled_key_exits_1(
        self, pipeline, tmp_path, capsys, command, document, edit, message
    ):
        if command == "simulate":
            doc = {**SCENARIO_DOC, "noise_sigma_px": 1.5}
        else:
            doc = json.loads((pipeline / "sim" / "picks.json").read_text())
        edit(doc)
        path = tmp_path / document
        jsonio.write_doc(path, doc)
        out = tmp_path / "out"
        code = main([command, str(path), "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert (code, stdout, err) == (1, "", f"error: {path}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"z_reject_mm": "abc"}, "z_reject_mm: expected a real number, found str"),
            ({"z_reject_mm": True}, "z_reject_mm: expected a real number, found bool"),
            ({"reference_camera": 3}, "reference_camera: expected a string, found int"),
            ({"z_reject_mm": -1}, "z_reject_mm must be >= 0, got -1"),
            ({"z_tolerance": 5.0}, "unknown config keys ['z_tolerance']"),
        ],
    )
    def test_bad_config_value(self, pipeline, tmp_path, capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        track = tmp_path / "track.csv"
        code = main(
            [
                "reconstruct", str(pipeline / "sim" / "detections_top.csv"),
                "--calibration", str(pipeline / "calibration.json"),
                "--out", str(track),
                "--config", str(cfg),
            ]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err
        assert out == "" and not track.exists()

    def test_non_finite_grid_b(self, pipeline, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--track", str(pipeline / "track.csv"),
                "--segments", str(pipeline / "segments.csv"),
                "--calibration", str(pipeline / "calibration.json"),
                "--grid-b", "0,0,0,1,inf,1",
                "--report", str(tmp_path / "report.json"),
            ]
        )
        assert code == 2
        assert "not a finite number" in capsys.readouterr().err

    def test_report_with_non_finite_error(self, pipeline, tmp_path, capsys):
        # Finite but huge coordinates make the segment error sum to inf,
        # which the report document cannot hold.
        track = tmp_path / "track.csv"
        track.write_text(
            "timestamp_ms,x_mm,y_mm,z_mm,cam_a,cam_b,z_disagreement_mm,"
            "depth_corrected\n"
            "0,1e308,1e308,1e308,side0,side1,0,true\n"
            "1,-1e308,-1e308,-1e308,side0,side1,0,true\n"
        )
        report = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--track", str(track),
                "--segments", str(pipeline / "segments.csv"),
                "--calibration", str(pipeline / "calibration.json"),
                "--report", str(report),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "non-finite" in err
        assert "Traceback" not in err
        assert not report.exists()

    @pytest.mark.parametrize("flags", [[], ["--bounded"]])
    def test_non_finite_error_without_report(self, pipeline, tmp_path, capsys, flags):
        # The same overflow is refused before any table is printed; the
        # bounded distance squares the excursion, which overflows on its own.
        track = tmp_path / "track.csv"
        track.write_text(
            "timestamp_ms,x_mm,y_mm,z_mm,cam_a,cam_b,z_disagreement_mm,"
            "depth_corrected\n"
            "0,1e308,1e308,1e308,side0,side1,0,true\n"
            "1,-1e308,-1e308,-1e308,side0,side1,0,true\n"
        )
        code = main(
            [
                "evaluate",
                "--track", str(track),
                "--segments", str(pipeline / "segments.csv"),
                "--calibration", str(pipeline / "calibration.json"),
                *flags,
            ]
        )
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error: ") and "non-finite" in err
        assert "Traceback" not in err
        assert out == ""

    def test_strict_parse_failure(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "camera_id,frame_index,timestamp_ms,u_min,v_min,u_max,v_max,confidence\n"
            "side0,0,0.0,1.0,2.0,3.0,not_a_number,0.9\n"
        )
        args = [
            "reconstruct", str(bad),
            "--calibration", str(pipeline / "calibration.json"),
            "--out", str(tmp_path / "track.csv"),
        ]
        assert main(args + ["--strict"]) == 1
        assert "error" in capsys.readouterr().err
        # Lenient mode skips the row and finishes.
        assert main(args) == 0
        capsys.readouterr()

    def test_underflowing_box_area(self, pipeline, tmp_path, capsys, caplog):
        # a box whose halved area underflows to 0 is refused like one that
        # overflows
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "camera_id,frame_index,timestamp_ms,u_min,v_min,u_max,v_max,confidence\n"
            "side0,0,0.0,0,0,1e-200,1e-200,0.9\n"
            "side1,0,0.0,0,0,1e-200,1e-200,0.9\n"
        )
        track = tmp_path / "track.csv"
        args = [
            "reconstruct", str(bad),
            "--calibration", str(pipeline / "calibration.json"),
            "--out", str(track),
        ]
        assert main(args + ["--strict"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {bad}: row 2, column <row>: ")
        assert "not finite or positive" in err and "Traceback" not in err
        assert out == "" and not track.exists()
        # Lenient mode skips both rows and writes an empty, readable track.
        assert main(args) == 0
        capsys.readouterr()
        assert "skipped 2 malformed detection rows" in caplog.text
        assert len(read_track(track)) == 0

    def test_overflowing_box_centre(self, pipeline, tmp_path, capsys):
        # finite corners whose centre overflows used to give a NaN track row
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "camera_id,frame_index,timestamp_ms,u_min,v_min,u_max,v_max,confidence\n"
            "side0,0,0.0,1.6e308,1.6e308,1.7e308,1.7e308,0.9\n"
            "side1,0,0.0,1.6e308,1.6e308,1.7e308,1.7e308,0.9\n"
        )
        track = tmp_path / "track.csv"
        args = [
            "reconstruct", str(bad),
            "--calibration", str(pipeline / "calibration.json"),
            "--out", str(track),
        ]
        assert main(args + ["--strict"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: row 2") and "not finite" in err
        assert "Traceback" not in err
        # Lenient mode skips both rows and writes an empty, readable track.
        assert main(args) == 0
        capsys.readouterr()
        assert len(read_track(track)) == 0


class TestFlagValues:
    """An empty value or a bad box size is refused, never taken as absent."""

    @staticmethod
    def _evaluate(pipeline, *flags):
        return [
            "evaluate",
            "--track", str(pipeline / "track.csv"),
            "--segments", str(pipeline / "segments.csv"),
            "--calibration", str(pipeline / "calibration.json"),
            *flags,
        ]

    @pytest.mark.parametrize(
        "grid_b", ["", "120,120,100,0,150,400", "120,120,100,150,-150,400"]
    )
    def test_grid_b(self, pipeline, capsys, grid_b):
        assert main(self._evaluate(pipeline, "--grid-b", grid_b)) == 2
        out, err = capsys.readouterr()
        assert err.startswith("config error: ") and "Traceback" not in err
        assert out == ""

    # A run that fails prints nothing to stdout and leaves no output file.
    @pytest.mark.parametrize("flag", ["--stats", "--report"])
    def test_evaluate_empty_path(self, pipeline, capsys, flag):
        assert main(self._evaluate(pipeline, flag, "")) == 1
        out, err = capsys.readouterr()
        assert err.startswith("i/o error: ") and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--stats", "--config"])
    def test_reconstruct_empty_path(self, pipeline, tmp_path, capsys, flag):
        track = tmp_path / "track.csv"
        args = [
            "reconstruct", str(pipeline / "sim" / "detections_top.csv"),
            "--calibration", str(pipeline / "calibration.json"),
            "--out", str(track),
            flag, "",
        ]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert err.startswith("i/o error: ") and "Traceback" not in err
        assert out == ""
        assert not track.exists()

    def test_reconstruct_failed_stats_keeps_a_track_it_did_not_create(
        self, pipeline, tmp_path, capsys
    ):
        # Only a track file the run made itself is removed on failure.
        track = tmp_path / "track.csv"
        track.write_text("old\n")
        args = [
            "reconstruct", str(pipeline / "sim" / "detections_top.csv"),
            "--calibration", str(pipeline / "calibration.json"),
            "--out", str(track),
            "--stats", "",
        ]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert err.startswith("i/o error: ") and "Traceback" not in err
        assert out == ""
        assert track.exists()

    @pytest.mark.parametrize("tiny", ["predictions", "ground_truth"])
    def test_detmetrics_underflowing_box_area(self, tmp_path, capsys, tiny):
        # two such boxes once ended in a ZeroDivisionError traceback
        box = {"predictions": "0,0,10,10", "ground_truth": "0,0,10,10"}
        box[tiny] = "0,0,1e-200,1e-200"
        preds, gt = tmp_path / "preds.csv", tmp_path / "gt.csv"
        preds.write_text(f"{','.join(CSV_HEADER)}\ndet,0,0.0,{box['predictions']},0.9\n")
        gt.write_text(f"{','.join(GT_HEADER)}\n0,{box['ground_truth']}\n")
        report = tmp_path / "report.json"
        args = ["detmetrics", "--predictions", str(preds), "--ground-truth", str(gt),
                "--report", str(report)]
        assert main(args) == 1
        out, err = capsys.readouterr()
        bad = {"predictions": preds, "ground_truth": gt}[tiny]
        assert err.startswith(f"error: {bad}: row 2, column <row>: ")
        assert "not finite or positive" in err and "Traceback" not in err
        assert out == "" and not report.exists()

    def test_detmetrics_empty_report(self, tmp_path, capsys):
        preds, gt = tmp_path / "preds.csv", tmp_path / "gt.csv"
        write_detections(preds, [Detection("det", "0", 0.0, 0.0, 0.0, 10.0, 10.0, 0.9)])
        gt.write_text("frame_id,u_min,v_min,u_max,v_max\n0,0,0,10,10\n")
        args = ["detmetrics", "--predictions", str(preds), "--ground-truth", str(gt)]
        assert main(args + ["--report", ""]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("i/o error: ") and "Traceback" not in err
        assert out == ""


class _FullDisk:
    """A file on a disk with room for ``room`` bytes: a write past that puts
    down what fits, then raises ENOSPC."""

    def __init__(self, fh, room: int):
        self.fh, self.room = fh, room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:self.room])
        self.room -= len(data[:self.room])
        if not self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def writelines(self, lines):
        for line in lines:
            self.write(line)


@pytest.mark.parametrize("command", ["reconstruct", "csv", "ply", "svg"])
@pytest.mark.parametrize("existed", [False, True])
def test_a_write_that_fails_part_way_leaves_no_file_it_made(
    pipeline, tmp_path, capsys, monkeypatch, command, existed
):
    out = tmp_path / f"out.{command}"
    if existed:
        out.write_text("old\n")
    cal = str(pipeline / "calibration.json")
    if command == "reconstruct":
        detections = sorted(str(p) for p in (pipeline / "sim").glob("detections_*.csv"))
        args = ["reconstruct", *detections, "--calibration", cal]
    else:
        args = ["export", "--track", str(pipeline / "track.csv"),
                "--calibration", cal, "--format", command]
    opened = []

    def full_disk_open(*open_args, **kwargs):
        opened.append(_FullDisk(open(*open_args, **kwargs), room=100))
        return opened[-1]

    # the module whose open() writes the file
    module = fusion if command in ("reconstruct", "csv") else export
    monkeypatch.setattr(module, "open", full_disk_open, raising=False)
    assert main([*args, "--out", str(out)]) == 1
    out_text, err = capsys.readouterr()
    assert opened and not opened[0].room  # the write was cut part-way
    assert err.startswith("i/o error: ") and "No space left" in err
    assert out_text == ""
    # a file that was there is kept, cut short; one the run made is gone
    assert out.exists() == existed


def test_camera_ids_with_a_comma_survive_the_pipeline(pipeline, tmp_path, capsys):
    renamed = {"side0": "si,de0", "side1": 'si"de,1', "top": "t,o\np"}
    doc = json.loads((pipeline / "calibration.json").read_text())
    for camera in doc["cameras"]:
        camera["id"] = renamed.get(camera["id"], camera["id"])
    cal = tmp_path / "calibration.json"
    jsonio.write_doc(cal, doc)
    detection_files = []
    for path in sorted((pipeline / "sim").glob("detections_*.csv")):
        out = tmp_path / path.name
        write_detections(
            out,
            (
                replace(d, camera_id=renamed.get(d.camera_id, d.camera_id))
                for d in parse_detections_file(path, strict=True).detections
            ),
        )
        detection_files.append(str(out))
    track, exported = tmp_path / "track.csv", tmp_path / "export.csv"
    assert main(
        ["reconstruct", *detection_files, "--strict",
         "--calibration", str(cal), "--out", str(track)]
    ) == 0
    assert main(
        ["export", "--track", str(track), "--calibration", str(cal),
         "--format", "csv", "--out", str(exported)]
    ) == 0
    assert exported.read_bytes() == track.read_bytes()
    point = list(read_track(exported))[0]
    assert (point.cam_a, point.cam_b) == ("si,de0", 'si"de,1')
    capsys.readouterr()

    def evaluate(track_file, cal_file):
        assert main(
            ["evaluate", "--track", str(track_file), "--segments",
             str(pipeline / "segments.csv"), "--calibration", str(cal_file)]
        ) == 0
        return capsys.readouterr().out

    assert evaluate(exported, cal) == evaluate(
        pipeline / "track.csv", pipeline / "calibration.json"
    )


class TestRepeatedRole:
    """A second camera in a role is refused at calibrate and at reconstruct."""

    @staticmethod
    def _with_second(doc: dict, camera_id: str) -> dict:
        entry = next(c for c in doc["cameras"] if c["id"] == camera_id)
        return {**doc, "cameras": doc["cameras"] + [{**entry, "id": camera_id + "b"}]}

    @pytest.mark.parametrize("camera_id, label", [("side0", "side:0"), ("top", "top")])
    def test_calibrate(self, pipeline, tmp_path, capsys, camera_id, label):
        picks = tmp_path / "picks.json"
        doc = json.loads((pipeline / "sim" / "picks.json").read_text())
        jsonio.write_doc(picks, self._with_second(doc, camera_id))
        out = tmp_path / "calibration.json"
        assert main(["calibrate", str(picks), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {picks}: role " + label)
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("camera_id, label", [("side0", "side:0"), ("top", "top")])
    def test_reconstruct(self, pipeline, tmp_path, capsys, camera_id, label):
        cal = tmp_path / "calibration.json"
        doc = json.loads((pipeline / "calibration.json").read_text())
        jsonio.write_doc(cal, self._with_second(doc, camera_id))
        track = tmp_path / "track.csv"
        detections = sorted(str(p) for p in (pipeline / "sim").glob("detections_*.csv"))
        code = main(
            ["reconstruct", *detections, "--calibration", str(cal), "--out", str(track)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cal}: role " + label)
        assert "Traceback" not in err
        assert not track.exists()


class TestErrorsNameTheFile:
    """An error about an input file leads with that file's path, once."""

    def test_reconstruct_names_the_second_of_two_files(self, pipeline, tmp_path, capsys):
        good = pipeline / "sim" / "detections_side0.csv"
        bad = tmp_path / "side1.csv"
        bad.write_text(
            f"{','.join(CSV_HEADER)}\n"
            "side1,0,0.0,1,2,3,4,0.9\n"
            "side1,1,-5,1,2,3,4,0.9\n"
        )
        track = tmp_path / "track.csv"
        args = [
            "reconstruct", str(good), str(bad), "--strict",
            "--calibration", str(pipeline / "calibration.json"),
            "--out", str(track),
        ]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert err == (
            f"error: {bad}: row 3, column timestamp_ms: "
            "timestamp_ms must be >= 0, got -5.0\n"
        )
        assert out == "" and not track.exists()

    @pytest.mark.parametrize(
        "flag, key",
        [("--stats", "with_side_detection"), ("--calibration", "format_version")],
    )
    def test_evaluate_names_the_bad_document(self, pipeline, tmp_path, capsys, flag, key):
        bad = tmp_path / "bad.json"
        source = pipeline / ("stats.json" if flag == "--stats" else "calibration.json")
        doc = json.loads(source.read_text())
        del doc[key]
        jsonio.write_doc(bad, doc)
        given = {
            "--stats": str(pipeline / "stats.json"),
            "--calibration": str(pipeline / "calibration.json"),
            flag: str(bad),
        }
        args = [
            "evaluate",
            "--track", str(pipeline / "track.csv"),
            "--segments", str(pipeline / "segments.csv"),
            *(item for pair in given.items() for item in pair),
        ]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert err == f"error: {bad}: top level: missing required key {key!r}\n"
        assert out == ""

    def test_detmetrics_names_the_ground_truth_file(self, tmp_path, capsys):
        preds, gt = tmp_path / "preds.csv", tmp_path / "gt.csv"
        preds.write_text(f"{','.join(CSV_HEADER)}\ndet,0,0.0,0,0,10,10,0.9\n")
        gt.write_text(f"{','.join(GT_HEADER)}\n0,0,0,10,10\n0,0,x,10,10\n")
        args = ["detmetrics", "--predictions", str(preds), "--ground-truth", str(gt)]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert err == f"error: {gt}: row 3, column v_min: not a number: 'x'\n"
        assert out == ""

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"z_reject_mm": "abc"}', "z_reject_mm: expected a real number, found str"),
            ('{"z_reject_mm": -1}', "z_reject_mm must be >= 0, got -1.0"),
            ('{"z_tolerance": 5.0}', "unknown config keys ['z_tolerance']"),
        ],
    )
    def test_a_config_file_is_named_once(self, pipeline, tmp_path, capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc)
        args = [
            "reconstruct", str(pipeline / "sim" / "detections_top.csv"),
            "--calibration", str(pipeline / "calibration.json"),
            "--out", str(tmp_path / "track.csv"),
            "--config", str(cfg),
        ]
        assert main(args) == 2
        assert capsys.readouterr().err == f"config error: {cfg}: {message}\n"

    # Each loader's document with a key given twice (json.loads alone keeps
    # the last value): (the document's text, the command that reads it from
    # file BAD, its exit code, the key).  The calibration's is deep in a
    # sub-area and repeats its value; a repeat is refused all the same.
    REPEATED = {
        "scenario": (
            lambda p: '{"seed": 1, ' + json.dumps(SCENARIO_DOC)[1:],
            lambda p, t: ["simulate", "BAD", "--out", str(t / "sim")],
            1, "seed",
        ),
        "marker picks": (
            lambda p: '{"px_per_mm": 2.0, ' + (p / "sim" / "picks.json").read_text()[1:],
            lambda p, t: ["calibrate", "BAD", "--out", str(t / "cal.json")],
            1, "px_per_mm",
        ),
        "calibration": (
            lambda p: (p / "calibration.json").read_text().replace(
                '"index": 0,', '"index": 0, "index": 0,', 1
            ),
            lambda p, t: [
                "reconstruct", str(p / "sim" / "detections_top.csv"),
                "--calibration", "BAD", "--out", str(t / "track.csv"),
            ],
            1, "index",
        ),
        "run config": (
            lambda p: '{"z_reject_mm": 10, "z_reject_mm": 500}',
            lambda p, t: [
                "reconstruct", str(p / "sim" / "detections_top.csv"),
                "--calibration", str(p / "calibration.json"),
                "--out", str(t / "track.csv"), "--config", "BAD",
            ],
            2, "z_reject_mm",
        ),
        "stats": (
            lambda p: '{"total": 0, ' + (p / "stats.json").read_text()[1:],
            lambda p, t: [
                "evaluate", "--track", str(p / "track.csv"),
                "--segments", str(p / "segments.csv"),
                "--calibration", str(p / "calibration.json"), "--stats", "BAD",
            ],
            1, "total",
        ),
    }

    @pytest.mark.parametrize("kind", list(REPEATED))
    def test_a_repeated_key_is_refused(self, pipeline, tmp_path, capsys, kind):
        text, command, code, key = self.REPEATED[kind]
        bad = tmp_path / "bad.json"
        bad.write_text(text(pipeline), encoding="utf-8")
        args = [str(bad) if a == "BAD" else a for a in command(pipeline, tmp_path)]
        assert main(args) == code
        out, err = capsys.readouterr()
        prefix = "config error" if code == 2 else "error"
        assert err == f"{prefix}: {bad}: repeated key {key!r}\n"
        assert out == ""


class TestUnreadableInput:
    """Bytes that are not UTF-8, oversized fields and bad stats end in exit 1/2."""

    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    @pytest.mark.parametrize(
        "field", [b"\xff\xfe", b"x" * 200_000], ids=["not_utf8", "oversized"]
    )
    def test_reconstruct(self, pipeline, tmp_path, capsys, field, strict):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(
            ",".join(CSV_HEADER).encode() + b"\nside0," + field
            + b",0.0,1.0,2.0,3.0,4.0,0.9\n"
        )
        args = [
            "reconstruct", str(bad),
            "--calibration", str(pipeline / "calibration.json"),
            "--out", str(tmp_path / "track.csv"),
        ]
        assert main(args + strict) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: row 2, column <row>: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "data", [b'{"z_reject_mm": "\xff"}', b"[" * 100_000], ids=["not_utf8", "deep"]
    )
    def test_config_file(self, pipeline, tmp_path, capsys, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        args = [
            "reconstruct", str(pipeline / "sim" / "detections_top.csv"),
            "--calibration", str(pipeline / "calibration.json"),
            "--out", str(tmp_path / "track.csv"),
            "--config", str(cfg),
        ]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "plotted, message",
        [
            (None, "missing required key 'plotted'"),
            ("abc", "plotted: expected an integer, found str"),
            (1e400, "plotted: expected an integer, found float"),
            (True, "plotted: expected an integer, found bool"),
            (2.9, "plotted: expected an integer, found float"),
            (-4, "plotted: expected a count in [0, 2**63), found -4"),
            (2**63, "plotted: expected a count in [0, 2**63), found "),
            (10**6, "plotted (1000000) + rejected_z (0) exceeds with_two_side_detections ("),
        ],
    )
    def test_evaluate_stats(self, pipeline, tmp_path, capsys, plotted, message):
        doc = json.loads((pipeline / "stats.json").read_text())
        if plotted is None:
            del doc["plotted"]
        else:
            doc["plotted"] = plotted
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--track", str(pipeline / "track.csv"),
                "--segments", str(pipeline / "segments.csv"),
                "--calibration", str(pipeline / "calibration.json"),
                "--stats", str(stats),
                "--report", str(report),
            ]
        )
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert out == "" and not report.exists()

    # A run's counts: 10 bundles, 9 with a side detection, 7 with two,
    # 6 plotted, 1 z-rejected, 2 missing the top view, 3 detections outside.
    COUNTS = dict(zip(fusion.FusionStats().as_doc(), (10, 9, 7, 6, 1, 2, 3)))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"plotted": 7}, "plotted (7) + rejected_z (1) exceeds with_two_side_detections (7)"),
            ({"rejected_z": 2}, "plotted (6) + rejected_z (2) exceeds with_two_side_detections (7)"),
            ({"with_two_side_detections": 10},
             "with_two_side_detections (10) exceeds with_side_detection (9)"),
            ({"with_side_detection": 11}, "with_side_detection (11) exceeds total (10)"),
            ({"total": 8}, "with_side_detection (9) exceeds total (8)"),
            ({"missing_top": 11}, "missing_top (11) exceeds total (10)"),
            # every other bound met with equality
            ({"total": 7, "with_side_detection": 7, "plotted": 7, "rejected_z": 0,
              "missing_top": 8}, "missing_top (8) exceeds total (7)"),
        ],
    )
    def test_evaluate_refuses_counts_that_contradict(
        self, pipeline, tmp_path, change, message
    ):
        """A plot rate above 1 is never printed: each bound that every run's
        counts obey is checked, and the error names both sides."""
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({**self.COUNTS, **change}))
        code, out, err = _evaluate_with_stats(pipeline, stats)
        assert code == 1
        assert err == f"error: {stats}: {message}\n"
        assert out == ""

    @pytest.mark.parametrize(
        "change",
        [
            {},
            # every bound met with equality
            {"total": 7, "with_side_detection": 7, "missing_top": 7},
            # outside_area counts detections, not bundles: it is not bounded
            {"outside_area": 50},
        ],
    )
    def test_evaluate_reads_counts_that_agree(self, pipeline, tmp_path, change):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({**self.COUNTS, **change}))
        code, out, err = _evaluate_with_stats(pipeline, stats)
        assert (code, err) == (0, "")
        assert "plot rate (>=1 side): " in out

    def test_evaluate_stats_ignores_unknown_keys(self, pipeline, tmp_path, capsys):
        doc = json.loads((pipeline / "stats.json").read_text())
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({**doc, "note": "anything", "extra": -1.5}))
        code = main(
            [
                "evaluate",
                "--track", str(pipeline / "track.csv"),
                "--segments", str(pipeline / "segments.csv"),
                "--calibration", str(pipeline / "calibration.json"),
                "--stats", str(stats),
            ]
        )
        assert code == 0
        assert "plot rate (>=1 side): 1.0000" in capsys.readouterr().out


def _evaluate_with_stats(pipeline, stats) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of evaluate on the pipeline's track
    with the stats file ``stats``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(
            [
                "evaluate",
                "--track", str(pipeline / "track.csv"),
                "--segments", str(pipeline / "segments.csv"),
                "--calibration", str(pipeline / "calibration.json"),
                "--stats", str(stats),
            ]
        )
    return code, out.getvalue(), err.getvalue()


# --- reconstruct on fuzzed detection tables ---------------------------------

@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    files=st.lists(st.lists(DETECTION_ROW, max_size=12), min_size=1, max_size=2),
    duplicate=st.booleans(),
    strict=st.booleans(),
    strategy=st.sampled_from(["best", "average_all"]),
)
@example(  # box centres overflow to inf; this once wrote a NaN track row
    files=[
        [
            [cam, "0", "0.0", "1.6e308", "1.6e308", "1.7e308", "1.7e308", "0.9"]
            for cam in ("side0", "side1")
        ]
    ],
    duplicate=False,
    strict=False,
    strategy="best",
)
def test_reconstruct_on_fuzzed_detections(pipeline, files, duplicate, strict, strategy):
    """Any detection table ends in exit 0, 1 or 2 without a traceback, and
    every track written reads back."""
    if duplicate:  # the same rows again, as a second file
        files = files + files[:1]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, rows in enumerate(files):
            path = Path(tmp) / f"detections_{k}.csv"
            lines = [",".join(CSV_HEADER)] + [",".join(row) for row in rows]
            path.write_text("\n".join(lines) + "\n")
            paths.append(str(path))
        track = Path(tmp) / "track.csv"
        stats = Path(tmp) / "stats.json"
        argv = [
            "reconstruct", *paths,
            "--calibration", str(pipeline / "calibration.json"),
            "--out", str(track),
            "--stats", str(stats),
            "--pair-strategy", strategy,
        ] + (["--strict"] if strict else [])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            points = read_track(track)
            # the written counts agree with each other and with the track
            counts = fusion.FusionStats.from_doc(jsonio.read_doc(stats))
            assert len(points) == counts.plotted


# --- detmetrics on fuzzed bytes ----------------------------------------------


def _csv_bytes(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _fuzzed_file(header, row, valid=None):
    """A file's bytes: a table of fuzzed rows, sometimes followed by raw
    bytes, or raw bytes or text alone; or, given ``valid`` rows, more often
    a table of those."""
    table = st.lists(row, max_size=10).map(lambda rows: _csv_bytes(header, rows))
    tables = [table, table] if valid is None else [table] + 3 * [
        st.lists(valid, min_size=1, max_size=10).map(lambda rows: _csv_bytes(header, rows))
    ]
    return st.one_of(
        *tables,
        st.tuples(table, st.binary(max_size=12)).map(b"".join),
        st.binary(max_size=200),
        st.text(max_size=200).map(str.encode),
    )


_TINY_PREDICTION = _csv_bytes(
    CSV_HEADER, [["det", "0", "0.0", "0", "0", "1e-200", "1e-200", "0.9"]]
)
_TINY_BOX = _csv_bytes(GT_HEADER, [["0", "0", "0", "1e-200", "1e-200"]])


@settings(max_examples=200, deadline=None)
@given(
    predictions=_fuzzed_file(CSV_HEADER, DETECTION_ROW),
    ground_truth=_fuzzed_file(GT_HEADER, GT_ROW),
)
@example(predictions=_TINY_PREDICTION, ground_truth=_TINY_BOX)
def test_detmetrics_on_fuzzed_bytes(predictions, ground_truth):
    """Any pair of files ends in exit 0, 1 or 2 without a traceback, and an
    exit 1 leaves no report and prints nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        preds, gt, report = (Path(tmp) / name for name in ("p.csv", "gt.csv", "r.json"))
        preds.write_bytes(predictions)
        gt.write_bytes(ground_truth)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["detmetrics", "--predictions", str(preds),
                         "--ground-truth", str(gt), "--report", str(report)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert out.getvalue() == "" and not report.exists()
        if code == 0:
            assert jsonio.read_doc(report)["precision"] >= 0


# --- evaluate and export on fuzzed bytes -------------------------------------


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    track=_fuzzed_file(TRACK_HEADER, TRACK_ROW, plausible_track_row()),
    segments=_fuzzed_file(SEGMENTS_HEADER, SEGMENT_ROW, plausible_segment_row()),
    command=st.sampled_from(["evaluate", *EXPORT_FORMATS]),
)
def test_evaluate_and_export_on_fuzzed_bytes(pipeline, track, segments, command):
    """Any track and segments files end in exit 0, 1 or 2 without a
    traceback, and an exit 1 leaves no report or export and prints nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        track_path, segments_path, out = (
            Path(tmp) / name for name in ("track.csv", "segments.csv", "out")
        )
        track_path.write_bytes(track)
        segments_path.write_bytes(segments)
        common = ["--track", str(track_path),
                  "--calibration", str(pipeline / "calibration.json")]
        if command == "evaluate":
            argv = ["evaluate", *common, "--segments", str(segments_path),
                    "--report", str(out)]
        else:
            argv = ["export", *common, "--format", command, "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        if code == 1:
            assert stdout.getvalue() == "" and not out.exists()
        if code == 0:
            assert out.exists()


# --- documents fuzzed at the byte level --------------------------------------


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_outcome(code, out, err, made: Path):
    """Exit 0, 1 or 2 without a traceback; a failed run prints nothing and
    leaves nothing at ``made``."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert out == "" and not made.exists()


_FUZZ = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_FUZZ
@given(data=st.data())
def test_calibrate_on_fuzzed_picks(pipeline, data):
    doc = json.loads((pipeline / "sim" / "picks.json").read_text())
    picks = data.draw(fuzzed_doc(doc))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "picks.json", Path(tmp) / "cal.json"
        path.write_bytes(picks)
        code, stdout, stderr = _run(["calibrate", str(path), "--out", str(out)])
        _check_outcome(code, stdout, stderr, out)
        if code == 0:
            assert load_calibration(out).cameras


@_FUZZ
@given(scenario=fuzzed_doc(SCENARIO_DOC))
def test_simulate_on_fuzzed_scenario(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "sim"
        path.write_bytes(scenario)
        code, stdout, stderr = _run(["simulate", str(path), "--out", str(out)])
        _check_outcome(code, stdout, stderr, out)
        if code == 0:
            assert (out / "picks.json").exists()


def test_simulate_refuses_a_resolution_that_rounds_boxes_away(tmp_path):
    """Pixels near 1.4e17 lose bbox_half_px to rounding, so no box has a
    width: a config error, never a traceback."""
    doc = json.loads(json.dumps(SCENARIO_DOC))
    doc["cameras"]["resolution"] = [288230376151711633, 1080]
    path, out = tmp_path / "scenario.json", tmp_path / "sim"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = _run(["simulate", str(path), "--out", str(out)])
    assert code == 2
    assert stderr.startswith(f"config error: {path}: camera ")
    assert ": no valid box: need u_min < u_max" in stderr
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize(
    "n_frames, fps",
    # 1000 / 1e-305 is 1e308, so frame 2 is at inf; 1000 / 1e-306 is inf;
    # 10**400 - 1 frames is past float range
    [(3, 1e-305), (3, 1e-306), (10**400, 20.0)],
)
def test_simulate_refuses_a_frame_rate_whose_times_are_not_finite(tmp_path, n_frames, fps):
    doc = {**SCENARIO_DOC, "n_frames": n_frames, "frame_rate_fps": fps}
    path, out = tmp_path / "scenario.json", tmp_path / "sim"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = _run(["simulate", str(path), "--out", str(out)])
    assert code == 2
    assert stderr.startswith(
        f"config error: {path}: frame_rate_fps {fps} puts frame {n_frames - 1} "
    )
    assert stdout == "" and not out.exists()


def test_simulate_refuses_a_resolution_past_float_range(tmp_path):
    """project halves the resolution as a float, which would overflow."""
    cameras = {"mode": "aligned", "resolution": [2 * 10**308, 1080]}
    path, out = tmp_path / "scenario.json", tmp_path / "sim"
    path.write_text(json.dumps({**SCENARIO_DOC, "cameras": cameras}))
    code, stdout, stderr = _run(["simulate", str(path), "--out", str(out)])
    message = "camera side0: resolution is past float range"
    assert (code, stdout, stderr) == (2, "", f"config error: {path}: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("loop", [True, False])
def test_simulate_refuses_a_looped_path_whose_distance_is_not_finite(tmp_path, loop):
    """math.fmod cannot wrap an infinite distance; a path that does not loop
    stops at its end, as ever."""
    walk = {**SCENARIO_DOC["path"], "speed_mm_s": 1e308, "loop": loop}
    path, out = tmp_path / "scenario.json", tmp_path / "sim"
    path.write_text(json.dumps({**SCENARIO_DOC, "n_frames": 100, "path": walk}))
    code, stdout, stderr = _run(["simulate", str(path), "--out", str(out)])
    if not loop:
        assert (code, stderr) == (0, "")
        return
    message = (
        "speed_mm_s 1e+308 puts frame 99 of the looped path at a distance "
        "that is not finite (inf mm)"
    )
    assert (code, stdout, stderr) == (2, "", f"config error: {path}: {message}\n")
    assert not out.exists()


def test_simulate_names_the_scenario_whose_cameras_face_away(tmp_path):
    """Side cameras 100 mm inside the grid see the markers behind them."""
    cameras = {"mode": "pinhole", "resolution": [1920, 1080], "side_distance_mm": -100.0}
    doc = {**SCENARIO_DOC, "cameras": cameras}
    path, out = tmp_path / "scenario.json", tmp_path / "sim"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = _run(["simulate", str(path), "--out", str(out)])
    assert code == 1
    assert stderr.startswith(f"error: {path}: camera side0: point (")
    assert stderr.endswith(") is not in front of the image plane\n")
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"cameras": {"mode": "aligned", "resolution": [0, 0]}},
         "camera side0: resolution must be positive, got (0, 0)"),
        ({"dropout": {"default": 0.1, "side5": 0.9}},
         "dropout names camera 'side5', which is not one of "
         "side0, side1, side2, side3, top (or default)"),
    ],
)
def test_simulate_refuses_a_scenario_its_cameras_cannot_run(tmp_path, change, message):
    path, out = tmp_path / "scenario.json", tmp_path / "sim"
    path.write_text(json.dumps({**SCENARIO_DOC, **change}))
    code, stdout, stderr = _run(["simulate", str(path), "--out", str(out)])
    assert (code, stdout, stderr) == (2, "", f"config error: {path}: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("strict", [False, True])
def test_reconstruct_refuses_a_camera_the_calibration_lacks(pipeline, tmp_path, strict):
    """Side0 would sort first as the reference camera, and fusion would drop
    its rows unseen."""
    renamed = tmp_path / "detections_side0.csv"
    write_detections(
        renamed,
        (
            replace(d, camera_id="Side0")
            for d in parse_detections_file(
                pipeline / "sim" / "detections_side0.csv", strict=True
            ).detections
        ),
    )
    others = sorted(str(p) for p in (pipeline / "sim").glob("detections_side[1-3].csv"))
    track = tmp_path / "track.csv"
    argv = [
        "reconstruct", str(renamed), *others, str(pipeline / "sim" / "detections_top.csv"),
        "--calibration", str(pipeline / "calibration.json"), "--out", str(track),
    ] + (["--strict"] if strict else [])
    code, stdout, stderr = _run(argv)
    assert (code, stdout) == (1, "")
    assert stderr == (
        f"error: {renamed}: no camera 'Side0' in the calibration, whose cameras "
        "are side0, side1, side2, side3, top\n"
    )
    assert not track.exists()


@settings(_FUZZ, max_examples=150)
@given(
    data=st.data(),
    command=st.sampled_from(["reconstruct", "evaluate", *EXPORT_FORMATS]),
)
def test_commands_on_fuzzed_calibration(pipeline, data, command):
    calibration = data.draw(
        fuzzed_doc(json.loads((pipeline / "calibration.json").read_text()))
    )
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "calibration.json", Path(tmp) / "out"
        path.write_bytes(calibration)
        track = ["--track", str(pipeline / "track.csv"), "--calibration", str(path)]
        argv = {
            "reconstruct": [
                "reconstruct", *map(str, (pipeline / "sim").glob("detections_*.csv")),
                "--calibration", str(path), "--out", str(out),
            ],
            "evaluate": [
                "evaluate", *track, "--segments", str(pipeline / "segments.csv"),
                "--report", str(out),
            ],
        }.get(command, ["export", *track, "--format", command, "--out", str(out)])
        code, stdout, stderr = _run(argv)
        _check_outcome(code, stdout, stderr, out)
        if code == 0:
            assert out.exists()


def _rig_only_runs(pipeline, out: Path) -> dict:
    """Each evaluate and export run's exit code, stdout, stderr and output bytes."""
    common = ["--track", str(pipeline / "track.csv"),
              "--calibration", str(pipeline / "calibration.json")]
    evaluate = ["evaluate", *common, "--segments", str(pipeline / "segments.csv"),
                "--stats", str(pipeline / "stats.json")]
    runs = {
        "evaluate": [*evaluate, "--report", str(out / "plain.json")],
        "evaluate --grid-b": [*evaluate, "--grid-b", "120,120,100,150,150,400",
                              "--report", str(out / "grid_b.json")],
        **{
            fmt: ["export", *common, "--format", fmt, "--out", str(out / f"track.{fmt}")]
            for fmt in EXPORT_FORMATS
        },
    }
    results = {}
    for name, argv in runs.items():
        written = Path(argv[-1])
        results[name] = (*_run(argv), written.read_bytes())
        written.unlink()
    return results


def test_evaluate_and_export_never_build_the_calibration(pipeline, tmp_path, monkeypatch):
    """evaluate and export read only the rig header: with the full calibration
    build made to fail, every run exits 0 with the same output as before."""
    expected = _rig_only_runs(pipeline, tmp_path)
    assert all(code == 0 for code, *_ in expected.values())

    def refuse(doc):
        raise AssertionError("evaluate and export must not build the calibration")

    monkeypatch.setattr("gridscope.calibration.calibration_from_doc", refuse)
    assert _rig_only_runs(pipeline, tmp_path) == expected


_CONFIG_DOC = {
    "sync_tolerance_ms": 25.0,
    "reference_camera": "top",
    "z_reject_mm": 30.0,
    "pair_strategy": "best",
    "depth_correction": True,
    "vertical_correction": True,
}


@_FUZZ
@given(config=fuzzed_doc(_CONFIG_DOC))
def test_reconstruct_on_fuzzed_config(pipeline, config):
    """Every config file that is refused exits 2, as a configuration error."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "track.csv"
        path.write_bytes(config)
        code, stdout, stderr = _run(
            [
                "reconstruct", str(pipeline / "sim" / "detections_top.csv"),
                str(pipeline / "sim" / "detections_side0.csv"),
                "--calibration", str(pipeline / "calibration.json"),
                "--out", str(out), "--config", str(path),
            ]
        )
        _check_outcome(code, stdout, stderr, out)
        assert code in (0, 2)
        if code == 2:
            assert stderr.startswith("config error: ")


def test_reconstruct_names_a_calibration_whose_homography_overflows(
    pipeline, tmp_path, capsys
):
    # h33 = 1e-6 scales 1e305 past float range; the load refuses it
    doc = json.loads((pipeline / "calibration.json").read_text())
    doc["cameras"][0]["sub_areas"][0]["homography"] = [
        [1e305, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-6]
    ]
    cal = tmp_path / "calibration.json"
    cal.write_text(json.dumps(doc))
    out = tmp_path / "track.csv"
    args = ["reconstruct", str(pipeline / "sim" / "detections_top.csv"),
            "--calibration", str(cal), "--out", str(out)]
    assert main(args) == 1
    stdout, err = capsys.readouterr()
    assert err == f"error: {cal}: homography overflows when normalized\n"
    assert stdout == "" and not out.exists()


def test_reconstruct_refuses_a_track_its_readers_would_refuse(pipeline, tmp_path, capsys):
    # mm = model units / px_per_mm overflows, so positions come out infinite
    doc = json.loads((pipeline / "calibration.json").read_text())
    doc["px_per_mm"] = 1e-306
    cal = tmp_path / "calibration.json"
    cal.write_text(json.dumps(doc))
    out, stats = tmp_path / "track.csv", tmp_path / "stats.json"
    args = ["reconstruct", *sorted(str(p) for p in (pipeline / "sim").glob("detections_*.csv")),
            "--calibration", str(cal), "--out", str(out), "--stats", str(stats)]
    assert main(args) == 1
    stdout, err = capsys.readouterr()
    assert re.fullmatch(
        rf"error: {re.escape(str(out))}: row \d+, column [xyz]_mm: "
        r"cannot write non-finite real -?inf\n", err
    ), err
    assert stdout == "" and not out.exists() and not stats.exists()


def _spans_cli_names() -> set[str]:
    """The names perfbench/spans.py wraps as attributes of gridscope.cli."""
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    names = set()
    for node in ast.walk(ast.parse(spans.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            module, attr = node.elts[:2]
            if ast.unparse(module) == "gridscope.cli" and isinstance(attr, ast.Constant):
                names.add(attr.value)
    return names


def test_every_name_perfbench_wraps_is_on_the_cli():
    names = _spans_cli_names()
    assert {"build_track", "read_track", "evaluate_detections"} <= names
    for name in names:
        assert callable(getattr(cli, name)), name


def test_a_replacement_set_on_the_cli_is_what_each_command_calls(
    pipeline, tmp_path, monkeypatch
):
    """A wrapper set on gridscope.cli, as perfbench/spans.py sets one, is
    called by the commands that use the name."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in _spans_cli_names():
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    sim, cal = pipeline / "sim", str(pipeline / "calibration.json")
    track, segments = tmp_path / "track.csv", tmp_path / "segments.csv"
    write_segments(segments, [Segment("walk", 0.0, 2000.0, "y_max")])
    preds, gt = tmp_path / "preds.csv", tmp_path / "gt.csv"
    preds.write_text(f"{','.join(CSV_HEADER)}\ndet,0,0.0,0,0,10,10,0.9\n")
    gt.write_text(f"{','.join(GT_HEADER)}\n0,0,0,10,10\n")
    runs = {
        "reconstruct": (
            ["reconstruct", *sorted(str(p) for p in sim.glob("detections_*.csv")),
             "--calibration", cal, "--out", str(track)],
            {"build_track", "write_track"},
        ),
        "evaluate": (
            ["evaluate", "--track", str(track), "--segments", str(segments),
             "--calibration", cal],
            {"read_track", "evaluate_track"},
        ),
        "export": (
            ["export", "--track", str(track), "--calibration", cal,
             "--format", "ply", "--out", str(tmp_path / "track.ply")],
            {"read_track", "export_track"},
        ),
        "detmetrics": (
            ["detmetrics", "--predictions", str(preds), "--ground-truth", str(gt)],
            {"evaluate_detections"},
        ),
    }
    for command, (argv, called) in runs.items():
        calls.clear()
        assert _run(argv)[0] == 0, command
        assert set(calls) == called, command


# --- the parser main builds ---------------------------------------------------

COMMANDS = ("simulate", "calibrate", "reconstruct", "evaluate", "detmetrics", "export")


def _exits(parse, argv) -> tuple[str, str, int]:
    """The stdout, stderr and exit code of ``parse(argv)``, which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return out.getvalue(), err.getvalue(), exc.value.code


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        [],
        ["transmogrify"],
        ["-v", "transmogrify"],
        ["-", "reconstruct"],
        ["--", "-v", "reconstruct"],
        *([command, "--help"] for command in COMMANDS),
        *([command] for command in COMMANDS),
        *(["-v", command, "--help"] for command in COMMANDS),
        *(["-vv", "--", command] for command in COMMANDS),
        ["reconstruct", "a.csv", "--calibration", "c", "--out", "o", "--z-reject-mm", "x"],
        ["export", "--track", "t", "--calibration", "c", "--format", "gif", "--out", "o"],
    ],
)
def test_main_prints_what_the_full_parser_prints(argv):
    """main's help, usage and error text, and exit codes, are the full
    parser's."""
    want = _exits(cli.build_parser().parse_args, argv)
    assert _exits(main, argv) == want
    assert want[2] == (0 if "--help" in argv else 2)
    assert want[0 if want[2] == 0 else 1].startswith("usage: gridscope")


def test_main_reads_sys_argv_when_given_no_argv(pipeline, tmp_path, monkeypatch):
    """The console script calls main() with no argv."""
    monkeypatch.setattr("sys.argv", ["gridscope", "reconstruct", "--help"])
    want = _exits(cli.build_parser().parse_args, ["reconstruct", "--help"])
    assert _exits(main, None) == want
    out = tmp_path / "track.svg"
    argv = ["export", "--track", str(pipeline / "track.csv"),
            "--calibration", str(pipeline / "calibration.json"),
            "--format", "svg", "--out", str(out)]
    monkeypatch.setattr("sys.argv", ["gridscope", *argv])
    code, stdout, _ = _run(None)
    assert (code, stdout) == (0, f"wrote {out}\n")
    assert out.read_bytes()


def test_verbosity_is_set_on_every_call(pipeline, tmp_path):
    """logging.basicConfig configures the root logger only on the first
    call in a process; a later -vv call still logs its DEBUG lines, and the
    call after it none."""
    sim = pipeline / "sim"
    bad = tmp_path / "detections_side0.csv"
    good = (sim / "detections_side0.csv").read_text(encoding="utf-8")
    bad.write_text(good + "side0,9,-1.0,0,0,10,10,0.5\n", encoding="utf-8")
    others = sorted(str(p) for p in sim.glob("detections_*.csv") if p.name != bad.name)
    argv = ["reconstruct", str(bad), *others,
            "--calibration", str(pipeline / "calibration.json"),
            "--out", str(tmp_path / "track.csv")]
    script = (
        "from gridscope.cli import main\n"
        f"for verbose in ([], ['-vv'], []):\n"
        f"    assert main(verbose + {argv!r}) == 0\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    levels = [line.split(":")[0] for line in done.stderr.splitlines()]
    assert levels == ["WARNING", "DEBUG", "WARNING", "WARNING"], done.stderr
    assert f"DEBUG: {bad}: row " in done.stderr


@pytest.mark.parametrize(
    "flag, full",
    [
        ("--calib", "--calibration"),
        ("--stat", "--stats"),
        ("--pair-strat", "--pair-strategy"),
        ("--verb", "--verbose"),
    ],
)
def test_a_flag_is_given_in_full(pipeline, tmp_path, flag, full):
    """A unique prefix of a flag is a usage error, not the flag it starts,
    and nothing is written."""
    track, stats = tmp_path / "track.csv", tmp_path / "stats.json"
    argv = ["--verbose", "reconstruct",
            *sorted(str(p) for p in (pipeline / "sim").glob("detections_*.csv")),
            "--calibration", str(pipeline / "calibration.json"),
            "--out", str(track), "--stats", str(stats), "--pair-strategy", "best"]
    argv[argv.index(full)] = flag
    out, err, code = _exits(main, argv)
    assert (out, code) == ("", 2)
    assert err.startswith("usage: gridscope")
    assert re.match(r"gridscope( reconstruct)?: error: ", err.splitlines()[-1])
    assert not track.exists() and not stats.exists()
    with contextlib.redirect_stderr(io.StringIO()):  # the full flags run
        assert main([full if a == flag else a for a in argv]) == 0
    assert track.exists() and stats.exists()


def test_main_builds_one_parser_per_process():
    """Seven parsers (the top one and one per command) are built on the
    first call and serve every later one, which prints what a fresh
    ``build_parser()`` prints."""
    argvs = [["--help"], *([command, "--help"] for command in COMMANDS),
             ["export", "--track", "t", "--calibration", "c", "--format", "gif"]]
    script = textwrap.dedent(f"""\
        import argparse, contextlib, io
        built = 0
        init = argparse.ArgumentParser.__init__
        def counted(self, *args, **kwargs):
            global built
            built += 1
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counted
        from gridscope import cli
        def exits(parse, argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    parse(argv)
                except SystemExit as exc:
                    return out.getvalue(), err.getvalue(), exc.code
        argvs = 2 * {argvs!r}
        seen = [exits(cli.main, argv) for argv in argvs]
        print(built)
        for argv, got in zip(argvs, seen):
            assert got == exits(cli.build_parser().parse_args, argv), argv
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert done.stdout == "7\n"
