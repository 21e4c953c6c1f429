import contextlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gridscope import jsonio
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

from strategies import (
    DETECTION_ROW,
    GT_ROW,
    SEGMENT_ROW,
    TRACK_ROW,
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
        assert track[0].timestamp_ms == 0.0

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
        track, stats = build_track(cal, synchronize(detections))
        write_track(tmp_path / "track.csv", track)
        assert (tmp_path / "track.csv").read_bytes() == (pipeline / "track.csv").read_bytes()
        assert stats.as_doc() == json.loads((pipeline / "stats.json").read_text())

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
        assert main(args + ["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "sync_tolerance_ms" in err and "finite" in err
        assert "Traceback" not in err
        assert main(args + ["--sync-tolerance-ms", "nan"]) == 2
        assert "config error" in capsys.readouterr().err

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
        assert err.startswith("error: row 2, column <row>: ")
        assert "not finite or positive" in err and "Traceback" not in err
        assert out == "" and not track.exists()
        # Lenient mode skips both rows and writes an empty, readable track.
        assert main(args) == 0
        capsys.readouterr()
        assert "skipped 2 malformed detection rows" in caplog.text
        assert read_track(track) == []

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
        assert err.startswith("error: row 2") and "not finite" in err
        assert "Traceback" not in err
        # Lenient mode skips both rows and writes an empty, readable track.
        assert main(args) == 0
        capsys.readouterr()
        assert read_track(track) == []


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
        assert err.startswith("error: row 2, column <row>: ")
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
    assert read_track(exported)[0].pair == ("si,de0", 'si"de,1')
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
        assert err.startswith("error: role " + label)
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
        assert err.startswith("error: role " + label)
        assert "Traceback" not in err
        assert not track.exists()


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
        assert err.startswith("error: row 2, column <row>: ")
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
            assert len(points) == jsonio.read_doc(stats)["plotted"]


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
