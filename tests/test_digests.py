"""Every command's output on a small fixed scenario, pinned by SHA-256.

One noisy run with dropout per camera model (aligned and pinhole) goes
through ``calibrate`` (max and mean), ``reconstruct`` (best, average_all,
no depth correction, no vertical correction), ``evaluate --report`` (plain
and bounded), ``export`` (csv, ply, svg) and ``detmetrics``.  A seeded
crowded set, many boxes and predictions a frame with tied confidences,
pins ``detmetrics`` where predictions contest boxes, and the files
``simulate`` writes for each noisy run are pinned too.  A change that is
meant to keep behaviour must leave every digest as it is; one that changes
an output on purpose updates the table and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random

import pytest

from gridscope import jsonio
from gridscope.cli import main
from gridscope.detections import parse_detections_file
from gridscope.evaluation import Segment, write_segments
from gridscope.metrics import GT_HEADER


def _scenario_doc(mode: str, noise: float) -> dict:
    return {
        "format_version": 1,
        "seed": 17,
        "n_frames": 60,
        "noise_sigma_px": noise,
        "confidence_jitter": 0.05 if noise else 0.0,
        "dropout": {"default": 0.15 if noise else 0.0},
        "grid_a": {"w_mm": 390.0, "d_mm": 390.0, "h_mm": 850.0},
        "cameras": {
            "mode": mode,
            "resolution": [1920, 1080],
            "side_distance_mm": 245.0,
        },
        "grid_b": {"origin": [120.0, 120.0, 100.0], "size": [150.0, 150.0, 400.0]},
        "path": {
            "face": "y_max",
            "speed_mm_s": 20.0,
            "loop": True,
            "waypoints": [[150.0, 270.0, 200.0], [250.0, 270.0, 200.0]],
        },
    }


RECONSTRUCT_VARIANTS = {
    "best": [],
    "average_all": ["--pair-strategy", "average_all"],
    "no_depth": ["--no-depth-correction"],
    "no_vertical": ["--no-vertical-correction"],
}


def _simulate(root, name: str, mode: str, noise: float):
    scenario = root / f"{name}.json"
    jsonio.write_doc(scenario, _scenario_doc(mode, noise))
    out = root / name
    assert main(["simulate", str(scenario), "--out", str(out)]) == 0
    return out


def _run_all(root, mode: str) -> dict[str, str]:
    """Run every command once; returns each output file's SHA-256."""
    sim = _simulate(root, "sim", mode, noise=1.5)
    outputs = {}

    def run(name: str, argv: list[str]):
        path = root / name
        flag = "--report" if argv[0] in ("evaluate", "detmetrics") else "--out"
        assert main([*argv, flag, str(path)]) == 0
        outputs[name] = path

    for agg in ("max", "mean"):
        run(f"calibration_{agg}.json",
            ["calibrate", str(sim / "picks.json"), "--mde-aggregate", agg])
    cal = str(root / "calibration_max.json")
    detections = sorted(str(p) for p in sim.glob("detections_*.csv"))
    for variant, flags in RECONSTRUCT_VARIANTS.items():
        stats = root / f"stats_{variant}.json"
        run(f"track_{variant}.csv",
            ["reconstruct", *detections, "--calibration", cal,
             "--stats", str(stats), *flags])
        outputs[stats.name] = stats

    segments = root / "segments.csv"
    write_segments(
        segments,
        [Segment("leg0", 0.0, 1000.0, "y_max"), Segment("leg1", 1000.0, 2500.0, "y_max")],
    )
    evaluate = ["evaluate", "--track", str(root / "track_best.csv"),
                "--segments", str(segments), "--calibration", cal,
                "--grid-b", "160,120,100,80,150,400",
                "--stats", str(root / "stats_best.json")]
    run("report_plain.json", evaluate)
    run("report_bounded.json", [*evaluate, "--bounded"])
    for fmt in ("csv", "ply", "svg"):
        run(f"export.{fmt}",
            ["export", "--track", str(root / "track_average_all.csv"),
             "--calibration", cal, "--format", fmt])

    # detmetrics: the noisy side0 boxes against the noise-free ones
    clean = _simulate(root, "clean", mode, noise=0.0)
    truth = parse_detections_file(clean / "detections_side0.csv").detections
    gt = root / "ground_truth.csv"
    gt.write_text(
        ",".join(GT_HEADER) + "\n"
        + "".join(
            f"{d.frame_index},{d.u_min!r},{d.v_min!r},{d.u_max!r},{d.v_max!r}\n"
            for d in truth
        )
    )
    run("detmetrics.json",
        ["detmetrics", "--predictions", str(sim / "detections_side0.csv"),
         "--ground-truth", str(gt)])
    return {
        name: hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in outputs.items()
    }


# Recorded before calibrations refused a repeated camera role.
DIGESTS = {
    "aligned": {
        "calibration_max.json": "315c588bdff8ce6b31a41da84a91aa7e879b9d9a8d9cc2bc4fdc95dd557f77e8",
        "calibration_mean.json": "315c588bdff8ce6b31a41da84a91aa7e879b9d9a8d9cc2bc4fdc95dd557f77e8",
        "track_best.csv": "0e5c01fd497fcd963df442efc75c8cf2dfc69c3d72442408c858c7c41f99cf37",
        "stats_best.json": "a1c91934eba4b5984423f169aa50638df7fac7a4fa6d95d44b79d41c36c3c523",
        "track_average_all.csv": "6e953f6958d3c9cadd1d3e17519cb154d367c8a847b22ab59176b72db0e54e19",
        "stats_average_all.json": "a1c91934eba4b5984423f169aa50638df7fac7a4fa6d95d44b79d41c36c3c523",
        "track_no_depth.csv": "58f7972d212b900c0fd4c4351ade375e34f37956422657b3b9a616c2fddb7959",
        "stats_no_depth.json": "a1c91934eba4b5984423f169aa50638df7fac7a4fa6d95d44b79d41c36c3c523",
        "track_no_vertical.csv": "0e5c01fd497fcd963df442efc75c8cf2dfc69c3d72442408c858c7c41f99cf37",
        "stats_no_vertical.json": "a1c91934eba4b5984423f169aa50638df7fac7a4fa6d95d44b79d41c36c3c523",
        "report_plain.json": "fe30f1eb6dd0dc26dec4cc91e51e22a293d1bd25661f47d80d25c133baaee668",
        "report_bounded.json": "ae41261335696c72ba82a8d1a94caf934b8bd9c6298ad9102bf3ff0f47fdacac",
        "export.csv": "6e953f6958d3c9cadd1d3e17519cb154d367c8a847b22ab59176b72db0e54e19",
        "export.ply": "878c730657529a4c116cb2fcc30d8ffe21490864dac0aa11cb53e1b792c8276a",
        "export.svg": "fe521d9d34437135af36ac23f56164ddcce4cb34f670507450f652104f023326",
        "detmetrics.json": "3c90e1038a5f8f20541dd6914d600c48e6db5e8122fb4fba64ddbcf66c2ac5ac",
    },
    "pinhole": {
        "calibration_max.json": "bb853edbba33b3c59bc1600938ef83e1536d903c01b3a021efa6763d9ca80da3",
        "calibration_mean.json": "279297cdf26d62c80e4b00fa5c082fada55eda3e9471a76105fa26f2b93f053a",
        "track_best.csv": "06ede4768e82a9e9efd1c1426374e12e22bd15dc61dd1e9d3fddccc6fee34734",
        "stats_best.json": "a1c91934eba4b5984423f169aa50638df7fac7a4fa6d95d44b79d41c36c3c523",
        "track_average_all.csv": "28e28e24ec21797abdc3ab35766f5af52e1678376e60e1cdffdfa7c5cf07450d",
        "stats_average_all.json": "a1c91934eba4b5984423f169aa50638df7fac7a4fa6d95d44b79d41c36c3c523",
        "track_no_depth.csv": "1a40225153ac381322204d62336c2d4425bd8b1d7511bddfbaf1cadcefab501a",
        "stats_no_depth.json": "a14b4c7a244eb2627c5a82ebcc3c5be33b2e6969b923afac54f8f5717756bbfc",
        "track_no_vertical.csv": "ede05d1edd1a74b3429d4b11675481d5f3dd90857c58f96219d1435492726965",
        "stats_no_vertical.json": "a14b4c7a244eb2627c5a82ebcc3c5be33b2e6969b923afac54f8f5717756bbfc",
        "report_plain.json": "4399e39032da1790a5d41029cc7e3f671faedb08b56a846120ad36d1cf15c792",
        "report_bounded.json": "650218bef374c27566717d81be26ee13e440bd1e37393f3aa81473f9283776f6",
        "export.csv": "28e28e24ec21797abdc3ab35766f5af52e1678376e60e1cdffdfa7c5cf07450d",
        "export.ply": "ae9b25965010fd07c90dd440b290be508d5b4fe4defbb3e942950b0dffbccfd2",
        "export.svg": "24f11f708404a0043fcc6483761d5af08ca8fc0a4c78e6d386a5b6f869b9bd88",
        "detmetrics.json": "3c90e1038a5f8f20541dd6914d600c48e6db5e8122fb4fba64ddbcf66c2ac5ac",
    },
}


@pytest.mark.parametrize("mode", ["aligned", "pinhole"])
def test_output_digests(mode, tmp_path, capsys):
    got = _run_all(tmp_path, mode)
    capsys.readouterr()
    assert got == DIGESTS[mode]


# What ``simulate`` writes for the noisy run of each camera model.  The
# detections' pixel noise goes through math.log, math.cos and math.sin, so
# these entries assume this platform's libm: a libm that rounds one of them
# otherwise may change a detections digest without a change in gridscope.
SIMULATE_DIGESTS = {
    "aligned": {
        "detections_side0.csv": "5d288336d9a29fbc7f814759586fff5e5295a0709419aab70a730c92a44683d4",
        "detections_side1.csv": "3aa1d70c366af33d101778c2a2bc7d2a940ef134f75472d2ebaa6e52ee64fa13",
        "detections_side2.csv": "39747a8bf67dfcb28b09bb00d49337cb3cf4ff8fd7b7a23561b55e40b7e49e6a",
        "detections_side3.csv": "949d98d65f57bb7efe2bae9d1f45e10bbf0fe10340eb0183ef33ed7a4d1a52a3",
        "detections_top.csv": "27de4b0356a3885af002ef1cbdc53dbe10dfd8a2b9d149fbd4addc820b552566",
        "picks.json": "8bbe06fe6705dc9971e7e7673f819e803abe25567af9b99ffd65fa5763c97f51",
        "truth.csv": "4461bc4b9113e6e524442c56d682cf65071388ee16a4964fd557a19da1b7f84d",
    },
    "pinhole": {
        "detections_side0.csv": "fa4ad35a3409c0b323a20bca9fc53b58a715cd09b4599b5719d47f347058c321",
        "detections_side1.csv": "213a8c99add89f285504f14d3007319d6247d6c8e9981e3efd79336d43d29a46",
        "detections_side2.csv": "562d5672cb2f50ab4aae5148f3d0166f2b166d51c323250c7021fae28f7a407b",
        "detections_side3.csv": "c878a21b0ec59d531c99c1c18bb2aacec99a680e2c305f6ac52c707436ea3dd5",
        "detections_top.csv": "db8ceee956970a564194be519c303dd3e6a4bc04f29765749f6f6ad6309f2510",
        "picks.json": "2844a06cf92828c770f70a68fe69f32c91f9254c85ac98f1493637c1f2a1ebdd",
        "truth.csv": "4461bc4b9113e6e524442c56d682cf65071388ee16a4964fd557a19da1b7f84d",
    },
}


@pytest.mark.parametrize("mode", ["aligned", "pinhole"])
def test_simulate_digests(mode, tmp_path, capsys):
    """Every file ``simulate`` writes, by name and SHA-256; the detections'
    entries hold only where libm rounds as it did when they were recorded
    (see SIMULATE_DIGESTS)."""
    out = _simulate(tmp_path, "sim", mode, noise=1.5)
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == SIMULATE_DIGESTS[mode]


def _crowded_detmetrics(root) -> tuple[str, str]:
    """Five overlapping boxes and eight predictions a frame over 300 frames.

    Confidences come from four values, so ranks tie, and predictions sit
    near one box, straddle two or land nowhere, so several predictions
    contest one box at some thresholds and not at others.  Returns the
    SHA-256 of the report and of stdout, with the report path as its name.
    """
    rng = random.Random(29)
    truth, preds = [], []
    for f in range(300):
        frame = str(f)
        boxes = []
        for k in range(5):
            u, v = 18.0 * k + rng.randint(0, 6), float(rng.randint(0, 12))
            w, h = rng.uniform(20.0, 36.0), rng.uniform(20.0, 36.0)
            boxes.append((u, v, u + w, v + h))
            truth.append(f"{frame},{u!r},{v!r},{u + w!r},{v + h!r}\n")
        for _ in range(8):
            u0, v0, u1, v1 = rng.choice(boxes)
            kind = rng.random()
            if kind < 0.15:  # nowhere near a box
                u0, v0, u1, v1 = 400.0, 400.0, 420.0, 420.0
            elif kind < 0.3:  # between two boxes
                b0, b1 = rng.sample(boxes, 2)
                u0, v0, u1, v1 = ((a + b) / 2.0 for a, b in zip(b0, b1))
            du, dv = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            box = (u0 + du, v0 + dv, u1 + du + rng.uniform(-1.5, 1.5),
                   v1 + dv + rng.uniform(-1.5, 1.5))
            conf = rng.choice((0.4, 0.6, 0.6, 0.8))
            preds.append(f"det,{frame},0.0,{','.join(map(repr, box))},{conf!r}\n")
    predictions, gt = root / "crowded_preds.csv", root / "crowded_gt.csv"
    predictions.write_text(
        "camera_id,frame_index,timestamp_ms,u_min,v_min,u_max,v_max,confidence\n"
        + "".join(preds)
    )
    gt.write_text(",".join(GT_HEADER) + "\n" + "".join(truth))
    report = root / "crowded.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["detmetrics", "--predictions", str(predictions),
                     "--ground-truth", str(gt), "--report", str(report)])
    assert code == 0
    return (
        hashlib.sha256(report.read_bytes()).hexdigest(),
        hashlib.sha256(stdout.getvalue().replace(str(report), report.name).encode())
        .hexdigest(),
    )


# Recorded before detmetrics read and matched its inputs as columns.
CROWDED_DIGESTS = (
    "06e1ec8328cc46640815b5116a997839c3a8c9a0dc6ba6986fa374c04be194ad",
    "8f5a9fff40d06ef5941ff3441b8837234fb52dd024bcd731ac2740041bf8b7af",
)


def test_crowded_detmetrics_digests(tmp_path):
    assert _crowded_detmetrics(tmp_path) == CROWDED_DIGESTS
