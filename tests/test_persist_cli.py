"""Tests for model persistence and the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.core.persist import load_detector, save_detector
from repro.errors import ConfigError, NotFittedError


class TestPersistence:
    @pytest.fixture(scope="class")
    def trained(self, small_benchmark):
        detector = HotspotDetector(DetectorConfig.ours())
        detector.fit(small_benchmark.training)
        return detector

    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_detector(HotspotDetector(), tmp_path / "x.npz")

    def test_roundtrip_margins_identical(self, trained, small_benchmark, tmp_path):
        path = tmp_path / "model.npz"
        save_detector(trained, path)
        loaded = load_detector(path)
        probe = small_benchmark.training.hotspots()[:6]
        assert np.allclose(trained.margins(probe), loaded.margins(probe))

    def test_roundtrip_detection_identical(self, trained, small_benchmark, tmp_path):
        path = tmp_path / "model.npz"
        save_detector(trained, path)
        loaded = load_detector(path)
        original = trained.score(small_benchmark.testing)
        reloaded = loaded.score(small_benchmark.testing)
        assert original.score.hits == reloaded.score.hits
        assert original.score.extras == reloaded.score.extras

    def test_gates_preserved(self, trained, tmp_path):
        path = tmp_path / "model.npz"
        save_detector(trained, path)
        loaded = load_detector(path)
        original_gates = [k.key_set for k in trained.model_.kernels]
        loaded_gates = [k.key_set for k in loaded.model_.kernels]
        assert original_gates == loaded_gates

    def test_feedback_preserved(self, ambit_benchmark, tmp_path):
        detector = HotspotDetector(DetectorConfig.ours())
        detector.fit(ambit_benchmark.training)
        if detector.feedback_ is None:
            pytest.skip("feedback did not train on this fixture")
        path = tmp_path / "model.npz"
        save_detector(detector, path)
        loaded = load_detector(path)
        assert loaded.feedback_ is not None
        probe = ambit_benchmark.training.hotspots()[:4]
        assert np.allclose(
            detector.feedback_.margins(probe), loaded.feedback_.margins(probe)
        )

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ConfigError):
            load_detector(path)

    @pytest.mark.parametrize("scaler", ["minmax", "standard", "none"])
    def test_roundtrip_without_feedback_each_scaler(
        self, scaler, small_benchmark, tmp_path
    ):
        """A feedback-free detector round-trips for every scaler type."""
        from dataclasses import replace

        base = DetectorConfig.with_topology()  # use_feedback=False
        config = replace(base, svm=replace(base.svm, scale_features=scaler))
        detector = HotspotDetector(config)
        detector.fit(small_benchmark.training)
        assert detector.feedback_ is None
        kernel_model = detector.model_.kernels[0].model
        assert kernel_model.scale_features == scaler

        path = tmp_path / f"model_{scaler}.npz"
        save_detector(detector, path)
        loaded = load_detector(path)

        probe = (
            small_benchmark.training.hotspots()[:6]
            + small_benchmark.training.non_hotspots()[:6]
        )
        assert np.allclose(detector.margins(probe), loaded.margins(probe))
        assert np.array_equal(
            detector.predict_clips(probe), loaded.predict_clips(probe)
        )
        # The ablation switches travel with the archive.
        assert loaded.feedback_ is None
        assert loaded.config.use_feedback is False
        assert loaded.config.use_removal is False

    def test_switches_roundtrip_affect_detect(self, trained, tmp_path):
        """use_removal must survive persistence (it changes detect())."""
        from dataclasses import replace

        trimmed = HotspotDetector(replace(trained.config, use_removal=False))
        trimmed.model_ = trained.model_
        trimmed.feedback_ = trained.feedback_
        path = tmp_path / "noremoval.npz"
        save_detector(trimmed, path)
        loaded = load_detector(path)
        assert loaded.config.use_removal is False

    def test_read_archive_info(self, trained, tmp_path):
        from repro.core.persist import read_archive_info

        path = tmp_path / "model.npz"
        save_detector(trained, path, name="release-1")
        info = read_archive_info(path)
        assert info["kernels"] == len(trained.model_.kernels)
        assert info["feedback"] == (trained.feedback_ is not None)
        assert info["registry"]["name"] == "release-1"
        assert info["spec"]["core_side"] == trained.config.spec.core_side
        with pytest.raises(ConfigError):
            np.savez(tmp_path / "junk.npz", a=np.zeros(3))
            read_archive_info(tmp_path / "junk.npz")

    @pytest.mark.parametrize("mode", ["exact", "fast"])
    def test_archive_with_compute_mode_loads(
        self, mode, trained, small_benchmark, tmp_path
    ):
        """Older archives record a ``compute`` mode in each feature config;
        they load and scan exactly like a fresh save."""
        fresh = tmp_path / "fresh.npz"
        save_detector(trained, fresh)
        with np.load(fresh) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["features"]["compute"] = mode
        if meta["feedback"] is not None:
            meta["feedback"]["features"]["compute"] = mode
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        old = tmp_path / "old.npz"
        np.savez(old, **arrays)

        layout = small_benchmark.testing.layout
        expected = load_detector(fresh).detect(layout).reports
        reports = load_detector(old).detect(layout).reports
        assert expected
        assert [clip.core for clip in reports] == [clip.core for clip in expected]

    def test_feature_fingerprint_is_pinned(self):
        """On-disk feature blobs are keyed by this hash: a change to it
        silently cold-starts every existing feature cache."""
        from repro.cache.keys import feature_fingerprint
        from repro.features.vector import FeatureConfig

        assert feature_fingerprint(FeatureConfig()) == (
            "763efb0f930e3b5cd489dfea122d20ffe7242076def113ae0329f1bd2cefc8db"
        )


class TestCli:
    def test_generate_then_train_then_scan(self, tmp_path):
        out = tmp_path / "data"
        assert (
            cli_main(
                [
                    "generate",
                    "--benchmark",
                    "benchmark5",
                    "--scale",
                    "0.5",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        clips = out / "benchmark5_training_clips.gds"
        layout = out / "benchmark5_testing_layout.gds"
        truth = out / "benchmark5_truth.json"
        assert clips.exists() and layout.exists() and truth.exists()
        truth_doc = json.loads(truth.read_text())
        assert truth_doc["hotspot_cores"]

        model = tmp_path / "model.npz"
        assert (
            cli_main(["train", "--clips", str(clips), "--model", str(model)]) == 0
        )
        assert model.exists()

        markers = tmp_path / "markers.gds"
        assert (
            cli_main(
                [
                    "scan",
                    "--model",
                    str(model),
                    "--layout",
                    str(layout),
                    "--report",
                    str(markers),
                ]
            )
            == 0
        )
        assert markers.exists()

        assert cli_main(["info", "--model", str(model)]) == 0

    def test_score_json(self, capsys):
        assert (
            cli_main(
                ["score", "--benchmark", "benchmark5", "--scale", "0.4", "--json"]
            )
            == 0
        )
        out = capsys.readouterr().out.strip().splitlines()[-1]
        payload = json.loads(out)
        assert payload["benchmark"] == "benchmark5"
        assert 0.0 <= payload["accuracy"] <= 1.0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["generate", "--benchmark", "nope"])

    @pytest.mark.parametrize("command", ["scan", "serve", "fleet-scan", "fleet-coordinator"])
    def test_compute_flag_rejected(self, command, capsys):
        """There is one compute path, so no command takes ``--compute``."""
        inputs = ["--model", "m.npz"] + ([] if command == "serve" else ["--layout", "l.gds"])
        with pytest.raises(SystemExit) as excinfo:
            cli_main([command, *inputs, "--compute", "fast"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --compute fast" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "arguments",
        [
            ["scan", "--model", "m.npz", "--layout", "l.gds", "--backend", "process"],
            ["train", "--clips", "c.gds", "--model", "m.npz", "--parallel"],
        ],
        ids=["scan-backend", "train-parallel"],
    )
    def test_thread_backend_flags_rejected(self, arguments, capsys):
        """Scans always run through the shard driver and training is
        serial, so neither execution switch exists."""
        with pytest.raises(SystemExit) as excinfo:
            cli_main(arguments)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCliExplain:
    def test_explain_site(self, tmp_path, capsys):
        out = tmp_path / "data"
        cli_main(
            ["generate", "--benchmark", "benchmark5", "--scale", "0.4", "--out", str(out)]
        )
        model = tmp_path / "model.npz"
        cli_main(
            ["train", "--clips", str(out / "benchmark5_training_clips.gds"), "--model", str(model)]
        )
        truth = json.loads((out / "benchmark5_truth.json").read_text())
        x, y, _, _ = truth["hotspot_cores"][0]
        assert (
            cli_main(
                [
                    "explain",
                    "--model",
                    str(model),
                    "--layout",
                    str(out / "benchmark5_testing_layout.gds"),
                    "--x",
                    str(x),
                    "--y",
                    str(y),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "verdict" in output
