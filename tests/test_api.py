"""Public API surface tests: imports, exports, error hierarchy."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import errors


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_facade_classes_importable(self):
        from repro import (
            Clip,
            ClipLabel,
            ClipSet,
            ClipSpec,
            DetectorConfig,
            HotspotDetector,
            Layout,
            generate_benchmark,
        )

        assert HotspotDetector is not None

    @pytest.mark.parametrize(
        "module",
        sorted(
            f"repro.{info.name}"
            for info in pkgutil.iter_modules(repro.__path__)
            if info.ispkg
        ),
    )
    def test_subpackage_all_exports(self, module):
        imported = __import__(module, fromlist=["__all__"])
        for name in imported.__all__:
            assert getattr(imported, name, None) is not None, f"{module}.{name}"


    def test_examples_and_benchmarks_import(self):
        """Every module under examples/ and benchmarks/ imports, so a name
        deleted from ``repro`` fails here rather than when that file is
        next run.  In a subprocess: the benches import their own
        ``conftest``, which would clash with this suite's."""
        root = Path(__file__).resolve().parent.parent
        paths = sorted((root / "examples").glob("*.py"))
        paths += sorted((root / "benchmarks").glob("*.py"))
        script = (
            "import runpy, sys\n"
            "for path in sys.argv[1:]:\n"
            "    runpy.run_path(path, run_name='imported')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root / "benchmarks"), env.get("PYTHONPATH", "")]
        )
        result = subprocess.run(
            [sys.executable, "-c", script, *map(str, paths)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert len(paths) > 2
        assert result.returncode == 0, result.stderr

class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_specific_parents(self):
        assert issubclass(errors.GdsiiRecordError, errors.GdsiiError)
        assert issubclass(errors.NotFittedError, errors.SvmError)
        assert issubclass(errors.ConvergenceError, errors.SvmError)

    def test_catchable_at_base(self):
        from repro.geometry.rect import Rect

        with pytest.raises(errors.ReproError):
            Rect(0, 0, 0, 0)

    def test_domain_errors_not_builtin_leaks(self):
        """Library-specific failures raise ReproError subclasses."""
        from repro.data.patterns import motif_by_name
        from repro.layout.clip import ClipSpec

        with pytest.raises(errors.DataError):
            motif_by_name("bogus")
        with pytest.raises(errors.LayoutError):
            ClipSpec(core_side=0, clip_side=10)
