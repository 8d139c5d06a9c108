"""Checkpoint/resume for multiple-kernel training.

Kernel training is the long pole of a ``repro train`` run, and kernels
are independent — so the natural checkpoint unit is one converged
cluster kernel.  A :class:`CheckpointStore` is a directory holding

- ``meta.json`` — the run *fingerprint* (a hash of the training set's
  geometry and the detector config) plus the expected kernel count, and
- ``kernel_NNNN.npz`` — one archive per completed kernel, written
  atomically (tmp file + ``os.replace``) as each kernel converges.

A killed run (SIGTERM, OOM, injected fault, stage deadline) leaves the
completed kernels on disk; ``repro train --resume`` reloads them and
trains only the remainder.  The fingerprint guards against resuming
against different data or config: a mismatch discards the stale
checkpoints and starts fresh (with a warning) rather than silently
mixing incompatible kernels.  A corrupt checkpoint file is likewise
skipped and retrained, not fatal.
"""

from __future__ import annotations

import io
import json
import os
import time
from hashlib import sha256
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.errors import CheckpointError
from repro.obs import get_logger

if TYPE_CHECKING:  # core <-> resilience cycle: core modules use faults/quarantine
    from repro.core.training import TrainedKernel

#: Bump on breaking checkpoint-layout changes.
CHECKPOINT_VERSION = 1

_log = get_logger("resilience.checkpoint")


def training_fingerprint(training, config) -> str:
    """Hash of everything that must match for checkpoints to be reusable.

    Covers the training set's geometry (via the observability
    fingerprint) and the detector configuration.
    """
    from repro.obs import config_summary, fingerprint_clipset

    blob = json.dumps(
        {"clips": fingerprint_clipset(training), "config": config_summary(config)},
        sort_keys=True,
        default=str,
    )
    return sha256(blob.encode("utf-8")).hexdigest()


class CheckpointStore:
    """One directory of per-kernel training checkpoints."""

    META_NAME = "meta.json"

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    # ------------------------------------------------------------------
    def _meta_path(self) -> Path:
        return self.directory / self.META_NAME

    def _kernel_path(self, index: int) -> Path:
        return self.directory / f"kernel_{index:04d}.npz"

    def _read_meta(self) -> Optional[dict]:
        try:
            return json.loads(self._meta_path().read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            _log.warning("checkpoint_meta_unreadable", path=str(self._meta_path()), error=str(exc))
            return None

    # ------------------------------------------------------------------
    def begin(self, fingerprint: str, kernels: int, resume: bool = True) -> dict[int, TrainedKernel]:
        """Prepare the store for a run; return resumable kernels by index.

        With ``resume`` and a matching fingerprint, previously completed
        kernels are loaded and returned; otherwise the store is cleared
        and an empty mapping comes back.  Always (re)writes ``meta.json``
        so a run killed before its first kernel still leaves a coherent
        store.
        """
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create checkpoint directory {self.directory}: {exc}"
            ) from exc
        meta = self._read_meta()
        compatible = (
            meta is not None
            and meta.get("version") == CHECKPOINT_VERSION
            and meta.get("fingerprint") == fingerprint
            and meta.get("kernels") == kernels
        )
        loaded: dict[int, TrainedKernel] = {}
        if compatible and resume:
            loaded = self._load_kernels(kernels)
        else:
            if meta is not None and resume:
                _log.warning(
                    "checkpoint_fingerprint_mismatch",
                    directory=str(self.directory),
                    expected=fingerprint[:16],
                    found=str(meta.get("fingerprint"))[:16],
                )
            self._clear_kernels()
        payload = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "kernels": kernels,
            "created_unix": time.time(),
        }
        try:
            self._meta_path().write_text(
                json.dumps(payload, indent=2) + "\n", encoding="utf-8"
            )
        except OSError as exc:
            raise CheckpointError(f"cannot write checkpoint meta: {exc}") from exc
        return loaded

    # ------------------------------------------------------------------
    def save_kernel(self, index: int, kernel: "TrainedKernel") -> None:
        """Atomically persist one completed kernel."""
        from repro.core.persist import encode_trained_kernel

        arrays: dict = {}
        meta = encode_trained_kernel(kernel, arrays, "k")
        meta["index"] = index
        arrays["meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        ).copy()
        path = self._kernel_path(index)
        tmp = path.with_suffix(".npz.tmp")
        try:
            buffer = io.BytesIO()
            np.savez_compressed(buffer, **arrays)
            tmp.write_bytes(buffer.getvalue())
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc

    def _load_kernels(self, kernels: int) -> "dict[int, TrainedKernel]":
        from repro.core.persist import decode_trained_kernel

        loaded: dict = {}
        for path in sorted(self.directory.glob("kernel_*.npz")):
            try:
                with np.load(path) as archive:
                    arrays = {name: archive[name] for name in archive.files}
                meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
                index = int(meta["index"])
                if not 0 <= index < kernels:
                    raise ValueError(f"kernel index {index} out of range")
                loaded[index] = decode_trained_kernel(meta, arrays, "k")
            except (OSError, KeyError, ValueError) as exc:
                # A torn write (crash mid-save) must cost one kernel's
                # retraining, never the whole resume.
                _log.warning(
                    "checkpoint_kernel_unreadable", path=str(path), error=str(exc)
                )
        return loaded

    def completed_indices(self) -> list[int]:
        """Indices that already have a checkpoint file on disk."""
        out = []
        for path in sorted(self.directory.glob("kernel_*.npz")):
            try:
                out.append(int(path.stem.split("_")[1]))
            except (IndexError, ValueError):
                continue
        return out

    # ------------------------------------------------------------------
    def _clear_kernels(self) -> None:
        for path in self.directory.glob("kernel_*.npz"):
            path.unlink(missing_ok=True)
        for path in self.directory.glob("kernel_*.npz.tmp"):
            path.unlink(missing_ok=True)

    def clear(self) -> None:
        """Remove every checkpoint artifact (after a successful run)."""
        if not self.directory.exists():
            return
        self._clear_kernels()
        self._meta_path().unlink(missing_ok=True)
        try:
            self.directory.rmdir()
        except OSError:
            pass  # directory holds unrelated files; leave it
