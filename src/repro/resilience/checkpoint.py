"""The journal behind every resumable job: training and scans.

Both long jobs of the pipeline split into independent units — one
converged cluster kernel in multiple-kernel training, one region shard
in a layout scan — so both resume the same way.  A :class:`Journal` is a
directory holding

- ``journal.jsonl`` — line 1 is the header ``{identity, created_unix}``;
  every further line records one completed unit ``{key, file, ...}``,
  appended and fsynced as the unit completes;
- ``unit_<key>.npz`` — one payload per completed unit, written
  atomically (tmp file + ``os.replace``) before its journal line;
- ``epoch.json`` — in a fleet coordinator's scan journal, its leader
  epoch (:mod:`repro.fleet.coordinator`).

The *identity* names everything a unit's payload depends on beyond its
own key (format version, training data and config, model, shard grid);
the *key* names the unit itself.  :meth:`Journal.begin` reuses a
journaled unit exactly when the header has the run's identity and the
unit's key is in the run's plan.  Training keys are kernel indices under
a :func:`training_fingerprint` identity; scan keys are a shard's grid
cell plus its influence-region geometry hash (see
:mod:`repro.work.shard`), so a scan resumed after an edit still reuses
every shard the edit did not touch.

A journal with a different identity is discarded with a warning, never
mixed in.  A torn journal line, an unreadable payload or one that fails
to decode costs that one unit, never the resume.
"""

from __future__ import annotations

import json
import os
import time
from hashlib import sha256
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar, Union
from zipfile import BadZipFile

from repro.errors import CheckpointError
from repro.obs import get_logger

#: Bump on breaking changes to the training journal's identity or payload.
CHECKPOINT_VERSION = 2

_log = get_logger("resilience.checkpoint")

T = TypeVar("T")


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


class Journal:
    """One directory of content-keyed, individually resumable work units."""

    NAME = "journal.jsonl"
    #: The leader-epoch sidecar; :meth:`clear` removes it with the units.
    EPOCH = "epoch.json"

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    def _path(self) -> Path:
        return self.directory / self.NAME

    def _payload_path(self, key: str) -> Path:
        return self.directory / f"unit_{key}.npz"

    def _read(self) -> tuple[Optional[dict], list[dict]]:
        """The header and the unit lines; torn lines are skipped."""
        try:
            text = self._path().read_text(encoding="utf-8")
        except FileNotFoundError:
            return None, []
        except OSError as exc:
            _log.warning(
                "journal_unreadable", path=str(self._path()), error=str(exc)
            )
            return None, []
        documents = []
        for number, line in enumerate(text.splitlines()):
            try:
                document = json.loads(line)
            except ValueError:
                document = None
            if isinstance(document, dict):
                documents.append(document)
            else:
                # A crash mid-append truncates the final line; that unit
                # is simply redone.
                _log.warning(
                    "journal_torn_line", path=str(self._path()), line=number
                )
        if not documents:
            return None, []
        return documents[0], documents[1:]

    # ------------------------------------------------------------------
    def begin(
        self,
        identity: dict,
        keys: Sequence[str],
        reuse: bool,
        decode: Callable[[bytes, int], T],
    ) -> dict[int, T]:
        """Prepare the journal for a run; return reusable units by position.

        With ``reuse`` and a header of the same ``identity`` (a JSON-plain
        dict), every journaled unit whose key is in ``keys`` is decoded
        with ``decode(payload, position)`` and returned under its
        position in ``keys``.  The journal is then rewritten to hold
        exactly those units; every other payload file is deleted, so
        without ``reuse`` or under another identity the run starts from
        an empty journal with a fresh header.
        """
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create journal directory {self.directory}: {exc}"
            ) from exc
        header, entries = self._read()
        kept: dict[int, T] = {}
        lines: list[dict] = []
        if reuse and header is not None and header.get("identity") == identity:
            position = {key: index for index, key in enumerate(keys)}
            for entry in entries:
                index = position.get(entry.get("key"))
                if index is None or index in kept:
                    continue
                try:
                    raw = self._payload_path(keys[index]).read_bytes()
                    kept[index] = decode(raw, index)
                except (OSError, EOFError, KeyError, ValueError, BadZipFile) as exc:
                    _log.warning(
                        "journal_unit_unreadable", key=keys[index], error=str(exc)
                    )
                    continue
                lines.append(entry)
        elif reuse and header is not None:
            _log.warning(
                "journal_identity_mismatch",
                directory=str(self.directory),
                expected=identity,
                found=header.get("identity"),
            )
        keep = {self._payload_path(entry["key"]).name for entry in lines}
        for path in self.directory.glob("unit_*.npz*"):
            if path.name not in keep:
                path.unlink(missing_ok=True)
        text = "".join(
            json.dumps(line) + "\n"
            for line in [{"identity": identity, "created_unix": time.time()}, *lines]
        )
        tmp = self._path().with_suffix(".jsonl.tmp")
        try:
            with tmp.open("w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self._path())
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise CheckpointError(
                f"cannot write journal {self._path()}: {exc}"
            ) from exc
        return kept

    def record(self, key: str, payload: bytes, **summary) -> None:
        """Persist one completed unit: payload atomically, then its line."""
        path = self._payload_path(key)
        tmp = path.with_suffix(".npz.tmp")
        try:
            tmp.write_bytes(payload)
            os.replace(tmp, path)
            with self._path().open("a", encoding="utf-8") as handle:
                line = {"key": key, "file": path.name, **summary}
                handle.write(json.dumps(line) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise CheckpointError(f"cannot journal unit {path}: {exc}") from exc

    def completed(self) -> list[str]:
        """Keys with a journal line and a payload on disk, in journal order."""
        _, entries = self._read()
        keys = dict.fromkeys(str(entry.get("key")) for entry in entries)
        return [key for key in keys if self._payload_path(key).exists()]

    def clear(self) -> None:
        """Remove every journal artifact (after a successful run)."""
        if not self.directory.exists():
            return
        for path in self.directory.glob("unit_*.npz*"):
            path.unlink(missing_ok=True)
        self._path().unlink(missing_ok=True)
        (self.directory / self.EPOCH).unlink(missing_ok=True)
        try:
            self.directory.rmdir()
        except OSError:
            pass  # directory holds unrelated files; leave it
