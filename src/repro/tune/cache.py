"""Persistent tuning cache: measured kernel schedules as an artifact.

A :class:`TuningCache` is the tuner's output and plan compilation's
input — a versioned, schema-validated JSON artifact mapping
``(conv geometry key, device profile id)`` to the measured-best
:class:`~repro.core.kernel_config.KernelConfig` for that workload,
mirroring the :mod:`repro.hw.device` profile artifact conventions
(schema string + version, typed :class:`TuningError`, problem-list
oracle, save/load/list/diff helpers).

The device-profile id is part of the key on purpose: a schedule tuned on
one calibrated device says nothing about another, so the same geometry
under a different profile id must *miss* and fall back to the default
(bit-identical) schedule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.kernel_config import KernelConfig, validate_kernel_config
from repro.tune.geometry import ConvGeometryKey

TUNING_SCHEMA = "repro.tuning_cache"
#: v2 dropped the K-blocking knob from the stored configs; older
#: artifacts name a schedule the kernels no longer have and must be re-tuned.
TUNING_SCHEMA_VERSION = 2


class TuningError(ValueError):
    """A tuning-cache artifact failed schema validation or IO."""


@dataclass(frozen=True)
class TuningEntry:
    """One measured tuning result: a geometry's winning schedule.

    ``best_us`` / ``default_us`` are the median microbench times of the
    winner and of :data:`~repro.core.kernel_config.DEFAULT_CONFIG` from
    the same search, so consumers can see the claimed gain without
    re-measuring; ``candidates`` / ``repeats`` record how hard the search
    looked.
    """

    geometry: ConvGeometryKey
    device_profile_id: str
    config: KernelConfig
    best_us: float
    default_us: float
    candidates: int
    repeats: int

    @property
    def key(self) -> tuple[str, str]:
        return (self.geometry.key, self.device_profile_id)

    @property
    def speedup(self) -> float:
        """Measured default-over-best ratio (>1 means the winner is faster)."""
        return self.default_us / self.best_us if self.best_us > 0 else 1.0

    def to_json(self) -> dict:
        return {
            "geometry": self.geometry.to_json(),
            "device_profile_id": self.device_profile_id,
            "config": self.config.to_json(),
            "best_us": float(self.best_us),
            "default_us": float(self.default_us),
            "candidates": int(self.candidates),
            "repeats": int(self.repeats),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TuningEntry":
        problems = _entry_problems(obj, "entry")
        if problems:
            raise TuningError("invalid tuning entry: " + "; ".join(problems))
        return cls(
            geometry=ConvGeometryKey.from_json(obj["geometry"]),
            device_profile_id=obj["device_profile_id"],
            config=KernelConfig.from_json(obj["config"]),
            best_us=float(obj["best_us"]),
            default_us=float(obj["default_us"]),
            candidates=int(obj["candidates"]),
            repeats=int(obj["repeats"]),
        )


@dataclass(frozen=True)
class TuningCache:
    """A named collection of :class:`TuningEntry` records."""

    name: str
    entries: tuple[TuningEntry, ...] = ()
    schema_version: int = TUNING_SCHEMA_VERSION

    def lookup(
        self, geometry_key: str, device_profile_id: str
    ) -> TuningEntry | None:
        """The entry for ``(geometry_key, device_profile_id)``, or None.

        Both halves of the key must match — an entry tuned under a
        different device profile never steers this one's plans.
        """
        for entry in self.entries:
            if entry.key == (geometry_key, device_profile_id):
                return entry
        return None

    def with_entry(self, entry: TuningEntry) -> "TuningCache":
        """A copy with ``entry`` added, replacing any same-key entry."""
        kept = tuple(e for e in self.entries if e.key != entry.key)
        return replace(self, entries=kept + (entry,))

    def __len__(self) -> int:
        return len(self.entries)

    # ---------------------------------------------------------- (de)serialise
    def to_json(self) -> dict:
        return {
            "schema": TUNING_SCHEMA,
            "schema_version": self.schema_version,
            "name": self.name,
            "entries": [e.to_json() for e in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TuningCache":
        problems = validate_tuning(obj)
        if problems:
            raise TuningError("invalid tuning cache: " + "; ".join(problems))
        return cls(
            name=obj["name"],
            entries=tuple(TuningEntry.from_json(e) for e in obj["entries"]),
            schema_version=int(obj["schema_version"]),
        )


def _entry_problems(entry, label: str) -> list[str]:
    problems: list[str] = []
    if not isinstance(entry, dict):
        return [f"{label} must be an object, got {type(entry).__name__}"]
    geometry = entry.get("geometry")
    if not isinstance(geometry, dict):
        problems.append(f"{label}.geometry must be an object")
    else:
        try:
            ConvGeometryKey.from_json(geometry)
        except ValueError as exc:
            problems.append(f"{label}.geometry: {exc}")
    pid = entry.get("device_profile_id")
    if not isinstance(pid, str) or not pid:
        problems.append(f"{label}.device_profile_id must be a non-empty string")
    problems.extend(
        f"{label}.config: {p}"
        for p in validate_kernel_config(entry.get("config"))
    )
    for key in ("best_us", "default_us"):
        value = entry.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{label}.{key} must be a number")
        elif value <= 0:
            problems.append(f"{label}.{key} must be positive")
    for key in ("candidates", "repeats"):
        value = entry.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"{label}.{key} must be an integer")
        elif value < 1:
            problems.append(f"{label}.{key} must be >= 1")
    return problems


def validate_tuning(obj) -> list[str]:
    """Schema oracle for a tuning-cache JSON object.

    Returns every human-readable problem at once (empty when valid),
    mirroring :func:`repro.hw.device.validate_profile`.
    """
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"tuning cache must be a JSON object, got {type(obj).__name__}"]
    if obj.get("schema") != TUNING_SCHEMA:
        problems.append(
            f"schema must be {TUNING_SCHEMA!r}, got {obj.get('schema')!r}"
        )
    version = obj.get("schema_version")
    if not isinstance(version, int):
        problems.append("schema_version must be an integer")
    elif version > TUNING_SCHEMA_VERSION:
        problems.append(
            f"schema_version {version} is newer than supported "
            f"{TUNING_SCHEMA_VERSION}"
        )
    elif version < TUNING_SCHEMA_VERSION:
        problems.append(
            f"schema_version {version} is older than supported "
            f"{TUNING_SCHEMA_VERSION}; re-run the tuner"
        )
    if not isinstance(obj.get("name"), str) or not obj.get("name"):
        problems.append("name must be a non-empty string")
    entries = obj.get("entries")
    if not isinstance(entries, list):
        problems.append("entries must be a list")
        return problems
    seen: set[tuple[str, str]] = set()
    for i, entry in enumerate(entries):
        entry_problems = _entry_problems(entry, f"entries[{i}]")
        problems.extend(entry_problems)
        if entry_problems:
            continue
        key = (
            ConvGeometryKey.from_json(entry["geometry"]).key,
            entry["device_profile_id"],
        )
        if key in seen:
            problems.append(f"entries[{i}] duplicates key {key}")
        seen.add(key)
    return problems


def save_tuning(cache: TuningCache, path: "str | Path") -> Path:
    """Write ``cache`` to ``path`` as versioned JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cache.to_json(), indent=2, sort_keys=True))
    return path


def load_tuning(path: "str | Path") -> TuningCache:
    """Load and schema-validate a tuning-cache artifact.

    Raises :class:`TuningError` (never a bare ``KeyError`` /
    ``JSONDecodeError``) so CLI consumers can fail with a typed message
    and a non-zero exit.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise TuningError(f"cannot read tuning cache {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TuningError(
            f"tuning cache {path} is not valid JSON: {exc}"
        ) from exc
    try:
        return TuningCache.from_json(obj)
    except TuningError as exc:
        raise TuningError(f"tuning cache {path}: {exc}") from exc


def list_tunings(directory: "str | Path") -> list[dict]:
    """Summaries of every tuning-cache artifact under ``directory``.

    Non-tuning JSON files are skipped; invalid tuning-shaped files are
    reported with a ``problems`` entry instead of being silently dropped.
    """
    directory = Path(directory)
    summaries: list[dict] = []
    for path in sorted(directory.glob("*.json")):
        try:
            obj = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(obj, dict) or obj.get("schema") != TUNING_SCHEMA:
            continue
        problems = validate_tuning(obj)
        if problems:
            summaries.append({"path": str(path), "problems": problems})
            continue
        cache = TuningCache.from_json(obj)
        profiles = sorted({e.device_profile_id for e in cache.entries})
        summaries.append(
            {
                "path": str(path),
                "name": cache.name,
                "entries": len(cache.entries),
                "profiles": profiles,
                "tuned": sum(
                    1 for e in cache.entries if not e.config.is_default
                ),
            }
        )
    return summaries


def diff_tunings(a: TuningCache, b: TuningCache) -> dict[str, tuple]:
    """Entry-by-entry differences between two tuning caches.

    Keys are ``"<geometry>@<profile_id>"`` (plus ``"name"``); values are
    ``(a_config_json, b_config_json)`` with ``None`` where one side has
    no entry for that key.
    """
    diffs: dict[str, tuple] = {}
    if a.name != b.name:
        diffs["name"] = (a.name, b.name)
    ea = {e.key: e for e in a.entries}
    eb = {e.key: e for e in b.entries}
    for key in sorted(set(ea) | set(eb)):
        va = ea.get(key)
        vb = eb.get(key)
        ja = None if va is None else va.config.to_json()
        jb = None if vb is None else vb.config.to_json()
        if ja != jb:
            diffs[f"{key[0]}@{key[1]}"] = (ja, jb)
    return diffs
